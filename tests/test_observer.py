"""Tests for the channelized observer."""

import numpy as np
import pytest
from scipy.stats import norm, rankdata

from cinecho.errors import TrainingError
from cinecho.observer import (
    COND_LIMIT,
    ChannelBank,
    central_position,
    channelize_slices,
    hotelling_template,
    lg_channel_bank,
    score_responses,
    train_mscho_from_responses,
)


def _mw_auc(healthy, lesion):
    # midrank Mann-Whitney, used as an independent check here
    scores = np.concatenate([healthy, lesion])
    ranks = rankdata(scores)
    n_h, n_l = len(healthy), len(lesion)
    r_l = ranks[n_h:].sum()
    return (r_l - n_l * (n_l + 1) / 2.0) / (n_l * n_h)


class TestChannelBank:
    def test_center_value_of_gaussian_channel(self):
        bank = lg_channel_bank(32, 32, n_channels=3, spread=10.0)
        center_flat = (32 // 2) * 32 + 32 // 2
        assert bank.matrix[center_flat, 0] == 1.0

    def test_first_order_root(self):
        # with spread^2 = 2 pi, the pixel one unit from center sits at the
        # root of the first Laguerre polynomial
        bank = lg_channel_bank(17, 17, n_channels=2, spread=float(np.sqrt(2 * np.pi)))
        value = bank.matrix[(8 + 1) * 17 + 8, 1]
        assert abs(value) <= 1e-15

    def test_channel0_positive(self):
        bank = lg_channel_bank(64, 64, n_channels=1, spread=10.0)
        assert np.all(bank.matrix[:, 0] > 0)

    def test_orthogonality_crosstalk(self):
        bank = lg_channel_bank(64, 64, n_channels=15, spread=10.0)
        m = bank.matrix
        norms = np.linalg.norm(m, axis=0)
        assert np.all(norms > 0)
        gram = (m.T @ m) / np.outer(norms, norms)
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() <= 0.05

    def test_deterministic(self):
        a = lg_channel_bank(48, 40, n_channels=7, spread=8.0)
        b = lg_channel_bank(48, 40, n_channels=7, spread=8.0)
        assert np.array_equal(a.matrix, b.matrix)

    def test_cached_and_read_only(self):
        bank = lg_channel_bank(48, 40, n_channels=7, spread=8.0)
        assert lg_channel_bank(48, 40, n_channels=7, spread=8.0) is bank
        with pytest.raises(ValueError, match="read-only"):
            bank.matrix[0, 0] = 1.0
        # positional and keyword calls share the bank too
        assert lg_channel_bank(48, 40, 7, 8.0) is bank
        assert lg_channel_bank(64, 64) is lg_channel_bank(64, 64, 15, 10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            lg_channel_bank(32, 32, n_channels=0)
        for spread in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="spread must be finite"):
                lg_channel_bank(32, 32, spread=spread)


def _channelize(plane, bank):
    # the response of one W x H plane, as a one-slice stack
    return channelize_slices(plane[:, :, None], bank, [0])[0]


class TestChannelize:
    def test_zero_slice(self):
        bank = lg_channel_bank(16, 16, n_channels=5)
        assert np.array_equal(_channelize(np.zeros((16, 16)), bank), np.zeros(5))

    def test_channel_zero_projects_onto_itself(self):
        bank = lg_channel_bank(64, 64, n_channels=15, spread=10.0)
        c0 = bank.matrix[:, 0].reshape(64, 64)
        v = _channelize(c0, bank)
        norms = np.linalg.norm(bank.matrix, axis=0)
        assert v[0] == pytest.approx(norms[0] ** 2, rel=1e-12)
        crosstalk = np.abs(v[1:]) / (norms[0] * norms[1:])
        assert np.all(crosstalk <= 0.05)

    def test_linearity(self):
        rng = np.random.default_rng(0)
        bank = lg_channel_bank(16, 16, n_channels=4)
        a = rng.normal(size=(16, 16))
        b = rng.normal(size=(16, 16))
        # doubling is exact in floating point
        assert np.array_equal(_channelize(a + a, bank), 2.0 * _channelize(a, bank))
        lhs = _channelize(a + b, bank)
        rhs = _channelize(a, bank) + _channelize(b, bank)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_dim_mismatch(self):
        bank = lg_channel_bank(16, 16, n_channels=4)
        with pytest.raises(ValueError):
            _channelize(np.zeros((16, 17)), bank)
        with pytest.raises(ValueError):
            channelize_slices(np.zeros((16, 16)), bank, [0])

    def test_channelize_slices_matches_per_slice(self):
        rng = np.random.default_rng(1)
        bank = lg_channel_bank(12, 12, n_channels=4)
        stack = rng.normal(size=(12, 12, 6))
        got = channelize_slices(stack, bank, [1, 3, 4])
        want = np.array([bank.matrix.T @ stack[:, :, k].ravel()
                         for k in (1, 3, 4)])
        assert np.allclose(got, want, rtol=1e-13, atol=0)
        with pytest.raises(ValueError):
            channelize_slices(stack, bank, [6])


def _crafted_classes():
    # sample covariance exactly diag(2, 1) per class, mean difference (1, 1)
    b = np.sqrt(3.0)
    c = np.sqrt(1.5)
    healthy = np.array([[b, 0.0], [-b, 0.0], [0.0, c], [0.0, -c]])
    lesion = healthy + np.array([1.0, 1.0])
    return healthy, lesion


class TestHotellingTemplate:
    def test_analytic_two_channel(self):
        healthy, lesion = _crafted_classes()
        template, mean_diff, cov, ridge = hotelling_template(healthy, lesion)
        assert ridge == 0.0
        assert np.allclose(mean_diff, [1.0, 1.0], rtol=1e-14)
        assert np.allclose(cov, np.diag([2.0, 1.0]), rtol=1e-12)
        assert np.allclose(template, [0.5, 1.0], rtol=1e-12)

    def test_identity_covariance_gives_mean_diff(self):
        a = np.sqrt(1.5)
        healthy = np.array([[a, 0.0], [-a, 0.0], [0.0, a], [0.0, -a]])
        lesion = healthy + np.array([1.0, 0.0])
        template, _, cov, _ = hotelling_template(healthy, lesion)
        assert np.allclose(cov, np.eye(2), rtol=1e-12)
        assert np.allclose(template, [1.0, 0.0], rtol=1e-12, atol=1e-12)

    def test_too_few_samples(self):
        rng = np.random.default_rng(2)
        with pytest.raises(TrainingError):
            hotelling_template(rng.normal(size=(3, 3)), rng.normal(size=(10, 3)))

    def test_identical_samples(self):
        healthy = np.ones((8, 2))
        lesion = np.full((8, 2), 3.0)
        with pytest.raises(TrainingError):
            hotelling_template(healthy, lesion)

    def test_template_equation_residual(self):
        rng = np.random.default_rng(3)
        resp_h = rng.normal(size=(40, 6))
        resp_l = rng.normal(size=(40, 6)) + 0.3
        template, mean_diff, cov, ridge = hotelling_template(resp_h, resp_l)
        residual = (cov + ridge * np.eye(6)) @ template - mean_diff
        assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(mean_diff)

    def test_ridge_ladder_engages_on_singular_covariance(self):
        rng = np.random.default_rng(4)
        base_h = rng.normal(size=(30, 2))
        base_l = rng.normal(size=(30, 2)) + 0.5
        # third coordinate is an exact linear combination: singular covariance
        resp_h = np.column_stack([base_h, base_h.sum(axis=1)])
        resp_l = np.column_stack([base_l, base_l.sum(axis=1)])
        template, mean_diff, cov, ridge = hotelling_template(resp_h, resp_l)
        trace = np.trace(cov)
        assert ridge > 0
        assert any(np.isclose(ridge, f * trace / 3) for f in (1e-12, 1e-9, 1e-6))
        eigs = np.linalg.eigvalsh(cov + ridge * np.eye(3))
        assert eigs[-1] / eigs[0] <= COND_LIMIT
        assert np.all(np.isfinite(template))

    @pytest.mark.oracle
    def test_large_sample_consistency(self):
        rng = np.random.default_rng(5)
        d = 4
        a = rng.normal(size=(d, d))
        sigma = a @ a.T + 0.5 * np.eye(d)
        delta = np.array([1.0, -0.5, 0.25, 0.8])
        chol = np.linalg.cholesky(sigma)
        n = 10_000
        resp_h = rng.normal(size=(n, d)) @ chol.T
        resp_l = rng.normal(size=(n, d)) @ chol.T + delta
        template, _, _, _ = hotelling_template(resp_h, resp_l)
        ideal = np.linalg.solve(sigma, delta)
        assert np.linalg.norm(template - ideal) <= 0.05 * np.linalg.norm(ideal)


def _train(healthy, lesion, bank, slice_range, combiner="hotelling"):
    # the observer on W x H x K arrays: the channel responses of the slice
    # range, then training in response space
    central = central_position(slice_range, healthy[0].shape[2])
    resp_h = np.array([channelize_slices(s, bank, slice_range) for s in healthy])
    resp_l = np.array([channelize_slices(s, bank, slice_range) for s in lesion])
    return train_mscho_from_responses(resp_h, resp_l, central, slice_range,
                                      combiner)


def _score(stack, bank, model):
    # one scalar score for a W x H x K array
    return score_responses(
        channelize_slices(stack, bank, model.slice_range), model)


def _stage1_score(plane, bank, model):
    # the stage-1 score of one W x H plane: template' * its channel response
    return float(model.template @ _channelize(plane, bank))


class TestScoreSlice:
    BANK = lg_channel_bank(16, 16, n_channels=4)

    def _stacks(self):
        # one-slice stacks: stage 1 alone, trained on slice 0
        rng = np.random.default_rng(6)
        healthy = [rng.normal(size=(16, 16, 1)) for _ in range(12)]
        lesion = [rng.normal(size=(16, 16, 1)) + 0.1 for _ in range(12)]
        return healthy, lesion

    def _model(self):
        return _train(*self._stacks(), self.BANK, (0,))

    def test_zero_slice_scores_zero(self):
        model = self._model()
        assert _stage1_score(np.zeros((16, 16)), self.BANK, model) == 0.0

    def test_affine_shift_is_uniform(self):
        rng = np.random.default_rng(7)
        model = self._model()
        slices = [rng.normal(size=(16, 16)) for _ in range(5)]
        shifts = [_stage1_score(s + 5.0, self.BANK, model)
                  - _stage1_score(s, self.BANK, model) for s in slices]
        assert np.allclose(shifts, shifts[0], rtol=1e-9)

    def test_class_mean_separation_nonnegative(self):
        healthy, lesion = self._stacks()
        mean_h, mean_l = (np.mean([_channelize(s[:, :, 0], self.BANK)
                                   for s in stacks], axis=0)
                          for stacks in (healthy, lesion))
        separation = float(self._model().template @ (mean_l - mean_h))
        assert separation >= 0.0


class TestCentralPosition:
    def test_position_of_the_central_slice(self):
        assert central_position((2, 3, 4), 7) == 1
        assert central_position((3,), 7) == 0
        assert central_position((5, 3, 4), 6) == 1

    def test_range_must_hold_the_central_slice_inside_the_depth(self):
        with pytest.raises(ValueError, match="misses the central slice 3"):
            central_position((0, 1), 7)
        with pytest.raises(ValueError, match="misses the central slice 3"):
            central_position((), 7)
        with pytest.raises(ValueError, match="leaves the 7 slices"):
            central_position((3, 7), 7)
        with pytest.raises(ValueError, match="leaves the 7 slices"):
            central_position((-1, 3), 7)


def _toy_stacks(rng, n_per_class, shape=(16, 16, 7), signal=0.6):
    w, h, k = shape
    bump = np.zeros(shape)
    x = np.arange(w)[:, None, None] - w // 2
    y = np.arange(h)[None, :, None] - h // 2
    t = np.arange(k)[None, None, :] - k // 2
    bump = np.exp(-(x ** 2 + y ** 2) / 6.0 - t ** 2 / 2.0)
    healthy = [rng.normal(size=shape) for _ in range(n_per_class)]
    lesion = [rng.normal(size=shape) + signal * bump for _ in range(n_per_class)]
    return healthy, lesion


class TestMsCho:
    def test_single_slice_range_reduces_to_cho(self):
        rng = np.random.default_rng(8)
        bank = lg_channel_bank(16, 16, n_channels=4)
        healthy, lesion = _toy_stacks(rng, 10)
        central = 7 // 2
        for combiner in ("hotelling", "max", "mean"):
            model = _train(healthy, lesion, bank, (central,), combiner)
            probe = rng.normal(size=(16, 16, 7))
            want = _stage1_score(probe[:, :, central], bank, model)
            assert _score(probe, bank, model) == pytest.approx(want,
                                                               rel=1e-12)

    def test_mean_combiner_on_identical_slices(self):
        rng = np.random.default_rng(9)
        bank = lg_channel_bank(16, 16, n_channels=4)
        healthy, lesion = _toy_stacks(rng, 10)
        model = _train(healthy, lesion, bank, (2, 3, 4), "mean")
        plane = rng.normal(size=(16, 16))
        probe = np.repeat(plane[:, :, None], 7, axis=2)
        want = _stage1_score(plane, bank, model)
        assert _score(probe, bank, model) == pytest.approx(want, rel=1e-12)

    def test_stage1_uses_central_slices_only(self):
        rng = np.random.default_rng(10)
        bank = lg_channel_bank(16, 16, n_channels=4)
        healthy, lesion = _toy_stacks(rng, 10)
        base = _train(healthy, lesion, bank, (2, 3, 4), "hotelling")
        central = 3
        corrupted_h = [s.copy() for s in healthy]
        corrupted_l = [s.copy() for s in lesion]
        for s in corrupted_h + corrupted_l:
            s[:, :, [k for k in range(7) if k != central]] += rng.normal(
                size=(16, 16, 6))
        redone = _train(corrupted_h, corrupted_l, bank, (2, 3, 4),
                        "hotelling")
        assert np.array_equal(base.template, redone.template)

    def test_slice_range_must_include_central(self):
        rng = np.random.default_rng(11)
        bank = lg_channel_bank(16, 16, n_channels=4)
        healthy, lesion = _toy_stacks(rng, 10)
        with pytest.raises(ValueError, match="misses the central slice 3"):
            _train(healthy, lesion, bank, (0, 1), "hotelling")

    def test_all_zero_stack_scores_zero(self):
        rng = np.random.default_rng(12)
        bank = lg_channel_bank(16, 16, n_channels=4)
        healthy, lesion = _toy_stacks(rng, 10)
        for combiner in ("hotelling", "mean"):
            model = _train(healthy, lesion, bank, (2, 3, 4), combiner)
            assert _score(np.zeros((16, 16, 7)), bank, model) == 0.0

    @pytest.mark.oracle
    def test_gaussian_auc_matches_closed_form(self):
        rng = np.random.default_rng(15)
        d = 6
        a = rng.normal(size=(d, d))
        sigma = a @ a.T + np.eye(d)
        chol = np.linalg.cholesky(sigma)
        delta = rng.normal(size=d)
        snr2 = float(delta @ np.linalg.solve(sigma, delta))
        # scale the separation for a target AUC around 0.85
        target = norm.ppf(0.85) * np.sqrt(2.0)
        delta *= target / np.sqrt(snr2)
        train_n, test_n = 3000, 5000
        resp = {
            "train_h": rng.normal(size=(train_n, d)) @ chol.T,
            "train_l": rng.normal(size=(train_n, d)) @ chol.T + delta,
            "test_h": rng.normal(size=(test_n, d)) @ chol.T,
            "test_l": rng.normal(size=(test_n, d)) @ chol.T + delta,
        }
        template, _, _, _ = hotelling_template(resp["train_h"], resp["train_l"])
        auc = _mw_auc(resp["test_h"] @ template, resp["test_l"] @ template)
        assert abs(auc - 0.85) <= 0.02
