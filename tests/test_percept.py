"""Tests for the perceived-stack pipeline."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cinecho import observer, percept
from cinecho.csf import ViewingConditions
from cinecho.observer import lg_channel_bank
from cinecho.percept import (
    ACUITY_B,
    ACUITY_FLOOR,
    ACUITY_THRESHOLD_DEG,
    FOVEAL_MODES,
    apply_stcsf,
    filter_contrast,
    foveal_weight,
    frequency_of_index,
    taper_margins,
    transfer_gain,
)
from cinecho.stacks import (
    LesionSpec,
    StackGeometry,
    centre_offsets,
    lesion_profile,
)


class TestMeanLuminance:
    """apply_stcsf adapts to the stack's own mean luminance, L = vc.luminance."""

    @staticmethod
    def measured(stack):
        (out,) = apply_stcsf(stack, [(7.0, 25.0)], taper=False)
        return out.vc.luminance

    def test_constant(self):
        assert self.measured(np.full((4, 4, 3), 20.0)) == 20.0

    def test_two_slice(self):
        stack = np.stack([np.full((5, 5), 10.0), np.full((5, 5), 30.0)], axis=-1)
        assert self.measured(stack) == 20.0

    def test_matches_bruteforce_sum(self):
        rng = np.random.default_rng(7)
        stack = rng.uniform(5.0, 80.0, size=(13, 11, 6))
        want = math.fsum(stack.ravel().tolist()) / stack.size
        assert self.measured(stack) == pytest.approx(want, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty stack has no mean"):
            apply_stcsf(np.zeros((0, 4, 4)), [(7.0, 25.0)])


class TestTaperMargins:
    def test_border_zero_interior_unchanged(self):
        stack = np.full((16, 16, 3), 2.5)
        out = taper_margins(stack)
        assert np.all(out[0, :, :] == 0.0)
        assert np.all(out[:, 0, :] == 0.0)
        assert np.all(out[-1, :, :] == 0.0)
        assert np.all(out[:, -1, :] == 0.0)
        assert np.all(out[5:-5, 5:-5, :] == 2.5)

    def test_linear_ramp_value(self):
        stack = np.full((16, 16, 1), 10.0)
        out = taper_margins(stack)
        # distance 2 from the nearest edge -> weight 2/5
        assert out[2, 8, 0] == pytest.approx(4.0, rel=1e-15)
        assert out[8, 2, 0] == pytest.approx(4.0, rel=1e-15)

    def test_no_temporal_taper(self):
        rng = np.random.default_rng(3)
        plane = rng.normal(size=(12, 12))
        stack = np.repeat(plane[:, :, None], 7, axis=2)
        out = taper_margins(stack)
        for k in range(7):
            assert np.array_equal(out[:, :, k], out[:, :, 0])

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            taper_margins(np.zeros((10, 16, 3)))
        with pytest.raises(ValueError):
            taper_margins(np.zeros((16, 10, 3)))
        # 11 x 11 is the smallest allowed
        taper_margins(np.zeros((11, 11, 1)))


class TestFrequencyOfIndex:
    def test_dc(self):
        assert frequency_of_index(0, 8, 8.0) == 0.0

    def test_negative_branch(self):
        assert frequency_of_index(5, 8, 8.0) == -3.0

    def test_positive_branch(self):
        assert frequency_of_index(1, 64, 7.0) == pytest.approx(7.0 / 64.0, rel=1e-15)

    def test_nyquist_even(self):
        assert frequency_of_index(4, 8, 8.0) == -4.0

    def test_vectorized_and_range_checked(self):
        got = frequency_of_index(np.arange(8), 8, 8.0)
        assert np.array_equal(got, np.array([0., 1., 2., 3., -4., -3., -2., -1.]))
        with pytest.raises(ValueError):
            frequency_of_index(8, 8, 8.0)
        with pytest.raises(ValueError):
            frequency_of_index(-1, 8, 8.0)


VC64 = ViewingConditions(luminance=20.0, x0=64.0 / 7.0)


class TestTransferGain:
    def test_radial_combination(self):
        from cinecho.csf import stcsf
        g = float(transfer_gain(3.0, 4.0, 10.0, VC64))
        s = float(stcsf(5.0, 10.0, VC64))
        assert g == pytest.approx(s / 20.0, rel=1e-15)

    def test_low_frequency_clamp(self):
        # u_min = 1/(2 x0) = 7/128 for a 64-px image at ssr 7
        u_min = 7.0 / 128.0
        assert u_min == 0.0546875
        g_low = float(transfer_gain(0.001, 0.0, 5.0, VC64))
        g_min = float(transfer_gain(u_min, 0.0, 5.0, VC64))
        assert g_low == g_min

    def test_evenness_exact(self):
        rng = np.random.default_rng(11)
        u1 = rng.uniform(-3, 3, 50)
        u2 = rng.uniform(-3, 3, 50)
        w = rng.uniform(-12, 12, 50)
        a = transfer_gain(u1, u2, w, VC64)
        b = transfer_gain(-u1, u2, -w, VC64)
        c = transfer_gain(u1, -u2, w, VC64)
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)

    @settings(max_examples=300, deadline=None)
    @given(u1=st.floats(0.0, 200.0), u2=st.floats(0.0, 200.0),
           w=st.floats(0.0, 200.0))
    def test_bitwise_even_in_each_axis(self, u1, u2, w):
        # the half-grid gain and the real inverse transform rely on this
        bits = transfer_gain(u1, u2, w, VC64).tobytes()
        assert transfer_gain(-u1, u2, w, VC64).tobytes() == bits
        assert transfer_gain(u1, -u2, w, VC64).tobytes() == bits
        assert transfer_gain(u1, u2, -w, VC64).tobytes() == bits


class TestFovealWeight:
    def test_none_mode(self):
        assert float(foveal_weight(33.0, "none")) == 1.0

    def test_hard_mode_boundary(self):
        assert float(foveal_weight(7.0, "hard")) == 0.0
        assert float(foveal_weight(7.5, "hard")) == 0.0
        assert float(foveal_weight(6.999, "hard")) == 1.0

    def test_soft_goldens(self):
        # polynomial-evaluation oracle values (mpmath, 50 digits)
        assert float(foveal_weight(0.0, "soft")) == pytest.approx(
            0.999999995484, abs=1e-9)
        assert float(foveal_weight(63.5780, "soft")) == pytest.approx(
            0.019992692465200729521, rel=1e-12)
        assert float(foveal_weight(4.57, "soft")) == pytest.approx(
            0.34454729006355397404, rel=1e-12)
        assert float(foveal_weight(30.0, "soft")) == pytest.approx(
            0.081566486582233318998, rel=1e-12)

    def test_soft_near_unity_at_axis(self):
        assert 0.97 <= float(foveal_weight(0.0, "soft")) <= 1.03

    def test_soft_floor_beyond_threshold(self):
        assert float(foveal_weight(63.579, "soft")) == 0.02
        assert float(foveal_weight(89.0, "soft")) == 0.02

    def test_soft_continuity_at_threshold(self):
        at = float(foveal_weight(63.5780, "soft"))
        assert abs(at - 0.02) <= 1e-3
        just_past = float(foveal_weight(63.5781, "soft"))
        assert just_past == 0.02

    def test_soft_sane_zone_positive_and_decreasing(self):
        # the fit is well-behaved from ~1.2 deg outward: positive, and
        # monotone decreasing from 1.5 deg to the threshold
        alpha = np.linspace(1.2, 90.0, 8881)
        w = foveal_weight(alpha, "soft")
        assert np.all(w > 0)
        mono = foveal_weight(np.linspace(1.6, 63.0, 6141), "soft")
        assert np.all(np.diff(mono) < 0)

    def test_soft_near_axis_follows_raw_polynomial(self):
        # below ~1.2 deg the fitted polynomial oscillates violently
        # (overshoot, then a negative dip); the weighting applies it
        # as defined, with no clamping
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        b = ACUITY_B
        for alpha in (0.5, 1.0):
            q = -1 / (mp.mpf(alpha) + mp.mpf("0.1"))
            want = float(-sum(mp.mpf(repr(bi)) * q ** i for i, bi in enumerate(b)))
            assert want < 0  # inside the negative dip
            got = float(foveal_weight(alpha, "soft"))
            assert got == pytest.approx(want, rel=1e-10)

    def test_rejects_negative_and_bad_mode(self):
        with pytest.raises(ValueError):
            foveal_weight(-0.1, "soft")
        with pytest.raises(ValueError):
            foveal_weight(1.0, "blur")

    def test_fit_meets_the_floor_at_the_threshold(self):
        # at the threshold itself the polynomial piece still applies
        at_threshold = foveal_weight(ACUITY_THRESHOLD_DEG, "soft")
        assert abs(at_threshold - ACUITY_FLOOR) <= 1e-3


class TestCentrePixel:
    def test_centre_offset_is_zero(self):
        rows, cols = centre_offsets(64, 65)
        assert rows[32] == 0.0 and cols[32] == 0.0

    def test_three_four_five(self):
        rows, cols = centre_offsets(7, 9)
        assert np.hypot(rows[3 + 3], cols[4 + 4]) == 5.0

    @staticmethod
    def _hard_planes(shape, ssr):
        """The hard-mode planes of a flat contrast, and the planes with no
        foveal weight: a flat stack filters to one value everywhere, so
        the hard planes are that value where the weight is 1, else 0."""
        flat = np.ones(shape)
        return [filter_contrast(flat, 40.0, [(ssr, 25.0)], foveal_mode=mode)[0]
                for mode in ("hard", "none")]

    def test_seven_degrees_in_the_plan(self):
        # 49 px from the centre at 7 px/deg is exactly the 7 deg cutoff
        hard, none = self._hard_planes((100, 3, 2), 7.0)
        assert np.all(none[[50 + 49, 50 + 48, 50 - 49], 1] != 0.0)
        assert np.all(hard[50 + 49, 1] == 0.0)
        assert np.array_equal(hard[50 + 48, 1], none[50 + 48, 1])
        assert np.all(hard[50 - 49, 1] == 0.0)

    @pytest.mark.parametrize("w_px, h_px", [(16, 16), (17, 17), (16, 17),
                                            (17, 16)])
    def test_lesion_channels_and_fovea_share_it(self, w_px, h_px):
        centre = (w_px // 2, h_px // 2)

        def only_peak(plane):
            peaks = np.argwhere(plane == plane.max())
            assert len(peaks) == 1
            return tuple(int(i) for i in peaks[0])

        bank = lg_channel_bank(w_px, h_px, n_channels=1, spread=4.0)
        assert only_peak(bank.matrix[:, 0].reshape(w_px, h_px)) == centre
        inplane, _ = lesion_profile(LesionSpec("microcalc", 1.0, diameter_px=2.0),
                                    StackGeometry(w_px, h_px, 3, 10, 1.0))
        assert only_peak(inplane) == centre
        # at 0.1 px/deg only the centre pixel lies inside the 7 deg cutoff
        hard, none = self._hard_planes((w_px, h_px, 2), 0.1)
        assert none[centre][0] > 0.0
        assert only_peak(hard[:, :, 0]) == centre


class TestPlanPhases:
    def test_phase_depends_on_the_index_product_mod_k_alone(self):
        # the phase inverts the spectrum folded in k3: row j <= K//2 holds
        # cos and row j > K//2 holds sin of 2 pi (s * f mod K) / K, over
        # K, at the folded frequency f = min(j, K - j).  Slice s and f
        # enter only as s * f mod K, so every cos and every sin must be
        # bit for bit the one of its reduced index; at this K the
        # unreduced float product gives other last bits
        n_sl = 32
        bank = lg_channel_bank(16, 16, n_channels=1, spread=4.0)
        phase = percept._plan((16, 16, n_sl), ((7.0, 25.0),),
                              tuple(range(n_sl)), "none", bank).phase
        index = np.arange(n_sl)
        product = np.outer(index, np.minimum(index, n_sl - index))
        cos = index <= n_sl // 2
        angle = 2 * np.pi * index / n_sl
        by_index = np.where(cos, np.cos(angle[product % n_sl]),
                            np.sin(angle[product % n_sl])) / n_sl
        assert np.array_equal(phase, by_index)
        unreduced = 2 * np.pi * product / n_sl
        for part, function in ((cos, np.cos), (~cos, np.sin)):
            assert not np.array_equal(function(unreduced[:, part]) / n_sl,
                                      phase[:, part])


class TestBrowsingPoints:
    """Both percept entries check each (ssr, slice_rate) point before
    anything is divided by it, and derive x0 = width/ssr from it."""

    def test_apparent_size_is_width_over_ssr(self):
        out, = apply_stcsf(np.full((64, 16, 4), 20.0), [(8.0, 25.0)])
        assert out.vc == ViewingConditions(luminance=20.0, x0=8.0)

    @staticmethod
    def _refused(point):
        lum = np.full((16, 16, 4), 20.0)
        for entry in (lambda: apply_stcsf(lum, [(2.0, 10.0), point]),
                      lambda: filter_contrast(lum - 20.0, 20.0, [point])):
            with pytest.raises(ValueError, match=r"browsing point \(.*\): "
                               r"ssr and slice_rate must be finite and "
                               r"positive"):
                entry()

    @pytest.mark.parametrize("ssr", [0.0, -8.0, float("nan"), float("inf")])
    def test_bad_ssr_is_refused_before_dividing(self, ssr):
        self._refused((ssr, 25.0))

    @pytest.mark.parametrize("rate", [0.0, -8.0, float("nan"), float("inf")])
    def test_bad_slice_rate_is_refused(self, rate):
        self._refused((7.0, rate))


class TestApplyStcsf:
    def test_constant_stack_maps_to_zero(self):
        out, = apply_stcsf(np.full((16, 16, 4), 37.5), [(2.0, 10.0)])
        assert np.all(out.data == 0.0)
        assert out.vc == ViewingConditions(luminance=37.5, x0=8.0)

    def test_single_cosine_amplitude_and_phase(self):
        w_px, h_px, n_sl = 24, 20, 12
        k1, k2, k3 = 3, 5, 4
        ssr, rate = 7.0, 25.0
        x = np.arange(w_px)[:, None, None]
        y = np.arange(h_px)[None, :, None]
        t = np.arange(n_sl)[None, None, :]
        phase = 2.0 * np.pi * (k1 * x / w_px + k2 * y / h_px + k3 * t / n_sl) + 0.7
        amp = 3.0
        lum = 50.0 + amp * np.cos(phase)

        perceived, = apply_stcsf(lum, [(ssr, rate)], taper=False)

        u1 = float(frequency_of_index(k1, w_px, ssr))
        u2 = float(frequency_of_index(k2, h_px, ssr))
        w = float(frequency_of_index(k3, n_sl, rate))
        gain = float(transfer_gain(u1, u2, w, perceived.vc))
        expected = amp * gain * np.cos(phase)
        err = np.abs(perceived.data - expected).max()
        assert err <= 1e-9 * np.abs(expected).max()

    def test_centered_blob_stays_centered(self):
        # odd dims so the center pixel is also the mirror-symmetry center
        w_px, h_px, n_sl = 15, 15, 9
        ssr = 1.5
        x = np.arange(w_px)[:, None, None] - w_px // 2
        y = np.arange(h_px)[None, :, None] - h_px // 2
        t = np.arange(n_sl)[None, None, :] - n_sl // 2
        blob = np.exp(-(x ** 2 + y ** 2) / 8.0 - t ** 2 / 4.0)
        out, = apply_stcsf(30.0 + 5.0 * blob, [(ssr, 12.0)], taper=False)
        peak = np.unravel_index(np.argmax(out.data), out.data.shape)
        assert peak == (w_px // 2, h_px // 2, n_sl // 2)

    def test_mirror_symmetric_input_gives_mirror_symmetric_output(self):
        rng = np.random.default_rng(23)
        w_px, h_px, n_sl = 20, 16, 10
        r = rng.normal(size=(w_px, h_px, n_sl))
        sym = r + r[::-1, ::-1, ::-1]
        out = apply_stcsf(40.0 + sym, [(2.0, 20.0)], taper=True)[0].data
        err = np.abs(out - out[::-1, ::-1, ::-1]).max()
        assert err <= 1e-9 * np.abs(out).max()

    def test_filter_stage_linearity(self):
        rng = np.random.default_rng(5)
        shape = (16, 16, 8)
        point = [(2.0, 15.0)]
        a = rng.normal(size=shape)
        b = rng.normal(size=shape)
        lhs, = filter_contrast(1.7 * a - 0.6 * b, 25.0, point)
        rhs = 1.7 * filter_contrast(a, 25.0, point)[0] \
            - 0.6 * filter_contrast(b, 25.0, point)[0]
        assert np.abs(lhs - rhs).max() <= 1e-9 * np.abs(rhs).max()

    def test_transform_round_trip(self):
        rng = np.random.default_rng(9)
        contrast = rng.normal(size=(16, 16, 8))
        tapered = taper_margins(contrast)
        spectrum = np.fft.fftn(tapered)
        back = np.fft.ifftn(spectrum, norm="forward") / tapered.size
        assert np.abs(back.real - tapered).max() <= 1e-9 * np.abs(tapered).max()
        assert np.abs(back.imag).max() <= 1e-9 * np.abs(tapered).max()

    def test_output_mean_is_zero(self):
        rng = np.random.default_rng(17)
        lum = rng.uniform(30.0, 70.0, size=(32, 32, 16))
        out = apply_stcsf(lum, [(4.0, 25.0)], taper=True)[0].data
        rms = np.sqrt(np.mean(out * out))
        assert abs(out.mean()) <= 1e-9 * rms

    def test_foveal_hard_zeroes_periphery(self):
        w_px = h_px = 16
        rng = np.random.default_rng(2)
        lum = rng.uniform(15.0, 25.0, size=(w_px, h_px, 4))
        hard, = apply_stcsf(lum, [(1.0, 10.0)], taper=False,
                            foveal_mode="hard")
        none, = apply_stcsf(lum, [(1.0, 10.0)], taper=False,
                            foveal_mode="none")
        # corner pixel is > 7 deg from the center at 1 px/deg
        assert np.all(hard.data[0, 0, :] == 0.0)
        # on-axis pixels are untouched
        c = w_px // 2
        assert np.array_equal(hard.data[c, c, :], none.data[c, c, :])

    def test_foveal_soft_is_pixelwise_weighting(self):
        w_px = h_px = 16
        rng = np.random.default_rng(4)
        lum = rng.uniform(15.0, 25.0, size=(w_px, h_px, 4))
        soft, = apply_stcsf(lum, [(2.0, 10.0)], taper=False,
                            foveal_mode="soft")
        none, = apply_stcsf(lum, [(2.0, 10.0)], taper=False,
                            foveal_mode="none")
        rows = np.arange(w_px) - w_px // 2
        cols = np.arange(h_px) - h_px // 2
        alpha = np.hypot(rows[:, None], cols[None, :]) / 2.0
        weights = foveal_weight(alpha, "soft")
        assert np.array_equal(soft.data, none.data * weights[:, :, None])

    def test_plan_must_match_its_arguments(self):
        lum = np.random.default_rng(6).uniform(15.0, 25.0, size=(16, 12, 4))
        bank = lg_channel_bank(16, 16, n_channels=3, spread=4.0)
        with pytest.raises(ValueError, match="channel bank is 16x16"):
            apply_stcsf(lum, [(2.0, 10.0)], bank=bank)
        for slices in ([4], [0, -1]):
            with pytest.raises(ValueError, match="slices must be indices "
                                                 "into 4 slices"):
                apply_stcsf(lum, [(2.0, 10.0)], slices=slices)
        # with no points the plan's own check is the only refusal
        for points in ([], [(2.0, 10.0)]):
            with pytest.raises(ValueError, match="foveal mode must be one "
                                                 "of"):
                apply_stcsf(lum, points, foveal_mode="blur")

    @pytest.mark.parametrize("taper", [True, False])
    def test_stack_that_is_not_w_h_k_is_refused(self, taper):
        # by taper_margins, or without the taper by filter_contrast
        with pytest.raises(ValueError, match="expected a W x H x K stack"):
            apply_stcsf(np.full((16, 16), 20.0), [(2.0, 10.0)], taper=taper)


class TestPlanCache:
    SHAPES = [(12, 12, 5), (13, 11, 6)]

    @staticmethod
    def _perceive(shape, ranged, foveal_mode, banked):
        lum = np.random.default_rng(sum(shape)).uniform(15.0, 25.0,
                                                        size=shape)
        points = ((2.0, 10.0), (4.0, 25.0), (2.0, 40.0))
        bank = lg_channel_bank(shape[0], shape[1], n_channels=3,
                               spread=4.0) if banked else None
        outs = apply_stcsf(lum, points, foveal_mode=foveal_mode,
                           slices=(3, 1) if ranged else None, bank=bank)
        return [out if banked else out.data for out in outs]

    @settings(max_examples=25, deadline=None)
    @given(calls=st.lists(st.tuples(st.sampled_from(SHAPES), st.booleans(),
                                    st.sampled_from(FOVEAL_MODES),
                                    st.booleans()),
                          min_size=1, max_size=6))
    def test_interleaved_calls_match_a_cold_cache_bitwise(self, calls):
        warm = [self._perceive(*call) for call in calls]
        for call, outs in zip(calls, warm):
            percept._plan.cache_clear()
            percept._even_axis.cache_clear()
            percept._taper_weight.cache_clear()
            observer.lg_channel_bank.cache_clear()
            cold = self._perceive(*call)
            assert all(np.array_equal(a, b) for a, b in zip(outs, cold))

    def test_cached_arrays_refuse_writes(self):
        bank = lg_channel_bank(12, 12, n_channels=3, spread=4.0)
        points = ((2.0, 10.0), (3.0, 10.0), (2.0, 25.0))
        plan = percept._plan((12, 12, 5), points, (1, 2), "hard", bank)
        assert percept._plan((12, 12, 5), points, (1, 2), "hard",
                             bank) is plan
        # one phase array, one slice DFT and one set of kept positions
        # serve every ssr of the pass: each ssr's group holds only its
        # weights, radii and batches
        assert [field.name for field in dataclasses.fields(plan)] \
            == ["shape", "phase", "dft", "kept", "groups"]
        assert [(ssr, [members for members, _, _ in batches])
                for ssr, _, _, batches in plan.groups] \
            == [(2.0, [(0, 2)]), (3.0, [(1,)])]
        arrays = [bank.matrix, percept._even_axis(12),
                  percept._taper_weight(12, 12), plan.phase, plan.dft,
                  *plan.kept]
        for _, weights, radii, batches in plan.groups:
            arrays += [weights, radii]
            for _, freqs, index in batches:
                arrays += [freqs, index]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 0
