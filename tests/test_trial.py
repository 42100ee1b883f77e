import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cinecho.display import DisplayModel
from cinecho.errors import PlanError
from cinecho.stacks import Dataset, LesionSpec, StackGeometry, \
    generate_background, generate_dataset, insert_lesion
from cinecho.trial import (
    PipelineConfig,
    auc_wilcoxon,
    one_shot_mrmc,
    perceive_responses,
    run_trial,
    split_dataset,
)

ROOT = Path(__file__).resolve().parents[1]


def _pairing(n):
    return tuple((f"h{i:02d}", f"l{i:02d}") for i in range(n))


def _subset_ids(plan, subset):
    return sorted(sid for sid, s in plan.subset_assignment.items()
                  if s == subset)


class TestSplitDataset:
    def test_subset_sizes(self):
        plan = split_dataset(_pairing(12), n_readers=2, seed=0,
                             min_per_class=4)
        assert set(plan.subset_assignment.values()) == {0, 1, 2}
        for subset in range(3):
            ids = _subset_ids(plan, subset)
            assert len(ids) == 8
            assert sum(i.startswith("h") for i in ids) == 4
            assert sum(i.startswith("l") for i in ids) == 4

    def test_pair_members_separated(self):
        plan = split_dataset(_pairing(30), n_readers=3, seed=5,
                             min_per_class=4)
        for h, l in plan.pairing:
            assert plan.subset_assignment[h] != plan.subset_assignment[l]

    def test_partition_is_complete(self):
        plan = split_dataset(_pairing(12), n_readers=2, seed=1,
                             min_per_class=4)
        seen = sorted(sid for s in range(3) for sid in _subset_ids(plan, s))
        expected = sorted(sid for pair in _pairing(12) for sid in pair)
        assert seen == expected

    def test_deterministic(self):
        a = split_dataset(_pairing(20), n_readers=2, seed=7, min_per_class=4)
        b = split_dataset(_pairing(20), n_readers=2, seed=7, min_per_class=4)
        assert a.subset_assignment == b.subset_assignment
        c = split_dataset(_pairing(20), n_readers=2, seed=8, min_per_class=4)
        assert a.subset_assignment != c.subset_assignment

    def test_follows_documented_deal(self):
        # shuffled pair at position k: healthy to subset k mod (n+1),
        # lesion to (k+1) mod (n+1)
        pairs = _pairing(12)
        plan = split_dataset(pairs, n_readers=2, seed=7, min_per_class=4)
        order = np.random.default_rng(7).permutation(12)
        for pos, idx in enumerate(order):
            h, l = pairs[int(idx)]
            assert plan.subset_assignment[h] == pos % 3
            assert plan.subset_assignment[l] == (pos + 1) % 3

    def test_too_few_pairs(self):
        with pytest.raises(PlanError, match="16"):
            split_dataset(_pairing(12), n_readers=2, seed=0)

    def test_duplicate_ids(self):
        pairs = (("h0", "l0"), ("h0", "l1"))
        with pytest.raises(PlanError, match="duplicate"):
            split_dataset(pairs, n_readers=1, seed=0, min_per_class=1)

    def test_id_on_both_sides(self):
        pairs = (("h0", "x"), ("x", "l1"))
        with pytest.raises(PlanError, match="both sides"):
            split_dataset(pairs, n_readers=1, seed=0, min_per_class=1)

    def test_needs_a_reader(self):
        with pytest.raises(PlanError, match="reader"):
            split_dataset(_pairing(8), n_readers=0, seed=0, min_per_class=1)


class TestAucWilcoxon:
    def test_perfect_separation(self):
        assert auc_wilcoxon([0.0, 1.0], [2.0, 3.0]) == 1.0

    def test_interleaved(self):
        assert auc_wilcoxon([1.0, 3.0], [2.0, 4.0]) == 0.75

    def test_tie_is_half(self):
        assert auc_wilcoxon([1.0], [1.0]) == 0.5

    def test_complement(self):
        rng = np.random.default_rng(3)
        h = rng.integers(0, 8, size=13).astype(float)
        l = rng.integers(0, 8, size=9).astype(float)
        assert auc_wilcoxon(h, l) + auc_wilcoxon(l, h) == 1.0

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(4)
        h = rng.integers(0, 10, size=15).astype(float)
        l = rng.integers(0, 10, size=11).astype(float)
        assert auc_wilcoxon(np.exp(h), np.exp(l)) == auc_wilcoxon(h, l)
        assert auc_wilcoxon(3 * h + 2, 3 * l + 2) == auc_wilcoxon(h, l)

    def test_empty_class(self):
        with pytest.raises(ValueError):
            auc_wilcoxon([], [1.0])
        with pytest.raises(ValueError):
            auc_wilcoxon([1.0], [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score(self, bad):
        # a sorted nan would land above every healthy score and count a win
        for h, l in (([0.0, bad], [1.0]), ([0.0], [1.0, bad])):
            with pytest.raises(ValueError, match="scores must be finite"):
                auc_wilcoxon(h, l)

    def test_importing_the_cli_leaves_scipy_stats_out(self):
        # a fresh interpreter: this test module's process may hold it already
        code = ("import sys, cinecho.cli; print(sorted("
                "m for m in sys.modules if m.startswith('scipy.stats')))")
        paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_matches_pair_counting(self):
        # counting on the sorted scores reproduces the O(n^2) count
        # exactly: wins plus half the ties is a half-integer below 2**53
        rng = np.random.default_rng(20260819)
        for _ in range(1000):
            n_h = int(rng.integers(1, 21))
            n_l = int(rng.integers(1, 21))
            h = rng.integers(0, 6, size=n_h).astype(float)
            l = rng.integers(0, 6, size=n_l).astype(float)
            wins = 0.0
            for a in h:
                for b in l:
                    wins += 1.0 if b > a else (0.5 if b == a else 0.0)
            assert auc_wilcoxon(h, l) == wins / (n_h * n_l)


def _psi(scores, labels):
    healthy = scores[:, ~labels]
    lesion = scores[:, labels]
    gt = lesion[:, None, :] > healthy[:, :, None]
    eq = lesion[:, None, :] == healthy[:, :, None]
    return gt.astype(np.float64) + 0.5 * eq


def _mrmc_reference(scores, labels):
    """O((R N0 N1)^2) moment estimation by direct enumeration."""
    psi = _psi(scores, labels)
    n_r, n0, n1 = psi.shape
    sums = np.zeros((2, 2, 2))
    counts = np.zeros((2, 2, 2))
    for r in range(n_r):
        for rp in range(n_r):
            for i in range(n0):
                for ip in range(n0):
                    for j in range(n1):
                        for jp in range(n1):
                            key = (int(r == rp), int(i == ip), int(j == jp))
                            sums[key] += psi[r, i, j] * psi[rp, ip, jp]
                            counts[key] += 1.0
    m = sums / counts
    within = m[1, 1, 1] + (n0 - 1) * m[1, 0, 1] + (n1 - 1) * m[1, 1, 0] \
        + (n0 - 1) * (n1 - 1) * m[1, 0, 0]
    between = m[0, 1, 1] + (n0 - 1) * m[0, 0, 1] + (n1 - 1) * m[0, 1, 0] \
        + (n0 - 1) * (n1 - 1) * m[0, 0, 0]
    return within / (n_r * n0 * n1) \
        + (n_r - 1) / (n_r * n0 * n1) * between - m[0, 0, 0]


class TestOneShotMrmc:
    def test_perfect_agreement_zero_variance(self):
        scores = np.array([[0.0, 1.0, 5.0, 6.0]] * 3)
        labels = np.array([False, False, True, True])
        mean, var = one_shot_mrmc(scores, labels)
        assert mean == 1.0
        assert var == 0.0

    def test_mean_is_reader_average(self):
        rng = np.random.default_rng(11)
        scores = rng.normal(size=(4, 30))
        labels = np.zeros(30, dtype=bool)
        labels[15:] = True
        mean, _ = one_shot_mrmc(scores, labels)
        per_reader = [auc_wilcoxon(row[~labels], row[labels])
                      for row in scores]
        assert mean == pytest.approx(np.mean(per_reader), rel=1e-12)

    def test_single_case_per_class_gives_nan(self):
        scores = np.array([[0.0, 1.0], [0.2, 0.9]])
        labels = np.array([False, True])
        mean, var = one_shot_mrmc(scores, labels)
        assert mean == 1.0
        assert np.isnan(var)

    def test_needs_two_readers(self):
        with pytest.raises(ValueError, match="reader"):
            one_shot_mrmc(np.zeros((1, 4)), np.array([0, 0, 1, 1], bool))

    def test_needs_both_classes(self):
        with pytest.raises(ValueError, match="class"):
            one_shot_mrmc(np.zeros((2, 4)), np.zeros(4, bool))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="line up"):
            one_shot_mrmc(np.zeros((2, 4)), np.array([0, 1, 1], bool))

    def test_matches_direct_enumeration(self):
        # validates the one-moment form against the brute-force eight-
        # moment sum; the independently computed reference also decides
        # where the estimate is inestimable (NaN)
        rng = np.random.default_rng(77)
        labels = np.zeros(13, dtype=bool)
        labels[6:] = True
        for _ in range(8):
            base = rng.normal(size=13)
            base[labels] += 1.2
            scores = base[None, :] + 0.35 * rng.normal(size=(3, 13))
            ref = _mrmc_reference(scores, labels)
            _, var = one_shot_mrmc(scores, labels)
            if ref < -1e-12:
                assert np.isnan(var)
            else:
                assert var == pytest.approx(max(ref, 0.0), rel=1e-10,
                                            abs=1e-15)

    def test_hard_negative_estimate_is_nan(self):
        # unbiased pair-moment estimators can go genuinely negative on
        # small uninformative samples; the contract reports that as an
        # inestimable (NaN) variance rather than a negative one or a 0
        rng = np.random.default_rng(77)
        labels = np.zeros(9, dtype=bool)
        labels[4:] = True
        for _ in range(4):
            scores = rng.integers(0, 4, size=(3, 9)).astype(float)
        ref = _mrmc_reference(scores, labels)
        assert ref < -1e-3
        mean, var = one_shot_mrmc(scores, labels)
        assert mean == np.mean(_psi(scores, labels))
        assert np.isnan(var)


def _pair_count_auc(healthy, lesion) -> float:
    wins = sum(1.0 if b > a else (0.5 if b == a else 0.0)
               for a in healthy for b in lesion)
    return wins / (len(healthy) * len(lesion))


@st.composite
def _reader_studies(draw):
    """A small score matrix with many ties, its labels, a reader order
    and a case order (each case keeping its label)."""
    n_readers = draw(st.integers(2, 4))
    n_healthy = draw(st.integers(2, 6))
    n_lesion = draw(st.integers(2, 6))
    n_cases = n_healthy + n_lesion
    values = draw(st.lists(st.integers(0, 6), min_size=n_readers * n_cases,
                           max_size=n_readers * n_cases))
    scores = np.array(values, dtype=np.float64).reshape(n_readers, n_cases)
    labels = np.array([False] * n_healthy + [True] * n_lesion)
    readers = draw(st.permutations(range(n_readers)))
    cases = draw(st.permutations(range(n_cases)))
    return scores, labels, list(readers), list(cases)


class TestTrialProperties:
    @settings(deadline=None)
    @given(st.lists(st.integers(0, 5), min_size=1, max_size=15),
           st.lists(st.integers(0, 5), min_size=1, max_size=15))
    def test_auc_equals_pair_counting_with_ties(self, healthy, lesion):
        assert auc_wilcoxon(np.array(healthy, dtype=np.float64),
                            np.array(lesion, dtype=np.float64)) \
            == _pair_count_auc(healthy, lesion)

    @settings(deadline=None)
    @given(_reader_studies())
    def test_mrmc_invariant_under_reader_and_case_order(self, study):
        scores, labels, readers, cases = study
        got = one_shot_mrmc(scores, labels)
        for permuted in (one_shot_mrmc(scores[readers], labels),
                         one_shot_mrmc(scores[:, cases], labels[cases])):
            assert permuted[0] == pytest.approx(got[0], rel=1e-12)
            assert np.isnan(permuted[1]) == np.isnan(got[1])
            if not np.isnan(got[1]):
                # relative 1e-12; estimates at zero get an absolute floor
                assert permuted[1] == pytest.approx(got[1], rel=1e-12,
                                                    abs=1e-15)

    @settings(deadline=None)
    @given(_reader_studies())
    def test_returned_variance_is_nonnegative(self, study):
        scores, labels, _, _ = study
        _, var = one_shot_mrmc(scores, labels)
        assert var >= 0.0 or np.isnan(var)


@pytest.mark.oracle
class TestVarianceOracle:
    def test_tracks_resimulated_variance(self):
        # two-class reader model with case, reader, and reader-by-case
        # noise; the mean of the variance estimates over resimulations
        # must track the spread of the mean AUC itself
        rng = np.random.default_rng(20260819)
        n_readers, n0, n1 = 5, 100, 100
        mu, s_case, s_rc, s_reader = 1.1902, np.sqrt(0.5), np.sqrt(0.5), 0.1
        labels = np.zeros(n0 + n1, dtype=bool)
        labels[n0:] = True
        means, estimates = [], []
        for _ in range(200):
            case = rng.normal(0.0, s_case, n0 + n1)
            inter = rng.normal(0.0, s_rc, (n_readers, n0 + n1))
            reader = rng.normal(0.0, s_reader, n_readers)
            scores = case[None, :] + inter
            scores[:, labels] += mu + reader[:, None]
            mean, var = one_shot_mrmc(scores, labels)
            means.append(mean)
            estimates.append(var)
        assert 0.75 < np.mean(means) < 0.85
        empirical = float(np.var(means, ddof=1))
        mean_estimate = float(np.mean(estimates))
        assert abs(mean_estimate - empirical) <= 0.30 * empirical


GEOM = StackGeometry(16, 16, 9, 10, 1.0)
LESION = LesionSpec("microcalc", 180.0, diameter_px=4.0)
CONFIG = PipelineConfig(n_channels=5, spread=4.0)


@pytest.fixture(scope="module")
def strong_dataset():
    return generate_dataset(GEOM, 24, LESION, seed=404)


@pytest.fixture(scope="module")
def strong_plan(strong_dataset):
    return split_dataset(strong_dataset.pairing, n_readers=2, seed=9,
                         min_per_class=6)


class TestRunTrial:
    def test_separable_dataset_gives_auc_one(self, strong_dataset,
                                              strong_plan):
        result = run_trial(strong_dataset, strong_plan, CONFIG)
        assert result.mean_auc == 1.0
        assert np.all(result.per_reader_auc == 1.0)
        assert result.variance >= 0.0

    def test_deterministic(self, strong_dataset, strong_plan):
        a = run_trial(strong_dataset, strong_plan, CONFIG)
        b = run_trial(strong_dataset, strong_plan, CONFIG)
        assert np.array_equal(a.scores, b.scores)
        assert a.mean_auc == b.mean_auc
        assert a.variance == b.variance

    def test_shapes_and_metadata(self, strong_dataset, strong_plan):
        result = run_trial(strong_dataset, strong_plan, CONFIG)
        assert result.scores.shape == (2, 16)
        assert result.test_ids == tuple(_subset_ids(strong_plan, 2))
        assert result.test_labels.sum() == 8

    @pytest.mark.parametrize("combiner", ["max", "mean"])
    def test_other_combiners_also_separate(self, strong_dataset, strong_plan,
                                           combiner):
        # the mean combiner dilutes the signal with near-empty outer
        # slices, so it may concede a pair or two on this tiny dataset
        config = PipelineConfig(n_channels=5, spread=4.0, combiner=combiner)
        result = run_trial(strong_dataset, strong_plan, config)
        assert result.mean_auc >= 0.95

    def test_null_amplitude_is_near_chance(self):
        # zero-amplitude lesions carry no signal, so the trial lands near
        # chance (some splits instead give a NaN variance; this plan seed
        # gives a finite one)
        null = generate_dataset(GEOM, 24, LesionSpec("microcalc", 0.0,
                                                     diameter_px=4.0),
                                seed=405)
        plan = split_dataset(null.pairing, n_readers=2, seed=11,
                             min_per_class=6)
        result = run_trial(null, plan, CONFIG)
        assert 0.05 < result.mean_auc < 0.95
        assert result.variance >= 0.0

    def test_missing_stack(self, strong_dataset, strong_plan):
        truncated = Dataset(stacks=strong_dataset.stacks[:-1])
        with pytest.raises(PlanError, match="unknown stack"):
            run_trial(truncated, strong_plan, CONFIG)

    def test_slice_range_must_cover_central(self, strong_dataset,
                                            strong_plan):
        # every lesion stack records slices 0 and 1, which miss slice 4
        stacks = tuple(replace(s, lesion_slices=(0, 1))
                       if s.label == "lesion" else s
                       for s in strong_dataset.stacks)
        with pytest.raises(PlanError, match="misses the central slice 4"):
            run_trial(Dataset(stacks=stacks), strong_plan, CONFIG)

    @pytest.mark.parametrize("changes", [dict(n_slices=8),
                                         dict(bit_depth=12)])
    def test_stacks_must_share_shape_and_bit_depth(self, strong_dataset,
                                                   strong_plan, changes):
        ids = sorted(strong_plan.subset_assignment)
        odd = ids[5]
        geometry = replace(strong_dataset.stacks[0].geometry, **changes)
        stacks = tuple(
            replace(s, geometry=geometry,
                    data=np.zeros(geometry.shape, dtype=np.uint16))
            if s.stack_id == odd else s for s in strong_dataset.stacks)
        with pytest.raises(PlanError, match=f"stack '{odd}' is "):
            run_trial(Dataset(stacks=stacks), strong_plan, CONFIG)

    @pytest.mark.parametrize("bit_depth", [8, 12])
    def test_stacks_must_match_the_display_bit_depth(self, bit_depth):
        # 8-bit codes on a 10-bit display would squeeze into the bottom
        # quarter of its luminance; 12-bit codes would overrun it
        geom = StackGeometry(16, 16, 9, bit_depth, 1.0)
        dataset = generate_dataset(geom, 24, replace(LESION, amplitude=60.0),
                                   seed=404)
        plan = split_dataset(dataset.pairing, n_readers=2, seed=9,
                             min_per_class=6)
        with pytest.raises(PlanError, match=f"the stacks are {bit_depth}-bit, "
                                            "but the display is 10-bit"):
            run_trial(dataset, plan, CONFIG)

    def test_disagreeing_lesion_slices(self):
        h0 = generate_background(GEOM, 1, stack_id="h0")
        h1 = generate_background(GEOM, 2, stack_id="h1")
        narrow = insert_lesion(h0, LesionSpec("microcalc", 50.0,
                                              diameter_px=4.0), "l0")
        wide = insert_lesion(h1, LesionSpec("microcalc", 50.0,
                                            diameter_px=4.0, sigma_z=2.0),
                             "l1")
        ds = Dataset(stacks=(h0, h1, narrow, wide))
        plan = split_dataset(ds.pairing, n_readers=1, seed=0, min_per_class=1)
        with pytest.raises(PlanError, match="disagree"):
            run_trial(ds, plan, CONFIG)


class TestPerceiveResponses:
    @pytest.mark.parametrize("other", [
        dict(display=DisplayModel(l_min=0.5, l_max=300.0)), dict(taper=False),
        dict(n_channels=4), dict(spread=5.0)])
    def test_configs_differ_only_in_ssr_and_slice_rate(self, strong_dataset,
                                                       other):
        # one pass shares the display, the taper and the channel bank
        configs = [CONFIG, replace(CONFIG, ssr=3.5, slice_rate=40.0, **other)]
        with pytest.raises(ValueError, match="only in ssr and slice_rate"):
            perceive_responses(strong_dataset.stacks[:2], configs, (3, 4, 5))


class TestPipelineConfig:
    def test_defaults(self):
        config = PipelineConfig()
        assert config.ssr == 7.0
        assert config.slice_rate == 25.0
        assert config.combiner == "hotelling"

    @pytest.mark.parametrize("kwargs", [
        dict(foveal_mode="blurred"), dict(combiner="median"),
        dict(ssr=0.0), dict(slice_rate=-1.0), dict(n_channels=0),
        dict(spread=0.0), dict(ssr=float("inf")), dict(ssr=float("nan")),
        dict(slice_rate=float("inf")), dict(slice_rate=float("nan")),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            PipelineConfig(**kwargs)
