import sys
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cinecho import percept, trial
from cinecho.config import DEFAULTS
from cinecho.display import DisplayModel
from cinecho.errors import PlanError
from cinecho.harness import SweepSpec, run_sweep
from cinecho.observer import lg_channel_bank
from cinecho.percept import FOVEAL_MODES, apply_stcsf
from cinecho.stacks import Dataset, ImageStack, LesionSpec, StackGeometry, \
    generate_background, generate_dataset, insert_lesion, read_dataset, \
    write_dataset
from cinecho.trial import (
    PipelineConfig,
    TrialPlan,
    _one_shot_variance,
    _success_array,
    auc_wilcoxon,
    one_shot_mrmc,
    perceive_responses,
    plan_stacks,
    run_trial,
    split_dataset,
)


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
        pairs = _pairing(30)
        plan = split_dataset(pairs, n_readers=3, seed=5, min_per_class=4)
        for h, l in pairs:
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

    def test_needs_two_readers(self):
        # a one-reader plan could never be scored: the one-shot variance
        # needs two readers
        with pytest.raises(PlanError, match="need at least two readers"):
            split_dataset(_pairing(8), n_readers=1, seed=0, min_per_class=1)

    def test_empty_pairing(self):
        # min_per_class 0 lets zero pairs past the size check
        with pytest.raises(PlanError, match="pairing is empty"):
            split_dataset((), n_readers=2, seed=0, min_per_class=0)

    @pytest.mark.parametrize("seed", [-1, 2.5, "7"])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(PlanError, match=f"trial seed must be a "
                                            f"non-negative integer, got "
                                            f"{seed!r}$"):
            split_dataset(_pairing(9), n_readers=2, seed=seed,
                          min_per_class=1)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score(self, bad):
        # a nan compares false both ways and would count as a loss
        labels = np.array([0, 0, 1, 1], bool)
        for at in ((0, 0), (1, 2)):
            scores = np.array([[0.1, 0.2, 0.9, 0.8], [0.1, 0.3, 0.7, 0.6]])
            scores[at] = bad
            with pytest.raises(ValueError, match="scores must be finite"):
                one_shot_mrmc(scores, labels)

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

    @staticmethod
    def _psi_with_variance(variance):
        # psi = 1/2 + b v_i w_j with v = w = (1, -1), the same for both
        # readers: the mean stays 1/2 and M8 is 1/4 + b^2, so the one-shot
        # estimate is -b^2
        b = np.sqrt(-variance)
        pattern = 0.5 + b * np.outer([1.0, -1.0], [1.0, -1.0])
        return np.stack([pattern, pattern])

    def test_estimate_near_minus_1e9_is_nan(self):
        assert np.isnan(_one_shot_variance(self._psi_with_variance(-1e-9)))

    def test_estimate_between_minus_1e12_and_zero_is_zero(self):
        assert _one_shot_variance(self._psi_with_variance(-1e-13)) == 0.0


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
    def test_success_reader_means_are_wilcoxon_aucs(self, study):
        # run_trial's per-reader AUCs, bit for bit, with ties
        scores, labels, _, _ = study
        means = _success_array(scores, labels).mean(axis=(1, 2))
        assert means.tolist() == [auc_wilcoxon(row[~labels], row[labels])
                                  for row in scores]

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


@pytest.fixture
def no_perception(monkeypatch):
    """Make perceiving any stack fail the test."""
    def perceive(*args, **kwargs):
        raise AssertionError("a stack was perceived before the plan was "
                             "checked")
    monkeypatch.setattr(trial, "apply_stcsf", perceive)


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
        # test cases in id order: the plan's subset 2
        test_ids = _subset_ids(strong_plan, 2)
        assert result.test_labels.tolist() \
            == [sid.startswith("l") for sid in test_ids]
        assert result.test_labels.sum() == 8

    def test_needs_two_readers(self, strong_dataset, strong_plan,
                               no_perception):
        # the one-shot variance needs distinct reader pairs; a hand-built
        # one-reader plan (split_dataset draws none) is refused before any
        # stack is perceived.  Both of its subsets hold both classes.
        assignment = {sid: 0 if subset < 2 else 1
                      for sid, subset in strong_plan.subset_assignment.items()}
        plan = TrialPlan(n_readers=1, seed=9, subset_assignment=assignment)
        with pytest.raises(PlanError, match="need at least two readers"):
            run_trial(strong_dataset, plan, CONFIG)

    @pytest.mark.parametrize(("emptied", "message"), [
        (2, "test subset lacks one of the classes"),
        (1, "reader 1 training subset lacks a class")])
    def test_subset_lacking_a_class_fails_before_perception(
            self, strong_dataset, strong_plan, no_perception, emptied,
            message):
        # the lesion stacks of one subset move to subset 0, which keeps
        # both classes; subset 2 is the test subset of two readers
        labels = {s.stack_id: s.label for s in strong_dataset.stacks}
        assignment = {
            sid: 0 if subset == emptied and labels[sid] == "lesion" else subset
            for sid, subset in strong_plan.subset_assignment.items()}
        plan = TrialPlan(n_readers=2, seed=9, subset_assignment=assignment)
        with pytest.raises(PlanError, match=message):
            run_trial(strong_dataset, plan, CONFIG)

    @pytest.mark.parametrize(("moved", "message"), [
        ({"h00": 7, "l00": -1}, "stack 'h00' is in subset 7, not one of 0..2"),
        ({"h00": 0, "l00": -1}, "stack 'l00' is in subset -1, not one of "),
        ({"h03": 1.5}, "stack 'h03' is in subset 1.5, not one of 0..2")])
    def test_subset_outside_the_plan_fails_before_perception(
            self, strong_dataset, strong_plan, no_perception, moved,
            message):
        # a stack in no subset of the plan would be perceived and then
        # left out of training and test without a word
        plan = replace(strong_plan, subset_assignment={
            **strong_plan.subset_assignment, **moved})
        with pytest.raises(PlanError, match=message):
            run_trial(strong_dataset, plan, CONFIG)

    def test_too_few_to_train_the_channels_fails_before_perception(
            self, strong_dataset, strong_plan, no_perception):
        # 24 pairs over three subsets leave 8 stacks per class in each;
        # a covariance over 8 channels needs 9
        with pytest.raises(PlanError, match="8 stacks per class in a "
                           "training subset cannot train 8 channels; need "
                           "at least 9"):
            run_trial(strong_dataset, strong_plan,
                      replace(CONFIG, n_channels=8))

    def test_plan_stacks_alone_checks_the_training_floor(
            self, strong_dataset, strong_plan, no_perception):
        # the one check run_trial and run_sweep make of a plan: an
        # undertrained plan is refused by plan_stacks itself, with nothing
        # perceived
        undertrained = replace(CONFIG, n_channels=8)
        with pytest.raises(PlanError, match="8 stacks per class in a "
                           "training subset cannot train 8 channels; need "
                           "at least 9"):
            plan_stacks(strong_dataset, strong_plan, undertrained)
        # a training subset that lacks a class (0 stacks of it, below any
        # floor) is named as such first
        labels = {s.stack_id: s.label for s in strong_dataset.stacks}
        plan = replace(strong_plan, subset_assignment={
            sid: 0 if subset == 1 and labels[sid] == "lesion" else subset
            for sid, subset in strong_plan.subset_assignment.items()})
        with pytest.raises(PlanError,
                           match="reader 1 training subset lacks a class"):
            plan_stacks(strong_dataset, plan, undertrained)

    def test_training_subsets_that_just_train_the_channels(
            self, strong_dataset, strong_plan):
        result = run_trial(strong_dataset, strong_plan,
                           replace(CONFIG, n_channels=7))
        assert result.scores.shape == (2, 16)

    @pytest.fixture(scope="class")
    def five_per_class(self):
        # 15 pairs over three subsets leave 5 stacks per class in each:
        # enough for 3 channels, too few for the hotelling combiner over
        # the 5-slice range, whose covariance needs 6
        dataset = generate_dataset(GEOM, 15, LESION, seed=404)
        return dataset, split_dataset(dataset.pairing, n_readers=2, seed=9,
                                      min_per_class=4)

    def test_too_few_to_train_the_combiner_fails_before_perception(
            self, five_per_class, no_perception):
        dataset, plan = five_per_class
        config = replace(CONFIG, n_channels=3)
        message = ("5 stacks per class in a training subset cannot train "
                   "the hotelling combiner over 5 slices; need at least 6")
        with pytest.raises(PlanError, match=message):
            run_trial(dataset, plan, config)
        values = {"observer.n_channels": 3, "observer.spread": 4.0}
        with pytest.raises(PlanError, match=message):
            run_sweep(dataset, SweepSpec("slice_rate", (10.0, 25.0)),
                      {**DEFAULTS, **values}, plan)

    @pytest.mark.parametrize("combiner", ["max", "mean"])
    def test_combiners_without_a_covariance_train_on_fewer(
            self, five_per_class, combiner):
        dataset, plan = five_per_class
        result = run_trial(dataset, plan,
                           replace(CONFIG, n_channels=3, combiner=combiner))
        assert result.scores.shape == (2, 10)

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

    def test_empty_plan(self, strong_dataset, strong_plan):
        empty = replace(strong_plan, subset_assignment={})
        with pytest.raises(PlanError, match="the plan assigns no stacks"):
            run_trial(strong_dataset, empty, CONFIG)

    def test_lesion_stacks_recording_no_slices_fail_before_perception(
            self, strong_dataset, strong_plan, no_perception, tmp_path):
        # lesion headers whose lesion_slices line is empty read back as
        # lesion stacks that record no affected slices
        write_dataset(strong_dataset, tmp_path)
        for stack in strong_dataset.stacks:
            if stack.label == "lesion":
                header = tmp_path / f"{stack.stack_id}.u16.hdr"
                listed = ",".join(map(str, stack.lesion_slices))
                header.write_text(header.read_text(encoding="utf-8").replace(
                    f"lesion_slices = {listed}\n", "lesion_slices =\n"),
                    encoding="utf-8")
        dataset = read_dataset(tmp_path)
        assert all(s.lesion_slices == () for s in dataset.stacks)
        with pytest.raises(PlanError,
                           match="lesion stacks record no affected slices"):
            run_trial(dataset, strong_plan, CONFIG)

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
        healthy = [generate_background(GEOM, i + 1, stack_id=f"h{i}")
                   for i in range(3)]
        narrow = LesionSpec("microcalc", 50.0, diameter_px=4.0)
        wide = replace(narrow, sigma_z=2.0)
        lesion = [insert_lesion(h, spec, f"l{i}") for i, (h, spec)
                  in enumerate(zip(healthy, (narrow, wide, narrow)))]
        ds = Dataset(stacks=tuple(healthy + lesion))
        # three pairs give each of the two readers' subsets and the test
        # subset one pair's worth
        plan = split_dataset(ds.pairing, n_readers=2, seed=0, min_per_class=1)
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

    CONFIGS = [CONFIG, replace(CONFIG, ssr=3.5, slice_rate=40.0)]

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_any_cpu_count_gives_the_per_stack_loop(self, strong_dataset,
                                                    monkeypatch, cpus):
        # three threads take ten stacks unevenly, and switching threads
        # often tests that every stack's responses land in its own place
        stacks = strong_dataset.stacks[:10]
        slices = stacks[1].lesion_slices
        bank = lg_channel_bank(16, 16, CONFIG.n_channels, CONFIG.spread)
        expected = np.array([apply_stcsf(
            CONFIG.display.code_to_luminance(s.data),
            [(c.ssr, c.slice_rate) for c in self.CONFIGS],
            foveal_mode=CONFIG.foveal_mode, taper=CONFIG.taper,
            slices=slices, bank=bank) for s in stacks])
        monkeypatch.setattr(trial, "_available_cpus", lambda: cpus)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = perceive_responses(stacks, self.CONFIGS, slices)
        finally:
            sys.setswitchinterval(interval)
        assert got.shape == (10, 2, len(slices), 5)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_the_first_failure_in_stack_order_is_raised(
            self, strong_dataset, monkeypatch, cpus):
        # stacks 4 and 7 fail, 4 only after a wait, so at three threads 7
        # fails first; 4 is raised all the same, every stack before a
        # failure was started, and at one thread none after it
        stacks = strong_dataset.stacks[:10]
        lums = [CONFIG.display.code_to_luminance(s.data).tobytes()
                for s in stacks]
        started = []
        perceive = trial.apply_stcsf

        def failing(lum, *args, **kwargs):
            i = lums.index(lum.tobytes())
            started.append(i)
            if i == 4:
                time.sleep(0.2)
            if i in (4, 7):
                raise ValueError(f"stack {i}")
            return perceive(lum, *args, **kwargs)

        monkeypatch.setattr(trial, "_available_cpus", lambda: cpus)
        monkeypatch.setattr(trial, "apply_stcsf", failing)
        with pytest.raises(ValueError, match="^stack 4$"):
            perceive_responses(stacks, self.CONFIGS, (3, 4, 5))
        assert sorted(started) == list(range(max(started) + 1))
        if cpus == 1:
            assert started == [0, 1, 2, 3, 4]

    def test_the_responses_are_held_once(self, monkeypatch):
        # traced allocations of a one-thread pass: each added stack costs
        # its row of the output (1.02-1.03 rows measured), with a margin of
        # 0.07 rows, not a second copy of the row (gathering per-stack
        # lists of rows with np.array reads 2.3 rows) nor a queued task
        # per stack (about 1.7 kB each, a seventh of a row: 1.14 rows)
        monkeypatch.setattr(trial, "_available_cpus", lambda: 1)
        config = replace(CONFIG, n_channels=15)
        configs = [replace(config, slice_rate=1.0 + 2.0 * i)
                   for i in range(20)]
        slices = (2, 3, 4, 5, 6)
        stack = generate_background(GEOM, 1)

        def peak(n_stacks):
            perceive_responses([stack] * n_stacks, configs, slices)
            tracemalloc.start()
            try:
                perceive_responses([stack] * n_stacks, configs, slices)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        row = len(configs) * len(slices) * config.n_channels * 8
        assert peak(100) - peak(20) <= 1.1 * 80 * row

    @pytest.mark.skipif(sys.version_info < (3, 11), reason=(
        "below Python 3.11 the caller's frame keeps a temporary argument "
        "alive until the call returns"))
    def test_a_thread_holds_one_stack_sized_array(self, monkeypatch):
        # traced allocations of a one-thread pass at one point, on stacks
        # whose float64 copy dominates: at the peak the luminance and the
        # contrast (or code_to_luminance's index and its result), about 2
        # stacks (2.01 measured), not the luminance kept beside the
        # contrast through the transform (2.78); and while the gains are
        # weighed in, the spectrum and the output alone
        monkeypatch.setattr(trial, "_available_cpus", lambda: 1)
        geometry = StackGeometry(96, 96, 16, 10, 1.0)
        stacks = [generate_background(geometry, seed) for seed in (1, 2)]
        slices = (6, 7, 8, 9)
        # the bank and the plan are cached by the first pass
        perceive_responses(stacks, [CONFIG], slices)
        held = []
        weighed = percept._Plan.weighed

        def traced_weighed(plan, spectrum, luminance):
            held.append(tracemalloc.get_traced_memory()[0])
            yield from weighed(plan, spectrum, luminance)

        monkeypatch.setattr(percept._Plan, "weighed", traced_weighed)
        tracemalloc.start()
        try:
            perceive_responses(stacks, [CONFIG], slices)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stack = 96 * 96 * 16 * 8
        output = len(stacks) * len(slices) * CONFIG.n_channels * 8
        assert peak - output < 2.5 * stack
        assert len(held) == len(stacks)
        assert max(held) - output < 0.5 * stack


@st.composite
def _browsed_codes(draw):
    """Three small random square stacks of 10-bit codes, a slice range
    and points at two ssr values times two slice rates."""
    size, n_sl = draw(st.integers(12, 16)), draw(st.integers(5, 12))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    codes = np.random.default_rng(seed).integers(
        0, 1024, (3, size, size, n_sl), dtype=np.uint16)
    first = draw(st.integers(0, n_sl - 1))
    slices = tuple(range(first, draw(st.integers(first + 1, n_sl))))
    ssrs = draw(st.lists(st.sampled_from([2.0, 3.5, 7.0, 12.0]),
                         min_size=2, max_size=2, unique=True))
    rates = draw(st.lists(st.sampled_from([1.0, 5.0, 25.0, 45.0]),
                          min_size=2, max_size=2, unique=True))
    config = replace(CONFIG, foveal_mode=draw(st.sampled_from(FOVEAL_MODES)))
    configs = [replace(config, ssr=ssr, slice_rate=rate)
               for ssr in ssrs for rate in rates]
    return codes, slices, configs


def _responses(codes, configs, slices):
    geometry = StackGeometry(*codes.shape[1:], 10, 1.0)
    stacks = [ImageStack(geometry, np.ascontiguousarray(c), f"h{i}",
                         "healthy") for i, c in enumerate(codes)]
    return perceive_responses(stacks, configs, slices)


# Each relation feeds the chain the same samples in another order, so the
# two sides differ by rounding alone: the sums of the forward FFT (about
# log2(16 * 16 * 12) = 12 stages), the mean and the two GEMMs (at most
# 2 * 16 * 9 terms) round in another order.  Their errors grow like
# sqrt(terms) ulps, about 30 here; 64 ulps of the largest |response| is
# above that, and far below the order-one change a broken symmetry makes.
RELATION_ULPS = 64


def _assert_relation_holds(got, want):
    assert got.shape == want.shape
    bound = RELATION_ULPS * np.spacing(np.abs(want).max())
    assert np.abs(got - want).max() <= bound


class TestChainSymmetries:
    """Exact relations of perceive_responses: the square stacks' x and y
    axes are interchangeable (the taper, the fovea, the channels and the
    radial frequency are symmetric), the slices may run backwards (the
    gain is even in w) and, the browsing loop being periodic, start at
    any slice."""

    @settings(max_examples=25, deadline=None)
    @given(case=_browsed_codes())
    def test_transposing_x_and_y(self, case):
        codes, slices, configs = case
        _assert_relation_holds(
            _responses(codes.transpose(0, 2, 1, 3), configs, slices),
            _responses(codes, configs, slices))

    @settings(max_examples=25, deadline=None)
    @given(case=_browsed_codes())
    def test_reversing_the_slices(self, case):
        codes, slices, configs = case
        n_sl = codes.shape[3]
        _assert_relation_holds(
            _responses(codes[..., ::-1], configs,
                       tuple(n_sl - 1 - s for s in slices)),
            _responses(codes, configs, slices))

    @settings(max_examples=25, deadline=None)
    @given(case=_browsed_codes(), shift=st.integers(1, 11))
    def test_rolling_the_slices(self, case, shift):
        codes, slices, configs = case
        n_sl = codes.shape[3]
        _assert_relation_holds(
            _responses(np.roll(codes, shift, axis=3), configs,
                       tuple((s + shift) % n_sl for s in slices)),
            _responses(codes, configs, slices))


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
        dict(n_channels=2.5), dict(n_channels="3"),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            PipelineConfig(**kwargs)
