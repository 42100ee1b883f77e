# trial.py
# -----------------------------------------------------------------------------
# Virtual detection trial: split a dataset of healthy/lesion stack pairs
# into n+1 non-overlapping subsets, train n independent model readers (one
# per training subset), score the one shared test subset with every reader,
# and aggregate to a mean AUC with a one-shot multi-reader multi-case
# (MRMC) variance estimate.
#
# With psi_r(i, j) = 1 if reader r scores lesion case j above healthy case
# i, 1/2 on ties, 0 otherwise, the one-shot variance (Gallas 2006) is
#
#   Var(Abar) = Abar^2 - M8
#
# where Abar is the mean of psi and M8 the mean of psi_r(i, j) psi_r'(i', j')
# over distinct readers and distinct cases on both sides: Gallas's
# weighted sum of the eight (reader, healthy, lesion) coincidence moments
# M1..M8 equals Abar^2 exactly, so only M8 is estimated.  It comes from one
# pass over the R x N0 x N1 success array by inclusion-exclusion on the
# cell, row, column and total sums.  The variance is NaN when either class
# has fewer than two cases, or when the estimate falls below -1e-12.
# -----------------------------------------------------------------------------

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .csf import ViewingConditions
from .display import DisplayModel
from .errors import PlanError
from .observer import (
    COMBINERS,
    central_position,
    channelize_slices,
    lg_channel_bank,
    score_responses,
    train_mscho_from_responses,
)
from .percept import FOVEAL_MODES, apply_stcsf

# channelize_slices is not called here (perceive_responses projects onto the
# channels in the frequency domain); it stays imported because
# perfbench/spans.py patches the observer layer where this module looks it up.

__all__ = [
    "TrialPlan",
    "PipelineConfig",
    "TrialResult",
    "split_dataset",
    "auc_wilcoxon",
    "one_shot_mrmc",
    "plan_stacks",
    "perceive_responses",
    "run_trial",
]


@dataclass(frozen=True)
class TrialPlan:
    """Deterministic subset assignment for one trial.

    Subsets 0..n_readers-1 each train one reader; subset n_readers is the
    shared test set.  Members of a pair always land in different subsets.
    """

    n_readers: int
    seed: int
    subset_assignment: dict
    pairing: tuple


@dataclass(frozen=True)
class PipelineConfig:
    """Everything the trial runner needs besides the data: the display
    model, the viewing/sampling parameters, the perceptual options, and the
    observer hyperparameters."""

    display: DisplayModel = DisplayModel()
    ssr: float = 7.0
    slice_rate: float = 25.0
    foveal_mode: str = "none"
    taper: bool = True
    n_channels: int = 15
    spread: float = 10.0
    combiner: str = "hotelling"

    def __post_init__(self) -> None:
        if self.foveal_mode not in FOVEAL_MODES:
            raise ValueError(f"foveal_mode must be one of {FOVEAL_MODES}")
        if self.combiner not in COMBINERS:
            raise ValueError(f"combiner must be one of {COMBINERS}")
        if not (0 < self.ssr < np.inf and 0 < self.slice_rate < np.inf):
            raise ValueError("ssr and slice_rate must be finite and positive")
        if self.n_channels < 1:
            raise ValueError("n_channels must be at least 1")
        if not 0 < self.spread < np.inf:
            raise ValueError("spread must be finite and positive")


@dataclass(frozen=True, eq=False)
class TrialResult:
    """Outcome of one virtual trial."""

    per_reader_auc: np.ndarray
    mean_auc: float
    variance: float
    scores: np.ndarray       # n_readers x n_test_cases
    test_ids: tuple
    test_labels: np.ndarray  # True where the test case is a lesion stack


def split_dataset(pairing, n_readers: int, seed: int,
                  min_per_class: int = 16) -> TrialPlan:
    """Assign each stack of each (healthy, lesion) pair to one of
    n_readers + 1 subsets.

    Pairs are shuffled deterministically by seed, then dealt round-robin:
    the healthy member of the k-th shuffled pair goes to subset
    k mod (n+1) and its lesion partner to (k+1) mod (n+1), so the two
    always differ and per-class subset sizes stay equal within one.
    Raises PlanError when any subset would get fewer than min_per_class
    members of either class.
    """
    pairs = [(h, l) for h, l in pairing]
    ids_h = {h for h, _ in pairs}
    ids_l = {l for _, l in pairs}
    if len(ids_h) != len(pairs) or len(ids_l) != len(pairs):
        raise PlanError("pairing contains duplicate stack ids")
    if ids_h & ids_l:
        raise PlanError("a stack id appears on both sides of the pairing")
    if n_readers < 1:
        raise PlanError("need at least one reader")
    n_subsets = n_readers + 1
    if len(pairs) // n_subsets < min_per_class:
        raise PlanError(
            f"{len(pairs)} pairs cannot give every one of {n_subsets} subsets "
            f"at least {min_per_class} members per class")
    order = np.random.default_rng(seed).permutation(len(pairs))
    assignment = {}
    for pos, pair_idx in enumerate(order):
        healthy_id, lesion_id = pairs[int(pair_idx)]
        assignment[healthy_id] = pos % n_subsets
        assignment[lesion_id] = (pos + 1) % n_subsets
    return TrialPlan(n_readers=n_readers, seed=seed,
                     subset_assignment=assignment, pairing=tuple(pairs))


def auc_wilcoxon(healthy_scores, lesion_scores) -> float:
    """Mann-Whitney AUC: fraction of (healthy, lesion) pairs where the
    lesion case scores higher, ties counting one half.

    Each lesion score is placed among the sorted healthy scores: the
    healthy scores below it are wins, the equal ones ties.  The count of
    wins plus half the ties is exact in double precision.  Raises
    ValueError on an empty class or a score that is not finite.
    """
    h = np.sort(np.asarray(healthy_scores, dtype=np.float64))
    l = np.asarray(lesion_scores, dtype=np.float64)
    if h.size == 0 or l.size == 0:
        raise ValueError("both classes need at least one score")
    if not (np.isfinite(h).all() and np.isfinite(l).all()):
        raise ValueError("scores must be finite")
    below = np.searchsorted(h, l, side="left")
    ties = np.searchsorted(h, l, side="right") - below
    return float((below.sum() + 0.5 * ties.sum()) / (l.size * h.size))


def _success_matrix(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """psi[r, i, j] for reader r, healthy case i, lesion case j."""
    healthy = scores[:, ~labels]
    lesion = scores[:, labels]
    gt = lesion[:, None, :] > healthy[:, :, None]
    eq = lesion[:, None, :] == healthy[:, :, None]
    return gt.astype(np.float64) + 0.5 * eq


def one_shot_mrmc(score_matrix, labels) -> tuple[float, float]:
    """Mean AUC over readers and its one-shot MRMC variance estimate.

    score_matrix is (n_readers, n_cases); labels marks lesion cases.  All
    readers must have scored the same shared cases.  Returns
    (mean_auc, variance) with variance = mean_auc^2 - M8, M8 the mean
    success product over distinct readers and distinct cases of both
    classes.  The variance is NaN, meaning inestimable, when either class
    has fewer than two cases, or when the unbiased estimate falls below
    -1e-12 (small, weakly correlated studies can land there); estimates
    between -1e-12 and 0 are rounding and return 0.
    """
    scores = np.asarray(score_matrix, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    if scores.ndim != 2 or scores.shape[1] != labels.size:
        raise ValueError("score matrix and labels do not line up")
    n_readers = scores.shape[0]
    if n_readers < 2:
        raise ValueError("need at least two readers")
    n1 = int(labels.sum())
    n0 = int(labels.size - n1)
    if n0 == 0 or n1 == 0:
        raise ValueError("both classes must be present among the test cases")

    psi = _success_matrix(scores, labels)   # (R, N0, N1)
    mean_auc = float(psi.mean())
    if n0 < 2 or n1 < 2:
        return mean_auc, float("nan")

    def cross(a):
        """Sum of a[r] * a[r'] over readers r != r' and a's other axes."""
        s = a.sum(axis=0)
        return float((s * s).sum() - (a * a).sum())

    # r != r' pairs with i != i' and j != j', by inclusion-exclusion
    distinct = cross(psi.sum(axis=(1, 2))) - cross(psi.sum(axis=2)) \
        - cross(psi.sum(axis=1)) + cross(psi)
    m8 = distinct / (n_readers * (n_readers - 1) * n0 * (n0 - 1)
                     * n1 * (n1 - 1))
    variance = mean_auc * mean_auc - m8
    if variance < -1e-12:
        return mean_auc, float("nan")
    return mean_auc, max(variance, 0.0)


def plan_stacks(dataset, plan: TrialPlan,
                config: PipelineConfig = PipelineConfig()) -> tuple:
    """The plan's stacks in id order and the slice range the observer
    reads, the lesion-affected slices the lesion stacks record, checked
    up front.

    Raises PlanError when the plan names a stack the dataset lacks, when
    a stack's (W, H, K) or bit depth differs from the first plan stack's,
    when the stacks' bit depth differs from the display's, or when the
    lesion stacks disagree on the slice range, record none, or miss the
    central slice.
    """
    stacks_by_id = {s.stack_id: s for s in dataset.stacks}
    missing = [sid for sid in plan.subset_assignment if sid not in stacks_by_id]
    if missing:
        raise PlanError(f"plan references unknown stack ids, e.g. {missing[0]!r}")
    stacks = [stacks_by_id[sid] for sid in sorted(plan.subset_assignment)]
    first = stacks[0]
    for stack in stacks[1:]:
        bits, first_bits = stack.geometry.bit_depth, first.geometry.bit_depth
        if (stack.data.shape, bits) != (first.data.shape, first_bits):
            raise PlanError(
                f"stack {stack.stack_id!r} is {stack.data.shape} at {bits} "
                f"bits, but {first.stack_id!r} is {first.data.shape} at "
                f"{first_bits} bits")
    if first.geometry.bit_depth != config.display.bit_depth:
        raise PlanError(
            f"the stacks are {first.geometry.bit_depth}-bit, but the display "
            f"is {config.display.bit_depth}-bit")

    ranges = {stacks_by_id[l].lesion_slices for _, l in plan.pairing}
    if len(ranges) != 1:
        raise PlanError("lesion stacks disagree on the affected slice range")
    slice_range = ranges.pop()
    if not slice_range:
        raise PlanError("lesion stacks record no affected slices")
    try:
        central_position(slice_range, first.data.shape[2])
    except ValueError as exc:
        raise PlanError(str(exc)) from None
    return stacks, slice_range


def perceive_responses(stacks, configs, slice_range) -> np.ndarray:
    """Channel responses of every stack under every pipeline config, in
    one pass over the stacks.

    Returns an (n_stacks, n_configs, len(slice_range), n_channels) array.
    The configs may differ only in ssr and slice_rate (the browsing
    axes); any other difference raises ValueError.  Each stack is mapped
    to luminance and passed to apply_stcsf once, with every config's
    viewing conditions, so it is tapered and forward-transformed once;
    each config costs only its share of the gain, the inverse temporal
    DFT and the projection onto the channels, taken in the frequency
    domain.  Every stack shares one cached channel bank and spectral
    plan.  The stacks must share one shape (see plan_stacks).
    """
    config = configs[0]
    if any(replace(c, ssr=config.ssr, slice_rate=config.slice_rate) != config
           for c in configs):
        raise ValueError("configs may differ only in ssr and slice_rate")
    shape = stacks[0].data.shape
    bank = lg_channel_bank(shape[0], shape[1], config.n_channels,
                           config.spread)
    display = config.display
    # the luminance is a placeholder: apply_stcsf uses each stack's mean
    vcs = [ViewingConditions.for_stack(shape[0], c.ssr, c.slice_rate, 1.0)
           for c in configs]
    return np.array([apply_stcsf(
        display.code_to_luminance(stack.data), vcs,
        foveal_mode=config.foveal_mode, taper=config.taper,
        slices=slice_range, bank=bank)
        for stack in stacks])


def run_trial(dataset, plan: TrialPlan,
              config: PipelineConfig = PipelineConfig(), *,
              responses=None) -> TrialResult:
    """Run one virtual trial.

    dataset provides .stacks (ImageStack objects with integer codes);
    every stack id in the plan must be present.  Each stack is mapped to
    luminance through the display, filtered to its perceived slices and
    reduced to channel responses once (the one-point case of
    perceive_responses); readers then train and score in channel-response
    space, which is arithmetic-identical to scoring whole stacks.

    responses, when given, are this config's (n_stacks, m, n_channels)
    channel responses of the plan's stacks in id order, as
    perceive_responses computes them; a sweep passes them to skip the
    perception stage.
    """
    stacks, slice_range = plan_stacks(dataset, plan, config)
    central_pos = central_position(slice_range, stacks[0].data.shape[2])
    if responses is None:
        responses = perceive_responses(stacks, [config], slice_range)[:, 0]
    responses = np.asarray(responses)
    if responses.shape != (len(stacks), len(slice_range), config.n_channels):
        raise ValueError("responses do not match the plan and config")

    subset = np.array([plan.subset_assignment[s.stack_id] for s in stacks])
    lesion = np.array([s.label == "lesion" for s in stacks])
    test = subset == plan.n_readers
    test_ids = tuple(s.stack_id for s, t in zip(stacks, test) if t)
    test_labels = lesion[test]
    if not (test_labels.any() and (~test_labels).any()):
        raise PlanError("test subset lacks one of the classes")

    scores = np.empty((plan.n_readers, len(test_ids)), dtype=np.float64)
    per_reader_auc = np.empty(plan.n_readers, dtype=np.float64)
    test_resp = responses[test]
    for reader in range(plan.n_readers):
        train = subset == reader
        resp_h, resp_l = responses[train & ~lesion], responses[train & lesion]
        if not (len(resp_h) and len(resp_l)):
            raise PlanError(f"reader {reader} training subset lacks a class")
        model = train_mscho_from_responses(resp_h, resp_l, central_pos,
                                           slice_range, config.combiner)
        scores[reader] = [score_responses(resp, model) for resp in test_resp]
        per_reader_auc[reader] = auc_wilcoxon(scores[reader][~test_labels],
                                              scores[reader][test_labels])

    _, variance = one_shot_mrmc(scores, test_labels)
    mean_auc = float(np.mean(per_reader_auc))
    return TrialResult(per_reader_auc=per_reader_auc, mean_auc=mean_auc,
                       variance=variance, scores=scores, test_ids=test_ids,
                       test_labels=test_labels)
