# trial.py
# -----------------------------------------------------------------------------
# Virtual detection trial: split a dataset of healthy/lesion stack pairs
# into n+1 non-overlapping subsets, check the plan (plan_stacks), reduce
# each stack to channel responses (perceive_responses), then train n model
# readers, one per training subset, score the shared test subset with each
# and aggregate to a mean AUC with a one-shot multi-reader multi-case
# (MRMC) variance estimate (_score, which a sweep runs once per point).
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
# has fewer than two cases, or when the estimate falls below -1e-12.  The
# reader means of psi are the per-reader AUCs, so a trial builds psi once.
# -----------------------------------------------------------------------------

from __future__ import annotations

import numbers
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

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
from .stacks import _available_cpus

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
        if not (isinstance(self.n_channels, numbers.Integral)
                and self.n_channels >= 1):
            raise ValueError(f"n_channels must be an integer of at least 1, "
                             f"got {self.n_channels!r}")
        if not 0 < self.spread < np.inf:
            raise ValueError("spread must be finite and positive")


@dataclass(frozen=True, eq=False)
class TrialResult:
    """Outcome of one virtual trial."""

    per_reader_auc: np.ndarray
    mean_auc: float
    variance: float
    scores: np.ndarray       # n_readers x n_test_cases
    test_labels: np.ndarray  # True where the test case is a lesion stack


def _check_split(n_pairs, n_readers, seed, min_per_class) -> None:
    """Raise PlanError unless n_pairs pairs split for two or more readers
    (one can never be scored) by a non-negative integer seed, with
    min_per_class members of each class in every subset."""
    if n_readers < 2:
        raise PlanError("need at least two readers")
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise PlanError(f"trial seed must be a non-negative integer, "
                        f"got {seed!r}")
    n_subsets = n_readers + 1
    if n_pairs // n_subsets < min_per_class:
        raise PlanError(
            f"{n_pairs} pairs cannot give every one of {n_subsets} subsets "
            f"at least {min_per_class} members per class")


def _check_per_class(per_class, n_slices, config: PipelineConfig) -> None:
    """Raise PlanError unless per_class stacks of each class in every
    training subset train config's readers over n_slices slices:
    hotelling_template needs n_channels + 1 for the channel covariance,
    and the hotelling combiner over more than one slice n_slices + 1 for
    the covariance of the slice scores."""
    n_channels = config.n_channels
    if per_class < n_channels + 1:
        raise PlanError(
            f"{per_class} stacks per class in a training subset cannot "
            f"train {n_channels} channels; need at least {n_channels + 1}")
    if config.combiner == "hotelling" and n_slices > 1 \
            and per_class < n_slices + 1:
        raise PlanError(
            f"{per_class} stacks per class in a training subset cannot "
            f"train the hotelling combiner over {n_slices} slices; need at "
            f"least {n_slices + 1}")


def split_dataset(pairing, n_readers: int, seed: int,
                  min_per_class: int = 16) -> TrialPlan:
    """Assign each stack of each (healthy, lesion) pair to one of
    n_readers + 1 subsets.

    Pairs are shuffled deterministically by seed, then dealt round-robin:
    the healthy member of the k-th shuffled pair goes to subset
    k mod (n+1) and its lesion partner to (k+1) mod (n+1), so the two
    always differ and per-class subset sizes stay equal within one.
    Raises PlanError when the pairing is empty or repeats an id, and
    where _check_split does.
    """
    pairs = [(h, l) for h, l in pairing]
    if not pairs:
        raise PlanError("pairing is empty: there are no lesion stacks")
    ids_h = {h for h, _ in pairs}
    ids_l = {l for _, l in pairs}
    if len(ids_h) != len(pairs) or len(ids_l) != len(pairs):
        raise PlanError("pairing contains duplicate stack ids")
    if ids_h & ids_l:
        raise PlanError("a stack id appears on both sides of the pairing")
    _check_split(len(pairs), n_readers, seed, min_per_class)
    n_subsets = n_readers + 1
    order = np.random.default_rng(seed).permutation(len(pairs))
    assignment = {}
    for pos, pair_idx in enumerate(order):
        healthy_id, lesion_id = pairs[int(pair_idx)]
        assignment[healthy_id] = pos % n_subsets
        assignment[lesion_id] = (pos + 1) % n_subsets
    return TrialPlan(n_readers=n_readers, seed=seed,
                     subset_assignment=assignment)


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


def _success_array(score_matrix, labels) -> np.ndarray:
    """psi[r, i, j] for reader r, healthy case i, lesion case j.  Raises
    ValueError unless scores and labels line up, two or more readers
    scored, both classes are present and every score is finite."""
    scores = np.asarray(score_matrix, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    if scores.ndim != 2 or scores.shape[1] != labels.size:
        raise ValueError("score matrix and labels do not line up")
    if scores.shape[0] < 2:
        raise ValueError("need at least two readers")
    if labels.all() or not labels.any():
        raise ValueError("both classes must be present among the test cases")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    healthy = scores[:, ~labels]
    lesion = scores[:, labels]
    gt = lesion[:, None, :] > healthy[:, :, None]
    eq = lesion[:, None, :] == healthy[:, :, None]
    return gt.astype(np.float64) + 0.5 * eq


def _one_shot_variance(psi: np.ndarray) -> float:
    """The one-shot variance Abar^2 - M8 of an (R, N0, N1) success array,
    with one_shot_mrmc's NaN and rounding rules."""
    n_readers, n0, n1 = psi.shape
    if n0 < 2 or n1 < 2:
        return float("nan")

    def cross(a):
        """Sum of a[r] * a[r'] over readers r != r' and a's other axes."""
        s = a.sum(axis=0)
        return float((s * s).sum() - (a * a).sum())

    # r != r' pairs with i != i' and j != j', by inclusion-exclusion
    distinct = cross(psi.sum(axis=(1, 2))) - cross(psi.sum(axis=2)) \
        - cross(psi.sum(axis=1)) + cross(psi)
    m8 = distinct / (n_readers * (n_readers - 1) * n0 * (n0 - 1)
                     * n1 * (n1 - 1))
    mean_auc = float(psi.mean())
    variance = mean_auc * mean_auc - m8
    if variance < -1e-12:
        return float("nan")
    return max(variance, 0.0)


def one_shot_mrmc(score_matrix, labels) -> tuple[float, float]:
    """Mean AUC over readers and its one-shot MRMC variance estimate.

    score_matrix is (n_readers, n_cases); labels marks lesion cases.  All
    readers must have scored the same shared cases, and every score must
    be finite.  Returns (mean_auc, variance) with variance = mean_auc^2 -
    M8, M8 the mean success product over distinct readers and distinct
    cases of both classes.  The variance is NaN, meaning inestimable,
    when either class has fewer than two cases, or when the unbiased
    estimate falls below -1e-12 (small, weakly correlated studies can
    land there); estimates between -1e-12 and 0 are rounding and return 0.
    """
    psi = _success_array(score_matrix, labels)
    return float(psi.mean()), _one_shot_variance(psi)


def plan_stacks(dataset, plan: TrialPlan,
                config: PipelineConfig = PipelineConfig()) -> tuple:
    """The plan's stacks in id order and the slice range the observer
    reads (the lesion-affected slices the lesion stacks record), checked
    against config before any stack is perceived.

    Raises PlanError when the plan assigns no stacks or names a stack the
    dataset lacks; when a stack's (W, H, K) or bit depth differs from the
    first's or the stacks' bit depth from the display's; when the lesion
    stacks disagree on the slice range, record none, or miss the central
    slice; when the plan has fewer than two readers, puts a stack in a
    subset outside 0..n_readers or leaves a class out of a subset; or
    when the fewest stacks of one class in a training subset cannot train
    config's readers over the slice range (_check_per_class).
    """
    if not plan.subset_assignment:
        raise PlanError("the plan assigns no stacks")
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

    ranges = {s.lesion_slices for s in stacks if s.label == "lesion"}
    if len(ranges) > 1:
        raise PlanError("lesion stacks disagree on the affected slice range")
    slice_range = ranges.pop() if ranges else ()
    if not slice_range:
        raise PlanError("lesion stacks record no affected slices")
    try:
        central_position(slice_range, first.data.shape[2])
    except ValueError as exc:
        raise PlanError(str(exc)) from None
    if plan.n_readers < 2:
        raise PlanError("need at least two readers")
    for sid, subset in sorted(plan.subset_assignment.items()):
        if subset not in range(plan.n_readers + 1):
            raise PlanError(f"stack {sid!r} is in subset {subset!r}, not "
                            f"one of 0..{plan.n_readers}")
    fewest = [min(sum(plan.subset_assignment[s.stack_id] == subset
                      for s in stacks if s.label == label)
                  for label in ("healthy", "lesion"))
              for subset in range(plan.n_readers + 1)]
    for subset, per_class in enumerate(fewest):
        if not per_class:
            raise PlanError("test subset lacks one of the classes"
                            if subset == plan.n_readers else
                            f"reader {subset} training subset lacks a class")
    _check_per_class(min(fewest[:-1]), len(slice_range), config)
    return stacks, slice_range


def perceive_responses(stacks, configs, slice_range) -> np.ndarray:
    """Channel responses of every stack under every pipeline config, in
    one pass over the stacks.

    Returns an (n_stacks, n_configs, len(slice_range), n_channels) array,
    allocated once.  The configs may differ only in ssr and slice_rate
    (the browsing axes); any other difference raises ValueError.  Each
    stack is mapped to luminance and passed to apply_stcsf once, with
    every config's browsing point, so it is tapered and its part even
    about the centre pixel forward-transformed onto the quadrant once;
    per ssr one gain evaluation serves all its configs, and the gain, the
    inverse temporal DFT and the projection onto the channels, on the kept
    quadrant positions, run on batches of configs.  Stacks are perceived
    on a pool of one thread per CPU the process may run on (as taskset
    and the cgroup's CPU quota allow); each thread takes the next stack
    in order when it is free, so nothing waits in a queue, and stack i
    writes row i, so the array does not depend on the CPU count.  The
    first failure in stack order is raised.  They share one
    channel bank, built on the calling thread, and one cached response
    plan, and must share one shape (see plan_stacks).
    """
    config = configs[0]
    if any(replace(c, ssr=config.ssr, slice_rate=config.slice_rate) != config
           for c in configs):
        raise ValueError("configs may differ only in ssr and slice_rate")
    bank = lg_channel_bank(*stacks[0].data.shape[:2], config.n_channels,
                           config.spread)
    points = [(c.ssr, c.slice_rate) for c in configs]
    responses = np.empty((len(stacks), len(configs), len(slice_range),
                          config.n_channels))

    order = iter(range(len(stacks)))
    lock = threading.Lock()
    failures = []

    def perceive():
        # each thread takes the next stack in order until none is left or
        # one has failed, so every stack before a failed one was taken
        while True:
            with lock:
                i = None if failures else next(order, None)
            if i is None:
                return
            try:
                responses[i] = apply_stcsf(
                    config.display.code_to_luminance(stacks[i].data), points,
                    foveal_mode=config.foveal_mode, taper=config.taper,
                    slices=slice_range, bank=bank)
            except Exception as exc:
                with lock:
                    failures.append((i, exc))
                return

    threads = min(_available_cpus(), len(stacks))
    with ThreadPoolExecutor(threads) as pool:
        workers = [pool.submit(perceive) for _ in range(threads)]
    for worker in workers:
        worker.result()
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return responses


def run_trial(dataset, plan: TrialPlan,
              config: PipelineConfig = PipelineConfig()) -> TrialResult:
    """Run one virtual trial.

    dataset provides .stacks (ImageStack objects with integer codes);
    every stack id in the plan must be present.  The plan is checked
    against config (plan_stacks), each stack reduced to channel responses
    once (perceive_responses at one point), and the readers train and
    score in channel-response space.
    """
    stacks, slice_range = plan_stacks(dataset, plan, config)
    responses = perceive_responses(stacks, [config], slice_range)[:, 0]
    return _score(stacks, plan, responses, config, slice_range)


def _score(stacks, plan: TrialPlan, responses, config: PipelineConfig,
           slice_range) -> TrialResult:
    """Train every reader on its subset of the (n_stacks, m, n_channels)
    responses of plan_stacks' stacks, score the test subset with each and
    read out the mean AUC and its one-shot variance."""
    central_pos = central_position(slice_range, stacks[0].data.shape[2])
    subset = np.array([plan.subset_assignment[s.stack_id] for s in stacks])
    lesion = np.array([s.label == "lesion" for s in stacks])
    test = subset == plan.n_readers
    models = [train_mscho_from_responses(
        responses[(subset == r) & ~lesion], responses[(subset == r) & lesion],
        central_pos, config.combiner) for r in range(plan.n_readers)]
    scores = np.array([score_responses(responses[test], m) for m in models])
    psi = _success_array(scores, lesion[test])
    per_reader_auc = psi.mean(axis=(1, 2))
    return TrialResult(per_reader_auc=per_reader_auc,
                       mean_auc=float(np.mean(per_reader_auc)),
                       variance=_one_shot_variance(psi), scores=scores,
                       test_labels=lesion[test])
