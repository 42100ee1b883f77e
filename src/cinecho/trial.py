# trial.py
# -----------------------------------------------------------------------------
# Virtual detection trial: split a dataset of healthy/lesion stack pairs
# into n+1 non-overlapping subsets, train n independent model readers (one
# per training subset), score the one shared test subset with every reader,
# and aggregate to a mean AUC with a one-shot multi-reader multi-case
# (MRMC) variance estimate.
#
# The variance estimator decomposes the second moment of the reader-and-
# case-averaged success indicator
#
#   psi_r(i, j) = 1 if reader r scores lesion case j above healthy case i,
#                 1/2 on ties, 0 otherwise
#
# over the eight (reader, healthy, lesion) coincidence patterns.  Each of
# the eight moments gets an unbiased plug-in estimate from the observed
# success matrix, and
#
#   Var(Abar) = (1/(R N0 N1)) [M1 + (N0-1) M2 + (N1-1) M3
#                              + (N0-1)(N1-1) M4]
#             + ((R-1)/(R N0 N1)) [M5 + (N0-1) M6 + (N1-1) M7
#                              + (N0-1)(N1-1) M8]
#             - M8
#
# where M8 (distinct readers, distinct cases on both sides) estimates the
# squared mean.  Pair sums with "not equal" constraints are computed by
# inclusion-exclusion on row/column/total sums, so everything is a single
# pass over the R x N0 x N1 success array.
# -----------------------------------------------------------------------------

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.stats import rankdata

from .csf import CsfConstants, DEFAULT_CONSTANTS, ViewingConditions
from .display import DisplayModel
from .errors import PlanError, PointError
from .observer import (
    COMBINERS,
    channelize_slices,
    lg_channel_bank,
    score_responses,
    train_mscho_from_responses,
)
from .percept import (
    DEFAULT_FOVEAL,
    FOVEAL_MODES,
    FovealParams,
    apply_stcsf,
    spectral_plan,
)

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

    @property
    def n_subsets(self) -> int:
        return self.n_readers + 1

    def subset_ids(self, subset: int) -> list:
        return sorted(sid for sid, s in self.subset_assignment.items()
                      if s == subset)


@dataclass(frozen=True)
class PipelineConfig:
    """Everything the trial runner needs besides the data: the display
    model, the viewing/sampling parameters, the perceptual options, and the
    observer hyperparameters.  slice_range None means "use the lesion-
    affected slices recorded by the generator"."""

    display: DisplayModel = DisplayModel()
    ssr: float = 7.0
    slice_rate: float = 25.0
    csf_constants: CsfConstants = DEFAULT_CONSTANTS
    foveal_mode: str = "none"
    foveal_params: FovealParams = DEFAULT_FOVEAL
    taper: bool = True
    n_channels: int = 15
    spread: float = 10.0
    combiner: str = "hotelling"
    slice_range: tuple | None = None

    def __post_init__(self) -> None:
        if self.foveal_mode not in FOVEAL_MODES:
            raise ValueError(f"foveal_mode must be one of {FOVEAL_MODES}")
        if self.combiner not in COMBINERS:
            raise ValueError(f"combiner must be one of {COMBINERS}")
        if not (self.ssr > 0 and self.slice_rate > 0):
            raise ValueError("ssr and slice_rate must be positive")
        if self.n_channels < 1 or not self.spread > 0:
            raise ValueError("bad observer hyperparameters")


@dataclass(frozen=True, eq=False)
class TrialResult:
    """Outcome of one virtual trial."""

    per_reader_auc: np.ndarray
    mean_auc: float
    variance: float
    scores: np.ndarray       # n_readers x n_test_cases
    test_ids: tuple
    test_labels: np.ndarray  # True where the test case is a lesion stack
    metadata: dict = field(default_factory=dict)


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
    if len(set(h for h, _ in pairs)) != len(pairs) \
            or len(set(l for _, l in pairs)) != len(pairs):
        raise PlanError("pairing contains duplicate stack ids")
    ids_h = {h for h, _ in pairs}
    ids_l = {l for _, l in pairs}
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

    Computed from midranks, which reproduces brute-force pair counting
    exactly (sums of integers and halves are exact in double precision).
    """
    h = np.asarray(healthy_scores, dtype=np.float64)
    l = np.asarray(lesion_scores, dtype=np.float64)
    if h.size == 0 or l.size == 0:
        raise ValueError("both classes need at least one score")
    ranks = rankdata(np.concatenate([h, l]))
    rank_sum_lesion = float(ranks[h.size:].sum())
    return (rank_sum_lesion - l.size * (l.size + 1) / 2.0) / (l.size * h.size)


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
    (mean_auc, variance); the variance is NaN when either class has fewer
    than two cases (the case-pair moments are then inestimable).
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

    r = float(n_readers)
    sq = psi * psi
    row = psi.sum(axis=2)          # (R, N0): per-healthy sums
    col = psi.sum(axis=1)          # (R, N1): per-lesion sums
    tot = psi.sum(axis=(1, 2))     # (R,)
    sum_sq = sq.sum()
    sum_row2 = (row * row).sum()
    sum_col2 = (col * col).sum()
    sum_tot2 = (tot * tot).sum()

    # cross-reader aggregates: sums over readers first
    psi_r = psi.sum(axis=0)        # (N0, N1)
    row_r = row.sum(axis=0)        # (N0,)
    col_r = col.sum(axis=0)        # (N1,)
    tot_r = float(tot.sum())
    cross_cell = (psi_r * psi_r).sum() - sum_sq            # pairs r != r', same (i, j)
    cross_row = (row_r * row_r).sum() - sum_row2           # r != r', same i, any j pair
    cross_col = (col_r * col_r).sum() - sum_col2
    cross_tot = tot_r * tot_r - sum_tot2

    m1 = sum_sq / (r * n0 * n1)
    m2 = (sum_col2 - sum_sq) / (r * n0 * (n0 - 1) * n1)
    m3 = (sum_row2 - sum_sq) / (r * n0 * n1 * (n1 - 1))
    m4 = (sum_tot2 - sum_row2 - sum_col2 + sum_sq) \
        / (r * n0 * (n0 - 1) * n1 * (n1 - 1))
    rr = r * (r - 1)
    m5 = cross_cell / (rr * n0 * n1)
    m6 = (cross_col - cross_cell) / (rr * n0 * (n0 - 1) * n1)
    m7 = (cross_row - cross_cell) / (rr * n0 * n1 * (n1 - 1))
    m8 = (cross_tot - cross_row - cross_col + cross_cell) \
        / (rr * n0 * (n0 - 1) * n1 * (n1 - 1))

    variance = (m1 + (n0 - 1) * m2 + (n1 - 1) * m3
                + (n0 - 1) * (n1 - 1) * m4) / (r * n0 * n1) \
        + (r - 1) / (r * n0 * n1) * (m5 + (n0 - 1) * m6 + (n1 - 1) * m7
                                     + (n0 - 1) * (n1 - 1) * m8) \
        - m8
    if variance < -1e-12:
        raise ValueError(f"variance estimate {variance} is negative beyond "
                         "numerical tolerance")
    return mean_auc, max(variance, 0.0)


def _auto_slice_range(stacks_by_id: dict, plan: TrialPlan) -> tuple:
    ranges = {tuple(stacks_by_id[l].lesion_slices) for _, l in plan.pairing}
    if len(ranges) != 1:
        raise PlanError("lesion stacks disagree on the affected slice range")
    srange = ranges.pop()
    if not srange:
        raise PlanError("lesion stacks record no affected slices")
    return srange


def plan_stacks(dataset, plan: TrialPlan,
                config: PipelineConfig = PipelineConfig()) -> tuple:
    """The plan's stacks in id order and the slice range the observer
    reads, checked up front.

    Raises PlanError when the plan names a stack the dataset lacks, when
    a stack's (W, H, K) or bit depth differs from the first plan stack's,
    or when the slice range leaves the stack or misses the central slice.
    """
    stacks_by_id = {s.stack_id: s for s in dataset.stacks}
    missing = [sid for sid in plan.subset_assignment if sid not in stacks_by_id]
    if missing:
        raise PlanError(f"plan references unknown stack ids, e.g. {missing[0]!r}")
    stacks = [stacks_by_id[sid] for sid in sorted(plan.subset_assignment)]
    first = stacks[0]
    for stack in stacks[1:]:
        if (stack.data.shape, stack.bit_depth) \
                != (first.data.shape, first.bit_depth):
            raise PlanError(
                f"stack {stack.stack_id!r} is {stack.data.shape} at "
                f"{stack.bit_depth} bits, but {first.stack_id!r} is "
                f"{first.data.shape} at {first.bit_depth} bits")

    slice_range = config.slice_range
    if slice_range is None:
        slice_range = _auto_slice_range(stacks_by_id, plan)
    slice_range = tuple(int(s) for s in slice_range)
    depth = first.data.shape[2]
    if depth // 2 not in slice_range:
        raise PlanError(f"slice range {slice_range} misses the central "
                        f"slice {depth // 2}")
    if min(slice_range) < 0 or max(slice_range) >= depth:
        raise PlanError(f"slice range {slice_range} leaves the {depth} "
                        f"slices of the stacks")
    return stacks, slice_range


def perceive_responses(stacks, configs, slice_range) -> np.ndarray:
    """Channel responses of every stack under every pipeline config, in
    one pass over the stacks.

    Returns an (n_stacks, n_configs, len(slice_range), n_channels) array.
    The configs may differ in display, ssr and slice_rate (the sweep
    axes) and must share the channel bank.  One spectral plan per display
    group is built up front; each stack is then mapped to luminance,
    tapered and forward-transformed once per distinct display, and each
    config costs only its share of the gain, the inverse temporal DFT and
    the projection onto the channels, taken in the frequency domain.  The
    stacks must share one shape (see plan_stacks).  Raises PointError
    naming the position of the config whose work failed.
    """
    configs = list(configs)
    if len({(c.n_channels, c.spread) for c in configs}) != 1:
        raise ValueError("configs must share the channel bank")
    groups = {}
    for i, config in enumerate(configs):
        key = (config.display, config.taper, config.csf_constants,
               config.foveal_mode, config.foveal_params)
        groups.setdefault(key, []).append(i)
    shape = stacks[0].data.shape
    bank = lg_channel_bank(shape[0], shape[1], configs[0].n_channels,
                           configs[0].spread)
    vcs = []
    for i, config in enumerate(configs):
        # the luminance is a placeholder: apply_stcsf uses each stack's mean
        nominal = config.display.code_to_luminance(config.display.max_code // 2)
        try:
            vcs.append(ViewingConditions.for_stack(
                shape[0], config.ssr, config.slice_rate, float(nominal)))
        except ValueError as exc:
            raise PointError(i, exc) from exc
    plans = []
    for members in groups.values():
        config = configs[members[0]]
        try:
            plans.append(spectral_plan(
                shape, [vcs[i] for i in members], slice_range,
                foveal_mode=config.foveal_mode,
                foveal_params=config.foveal_params, bank=bank))
        except ValueError as exc:
            raise PointError(members[0], exc) from exc
    out = np.empty((len(stacks), len(configs), len(slice_range),
                    bank.n_channels))
    for row, stack in enumerate(stacks):
        for members, plan in zip(groups.values(), plans):
            config = configs[members[0]]
            try:
                out[row, members] = apply_stcsf(
                    config.display.code_to_luminance(stack.data),
                    [vcs[i] for i in members], config.csf_constants,
                    foveal_mode=config.foveal_mode,
                    foveal_params=config.foveal_params, taper=config.taper,
                    slices=slice_range, bank=bank, plan=plan)
            except Exception as exc:
                # the steps that can raise here are shared by the whole
                # group (its display and the stack): name its first config
                raise PointError(members[0], exc) from exc
    return out


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
    central_pos = slice_range.index(stacks[0].data.shape[2] // 2)
    if responses is None:
        try:
            responses = perceive_responses(stacks, [config], slice_range)[:, 0]
        except PointError as exc:
            raise exc.cause from None
    if np.shape(responses) != (len(stacks), len(slice_range),
                               config.n_channels):
        raise ValueError("responses do not match the plan and config")
    width, height, _ = stacks[0].data.shape
    bank = lg_channel_bank(width, height, config.n_channels, config.spread)
    stacks_by_id = {stack.stack_id: stack for stack in stacks}
    responses = dict(zip(sorted(plan.subset_assignment), responses))

    labels_by_id = {sid: stacks_by_id[sid].label == "lesion"
                    for sid in plan.subset_assignment}

    test_ids = plan.subset_ids(plan.n_readers)
    test_labels = np.array([labels_by_id[sid] for sid in test_ids])
    if not (test_labels.any() and (~test_labels).any()):
        raise PlanError("test subset lacks one of the classes")

    scores = np.empty((plan.n_readers, len(test_ids)), dtype=np.float64)
    per_reader_auc = np.empty(plan.n_readers, dtype=np.float64)
    test_resp = np.array([responses[sid] for sid in test_ids])
    for reader in range(plan.n_readers):
        train_ids = plan.subset_ids(reader)
        resp_h = np.array([responses[sid] for sid in train_ids
                           if not labels_by_id[sid]])
        resp_l = np.array([responses[sid] for sid in train_ids
                           if labels_by_id[sid]])
        if resp_h.ndim != 3 or resp_l.ndim != 3:
            raise PlanError(f"reader {reader} training subset lacks a class")
        model = train_mscho_from_responses(resp_h, resp_l, central_pos,
                                           slice_range, config.combiner,
                                           bank=bank)
        scores[reader] = [score_responses(resp, model) for resp in test_resp]
        per_reader_auc[reader] = auc_wilcoxon(scores[reader][~test_labels],
                                              scores[reader][test_labels])

    _, variance = one_shot_mrmc(scores, test_labels)
    mean_auc = float(np.mean(per_reader_auc))
    metadata = {
        "n_readers": plan.n_readers,
        "plan_seed": plan.seed,
        "slice_range": slice_range,
        "ssr": config.ssr,
        "slice_rate": config.slice_rate,
        "combiner": config.combiner,
        "foveal_mode": config.foveal_mode,
    }
    return TrialResult(per_reader_auc=per_reader_auc, mean_auc=mean_auc,
                       variance=variance, scores=scores,
                       test_ids=tuple(test_ids), test_labels=test_labels,
                       metadata=metadata)
