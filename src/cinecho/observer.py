# observer.py
# -----------------------------------------------------------------------------
# Multi-slice channelized Hotelling observer, the "train a 2D observer on
# central slices, apply it across the lesion-affected slices, then combine"
# variant:
#
#   stage 1   channel responses v = U' x of each slice through a bank of
#             Laguerre-Gauss channels; Hotelling template t solving
#             (S + ridge I) t = (mean_lesion - mean_healthy) with S the
#             average intra-class channel covariance
#   stage 2   per-slice scores over the slice range are merged to one score
#             per stack by a second 1D Hotelling rule over the score vector
#             (default), or by max or mean
#
# Training is deterministic given its inputs; trained models are immutable
# and safe to share across threads for scoring.
# -----------------------------------------------------------------------------

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import eval_laguerre

from .errors import TrainingError
from .stacks import centre_offsets

__all__ = [
    "COMBINERS",
    "RIDGE_LADDER",
    "COND_LIMIT",
    "ChannelBank",
    "MsChoModel",
    "lg_channel_bank",
    "channelize_slices",
    "hotelling_template",
    "central_position",
    "train_mscho_from_responses",
    "score_responses",
]

COMBINERS = ("hotelling", "max", "mean")

# regularization ladder: fractions of trace(cov)/n tried in order until the
# conditioning limit is met
RIDGE_LADDER = (1e-12, 1e-9, 1e-6)
COND_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class ChannelBank:
    """Laguerre-Gauss channel templates on a pixel grid.

    matrix has one flattened W x H channel per column; channel j is
    exp(-pi r^2 / a^2) * L_j(2 pi r^2 / a^2) at radius r pixels from the
    image center, with a = spread and L_j the j-th Laguerre polynomial.
    """

    width: int
    height: int
    n_channels: int
    spread: float
    matrix: np.ndarray


@dataclass(frozen=True, eq=False)
class MsChoModel:
    """Multi-slice observer: the stage-1 template and its ridge (see
    hotelling_template), the slice range it reads, and the stage-2
    combiner (weights and ridge present for the hotelling rule)."""

    template: np.ndarray
    ridge: float
    slice_range: tuple
    combiner: str
    stage2_weights: np.ndarray | None
    stage2_ridge: float | None


def lg_channel_bank(width: int, height: int, n_channels: int = 15,
                    spread: float = 10.0) -> ChannelBank:
    """Build the channel bank on a width x height pixel grid.

    Channels are centered at the image center pixel (width//2, height//2).
    Equal arguments, given by position or by keyword, return the same
    cached bank, its matrix read-only.
    """
    return _cached_bank(width, height, n_channels, spread)


@lru_cache(maxsize=8)
def _cached_bank(width, height, n_channels, spread) -> ChannelBank:
    if n_channels < 1:
        raise ValueError("need at least one channel")
    if not 0 < spread < np.inf:
        raise ValueError(f"spread must be finite and positive, got {spread!r}")
    rows, cols = centre_offsets(width, height)
    r2 = rows[:, None] ** 2 + cols[None, :] ** 2
    x = 2.0 * np.pi * r2 / (spread * spread)
    envelope = np.exp(-0.5 * x)
    matrix = np.empty((width * height, n_channels), dtype=np.float64)
    for j in range(n_channels):
        matrix[:, j] = (envelope * eval_laguerre(j, x)).ravel()
    matrix.flags.writeable = False
    return ChannelBank(width=width, height=height, n_channels=n_channels,
                       spread=spread, matrix=matrix)


def channelize_slices(stack_data, bank: ChannelBank, slice_indices) -> np.ndarray:
    """Channel responses of selected slices of a W x H x K stack.

    Returns an (n_slices, n_channels) array; row i is the response of the
    slice at slice_indices[i], the projection matrix' * flatten(slice).
    """
    arr = np.asarray(stack_data, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[:2] != (bank.width, bank.height):
        raise ValueError(
            f"stack shape {arr.shape} does not match bank "
            f"({bank.width}, {bank.height})")
    idx = np.asarray(slice_indices, dtype=int)
    if idx.size and (idx.min() < 0 or idx.max() >= arr.shape[2]):
        raise ValueError("slice index out of range")
    planes = arr[:, :, idx].reshape(bank.width * bank.height, idx.size)
    return planes.T @ bank.matrix


def hotelling_template(healthy_responses, lesion_responses):
    """Hotelling discriminant from per-class response matrices.

    Inputs are (N, d) arrays, one sample per row.  Returns
    (template, mean_diff, cov, ridge) with cov the average of the two
    sample covariances (N-1 divisor).  ridge is 0 when cov is well
    conditioned, otherwise the smallest rung of the ladder (as a fraction
    of trace(cov)/d) that brings the condition number within bounds.  The
    eigenvalues of cov + ridge I are those of cov shifted by ridge, so cov
    is decomposed once for every rung.
    """
    resp_h = np.asarray(healthy_responses, dtype=np.float64)
    resp_l = np.asarray(lesion_responses, dtype=np.float64)
    if resp_h.ndim != 2 or resp_l.ndim != 2 or resp_h.shape[1] != resp_l.shape[1]:
        raise ValueError("expected (N, d) response matrices with matching d")
    d = resp_h.shape[1]
    if resp_h.shape[0] < d + 1 or resp_l.shape[0] < d + 1:
        raise TrainingError(
            f"need at least {d + 1} samples per class to estimate a "
            f"{d}-dimensional covariance; got {resp_h.shape[0]} healthy, "
            f"{resp_l.shape[0]} lesion")
    mean_diff = resp_l.mean(axis=0) - resp_h.mean(axis=0)
    cov_h = np.cov(resp_h, rowvar=False)
    cov_l = np.cov(resp_l, rowvar=False)
    cov = 0.5 * (np.atleast_2d(cov_h) + np.atleast_2d(cov_l))
    trace = float(np.trace(cov))
    if trace <= 0.0:
        raise TrainingError("zero covariance: all samples identical per class")
    eigs = np.linalg.eigvalsh(cov)
    lo, hi = float(eigs[0]), float(eigs[-1])
    for ridge in (0.0, *(fraction * trace / d for fraction in RIDGE_LADDER)):
        if lo + ridge > 0.0 and (hi + ridge) / (lo + ridge) <= COND_LIMIT:
            break
    else:
        raise TrainingError(
            "covariance could not be conditioned by the ridge ladder")
    template = np.linalg.solve(cov + ridge * np.eye(d), mean_diff)
    return template, mean_diff, cov, ridge


def central_position(slice_range, depth: int) -> int:
    """Position of the central slice depth//2 in the tuple slice_range.

    Stage 1 of the multi-slice observer trains on the central slice, so a
    slice range must contain it and stay within the depth of the stacks;
    raises ValueError otherwise.
    """
    central = depth // 2
    if central not in slice_range:
        raise ValueError(f"slice range {slice_range} misses the central "
                         f"slice {central}")
    if min(slice_range) < 0 or max(slice_range) >= depth:
        raise ValueError(f"slice range {slice_range} leaves the {depth} "
                         f"slices of the stacks")
    return slice_range.index(central)


def train_mscho_from_responses(resp_h, resp_l, central_pos: int,
                               slice_range,
                               combiner: str = "hotelling") -> MsChoModel:
    """Train from precomputed channel responses.

    resp_h and resp_l are (N, m, n_channels) arrays over the m slices of
    slice_range; central_pos is the position of the stack's central slice
    within that range.  Stage 1 is trained on the central-slice responses
    only; the hotelling combiner is then trained on the per-slice score
    vectors of the same stacks.
    """
    if combiner not in COMBINERS:
        raise ValueError(f"combiner must be one of {COMBINERS}")
    resp_h = np.asarray(resp_h, dtype=np.float64)
    resp_l = np.asarray(resp_l, dtype=np.float64)
    if resp_h.ndim != 3 or resp_l.ndim != 3:
        raise ValueError("expected (N, m, n_channels) response arrays")
    m = resp_h.shape[1]
    if not 0 <= central_pos < m:
        raise ValueError("central_pos outside the slice range")
    template, _, _, ridge = hotelling_template(
        resp_h[:, central_pos, :], resp_l[:, central_pos, :])

    stage2_weights = None
    stage2_ridge = None
    if combiner == "hotelling":
        if m == 1:
            stage2_weights = np.array([1.0])
            stage2_ridge = 0.0
        else:
            scores_h = resp_h @ template
            scores_l = resp_l @ template
            stage2_weights, _, _, stage2_ridge = hotelling_template(
                scores_h, scores_l)
    return MsChoModel(template=template, ridge=ridge,
                      slice_range=tuple(int(s) for s in slice_range),
                      combiner=combiner, stage2_weights=stage2_weights,
                      stage2_ridge=stage2_ridge)


def score_responses(responses, model: MsChoModel) -> float:
    """Score precomputed (m, n_channels) responses over the slice range."""
    resp = np.asarray(responses, dtype=np.float64)
    if resp.ndim != 2 or resp.shape[0] != len(model.slice_range):
        raise ValueError("responses do not match the model's slice range")
    slice_scores = resp @ model.template
    if model.combiner == "hotelling":
        return float(model.stage2_weights @ slice_scores)
    if model.combiner == "max":
        return float(slice_scores.max())
    return float(slice_scores.mean())

