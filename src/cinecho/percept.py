# percept.py
# -----------------------------------------------------------------------------
# Perceived-stack construction: turn a luminance stack browsed at a given
# slice rate into a stack of perceived amplitudes in JND units.  A browsing
# point is (ssr, slice_rate); the stack fixes L (its mean) and x0 (width/ssr).
#
# The pipeline treats the browsed stack as a short video, decomposes its
# contrast (luminance minus the space-time mean L) into 3D Fourier
# components, and scales each component by S(u, w)/L, the contrast
# sensitivity at that component's radial spatial frequency u and temporal
# frequency w.  A component of amplitude a thereby becomes a/a_jnd, its
# amplitude measured in just-noticeable differences.  The filter is real and
# even in every frequency axis, hence zero-phase: features do not move.
#
# Two paths share the stack, contrast and taper (apply_stcsf, the one entry
# that takes a channel bank) but no plan.  Perceived planes come from a plain
# filter, filter_contrast: one real 3D FFT of the contrast for every point
# (the generator's passes, rfft over the slices, then fft in the plane), then
# per point the gain on that half grid, the inverse passes, the slices asked
# for and the foveal weight.  Channel responses need less of the spectrum:
# the gain is even in every axis and the Laguerre-Gauss templates are radial
# about the centre pixel, so only the part of the stack even about it is
# read.  Its real DFT over the plane is the (W//2+1) x (H//2+1) quadrant of
# cosine sums about the centre pixel, one real cosine GEMM per axis (a <= b
# of it kept when W == H), followed by a real DFT over the slices.  The
# response path has three layers:
#
#   per pass   what no stack changes, one read-only plan built per stack
#              shape, points, slices, foveal mode and bank and cached
#              (_plan): the real temporal DFT and its inverse phases, the
#              kept quadrant positions and, per ssr, the foveally weighted
#              channel weights there, the distinct radii and, per batch of
#              at most BATCH_POINTS points, their distinct |w| and the
#              index laying each point's gain from their table onto the
#              spectrum's positions
#   per stack  mean, contrast (the one stack-sized array made; the
#              luminance is let go once it exists), taper and re-zeroed
#              mean in place, one forward transform, after which the
#              contrast is let go too: a thread weighs a small spectrum
#              and holds no W x H x K array
#   per ssr    one derive_optics; per batch one gain table, one gather, two
#              multiplies, one batched GEMM with the phases and one GEMM
#              straight onto the channels (Parseval, _Plan.responses): the
#              planes are never formed
#
# Contrast, L and the forward transform do not depend on the browsing speed
# or the sampling rate, so one forward transform serves every
# (ssr, slice_rate) point of a sweep.
#
# Margins are tapered to zero over a five-pixel band before the transform to
# suppress wrap-around edge artifacts; time is left untouched (the browsing
# loop is treated as periodic).  Optionally a foveal weighting models the
# acuity fall-off away from the viewing axis, applied last, pixel-wise and
# identically on every slice.
# -----------------------------------------------------------------------------

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .csf import ViewingConditions, derive_optics, stcsf
from .stacks import _irfft3, _rfft3, centre_offsets

__all__ = [
    "FOVEAL_MODES",
    "PerceivedStack",
    "taper_margins",
    "frequency_of_index",
    "transfer_gain",
    "foveal_weight",
    "filter_contrast",
    "apply_stcsf",
]

TAPER_PX = 5
FOVEAL_MODES = ("none", "hard", "soft")


# Relative acuity vs. eccentricity alpha (deg), a piecewise fit: below
# ACUITY_THRESHOLD_DEG the polynomial -sum(ACUITY_B[i] * q**i) in
# q = -1/(alpha + 0.1), beyond it flat at ACUITY_FLOOR.  A tight fit to the
# standard relative acuity curve; the two pieces agree at the threshold to
# within 1e-3.  The hard mode zeroes everything at or beyond HARD_CUTOFF_DEG.
ACUITY_THRESHOLD_DEG = 63.5780
ACUITY_FLOOR = 0.02
ACUITY_B = (0.04526296245190, 4.48579690404659, 21.9046292071393,
            55.8322547230034, 58.6385398078192, 19.7119376682204,
            1.43849397325222)
HARD_CUTOFF_DEG = 7.0


@dataclass(frozen=True, eq=False)
class PerceivedStack:
    """A real W x H x K array of perceived amplitudes in JND units (or
    only the slices asked for), with the effective viewing conditions
    (luminance = the measured stack mean)."""

    data: np.ndarray
    vc: ViewingConditions


@lru_cache(maxsize=8)
def _taper_weight(w_px: int, h_px: int) -> np.ndarray:
    """taper_margins' W x H weight map, read-only; raises ValueError when
    W or H is below 11."""
    if w_px < 2 * TAPER_PX + 1 or h_px < 2 * TAPER_PX + 1:
        raise ValueError(
            f"stack of {w_px}x{h_px} pixels is too small for a "
            f"{TAPER_PX}-pixel taper band (need >= {2 * TAPER_PX + 1})")
    dx = np.minimum(np.arange(w_px), np.arange(w_px)[::-1])
    dy = np.minimum(np.arange(h_px), np.arange(h_px)[::-1])
    weight = np.minimum(1.0, np.minimum(dx[:, None], dy[None, :]) / TAPER_PX)
    weight.flags.writeable = False
    return weight


def taper_margins(contrast_stack, out=None):
    """Taper in-plane margins of a contrast stack linearly to zero.

    Each pixel is weighted by min(1, dist_to_nearest_image_edge / 5):
    border pixels go to zero, pixels five or more pixels from every edge
    are untouched.  The weight map is the same for every slice; there is
    no tapering along the slice axis.  Requires W, H >= 11 so the two
    taper bands do not swallow the whole image.  Given out (it may be
    the stack itself), the tapered stack is written there.
    """
    arr = np.asarray(contrast_stack, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError("expected a W x H x K stack")
    return np.multiply(arr, _taper_weight(*arr.shape[:2])[:, :, None],
                       out=out)


def frequency_of_index(k, n: int, fs: float):
    """Signed frequency of transform index k for an n-point axis sampled
    at fs samples per unit: (k/n)*fs below n/2, (k/n - 1)*fs at and above
    (the aliased negative branch)."""
    k = np.asarray(k)
    if np.any(k < 0) or np.any(k >= n):
        raise ValueError(f"index out of range [0, {n})")
    kf = k.astype(np.float64)
    return np.where(k < n / 2, (kf / n) * fs, (kf / n - 1.0) * fs)


def _effective_frequency(u1, u2, x0: float):
    """Radial spatial frequency hypot(u1, u2), clamped from below to the
    minimum valid frequency u_min = 1/(2*x0) set by the image extent."""
    return np.maximum(np.hypot(u1, u2), 1.0 / (2.0 * x0))


def transfer_gain(u1, u2, w, vc: ViewingConditions, optics=None):
    """Amplitude gain S(u_eff, w)/L turning contrast amplitude into JNDs.

    u_eff is the radial spatial frequency hypot(u1, u2), clamped from
    below to the minimum valid frequency u_min = 1/(2*x0) set by the
    image extent.  The sensitivity is even in each frequency argument, so
    the gain is too (exactly), which makes the resulting 3D filter real
    and zero-phase.  Arguments broadcast.
    """
    u1 = np.asarray(u1, dtype=np.float64)
    u2 = np.asarray(u2, dtype=np.float64)
    u_eff = _effective_frequency(u1, u2, vc.x0)
    return stcsf(u_eff, w, vc, optics=optics) / vc.luminance


def foveal_weight(alpha, mode: str):
    """Acuity weight for eccentricity alpha (deg) under the given mode.

    none: 1 everywhere.  hard: 1 inside HARD_CUTOFF_DEG, 0 at and
    beyond it.  soft: the polynomial acuity fit, flat at ACUITY_FLOOR past
    ACUITY_THRESHOLD_DEG.

    The soft fit is applied exactly as defined, with no clamping.  Note
    that it is ill-behaved below about 1.2 deg of eccentricity, where it
    overshoots by orders of magnitude and briefly dips negative; it is
    a faithful acuity model only from there outward.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    if np.any(alpha < 0):
        raise ValueError("eccentricity must be nonnegative")
    if mode == "none":
        return np.ones_like(alpha)
    if mode == "hard":
        return np.where(alpha >= HARD_CUTOFF_DEG, 0.0, 1.0)
    if mode == "soft":
        poly = np.polyval(ACUITY_B[::-1], -1.0 / (alpha + 0.1))
        return np.where(alpha > ACUITY_THRESHOLD_DEG, ACUITY_FLOOR, -poly)
    raise ValueError(f"foveal mode must be one of {FOVEAL_MODES}")


# the most points one stack weighs at once: their (points, K, positions)
# buffer is 1.4 MiB per thread at the defaults, however long the sweep
BATCH_POINTS = 10


@dataclass(frozen=True, eq=False)
class _Plan:
    """The stack-independent part of taking the channel responses of
    W x H x K stacks at the points of one pass: the real DFT over the
    slices, the inverse temporal phases of the output slices, the kept
    quadrant positions and one group (ssr, weights, radii, batches) per
    ssr of the pass: the channel weights on the kept positions, the
    distinct effective radii of the quadrant and, per batch of at most
    BATCH_POINTS of its points, their positions in the pass, the distinct
    |w| of their rates and the flat index into that (|w|, radius) table of
    each point's gain (see _plan).

    A stack's spectrum is a real (K, positions) array folded in k3: row
    j <= K//2 holds the cosine sums of frequency j, row j > K//2 the sine
    sums of frequency K - j.  So the phase of slice s is real too:
    cos(2 pi s j / K) / K on rows j <= K//2, sin(2 pi s (K - j) / K) / K
    on the others.
    """

    shape: tuple
    phase: np.ndarray
    dft: np.ndarray
    kept: tuple
    groups: tuple

    def spectrum(self, arr):
        """A W x H x K stack's spectrum in this plan's layout: the real
        spectrum of the part even about the centre pixel (_even_quadrant),
        all the radial channels read through the even gain, at the kept
        quadrant positions: when W == H, (a, b) and (b, a) share gain and
        weight, so (b, a) is folded onto a <= b."""
        quad = _even_quadrant(arr)
        if self.shape[0] == self.shape[1]:
            quad = quad + quad.swapaxes(0, 1)
            # the diagonal is its own mirror: it was counted twice
            diagonal = np.arange(len(quad))
            quad[diagonal, diagonal] *= 0.5
        return self.dft @ quad[self.kept].T

    def weighed(self, spectrum, luminance: float):
        """Yield (members, their group's channel weights, spectrum times
        their gains at L = luminance) per batch of every group, the last a
        (points, K, positions) view of one buffer.  Per group one
        derive_optics serves every batch; per batch one transfer_gain call
        on its (|w|, radius) table and one gather through its index take
        the batch's gains, folded in k3: the gain is even in w (exactly,
        see transfer_gain), so row k3 > K//2 takes the gain of row
        K - k3."""
        n_sl = self.shape[2]
        n_w = n_sl // 2 + 1
        buffer = np.empty((0,) + spectrum.shape)
        for ssr, weights, radii, batches in self.groups:
            vc = ViewingConditions(luminance, self.shape[0] / ssr)
            optics = derive_optics(vc)
            for members, freqs, index in batches:
                # the radii are clamped already, and hypot(u, 0) is u exactly
                table = transfer_gain(radii[None, :], 0.0, freqs[:, None],
                                      vc, optics=optics)
                gains = table.reshape(-1)[index]
                if len(buffer) < len(members):  # after the table's temporaries
                    buffer = np.empty(gains.shape[:1] + spectrum.shape)
                out = buffer[:len(members)]
                np.multiply(spectrum[:n_w], gains, out=out[:, :n_w])
                np.multiply(spectrum[n_w:], gains[:, n_sl - n_w:0:-1],
                            out=out[:, n_w:])
                del gains, table  # freed before the next batch's table
                yield members, weights, out

    def responses(self, spectrum, luminance: float) -> list:
        """The (slices, n_channels) channel responses at every point of
        the pass, in order, of the stack whose spectrum this is (see
        spectrum), at L = luminance: per batch of weighed spectra (see
        weighed), one GEMM with the phases for the inverse temporal DFT
        at the output slices and one straight onto the channels."""
        outs = {}
        for members, weights, weighed in self.weighed(spectrum, luminance):
            inverse = np.matmul(self.phase, weighed)
            responses = inverse.reshape(-1, inverse.shape[2]) @ weights
            outs.update(zip(members, responses.reshape(
                inverse.shape[:2] + (-1,))))
        return [outs[i] for i in range(len(outs))]


def _eccentricity(w_px: int, h_px: int, ssr: float):
    """The W x H flat-field small-angle eccentricity (deg): each pixel's
    distance from the viewing axis through the centre pixel, over ssr
    (pixel/deg)."""
    rows, cols = centre_offsets(w_px, h_px)
    return np.hypot(rows[:, None], cols[None, :]) / ssr


@lru_cache(maxsize=8)
def _even_axis(n: int) -> np.ndarray:
    """cosines[a, j] = cos(2 pi a (j - n//2) / n) for a = 0..n//2 and
    j = 0..n-1, the index product reduced mod n in integers: the real
    DFT of an n-pixel axis about its centre pixel n//2, read-only."""
    cosines = np.cos(2 * np.pi * (np.outer(np.arange(n // 2 + 1),
                                           np.arange(n) - n // 2) % n) / n)
    cosines.flags.writeable = False
    return cosines


def _even_quadrant(arr):
    """The (W//2 + 1, H//2 + 1, m) real DFT over the plane of the part
    of a W x H x m array even about the centre pixel: one cosine GEMM per
    axis (see _even_axis).  The odd part's DFT is imaginary, so the
    cosine sums drop it, as do even gains and templates."""
    quad = np.matmul(_even_axis(arr.shape[1]), arr)
    return (_even_axis(arr.shape[0]) @ quad.reshape(len(quad), -1)).reshape(
        (arr.shape[0] // 2 + 1,) + quad.shape[1:])


@lru_cache(maxsize=8)
def _plan(shape: tuple, points: tuple, slices: tuple, foveal_mode: str,
          bank) -> _Plan:
    """The _Plan for the channel responses of W x H x K stacks of this
    shape browsed at points, a tuple of (ssr, slice_rate) pairs, at the
    output slices (a tuple of indices, checked by _checked), under
    the foveal mode and the channel bank (an observer.ChannelBank of the
    same W x H, keyed by identity).  The key is the whole pass: one cache
    entry per pass, whatever its points.

    The responses read only the part of a stack even about the centre
    pixel (W//2, H//2) and, when W == H, symmetric under transposition,
    so a bank whose templates are not (on the pixels whose mirror lies in
    the grid) raises ValueError.

    The pass has one phase array, one dft and one set of kept quadrant
    positions (a <= b when W == H).  Each ssr's group holds, at
    x0 = W/ssr, the channel weights: the foveally weighted templates
    through the same cosine GEMMs as the stacks, times m(a) m(b) / (W H),
    m being 1 on indices that are their own mirror and 2 on the others,
    so the filter returns channel responses instead of planes; the
    distinct effective radial frequencies of the quadrant; and per batch
    of at most BATCH_POINTS of its points, the distinct |w| of their
    rates and per point the flat index into their table at every
    k3 <= K//2 and kept position.  A batch's table thus grows with that
    batch alone.
    """
    w_px, h_px, n_sl = shape
    if (bank.width, bank.height) != (w_px, h_px):
        raise ValueError(f"channel bank is {bank.width}x{bank.height}, "
                         f"stacks are {w_px}x{h_px}")
    templates = bank.matrix.reshape(w_px, h_px, -1)
    # every pixel but 0 of an even side has its mirror in the grid
    inner_x, inner_y = templates[1 - w_px % 2:], templates[:, 1 - h_px % 2:]
    if not (np.array_equal(inner_x, inner_x[::-1])
            and np.array_equal(inner_y, inner_y[:, ::-1])):
        raise ValueError(f"channel bank is not even about the centre "
                         f"pixel ({w_px // 2}, {h_px // 2})")
    if w_px == h_px and not np.array_equal(templates,
                                           templates.swapaxes(0, 1)):
        raise ValueError("channel bank of a square grid is not "
                         "symmetric under transposition")
    # the real temporal DFT of every slice, folded in k3: its transpose
    # is the forward transform and its rows at the output slices, over K,
    # the inverse; the phase index is reduced mod K in integers so it
    # stays exact
    k3 = np.arange(n_sl)
    angle = 2 * np.pi * (np.outer(k3, np.minimum(k3, n_sl - k3))
                         % n_sl) / n_sl
    table = np.where(k3 <= n_sl // 2, np.cos(angle), np.sin(angle))
    phase = table[list(slices)] / n_sl
    # a row that folds two frequencies (0 < j, j != K - j) holds both
    dft = table.T * np.where(2 * k3 % n_sl, 2.0, 1.0)[:, None]
    a, b = np.indices((w_px // 2 + 1, h_px // 2 + 1))
    kept = np.nonzero(a <= b if w_px == h_px else a >= 0)
    mirror = [np.where(2 * np.arange(n // 2 + 1) % n, 2.0, 1.0)
              for n in (w_px, h_px)]
    scale = np.outer(*mirror)[kept] / (w_px * h_px)
    members_of = {}
    for i, (ssr, _) in enumerate(points):
        members_of.setdefault(ssr, []).append(i)
    groups = []
    frozen = [phase, dft, *kept]
    for ssr, members in members_of.items():
        x0 = w_px / ssr
        u1 = np.abs(frequency_of_index(np.arange(w_px // 2 + 1), w_px, ssr))
        u2 = np.abs(frequency_of_index(np.arange(h_px // 2 + 1), h_px, ssr))
        u_eff = _effective_frequency(u1[:, None], u2[None, :], x0)
        radii, inverse = np.unique(u_eff.ravel(), return_inverse=True)
        gather = inverse.reshape(u_eff.shape)[kept]
        foveal = foveal_weight(_eccentricity(w_px, h_px, ssr), foveal_mode)
        weights = _even_quadrant(templates * foveal[:, :, None])[kept] \
            * scale[:, None]
        batches = []
        for start in range(0, len(members), BATCH_POINTS):
            batch = tuple(members[start:start + BATCH_POINTS])
            rates = np.array([points[i][1] for i in batch], dtype=np.float64)
            w = np.abs(frequency_of_index(np.arange(n_sl // 2 + 1), n_sl,
                                          rates[:, None]))
            freqs, row = np.unique(w, return_inverse=True)
            index = row.reshape(w.shape)[:, :, None] * len(radii) + gather
            batches.append((batch, freqs, index))
            frozen += [freqs, index]
        frozen += [radii, weights]
        groups.append((ssr, weights, radii, tuple(batches)))
    for array in frozen:
        array.flags.writeable = False
    return _Plan(shape=shape, phase=phase, dft=dft, kept=kept,
                 groups=tuple(groups))


def _checked(shape, points, slices, foveal_mode: str):
    """The points of a pass over W x H x K stacks, as a tuple of (ssr,
    slice_rate) pairs, and its output slices, as a tuple of indices (all
    of them by default, in order), after the checks filter_contrast and
    apply_stcsf share: a 3D stack, every point finite and positive, the
    slices indices into K and a known foveal mode; raises ValueError."""
    if len(shape) != 3:
        raise ValueError("expected a W x H x K stack")
    points = tuple((ssr, rate) for ssr, rate in points)
    for ssr, rate in points:
        if not (0 < ssr < np.inf and 0 < rate < np.inf):
            raise ValueError(f"browsing point ({ssr!r}, {rate!r}): ssr and "
                             "slice_rate must be finite and positive")
    n_sl = shape[2]
    slices = tuple(range(n_sl)) if slices is None \
        else tuple(int(s) for s in slices)
    if not all(0 <= s < n_sl for s in slices):
        raise ValueError(f"slices must be indices into {n_sl} slices")
    if foveal_mode not in FOVEAL_MODES:
        raise ValueError(f"foveal mode must be one of {FOVEAL_MODES}")
    return points, slices


def filter_contrast(contrast_stack, luminance: float, points, *,
                    slices=None, foveal_mode: str = "none") -> list:
    """The perceived planes of a contrast stack: scale every 3D frequency
    component by the transfer gain at its frequency triple and transform
    back, once per (ssr, slice_rate) browsing point of points, under the
    adaptation luminance L = luminance and the apparent size x0 = W/ssr.

    Every point, the output slices (all of them by default, in order) and
    the foveal mode are checked first (_checked).  The output is each
    point's real planes at those slices, foveally weighted: one rfftn serves
    all points, and per point the gain is laid on the rfftn grid (signed x
    and y frequencies, |w| over the K//2 + 1 kept temporal indices) before
    irfftn.  The gain is real and even, so the planes are real.  The caller
    is responsible for contrast having (near-)zero mean.  Channel responses
    come from apply_stcsf with a bank.  Returns a list, one output per
    point.
    """
    arr = np.asarray(contrast_stack, dtype=np.float64)
    points, slices = _checked(arr.shape, points, slices, foveal_mode)
    w_px, h_px, n_sl = arr.shape
    spectrum = _rfft3(arr)
    outs = []
    for ssr, rate in points:
        gain = transfer_gain(
            frequency_of_index(np.arange(w_px), w_px, ssr)[:, None, None],
            frequency_of_index(np.arange(h_px), h_px, ssr)[:, None],
            np.abs(frequency_of_index(np.arange(spectrum.shape[2]),
                                      n_sl, rate)),
            ViewingConditions(luminance, w_px / ssr))
        planes = _irfft3(spectrum * gain, n_sl)
        outs.append(planes[:, :, list(slices)] * foveal_weight(
            _eccentricity(w_px, h_px, ssr), foveal_mode)[:, :, None])
    return outs


def apply_stcsf(lum_stack, points, *, foveal_mode: str = "none",
                taper: bool = True, slices=None, bank=None) -> list:
    """The perceived stacks, in JND units, of a luminance stack browsed at each
    of points, a sequence of (ssr, slice_rate) browsing points: one entry
    per point, in order.

    The stack fixes the rest of the viewing conditions: L is its measured
    space-time mean and its apparent size x0 is width/ssr.  Steps: measure
    L; subtract it to get contrast, the one stack-sized array made, and let
    go of the luminance; taper the in-plane margins (and re-zero the mean,
    which the taper perturbs) in place; scale every 3D frequency component
    by S(u_eff, w)/L; weight by foveal acuity last (see filter_contrast,
    whose checks come first here too).  Contrast and taper do not depend on
    the points and are computed once.  Each entry is a PerceivedStack whose
    vc holds the point's effective viewing conditions.  slices, when given,
    selects the output slices: data then holds only those, in that order.
    With a channel bank, which no other entry takes, the perceived planes
    are never formed: each entry is instead the (slices, n_channels) array
    of channel responses of the foveally weighted planes, from the cached
    response plan, and the contrast is let go once its spectrum is formed,
    before the gains are weighed in.  The caller's stack is never written; a
    temporary passed in (say code_to_luminance's result) is freed with the
    luminance.
    """
    arr = np.asarray(lum_stack, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("empty stack has no mean luminance")
    points, slices = _checked(arr.shape, points, slices, foveal_mode)
    lum = float(arr.mean())
    # a fresh array: the caller's stack is never written
    contrast = arr - lum
    # the contrast is the one stack-sized array held from here on
    del arr, lum_stack
    if taper:
        taper_margins(contrast, out=contrast)
        # the taper window breaks the exact zero mean of the contrast;
        # restore it so the DC component carries nothing into the filter
        contrast -= contrast.mean()
    if bank is None:
        outs = filter_contrast(contrast, lum, points, slices=slices,
                               foveal_mode=foveal_mode)
        return [PerceivedStack(out, ViewingConditions(
                    lum, contrast.shape[0] / ssr))
                for (ssr, _), out in zip(points, outs)]
    plan = _plan(contrast.shape, points, slices, foveal_mode, bank)
    spectrum = plan.spectrum(contrast)
    # the forward transform was the contrast's last reader: the weighing
    # holds the spectrum alone
    del contrast
    return plan.responses(spectrum, lum)
