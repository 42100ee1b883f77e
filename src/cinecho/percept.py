# percept.py
# -----------------------------------------------------------------------------
# Perceived-stack construction: turn a luminance stack browsed at a given
# slice rate into a stack of perceived amplitudes in JND units.
#
# The pipeline treats the browsed stack as a short video, decomposes its
# contrast (luminance minus the space-time mean L) into 3D Fourier
# components, and scales each component by S(u, w)/L, the contrast
# sensitivity at that component's radial spatial frequency u and temporal
# frequency w.  A component of amplitude a thereby becomes a/a_jnd, its
# amplitude measured in just-noticeable differences.  The filter is real and
# even in every frequency axis, hence zero-phase: features do not move.
#
# Because of that evenness the transform works on the half spectrum of the
# real stack (a real FFT over the plane, a complex one over the slices) and
# inverts only the slices asked for.  The work falls into three layers:
#
#   per plan   what no stack changes, built once per stack shape, (x0, ssr)
#              set, slices, foveal mode and channel bank and cached
#              read-only (_plan): the distinct effective radii of the
#              quarter grid and the index that gathers them onto the half
#              plane, the inverse temporal phases of the slices, the foveal
#              weights and the channel templates as half-spectrum weights
#   per stack  mean, contrast, taper and one forward transform; per
#              (L, x0, ssr) one derive_optics and one gain evaluation for
#              every browsing point at once
#   per point  gather the gain, weigh the spectrum, contract the phases,
#              then irfft2 to real planes or, with a channel bank, one GEMM
#              straight onto the channels (Parseval): the planes are never
#              formed
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
from scipy import fft as sfft

from .csf import ViewingConditions, derive_optics, stcsf
from .stacks import centre_offsets

__all__ = [
    "FOVEAL_MODES",
    "FovealParams",
    "DEFAULT_FOVEAL",
    "PerceivedStack",
    "mean_luminance",
    "taper_margins",
    "frequency_of_index",
    "transfer_gain",
    "foveal_weight",
    "filter_contrast",
    "apply_stcsf",
]

TAPER_PX = 5
FOVEAL_MODES = ("none", "hard", "soft")


@dataclass(frozen=True)
class FovealParams:
    """Relative acuity vs. eccentricity, as a piecewise fit.

    Below threshold_deg the acuity coefficient is the polynomial
    -sum(b[i] * q**i) in q = -1/(alpha + 0.1); beyond it the curve is flat
    at ``floor``.  ``hard_cutoff_deg`` is the radius used by the hard mode,
    which zeroes everything at or beyond it.  The defaults are a tight fit
    to the standard relative acuity curve; the two pieces agree at the
    threshold to within 1e-3.  DEFAULT_FOVEAL is the one instance.
    """

    threshold_deg: float = 63.5780
    floor: float = 0.02
    b: tuple = (0.04526296245190, 4.48579690404659, 21.9046292071393,
                55.8322547230034, 58.6385398078192, 19.7119376682204,
                1.43849397325222)
    hard_cutoff_deg: float = 7.0

    def _poly(self, alpha):
        q = -1.0 / (alpha + 0.1)
        # Horner, ascending coefficients
        acc = np.zeros_like(q)
        for b_i in reversed(self.b):
            acc = acc * q + b_i
        return -acc


DEFAULT_FOVEAL = FovealParams()


@dataclass(frozen=True, eq=False)
class PerceivedStack:
    """A real W x H x K array of perceived amplitudes in JND units (or
    only the slices asked for), with the effective viewing conditions
    (luminance = the measured stack mean) and the foveal mode it was
    produced under."""

    data: np.ndarray
    vc: ViewingConditions
    foveal_mode: str


def mean_luminance(lum_stack) -> float:
    """Arithmetic mean luminance over all samples of the stack, cd/m^2."""
    arr = np.asarray(lum_stack, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("empty stack has no mean luminance")
    return float(arr.mean())


def taper_margins(contrast_stack):
    """Taper in-plane margins of a contrast stack linearly to zero.

    Each pixel is weighted by min(1, dist_to_nearest_image_edge / 5):
    border pixels go to zero, pixels five or more pixels from every edge
    are untouched.  The weight map is the same for every slice; there is
    no tapering along the slice axis.  Requires W, H >= 11 so the two
    taper bands do not swallow the whole image.
    """
    arr = np.asarray(contrast_stack, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError("expected a W x H x K stack")
    w_px, h_px = arr.shape[0], arr.shape[1]
    if w_px < 2 * TAPER_PX + 1 or h_px < 2 * TAPER_PX + 1:
        raise ValueError(
            f"stack of {w_px}x{h_px} pixels is too small for a "
            f"{TAPER_PX}-pixel taper band (need >= {2 * TAPER_PX + 1})")
    dx = np.minimum(np.arange(w_px), np.arange(w_px)[::-1])
    dy = np.minimum(np.arange(h_px), np.arange(h_px)[::-1])
    weight = np.minimum(1.0, np.minimum(dx[:, None], dy[None, :]) / TAPER_PX)
    return arr * weight[:, :, None]


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

    none: 1 everywhere.  hard: 1 inside the cutoff radius, 0 at and
    beyond it.  soft: the polynomial acuity fit, flat at the floor past
    the threshold.

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
        return np.where(alpha >= DEFAULT_FOVEAL.hard_cutoff_deg, 0.0, 1.0)
    if mode == "soft":
        return np.where(alpha > DEFAULT_FOVEAL.threshold_deg,
                        DEFAULT_FOVEAL.floor, DEFAULT_FOVEAL._poly(alpha))
    raise ValueError(f"foveal mode must be one of {FOVEAL_MODES}")


@dataclass(frozen=True, eq=False)
class _Geometry:
    """What one (x0, ssr) adds to a spectral plan: the distinct effective
    radial frequencies of the (|u1|, u2) quarter grid, the index that
    gathers them onto the (k1, k2) half plane, the foveal weight (None in
    mode none) and the channel weights (None without a bank)."""

    radii: np.ndarray
    gather: np.ndarray
    foveal: np.ndarray | None
    channels: np.ndarray | None


@dataclass(frozen=True, eq=False)
class _Plan:
    """The stack-independent part of filtering W x H x K stacks: the
    inverse temporal phases of the output slices and, per (x0, ssr), the
    gain grid, the foveal weight and the channel weights.

    A stack's half spectrum is held as a (K, W * (H//2 + 1)) array: one
    row per temporal frequency index k3, each row a flattened (k1, k2)
    half plane.
    """

    shape: tuple
    phase: np.ndarray
    geometries: dict

    def half_gains(self, vcs):
        """Transfer gain of each of vcs on the half grid folded in k3, a
        (K//2 + 1, W * (H//2 + 1)) array per point, one at a time; see
        weigh for the unfolding.

        The points must share luminance, x0 and ssr: one derive_optics and
        one transfer_gain call then serve them all, evaluated only at the
        distinct effective radii times each point's |w|, and each point's
        gain is gathered onto the (k1, k2) half plane in one take.
        """
        first = vcs[0]
        geometry = self.geometries[first.x0, first.ssr]
        n_sl = self.shape[2]
        rates = np.array([vc.slice_rate for vc in vcs], dtype=np.float64)
        w = np.abs(frequency_of_index(np.arange(n_sl // 2 + 1), n_sl,
                                      rates[:, None]))
        optics = derive_optics(first)
        # the radii are clamped already, and hypot(u, 0) is u exactly
        folded = transfer_gain(geometry.radii[None, None, :], 0.0,
                               w[:, :, None], first, optics=optics)
        for gain in folded:
            yield gain.take(geometry.gather, axis=1)

    def weigh(self, spectrum, gain):
        """A (K, W * (H//2 + 1)) half spectrum times one point's folded
        gain.  The gain is even in w (exactly, see transfer_gain), so row
        k3 > K//2 takes the gain of row K - k3."""
        n_w = gain.shape[0]
        out = np.empty_like(spectrum)
        np.multiply(spectrum[:n_w], gain, out=out[:n_w])
        np.multiply(spectrum[n_w:], gain[self.shape[2] - n_w:0:-1],
                    out=out[n_w:])
        return out

    def output(self, half, vc):
        """The output step for one point's (slices, W * (H//2 + 1)) half
        planes: their channel responses (slices, n_channels) when the plan
        has a bank, one GEMM on the real view of the complex planes;
        otherwise the real W x H x slices planes through irfft2, foveally
        weighted."""
        geometry = self.geometries[vc.x0, vc.ssr]
        if geometry.channels is not None:
            return half.view(np.float64) @ geometry.channels
        w_px, h_px, _ = self.shape
        out = sfft.irfft2(half.reshape(half.shape[0], w_px, -1),
                          s=(w_px, h_px)).transpose(1, 2, 0)
        if geometry.foveal is None:
            return out
        return out * geometry.foveal[:, :, None]


def _channel_weights(bank, foveal):
    """The (foveally weighted) channel templates as weights on the real
    view of flattened half planes.

    For real planes x = irfft2(X, s=(W, H)) and a real template b,
    sum(x * b) = Re(sum(X * conj(rfft2(b)) * c)) / (W * H), with c = 1 on
    the columns irfft2 does not mirror (k2 = 0 and, for even H, k2 = H/2)
    and 2 on the others: exactly the weights irfft2 applies.  Re(X * B)
    is Re(X) Re(B) - Im(X) Im(B), so the rows interleave Re(B), -Im(B)
    like the real and imaginary parts of X in memory.
    """
    w_px, h_px = bank.width, bank.height
    templates = bank.matrix.reshape(w_px, h_px, bank.n_channels)
    if foveal is not None:
        templates = templates * foveal[:, :, None]
    mirror = np.full(h_px // 2 + 1, 2.0)
    mirror[0] = 1.0
    if h_px % 2 == 0:
        mirror[-1] = 1.0
    weights = np.conj(sfft.rfft2(templates, axes=(0, 1))) \
        * (mirror[:, None] / (w_px * h_px))
    weights = weights.reshape(-1, bank.n_channels)
    return np.stack([weights.real, -weights.imag], axis=1).reshape(
        -1, bank.n_channels)


@lru_cache(maxsize=8)
def _plan(shape: tuple, geometry_keys: tuple, slices: tuple | None,
          foveal_mode: str, bank) -> _Plan:
    """The read-only plan for W x H x K stacks of this shape at the
    distinct (x0, ssr) of geometry_keys, output at the given slices (None:
    all, in order), under the foveal mode and channel bank (None, or an
    observer.ChannelBank of the same W x H, keyed by identity).

    Per (x0, ssr) it holds the distinct effective radial frequencies of
    the (|u1|, u2) quarter grid with one index that folds |u1| and equal
    radii onto the (k1, k2) half plane, the foveal weight and, given a
    bank, the channel templates as half-spectrum weights: a plan with a
    bank makes the filter return channel responses instead of planes.
    """
    w_px, h_px, n_sl = shape
    slices = np.arange(n_sl) if slices is None else np.array(slices, dtype=int)
    if np.any((slices < 0) | (slices >= n_sl)):
        raise ValueError(f"slices must be indices into {n_sl} slices")
    if foveal_mode not in FOVEAL_MODES:
        raise ValueError(f"foveal mode must be one of {FOVEAL_MODES}")
    if bank is not None and (bank.width, bank.height) != (w_px, h_px):
        raise ValueError(f"channel bank is {bank.width}x{bank.height}, "
                         f"stacks are {w_px}x{h_px}")
    # inverse temporal DFT restricted to the requested slices; the phase
    # index is reduced mod K in integers so it stays exact
    phase = np.exp(2j * np.pi * (np.outer(slices, np.arange(n_sl)) % n_sl)
                   / n_sl) / n_sl
    phase.flags.writeable = False
    k1 = np.arange(w_px)
    fold1 = np.minimum(k1, w_px - k1)
    # pixel distance from the viewing axis through the centre pixel; over
    # ssr (pixel/deg) it is the flat-field small-angle eccentricity
    rows, cols = centre_offsets(w_px, h_px)
    distance = np.hypot(rows[:, None], cols[None, :])
    geometries = {}
    for x0, ssr in geometry_keys:
        u1 = np.abs(frequency_of_index(np.arange(w_px // 2 + 1), w_px, ssr))
        u2 = np.abs(frequency_of_index(np.arange(h_px // 2 + 1), h_px, ssr))
        u_eff = _effective_frequency(u1[:, None], u2[None, :], x0)
        radii, inverse = np.unique(u_eff.ravel(), return_inverse=True)
        gather = inverse.reshape(u_eff.shape)[fold1].ravel()
        foveal = None if foveal_mode == "none" else foveal_weight(
            distance / ssr, foveal_mode)
        channels = None if bank is None else _channel_weights(bank, foveal)
        for array in (radii, gather, foveal, channels):
            if array is not None:
                array.flags.writeable = False
        geometries[x0, ssr] = _Geometry(
            radii=radii, gather=gather, foveal=foveal, channels=channels)
    return _Plan(shape=shape, phase=phase, geometries=geometries)


def filter_contrast(contrast_stack, vc, *, slices=None,
                    foveal_mode: str = "none", bank=None):
    """Linear core of the percept pipeline: scale every 3D frequency
    component of a contrast stack by the transfer gain at its frequency
    triple and transform back.

    The stack is transformed once, as a half spectrum (a real FFT over
    the plane, a complex one over the slices).  Per viewing condition the
    gain is applied on that half grid and the inverse temporal DFT is
    evaluated at the requested slices only (all of them by default, in
    order).  The output is then the real planes through irfft2, foveally
    weighted, or, given a channel bank, the (slices, n_channels) channel
    responses of those planes, projected straight from the half planes.
    The gain is real and even, so either output is real by construction.
    What does not depend on the stack is planned once per shape, slices,
    (x0, ssr) set, foveal mode and bank, and cached.

    vc supplies the luminance L and the two sampling rates; the caller is
    responsible for contrast having (near-)zero mean.  vc may also be a
    sequence of viewing conditions, which then share the forward
    transform; the result is a list with one output per entry instead of
    one output.
    """
    arr = np.asarray(contrast_stack, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError("expected a W x H x K stack")
    points = _as_list(vc)
    plan = _plan(arr.shape,
                 tuple(dict.fromkeys((p.x0, p.ssr) for p in points)),
                 None if slices is None else tuple(int(s) for s in slices),
                 foveal_mode, bank)
    spectrum = sfft.rfftn(arr.transpose(2, 0, 1)).reshape(arr.shape[2], -1)
    groups = {}
    for i, point in enumerate(points):
        groups.setdefault((point.luminance, point.x0, point.ssr), []).append(i)
    outs = [None] * len(points)
    for members in groups.values():
        gains = plan.half_gains([points[i] for i in members])
        for i, gain in zip(members, gains):
            half = plan.phase @ plan.weigh(spectrum, gain)
            outs[i] = plan.output(half, points[i])
    return outs if isinstance(vc, (list, tuple)) else outs[0]


def _as_list(vc) -> list:
    return list(vc) if isinstance(vc, (list, tuple)) else [vc]


def apply_stcsf(lum_stack, vc, *, foveal_mode: str = "none",
                taper: bool = True, slices=None, bank=None):
    """Produce the perceived stack, in JND units, of a luminance stack.

    Steps: measure the space-time mean L; subtract it to get contrast;
    taper the in-plane margins (and re-zero the mean, which the taper
    perturbs); scale every 3D frequency component by S(u_eff, w)/L; weight
    by foveal acuity last.  vc carries the geometry (x0 must equal
    width/ssr) and the sampling rates; its luminance field is a nominal
    value that is replaced by the measured mean.

    vc may also be a sequence of viewing conditions (browsing points of
    the same stack): contrast, taper and the forward transform do not
    depend on them and are computed once, and a list of PerceivedStack is
    returned, one per entry.  slices, when given, selects the output
    slices: data then holds only those, in that order.  With a channel
    bank the perceived planes are never formed: each entry is instead the
    (slices, n_channels) array of channel responses of the foveally
    weighted planes.
    """
    arr = np.asarray(lum_stack, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError("expected a W x H x K stack")
    w_px = arr.shape[0]
    points = _as_list(vc)
    for point in points:
        # np.isclose(x0, width/ssr, rtol=1e-9, atol=0), without its cost
        expected_x0 = w_px / point.ssr
        if not abs(point.x0 - expected_x0) <= 1e-9 * abs(expected_x0):
            raise ValueError(f"geometry mismatch: vc.x0 = {point.x0!r} but "
                             f"width/ssr = {expected_x0!r}")

    lum = mean_luminance(arr)
    contrast = arr - lum
    if taper:
        contrast = taper_margins(contrast)
        # the taper window breaks the exact zero mean of the contrast;
        # restore it so the DC component carries nothing into the filter
        contrast = contrast - contrast.mean()
    effective = [ViewingConditions(luminance=lum, x0=p.x0, ssr=p.ssr,
                                   slice_rate=p.slice_rate) for p in points]
    outs = filter_contrast(contrast, effective, slices=slices,
                           foveal_mode=foveal_mode, bank=bank)
    if bank is None:
        outs = [PerceivedStack(data=out, vc=vc_eff, foveal_mode=foveal_mode)
                for vc_eff, out in zip(effective, outs)]
    return outs if isinstance(vc, (list, tuple)) else outs[0]
