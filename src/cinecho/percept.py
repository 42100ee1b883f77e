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
# real stack (rfft2 over the plane, FFT over the slices), evaluates the gain
# once per (|u1|, u2, |w|), inverts only the slices asked for and returns
# real planes through irfft2.  Contrast, L and the forward transform do not
# depend on the browsing speed or the sampling rate, so one forward
# transform serves every (ssr, slice_rate) point of a sweep.
#
# Margins are tapered to zero over a five-pixel band before the transform to
# suppress wrap-around edge artifacts; time is left untouched (the browsing
# loop is treated as periodic).  Optionally a foveal weighting models the
# acuity fall-off away from the viewing axis, applied last, pixel-wise and
# identically on every slice.
# -----------------------------------------------------------------------------

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .csf import CsfConstants, DEFAULT_CONSTANTS, ViewingConditions, derive_optics, stcsf

__all__ = [
    "FOVEAL_MODES",
    "FovealParams",
    "DEFAULT_FOVEAL",
    "FrequencyTriple",
    "PerceivedStack",
    "mean_luminance",
    "taper_margins",
    "frequency_of_index",
    "transfer_gain",
    "pixel_eccentricity",
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
    to the standard relative acuity curve; the two pieces must agree at the
    threshold to within 1e-3.
    """

    threshold_deg: float = 63.5780
    floor: float = 0.02
    b: tuple = (0.04526296245190, 4.48579690404659, 21.9046292071393,
                55.8322547230034, 58.6385398078192, 19.7119376682204,
                1.43849397325222)
    hard_cutoff_deg: float = 7.0

    def __post_init__(self) -> None:
        if not (self.threshold_deg > 0 and self.floor > 0
                and self.hard_cutoff_deg > 0):
            raise ValueError("FovealParams scalars must be positive")
        if len(self.b) != 7:
            raise ValueError("expected 7 polynomial coefficients")
        at_threshold = self._poly(np.float64(self.threshold_deg))
        if abs(at_threshold - self.floor) > 1e-3:
            raise ValueError(
                f"polynomial value {at_threshold:.6g} at the threshold does not "
                f"meet the floor {self.floor} within 1e-3")

    def _poly(self, alpha):
        q = -1.0 / (alpha + 0.1)
        # Horner, ascending coefficients
        acc = np.zeros_like(q)
        for b_i in reversed(self.b):
            acc = acc * q + b_i
        return -acc


DEFAULT_FOVEAL = FovealParams()


@dataclass(frozen=True)
class FrequencyTriple:
    """One 3D frequency-domain coordinate: two spatial components in
    cyc/deg, one temporal in cyc/s, plus the derived radial spatial
    frequency.  Grid builders keep |u1|, |u2| within ssr/2 and |w| within
    slice_rate/2 (the Nyquist ranges)."""

    u1: float
    u2: float
    w: float
    u_radial: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "u_radial", float(np.hypot(self.u1, self.u2)))

    @classmethod
    def from_indices(cls, k1: int, k2: int, k3: int, shape, ssr: float,
                     slice_rate: float) -> "FrequencyTriple":
        w_px, h_px, n_sl = shape
        return cls(u1=frequency_of_index(k1, w_px, ssr),
                   u2=frequency_of_index(k2, h_px, ssr),
                   w=frequency_of_index(k3, n_sl, slice_rate))


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


def transfer_gain(u1, u2, w, vc: ViewingConditions,
                  constants: CsfConstants = DEFAULT_CONSTANTS, optics=None):
    """Amplitude gain S(u_eff, w)/L turning contrast amplitude into JNDs.

    u_eff is the radial spatial frequency hypot(u1, u2), clamped from
    below to the minimum valid frequency u_min = 1/(2*x0) set by the
    image extent.  The sensitivity is even in each frequency argument, so
    the gain is too (exactly), which makes the resulting 3D filter real
    and zero-phase.  Arguments broadcast.
    """
    u1 = np.asarray(u1, dtype=np.float64)
    u2 = np.asarray(u2, dtype=np.float64)
    u_min = 1.0 / (2.0 * vc.x0)
    u_eff = np.maximum(np.hypot(u1, u2), u_min)
    return stcsf(u_eff, w, vc, constants, optics=optics) / vc.luminance


def pixel_eccentricity(px, center, ssr: float):
    """Eccentricity in degrees of a pixel from the viewing axis.

    Flat-field small-angle approximation: euclidean pixel distance divided
    by the sampling rate ssr (pixel/deg).  px and center are (row, col)
    coordinates; arrays broadcast over leading axes.
    """
    if not ssr > 0:
        raise ValueError("ssr must be positive")
    px = np.asarray(px, dtype=np.float64)
    center = np.asarray(center, dtype=np.float64)
    return np.hypot(px[..., 0] - center[..., 0], px[..., 1] - center[..., 1]) / ssr


def foveal_weight(alpha, mode: str, fp: FovealParams = DEFAULT_FOVEAL):
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
        return np.where(alpha >= fp.hard_cutoff_deg, 0.0, 1.0)
    if mode == "soft":
        return np.where(alpha > fp.threshold_deg, fp.floor, fp._poly(alpha))
    raise ValueError(f"foveal mode must be one of {FOVEAL_MODES}")


def _half_gain(shape, vc: ViewingConditions, constants: CsfConstants):
    """Transfer gain on the half transform grid of a W x H x K stack: every
    k1, k2 in [0, H//2], every k3.

    The gain is even in u1 and w separately (exactly, see transfer_gain),
    so it is evaluated once per (|u1|, u2, |w|) triple and gathered:
    index k and n - k share one value.
    """
    w_px, h_px, n_sl = shape
    u1 = np.abs(frequency_of_index(np.arange(w_px // 2 + 1), w_px, vc.ssr))
    u2 = np.abs(frequency_of_index(np.arange(h_px // 2 + 1), h_px, vc.ssr))
    w = np.abs(frequency_of_index(np.arange(n_sl // 2 + 1), n_sl,
                                  vc.slice_rate))
    optics = derive_optics(vc, constants)
    folded = transfer_gain(u1[:, None, None], u2[None, :, None],
                           w[None, None, :], vc, constants, optics=optics)
    k1 = np.arange(w_px)
    k3 = np.arange(n_sl)
    return folded[np.minimum(k1, w_px - k1)][:, :, np.minimum(k3, n_sl - k3)]


def filter_contrast(contrast_stack, vc, constants: CsfConstants = DEFAULT_CONSTANTS,
                    *, slices=None):
    """Linear core of the percept pipeline: scale every 3D frequency
    component of a contrast stack by the transfer gain at its frequency
    triple and transform back.

    The stack is transformed once, as a half spectrum (rfft2 over the
    plane, then an FFT over the slices).  Per viewing condition the gain
    is applied on that half grid, the inverse temporal DFT is evaluated at
    the requested slices only (all of them by default, in order) and
    irfft2 returns the real planes.  The gain is real and even, so the
    output is real by construction.

    vc supplies the luminance L and the two sampling rates; the caller is
    responsible for contrast having (near-)zero mean.  vc may also be a
    sequence of viewing conditions, which then share the forward
    transform; the result is a list with one W x H x len(slices) array
    per entry instead of one array.
    """
    arr = np.asarray(contrast_stack, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError("expected a W x H x K stack")
    w_px, h_px, n_sl = arr.shape
    slices = np.arange(n_sl) if slices is None else np.asarray(slices, dtype=int)
    if np.any((slices < 0) | (slices >= n_sl)):
        raise ValueError(f"slices must be indices into {n_sl} slices")
    spectrum = np.fft.fft(np.fft.rfft2(arr, axes=(0, 1)), axis=2)
    spectrum = spectrum.reshape(-1, n_sl)
    # inverse temporal DFT restricted to the requested slices; the phase
    # index is reduced mod K in integers so it stays exact
    phase = np.exp(2j * np.pi * (np.outer(slices, np.arange(n_sl)) % n_sl)
                   / n_sl) / n_sl
    outs = []
    for point in _as_list(vc):
        gain = _half_gain(arr.shape, point, constants).reshape(-1, n_sl)
        planes = (phase @ (spectrum * gain).T).reshape(slices.size, w_px, -1)
        out = np.fft.irfft2(planes, s=(w_px, h_px))
        outs.append(out.transpose(1, 2, 0))
    return outs if isinstance(vc, (list, tuple)) else outs[0]


def _as_list(vc) -> list:
    return list(vc) if isinstance(vc, (list, tuple)) else [vc]


def apply_stcsf(lum_stack, vc, constants: CsfConstants = DEFAULT_CONSTANTS, *,
                foveal_mode: str = "none",
                foveal_params: FovealParams = DEFAULT_FOVEAL,
                taper: bool = True, slices=None):
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
    slices: data then holds only those, in that order.
    """
    arr = np.asarray(lum_stack, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError("expected a W x H x K stack")
    if foveal_mode not in FOVEAL_MODES:
        raise ValueError(f"foveal mode must be one of {FOVEAL_MODES}")
    w_px, h_px, _ = arr.shape
    points = _as_list(vc)
    for point in points:
        expected_x0 = w_px / point.ssr
        if not np.isclose(point.x0, expected_x0, rtol=1e-9, atol=0.0):
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
    filtered = filter_contrast(contrast, effective, constants, slices=slices)

    perceived = []
    for vc_eff, out in zip(effective, filtered):
        if foveal_mode != "none":
            center = np.array([w_px // 2, h_px // 2], dtype=np.float64)
            rows, cols = np.meshgrid(np.arange(w_px), np.arange(h_px),
                                     indexing="ij")
            coords = np.stack([rows, cols], axis=-1).astype(np.float64)
            alpha = pixel_eccentricity(coords, center, vc_eff.ssr)
            out = out * foveal_weight(alpha, foveal_mode,
                                      foveal_params)[:, :, None]
        perceived.append(PerceivedStack(data=out, vc=vc_eff,
                                        foveal_mode=foveal_mode))
    return perceived if isinstance(vc, (list, tuple)) else perceived[0]
