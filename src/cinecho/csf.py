# csf.py
# -----------------------------------------------------------------------------
# Spatio-temporal contrast sensitivity S(u, w) of the human visual system,
# after Barten, with the standard photon-noise / neural-noise / lateral-
# inhibition decomposition:
#
#   S(u, w) = M_opt(u) / ( k * sqrt( (2/T) * (1/X0^2 + 1/Xmax^2 + u^2/Nmax^2)
#                 * ( 1/(eta*p*E) + Phi0 / [H1(w) * (1 - H2(w)*F(u))]^2 ) ) )
#
# u is spatial frequency in cyc/deg, w temporal frequency in cyc/s.  The
# luminance-dependent quantities (pupil diameter, retinal illuminance,
# temporal time constants) are derived from the viewing conditions; with the
# temporal filters forced to unity the expression reduces exactly to the
# spatial-only CSF.
#
# The model constants (k = K, eta = ETA, ...) are fixed module values, the
# standard photopic set of Barten, "Contrast Sensitivity of the Human Eye"
# (SPIE Press, 1999): a run varies the viewing conditions, never the model.
#
# Everything here is a pure function of immutable inputs and may be called
# from any number of threads.  All evaluation is in double precision.
# -----------------------------------------------------------------------------

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ViewingConditions",
    "DerivedOptics",
    "pupil_diameter",
    "retinal_illuminance",
    "optical_mtf",
    "lateral_inhibition",
    "temporal_time_constants",
    "temporal_filter",
    "derive_optics",
    "stcsf",
]


# Model constants: the standard photopic parameter set
K = 3.0          # detection SNR threshold
ETA = 0.03       # quantum efficiency
PHI0 = 3e-8      # neural noise spectral density (s deg^2)
X_MAX = 12.0     # maximum integration angle (deg)
N_MAX = 15.0     # maximum number of cycles
T_INT = 0.1      # integration time (s)
P = 1.285e6      # photon conversion factor (photons / (s deg^2 Td))
SIGMA0 = 0.5     # neural line-spread standard deviation (arcmin)
C_AB = 0.08      # chromatic aberration coefficient (arcmin/mm)
U0_LAT = 7.0     # lateral-inhibition corner frequency (cyc/deg)
N1 = 7           # order of the first temporal filter
N2 = 4           # order of the second temporal filter
TAU10 = 32e-3    # base time constant of the first temporal filter (s)
TAU20 = 18e-3    # base time constant of the second temporal filter (s)


@dataclass(frozen=True)
class ViewingConditions:
    """What the eye is looking at: average luminance L of the object over
    space and time (cd/m^2), apparent image size x0 (deg), spatial sampling
    rate ssr (pixel/deg) and browsing speed slice_rate (slice/s).

    ssr and slice_rate are the sampling rates that map array indices to
    spatial and temporal frequencies.
    """

    luminance: float
    x0: float
    ssr: float
    slice_rate: float

    # 1/x0**2 must be a normal float, and tau2's (1 + D/3.2)**5 finite for
    # the field diameter D = 2 x0/sqrt(pi): x0 <= 3.2 (max**(1/5) - 1)
    # sqrt(pi)/2 = 1.2695155680e62 deg, rounded down here to stay below it
    _X0_RANGE = (np.sqrt(np.finfo(float).tiny), 1.2695e62)

    def __post_init__(self) -> None:
        for name in ("luminance", "x0", "ssr", "slice_rate"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"ViewingConditions.{name} must be finite and > 0")
        if not self._X0_RANGE[0] <= self.x0 <= self._X0_RANGE[1]:
            raise ValueError(f"ViewingConditions.x0 = {self.x0!r} deg is too "
                             "extreme for double precision")

    @classmethod
    def for_stack(cls, width_px: int, ssr: float, slice_rate: float,
                  luminance: float) -> "ViewingConditions":
        """Derive the apparent size from image width and sampling rate."""
        if not (np.isfinite(ssr) and ssr > 0):
            raise ValueError("ViewingConditions.ssr must be finite and > 0")
        return cls(luminance=luminance, x0=width_px / ssr, ssr=ssr,
                   slice_rate=slice_rate)


@dataclass(frozen=True)
class DerivedOptics:
    """Luminance-dependent intermediate quantities of the model."""

    pupil_mm: float        # pupil diameter d
    retinal_troland: float  # retinal illuminance E
    tau1: float            # adapted time constant of the first temporal filter
    tau2: float            # adapted time constant of the second temporal filter


def pupil_diameter(luminance: float, x0: float) -> float:
    """Pupil diameter in mm:  d = 5 - 3*tanh(0.4*ln(L*x0^2 / 40^2)).

    Lies strictly between 2 and 8 mm for any positive luminance and field
    size.  Raises ValueError if the inputs are degenerate (non-finite
    result).
    """
    with np.errstate(divide="ignore", over="ignore"):
        d = 5.0 - 3.0 * np.tanh(0.4 * np.log(luminance * x0 * x0 / 1600.0))
    if not np.all(np.isfinite(d)):
        raise ValueError("pupil diameter is not finite; degenerate luminance or field size")
    return float(d)


def retinal_illuminance(luminance: float, pupil_mm: float) -> float:
    """Retinal illuminance in Troland, with Stiles-Crawford correction:

    E = (pi d^2 L / 4) * (1 - (d/9.7)^2 + (d/12.4)^4)

    Raises ValueError naming the luminance when E overflows.
    """
    if not pupil_mm > 0:
        raise ValueError("pupil diameter must be positive")
    d = pupil_mm
    with np.errstate(over="ignore"):
        e = (np.pi * d * d * luminance / 4.0) * (1.0 - (d / 9.7) ** 2 + (d / 12.4) ** 4)
    if not np.isfinite(e):
        raise ValueError(f"retinal illuminance overflows at luminance "
                         f"{luminance:.6g} cd/m^2")
    return e


def optical_mtf(u, pupil_mm: float):
    """Optical modulation transfer of the eye, a Gaussian in u:

    sigma = (1/60) * sqrt(sigma0^2 + (c_ab*d)^2)   [arcmin -> deg]
    M_opt(u) = exp(-2*(pi*sigma*u)^2)
    """
    u = np.asarray(u, dtype=float)
    sigma = np.sqrt(SIGMA0 ** 2 + (C_AB * pupil_mm) ** 2) / 60.0
    return np.exp(-2.0 * (np.pi * sigma * u) ** 2)


def lateral_inhibition(u):
    """Low-frequency attenuation F(u) = 1 - sqrt(1 - exp(-(u/u0)^2)).

    F(0) = 1 exactly and F decreases to 0 with u.
    """
    u = np.asarray(u, dtype=float)
    return 1.0 - np.sqrt(1.0 - np.exp(-((u / U0_LAT) ** 2)))


def temporal_time_constants(retinal_troland: float,
                            field_deg: float) -> tuple[float, float]:
    """Adapted time constants of the two temporal filters:

    tau1 = tau10 / (1 + 0.55*ln(1 + (1 + D)^0.6 * E/3.5))
    tau2 = tau20 / (1 + 0.37*ln(1 + (1 + D/3.2)^5 * E/120))

    Both shrink from their base values as retinal illuminance E grows.
    Raises ValueError when (1 + D/3.2)^5 * E overflows, which would
    otherwise collapse tau2 to 0.
    """
    if not retinal_troland > 0:
        raise ValueError("retinal illuminance must be positive")
    if not field_deg > 0:
        raise ValueError("field diameter must be positive")
    e, d = retinal_troland, field_deg
    tau1 = TAU10 / (1.0 + 0.55 * np.log1p((1.0 + d) ** 0.6 * e / 3.5))
    with np.errstate(over="ignore"):
        drive2 = (1.0 + np.float64(d) / 3.2) ** 5 * e
    if not np.isfinite(drive2):
        raise ValueError(f"(1 + D/3.2)^5 * E overflows at field diameter D = "
                         f"{d:.6g} deg, retinal illuminance E = {e:.6g} Td")
    tau2 = TAU20 / (1.0 + 0.37 * np.log1p(drive2 / 120.0))
    return float(tau1), float(tau2)


def temporal_filter(w, tau: float, order: int):
    """Cascade low-pass response H(w) = ((1 + (2*pi*tau*w)^2)^-n)^(1/2).

    H(0) = 1 exactly; decreasing in w.
    """
    w = np.asarray(w, dtype=float)
    return np.sqrt((1.0 + (2.0 * np.pi * tau * w) ** 2) ** (-float(order)))


def derive_optics(vc: ViewingConditions) -> DerivedOptics:
    """Chain the luminance-dependent sub-models for the given conditions."""
    d = pupil_diameter(vc.luminance, vc.x0)
    e = retinal_illuminance(vc.luminance, d)
    field = 2.0 * vc.x0 / np.sqrt(np.pi)  # equivalent field diameter D
    tau1, tau2 = temporal_time_constants(e, field)
    return DerivedOptics(pupil_mm=d, retinal_troland=e, tau1=tau1, tau2=tau2)


def _sensitivity(u, h1, h2, vc: ViewingConditions, optics: DerivedOptics):
    u = np.asarray(u, dtype=float)
    m_opt = optical_mtf(u, optics.pupil_mm)
    f = lateral_inhibition(u)
    spatial = 1.0 / vc.x0 ** 2 + 1.0 / X_MAX ** 2 + (u / N_MAX) ** 2
    # at u=0, w=0 lateral inhibition cancels the signal entirely: the noise
    # term diverges and the sensitivity limit is exactly 0
    with np.errstate(divide="ignore"):
        noise = 1.0 / (ETA * P * optics.retinal_troland) \
            + PHI0 / (h1 * (1.0 - h2 * f)) ** 2
        return m_opt / (K * np.sqrt((2.0 / T_INT) * spatial * noise))


def stcsf(u, w, vc: ViewingConditions, optics: DerivedOptics | None = None,
          temporal_filters: bool = True):
    """Contrast sensitivity at spatial frequency u (cyc/deg) and temporal
    frequency w (cyc/s) under the given viewing conditions.

    u and w broadcast against each other.  With ``temporal_filters=False``
    the two temporal filters are replaced by exact unity and the result is
    a function of u alone (the spatial-only CSF), bit-identical for every w.
    ``optics`` may be passed to reuse a precomputed derivation.
    """
    if optics is None:
        optics = derive_optics(vc)
    if temporal_filters:
        w = np.asarray(w, dtype=float)
        h1 = temporal_filter(w, optics.tau1, N1)
        h2 = temporal_filter(w, optics.tau2, N2)
    else:
        h1 = 1.0
        h2 = 1.0
    return _sensitivity(u, h1, h2, vc, optics)

