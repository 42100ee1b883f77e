"""Tests for the contrast sensitivity model.

Golden values were computed with mpmath at 50 decimal digits from the
closed-form expressions, then rounded to the printed literals; the float64
implementation must match them to 1e-10 relative.
"""

import numpy as np
import pytest

from cinecho.csf import (
    TAU10,
    TAU20,
    ViewingConditions,
    derive_optics,
    lateral_inhibition,
    optical_mtf,
    pupil_diameter,
    retinal_illuminance,
    stcsf,
    temporal_filter,
    temporal_time_constants,
)

# Reference viewing conditions used throughout: a 2.5 deg object at
# 20 cd/m^2.
VC = ViewingConditions(luminance=20.0, x0=2.5)

REL = 1e-10


def relerr(got, want):
    return abs(got - want) / abs(want)


class TestPupilAndIlluminance:
    def test_pupil_golden(self):
        # d = 5 - 3*tanh(0.4*ln(20*2.5^2/1600))
        assert relerr(pupil_diameter(20.0, 2.5), 7.3093283794581732042) < REL

    def test_pupil_bounds(self):
        for lum in (1e-6, 1e-2, 1.0, 1e2, 1e6):
            for x0 in (0.1, 1.0, 10.0, 100.0):
                d = pupil_diameter(lum, x0)
                assert 2.0 < d < 8.0

    def test_pupil_monotone_in_luminance(self):
        lums = np.logspace(-3, 5, 50)
        ds = [pupil_diameter(f, 2.5) for f in lums]
        assert all(a >= b for a, b in zip(ds, ds[1:]))

    def test_illuminance_golden(self):
        # E at d=5 mm, L=20 cd/m^2
        assert relerr(retinal_illuminance(20.0, 5.0), 298.73907181730670669) < REL

    def test_illuminance_chain_golden(self):
        # E with d derived from L=20, x0=2.5
        d = pupil_diameter(20.0, 2.5)
        assert relerr(retinal_illuminance(20.0, d), 464.01304555190959667) < REL

    def test_illuminance_rejects_bad_pupil(self):
        with pytest.raises(ValueError):
            retinal_illuminance(20.0, 0.0)


class TestOpticalMtf:
    def test_golden_value(self):
        # M_opt(u=10) at a literal pupil of 7.31 mm
        got = optical_mtf(10.0, 7.31)
        assert relerr(float(got), 0.72281974037781225265) < REL

    def test_unity_at_dc(self):
        assert float(optical_mtf(0.0, 7.31)) == 1.0

    def test_monotone_decreasing(self):
        u = np.linspace(0.0, 60.0, 200)
        m = optical_mtf(u, 5.0)
        assert np.all(np.diff(m) < 0)


class TestLateralInhibition:
    def test_golden_at_corner(self):
        # F(u0) = 1 - sqrt(1 - 1/e)
        got = float(lateral_inhibition(7.0))
        assert relerr(got, 0.2049399023793498927) < REL

    def test_unity_at_dc_and_decay(self):
        assert float(lateral_inhibition(0.0)) == 1.0
        u = np.linspace(0.0, 40.0, 100)
        f = lateral_inhibition(u)
        assert np.all(np.diff(f) < 0)
        assert f[-1] < 1e-6


class TestTemporalFilters:
    def test_time_constant_goldens(self):
        optics = derive_optics(VC)
        assert relerr(optics.tau1, 0.0077441529121200780627) < REL
        assert relerr(optics.tau2, 0.0067319792047995304895) < REL

    def test_time_constants_shrink_with_light(self):
        d = 2.0 * 2.5 / np.sqrt(np.pi)
        t1_lo, t2_lo = temporal_time_constants(10.0, d)
        t1_hi, t2_hi = temporal_time_constants(1000.0, d)
        assert t1_hi < t1_lo < TAU10
        assert t2_hi < t2_lo < TAU20

    def test_filter_dc_and_decay(self):
        assert float(temporal_filter(0.0, 0.01, 7)) == 1.0
        w = np.linspace(0.0, 60.0, 100)
        h = temporal_filter(w, 0.01, 7)
        assert np.all(np.diff(h) < 0)


class TestSensitivity:
    def test_golden_point(self):
        # S(u=2 cyc/deg, w=0) at L=20 cd/m^2, x0=2.5 deg
        got = float(stcsf(2.0, 0.0, VC))
        assert relerr(got, 258.48033523187986928) < REL

    def test_spatial_equals_static_limit(self):
        # with both temporal filters forced to unity the result must be
        # bit-identical to the spatial-only form (w = 0) for every w
        u = np.linspace(0.1, 40.0, 37)
        s_spatial = stcsf(u, 0.0, VC, temporal_filters=False)
        for w in (0.0, 3.0, 17.0):
            s_forced = stcsf(u, w, VC, temporal_filters=False)
            assert np.array_equal(s_forced, s_spatial)

    def test_broadcasting(self):
        u = np.linspace(0.1, 30.0, 11)[:, None]
        w = np.linspace(0.0, 40.0, 7)[None, :]
        s = stcsf(u, w, VC)
        assert s.shape == (11, 7)
        # each column must agree with scalar evaluation
        s00 = float(stcsf(u[3, 0], w[0, 4], VC))
        assert s[3, 4] == s00

    def test_spatial_peak_location(self):
        # band-pass in u with a peak at a few cyc/deg
        u = np.linspace(0.05, 60.0, 4096)
        s = stcsf(u, 0.0, VC, temporal_filters=False)
        peak = u[np.argmax(s)]
        assert 1.0 <= peak <= 8.0
        assert s.max() > 100.0

    def test_high_frequency_rolloff(self):
        s60 = float(stcsf(60.0, 0.0, VC, temporal_filters=False))
        u = np.linspace(0.05, 60.0, 4096)
        speak = stcsf(u, 0.0, VC, temporal_filters=False).max()
        assert s60 < 0.01 * speak

    def test_temporal_bandpass_at_low_u(self):
        # at low spatial frequency the temporal response peaks well above 0 Hz
        w = np.arange(0.0, 40.5, 0.5)
        s = stcsf(0.1, w, VC)
        assert w[np.argmax(s)] == pytest.approx(10.5)

    def test_temporal_lowpass_at_high_u(self):
        w = np.arange(0.0, 40.5, 0.5)
        s = stcsf(8.0, w, VC)
        assert np.argmax(s) == 0

    def test_sensitivity_positive_and_finite(self):
        u = np.linspace(0.0, 80.0, 101)
        w = np.linspace(0.0, 80.0, 51)
        s = stcsf(u[:, None], w[None, :], VC)
        assert np.all(np.isfinite(s))
        # zero exactly at the fully inhibited static DC point, positive elsewhere
        assert s[0, 0] == 0.0
        assert np.all(s.ravel()[1:] > 0)

    def test_optics_reuse_is_exact(self):
        optics = derive_optics(VC)
        u = np.linspace(0.1, 20.0, 9)
        assert np.array_equal(stcsf(u, 7.0, VC), stcsf(u, 7.0, VC, optics=optics))


class TestValidation:
    def test_conditions_reject_nonpositive(self):
        with pytest.raises(ValueError, match=r"ViewingConditions\.luminance"):
            ViewingConditions(luminance=0.0, x0=2.5)
        with pytest.raises(ValueError, match=r"ViewingConditions\.x0"):
            ViewingConditions(luminance=20.0, x0=np.inf)

    @pytest.mark.parametrize("x0", [1e-200, 1e100, 1e200])
    def test_conditions_reject_x0_the_sensitivity_cannot_square(self, x0):
        # 1 / x0**2 would divide by zero or overflow inside stcsf, and from
        # about 1.27e62 deg the (1 + D/3.2)**5 of tau2 overflows
        with pytest.raises(ValueError, match=r"ViewingConditions\.x0 = "):
            ViewingConditions(luminance=20.0, x0=x0)

    def test_largest_x0_keeps_the_tau2_power_finite(self):
        x0 = ViewingConditions._X0_RANGE[1]
        ViewingConditions(luminance=20.0, x0=x0)
        with np.errstate(over="raise"):
            assert np.isfinite((1.0 + 2.0 * x0 / np.sqrt(np.pi) / 3.2) ** 5)
        with pytest.raises(ValueError, match=r"ViewingConditions\.x0 = "):
            ViewingConditions(luminance=20.0, x0=np.nextafter(x0, np.inf))

    @pytest.mark.parametrize("lum, x0", [(20.0, 6e61), (1e4, 3e61)])
    def test_tau2_overflow_names_d_and_e(self, lum, x0):
        # x0 is accepted, but (1 + D/3.2)**5 times E leaves double range;
        # tau2 must not silently become 0
        vc = ViewingConditions(luminance=lum, x0=x0)
        with pytest.raises(ValueError, match=r"overflows at field diameter "
                           r"D = \S+ deg, retinal illuminance E = \S+ Td"):
            derive_optics(vc)

    def test_illuminance_overflow_names_the_luminance(self):
        # E itself overflows, so the error is the luminance's, not the
        # field size's
        vc = ViewingConditions(luminance=5e307, x0=2.5)
        with pytest.raises(ValueError, match=r"luminance 5e\+307 cd/m\^2") \
                as info:
            derive_optics(vc)
        assert "(1 + D/3.2)" not in str(info.value)

    def test_tau2_below_the_overflow_is_unchanged(self):
        vc = ViewingConditions(luminance=20.0, x0=5e61)
        assert derive_optics(vc).tau2 == 6.879666420023998e-05


@pytest.mark.oracle
class TestAgainstArbitraryPrecision:
    """Re-derive a grid of sensitivities with mpmath and compare live."""

    def test_grid(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50

        # the standard photopic constants, spelled out here rather than read
        # from cinecho.csf so the oracle shares nothing with the code
        k, eta, phi0 = mp.mpf(3), mp.mpf("0.03"), mp.mpf("3e-8")
        x_max, n_max, t_int = mp.mpf(12), mp.mpf(15), mp.mpf("0.1")
        p, sigma0, c_ab = mp.mpf("1.285e6"), mp.mpf("0.5"), mp.mpf("0.08")
        u0_lat, n1, n2 = mp.mpf(7), 7, 4
        tau10, tau20 = mp.mpf("0.032"), mp.mpf("0.018")

        def s_ref(u, w, lum, x0):
            u, w, lum, x0 = map(mp.mpf, (u, w, lum, x0))
            d = 5 - 3 * mp.tanh(mp.mpf("0.4") * mp.log(lum * x0 ** 2 / 1600))
            e = (mp.pi * d ** 2 * lum / 4) * (1 - (d / mp.mpf("9.7")) ** 2
                                              + (d / mp.mpf("12.4")) ** 4)
            dd = 2 * x0 / mp.sqrt(mp.pi)
            tau1 = tau10 / (1 + mp.mpf("0.55")
                                      * mp.log(1 + (1 + dd) ** mp.mpf("0.6") * e / mp.mpf("3.5")))
            tau2 = tau20 / (1 + mp.mpf("0.37")
                                      * mp.log(1 + (1 + dd / mp.mpf("3.2")) ** 5 * e / 120))
            h1 = mp.sqrt((1 + (2 * mp.pi * tau1 * w) ** 2) ** (-n1))
            h2 = mp.sqrt((1 + (2 * mp.pi * tau2 * w) ** 2) ** (-n2))
            sigma = mp.sqrt(sigma0 ** 2 + (c_ab * d) ** 2) / 60
            m_opt = mp.e ** (-2 * (mp.pi * sigma * u) ** 2)
            f = 1 - mp.sqrt(1 - mp.e ** (-((u / u0_lat) ** 2)))
            spatial = 1 / x0 ** 2 + 1 / x_max ** 2 + (u / n_max) ** 2
            noise = 1 / (eta * p * e) + phi0 / (h1 * (1 - h2 * f)) ** 2
            return m_opt / (k * mp.sqrt((2 / t_int) * spatial * noise))

        rng = np.random.default_rng(20260819)
        for _ in range(25):
            u = float(rng.uniform(0.05, 50.0))
            w = float(rng.uniform(0.0, 50.0))
            lum = float(10.0 ** rng.uniform(-1, 3))
            x0 = float(rng.uniform(0.5, 30.0))
            vc = ViewingConditions(luminance=lum, x0=x0)
            got = float(stcsf(u, w, vc))
            want = float(s_ref(u, w, lum, x0))
            assert relerr(got, want) < 1e-12, (u, w, lum, x0)
