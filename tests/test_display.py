"""Tests for the display code-to-luminance mapping."""

import numpy as np
import pytest

from cinecho.display import DisplayModel


class TestLinearMapping:
    def test_endpoints_exact(self):
        disp = DisplayModel(l_min=1.05, l_max=1000.0, bit_depth=10)
        assert float(disp.code_to_luminance(0)) == 1.05
        assert float(disp.code_to_luminance(1023)) == 1000.0

    def test_midpoint(self):
        disp = DisplayModel(l_min=0.0 + 2.0, l_max=4.0, bit_depth=8)
        # t = 0.5 exactly representable only when max_code is even; use
        # code 51 of 255: t = 0.2
        lum = float(disp.code_to_luminance(51))
        assert lum == pytest.approx(2.0 * 0.8 + 4.0 * 0.2, rel=1e-15)

    def test_monotone_and_affine(self):
        disp = DisplayModel()
        codes = np.arange(disp.max_code + 1)
        lum = disp.code_to_luminance(codes)
        steps = np.diff(lum)
        assert np.all(steps > 0)
        assert np.allclose(steps, steps[0], rtol=1e-12)


class TestLogMapping:
    def test_endpoints_exact(self):
        disp = DisplayModel(l_min=1.05, l_max=1000.0, bit_depth=10,
                            mapping="log_luminance")
        assert float(disp.code_to_luminance(0)) == 1.05
        assert float(disp.code_to_luminance(1023)) == 1000.0

    def test_constant_ratio(self):
        disp = DisplayModel(l_min=1.0, l_max=100.0, bit_depth=8,
                            mapping="log_luminance")
        codes = np.arange(256)
        lum = disp.code_to_luminance(codes)
        ratios = lum[1:] / lum[:-1]
        assert np.allclose(ratios, ratios[0], rtol=1e-12)


class TestValidation:
    def test_code_range_checked(self):
        disp = DisplayModel(bit_depth=10)
        with pytest.raises(ValueError):
            disp.code_to_luminance(1024)
        with pytest.raises(ValueError):
            disp.code_to_luminance(np.array([0, -1]))

    def test_levels_checked(self):
        with pytest.raises(ValueError):
            DisplayModel(l_min=0.0, l_max=100.0)
        with pytest.raises(ValueError):
            DisplayModel(l_min=10.0, l_max=10.0)

    def test_bit_depth_checked(self):
        with pytest.raises(ValueError):
            DisplayModel(bit_depth=0)
        with pytest.raises(ValueError):
            DisplayModel(bit_depth=17)

    def test_mapping_checked(self):
        with pytest.raises(ValueError):
            DisplayModel(mapping="gamma")

    def test_dtype_is_float64(self):
        disp = DisplayModel()
        out = disp.code_to_luminance(np.arange(8, dtype=np.uint16))
        assert out.dtype == np.float64
