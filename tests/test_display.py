"""Tests for the display code-to-luminance mapping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cinecho.display import MAPPINGS, DisplayModel


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


class TestTable:
    @settings(max_examples=60, deadline=None)
    @given(bit_depth=st.integers(1, 16), mapping=st.sampled_from(MAPPINGS),
           levels=st.lists(st.floats(1e-3, 1e4), min_size=2, max_size=2,
                           unique=True),
           seed=st.integers(0, 2**32 - 1))
    def test_table_equals_closed_form_bitwise(self, bit_depth, mapping,
                                              levels, seed):
        # every code, in a shuffled 2-D layout, against the closed form
        # evaluated on the codes themselves
        l_min, l_max = sorted(levels)
        disp = DisplayModel(l_min, l_max, bit_depth, mapping)
        codes = np.random.default_rng(seed).permutation(
            disp.max_code + 1).reshape(2, -1)
        t = codes.astype(np.float64) / float(disp.max_code)
        if mapping == "linear_luminance":
            want = l_min * (1.0 - t) + l_max * t
        else:
            want = l_min ** (1.0 - t) * l_max ** t
        assert np.array_equal(disp.code_to_luminance(codes), want)

    def test_booleans_read_codes_0_and_1(self):
        disp = DisplayModel()
        assert np.array_equal(disp.code_to_luminance(np.array([True, False])),
                              disp.code_to_luminance(np.array([1, 0])))

    def test_result_is_a_fresh_array(self):
        disp = DisplayModel()
        out = disp.code_to_luminance(np.arange(4))
        out[0] = -1.0
        assert float(disp.code_to_luminance(0)) == 1.05


class TestValidation:
    def test_code_range_checked(self):
        disp = DisplayModel(bit_depth=10)
        with pytest.raises(ValueError):
            disp.code_to_luminance(1024)
        with pytest.raises(ValueError):
            disp.code_to_luminance(np.array([0, -1]))

    @pytest.mark.parametrize("code", [1024, np.array([0, -1])])
    def test_out_of_range_codes_named(self, code):
        disp = DisplayModel(bit_depth=10)
        with pytest.raises(ValueError, match=r"code values must lie in "
                           r"\[0, 1023\] for a 10-bit display"):
            disp.code_to_luminance(code)

    @pytest.mark.parametrize("code", [np.array([0.0, 3.0]), 2.0,
                                      np.array([1 + 0j])])
    def test_non_integer_codes_refused_by_dtype(self, code):
        disp = DisplayModel(bit_depth=10)
        dtype = np.asarray(code).dtype
        with pytest.raises(ValueError, match=r"code values must be integers, "
                           rf"got dtype {dtype}"):
            disp.code_to_luminance(code)

    def test_levels_checked(self):
        with pytest.raises(ValueError):
            DisplayModel(l_min=0.0, l_max=100.0)
        with pytest.raises(ValueError):
            DisplayModel(l_min=10.0, l_max=10.0)

    def test_l_max_must_be_finite(self):
        with pytest.raises(ValueError, match="l_max must be finite"):
            DisplayModel(l_max=float("inf"))

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
