"""Oracle tests of the half-spectrum background generator.

The reference below is the full complex path generate_background replaced:
the f^(-beta/2) amplitude rebuilt on the whole fftn index grid for every
stack, a complex fftn/ifftn pair and the real part of the result.  On the
fixed cases the codes must match it exactly.  Over random small shapes,
betas and seeds a code may differ by one, and only where the reference's
value before rounding lies within 1e-9 of a half-integer: there the two
transforms' last-bit differences can round to either neighbour.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cinecho.stacks import StackGeometry, generate_background

pytestmark = pytest.mark.oracle

# distance from a rounding half-step within which a code may flip
HALF_STEP_TOL = 1e-9


def reference_background(geometry, seed, texture="power_law", beta=3.0):
    """(codes, value before rounding) by the full complex transform."""
    if texture == "white":
        beta = 0.0
    white = np.random.default_rng(seed).standard_normal(geometry.shape)
    fx = np.fft.fftfreq(geometry.width)[:, None, None]
    fy = np.fft.fftfreq(geometry.height)[None, :, None]
    fz = np.fft.fftfreq(geometry.n_slices)[None, None, :]
    radial = np.sqrt(fx * fx + fy * fy + fz * fz)
    with np.errstate(divide="ignore"):
        amplitude = radial ** (-beta / 2.0)
    amplitude[0, 0, 0] = 0.0
    sigma = float(np.sqrt(np.mean(amplitude * amplitude)))
    shaped = np.fft.ifftn(np.fft.fftn(white) * amplitude).real / sigma
    center = 1 << (geometry.bit_depth - 1)
    scale = (1 << geometry.bit_depth) / 16.0
    value = center + shaped * scale
    codes = np.clip(np.rint(value), 0, geometry.max_code).astype(np.uint16)
    return codes, value


# odd and even widths and depths, the tests' SMALL grid and dataset_b
SHAPES = [(16, 16, 9), (15, 17, 8), (13, 12, 7), (20, 9, 12),
          (64, 64, 32)]


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("texture, beta", [
    ("power_law", 0.0), ("power_law", 1.5), ("power_law", 3.0),
    ("white", 3.0)])
def test_codes_match_the_full_transform(shape, texture, beta):
    geometry = StackGeometry(*shape, 10, 1.0)
    for seed in (0, 7, np.random.SeedSequence([12345, 3])):
        got = generate_background(geometry, seed, texture, beta).data
        want, _ = reference_background(geometry, seed, texture, beta)
        assert np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(width=st.integers(1, 12), height=st.integers(1, 12),
       n_slices=st.integers(1, 12), bit_depth=st.integers(1, 16),
       beta=st.floats(0.0, 5.0), seed=st.integers(0, 2 ** 32 - 1))
def test_codes_differ_only_at_half_steps(width, height, n_slices, bit_depth,
                                         beta, seed):
    geometry = StackGeometry(width, height, n_slices, bit_depth, 1.0)
    if geometry.shape == (1, 1, 1):
        # the one DC bin is zeroed: no spectrum, refused by both paths
        with pytest.raises(ValueError, match="no finite, nonzero spectrum"):
            generate_background(geometry, seed, beta=beta)
        return
    got = generate_background(geometry, seed, beta=beta).data
    want, value = reference_background(geometry, seed, beta=beta)
    differ = got != want
    assert np.abs(got.astype(np.int64) - want).max() <= 1
    near_half = np.abs(value - np.floor(value) - 0.5) <= HALF_STEP_TOL
    assert not np.any(differ & ~near_half)
