"""Oracle tests of the half-spectrum percept kernel.

The reference below is the full complex path the kernel replaced: the
gain on the whole fftn index grid, a complex fftn/ifftn pair and the real
part of the result.  The kernel must match it to 1e-12 relative, both on
whole perceived stacks and on the channel responses of a slice range
(projected from the spatial planes or straight from the half spectrum),
whether one viewing condition is filtered or several share one forward
transform.  The cached spectral plan's gain grid must equal transfer_gain
bitwise.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cinecho import percept
from cinecho.csf import ViewingConditions
from cinecho.display import DisplayModel
from cinecho.observer import channelize_slices, lg_channel_bank
from cinecho.percept import (
    apply_stcsf,
    filter_contrast,
    foveal_weight,
    frequency_of_index,
    mean_luminance,
    taper_margins,
    transfer_gain,
)
from cinecho.stacks import ImageStack, LesionSpec, StackGeometry, \
    generate_dataset
from cinecho.trial import (
    PipelineConfig,
    perceive_responses,
    plan_stacks,
    split_dataset,
)

pytestmark = pytest.mark.oracle

RTOL = 1e-12


def reference_filter(contrast, vc):
    """Full-grid gain, complex fftn/ifftn, real part."""
    w_px, h_px, n_sl = contrast.shape
    u1 = frequency_of_index(np.arange(w_px), w_px, vc.ssr)
    u2 = frequency_of_index(np.arange(h_px), h_px, vc.ssr)
    w = frequency_of_index(np.arange(n_sl), n_sl, vc.slice_rate)
    gain = transfer_gain(u1[:, None, None], u2[None, :, None],
                         w[None, None, :], vc)
    back = np.fft.ifftn(np.fft.fftn(contrast) * gain, norm="forward")
    return (back / contrast.size).real


def reference_perceive(lum, vc, *, taper, foveal_mode):
    lum_mean = mean_luminance(lum)
    contrast = lum - lum_mean
    if taper:
        contrast = taper_margins(contrast)
        contrast = contrast - contrast.mean()
    vc_eff = ViewingConditions(luminance=lum_mean, x0=vc.x0, ssr=vc.ssr,
                               slice_rate=vc.slice_rate)
    out = reference_filter(contrast, vc_eff)
    w_px, h_px, _ = lum.shape
    rows, cols = np.meshgrid(np.arange(w_px), np.arange(h_px), indexing="ij")
    alpha = np.hypot(rows - w_px // 2, cols - h_px // 2) / vc.ssr
    return out * foveal_weight(alpha, foveal_mode)[:, :, None]


def relative_error(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


# even and odd planes and depths, including the two criterion-05 shapes
SHAPES = [(15, 15, 9), (24, 20, 12), (16, 16, 8), (17, 12, 7), (13, 18, 10)]
# two browsing points served by one forward transform
POINTS = [(7.0, 25.0), (3.5, 40.0)]


@pytest.mark.parametrize("shape", SHAPES)
def test_filter_contrast_matches_full_complex_path(shape):
    rng = np.random.default_rng(sum(shape))
    contrast = rng.normal(size=shape)
    contrast -= contrast.mean()
    vcs = [ViewingConditions(luminance=40.0, x0=shape[0] / ssr, ssr=ssr,
                             slice_rate=rate) for ssr, rate in POINTS]
    for vc, got in zip(vcs, filter_contrast(contrast, vcs)):
        assert relative_error(got, reference_filter(contrast, vc)) <= RTOL
    assert relative_error(filter_contrast(contrast, vcs[0]),
                          reference_filter(contrast, vcs[0])) <= RTOL


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("taper", [True, False])
@pytest.mark.parametrize("foveal_mode", ["none", "hard", "soft"])
def test_apply_stcsf_matches_full_complex_path(shape, taper, foveal_mode):
    rng = np.random.default_rng(3 * sum(shape))
    lum = rng.uniform(20.0, 80.0, size=shape)
    vcs = [ViewingConditions.for_stack(shape[0], ssr, rate, luminance=50.0)
           for ssr, rate in POINTS]
    centre = shape[2] // 2
    slices = (centre - 2, centre - 1, centre, centre + 1, centre + 2)
    bank = lg_channel_bank(shape[0], shape[1], n_channels=5, spread=4.0)

    whole = apply_stcsf(lum, vcs, taper=taper, foveal_mode=foveal_mode)
    ranged = apply_stcsf(lum, vcs, taper=taper, foveal_mode=foveal_mode,
                         slices=slices)
    banked = apply_stcsf(lum, vcs, taper=taper, foveal_mode=foveal_mode,
                         slices=slices, bank=bank)
    for vc, full, part, responses in zip(vcs, whole, ranged, banked):
        want = reference_perceive(lum, vc, taper=taper,
                                  foveal_mode=foveal_mode)
        assert full.data.shape == shape
        assert relative_error(full.data, want) <= RTOL
        assert part.data.shape == shape[:2] + (len(slices),)
        want_responses = channelize_slices(want, bank, slices)
        assert relative_error(
            channelize_slices(part.data, bank, range(len(slices))),
            want_responses) <= RTOL
        assert responses.shape == (len(slices), 5)
        assert relative_error(responses, want_responses) <= RTOL


# three browsing points on one forward transform, two of them sharing one
# gain evaluation; at 1 pixel/deg the hard foveal cutoff (7 deg) bites
RESPONSE_POINTS = [(7.0, 25.0), (1.0, 40.0), (1.0, 10.0)]


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("taper", [True, False])
@pytest.mark.parametrize("foveal_mode", ["none", "hard", "soft"])
def test_perceive_responses_match_full_complex_path(shape, taper,
                                                    foveal_mode):
    rng = np.random.default_rng(5 * sum(shape))
    geometry = StackGeometry(*shape, 10, 1.0)
    stacks = [ImageStack(geometry, rng.integers(0, 1024, size=shape,
                                                dtype=np.uint16),
                         f"s{i}", "healthy") for i in range(2)]
    configs = [PipelineConfig(ssr=ssr, slice_rate=rate, taper=taper,
                              foveal_mode=foveal_mode, n_channels=5,
                              spread=4.0)
               for ssr, rate in RESPONSE_POINTS]
    centre = shape[2] // 2
    slice_range = (centre - 2, centre - 1, centre, centre + 1, centre + 2)
    got = perceive_responses(stacks, configs, slice_range)
    assert got.shape == (2, len(configs), len(slice_range), 5)
    bank = lg_channel_bank(shape[0], shape[1], n_channels=5, spread=4.0)
    for row, stack in enumerate(stacks):
        lum = configs[0].display.code_to_luminance(stack.data)
        for col, config in enumerate(configs):
            vc = ViewingConditions.for_stack(shape[0], config.ssr,
                                             config.slice_rate, 1.0)
            want = reference_perceive(lum, vc, taper=taper,
                                      foveal_mode=foveal_mode)
            assert relative_error(
                got[row, col],
                channelize_slices(want, bank, slice_range)) <= RTOL


@pytest.mark.parametrize("foveal_mode", ["hard", "soft"])
def test_foveal_weight_serves_every_condition_alike(foveal_mode):
    rng = np.random.default_rng(17)
    lum = rng.uniform(20.0, 80.0, size=(17, 12, 7))
    vcs = [ViewingConditions.for_stack(17, ssr, rate, luminance=50.0)
           for ssr, rate in RESPONSE_POINTS]
    together = apply_stcsf(lum, vcs, foveal_mode=foveal_mode)
    for vc, got in zip(vcs, together):
        alone = apply_stcsf(lum, vc, foveal_mode=foveal_mode)
        assert np.array_equal(got.data, alone.data)


@settings(max_examples=200, deadline=None)
@given(w_px=st.integers(1, 40), h_px=st.integers(1, 40),
       n_sl=st.integers(1, 24), ssr=st.floats(0.5, 30.0),
       rates=st.lists(st.floats(0.5, 60.0), min_size=1, max_size=3),
       lum=st.floats(0.1, 2000.0))
def test_plan_gain_equals_transfer_gain_bitwise(w_px, h_px, n_sl, ssr, rates,
                                                lum):
    # the full half grid: every k1, every k2 in [0, H//2], every k3, at
    # the folded frequencies (index k and n - k share |u1| and |w|)
    vcs = [ViewingConditions(luminance=lum, x0=w_px / ssr, ssr=ssr,
                             slice_rate=rate) for rate in rates]
    plan = percept._plan((w_px, h_px, n_sl), ((w_px / ssr, ssr),), None,
                         "none", None)
    k1 = np.arange(w_px)
    k3 = np.arange(n_sl)
    u1 = np.abs(frequency_of_index(np.minimum(k1, w_px - k1), w_px, ssr))
    u2 = np.abs(frequency_of_index(np.arange(h_px // 2 + 1), h_px, ssr))
    # weighing a spectrum of ones lays the gain out on the half grid
    ones = np.ones((n_sl, u1.size * u2.size), dtype=np.complex128)
    for vc, gain in zip(vcs, plan.half_gains(vcs)):
        w = np.abs(frequency_of_index(np.minimum(k3, n_sl - k3), n_sl,
                                      vc.slice_rate))
        want = transfer_gain(u1[None, :, None], u2[None, None, :],
                             w[:, None, None], vc)
        got = plan.weigh(ones, gain)
        assert np.array_equal(got.real.reshape(want.shape), want)
        assert not got.imag.any()


def test_trial_responses_match_full_complex_path():
    geometry = StackGeometry(16, 16, 9, 10, 1.0)
    dataset = generate_dataset(geometry, 8,
                               LesionSpec("microcalc", 180.0, diameter_px=4.0),
                               seed=404)
    plan = split_dataset(dataset.pairing, 1, 0, 1)
    base = PipelineConfig(n_channels=5, spread=4.0)
    dim = DisplayModel(l_min=0.5, l_max=300.0)
    # one pass per display, as a sweep makes them
    passes = [[base, PipelineConfig(n_channels=5, spread=4.0, ssr=3.5,
                                    slice_rate=40.0)],
              [PipelineConfig(display=dim, n_channels=5, spread=4.0)]]
    stacks, slice_range = plan_stacks(dataset, plan, base)
    bank = lg_channel_bank(16, 16, n_channels=5, spread=4.0)
    for configs in passes:
        got = perceive_responses(stacks, configs, slice_range)
        assert got.shape == (len(stacks), len(configs), len(slice_range), 5)
        for row, stack in enumerate(stacks):
            for col, config in enumerate(configs):
                lum = config.display.code_to_luminance(stack.data)
                vc = ViewingConditions.for_stack(16, config.ssr,
                                                 config.slice_rate, 1.0)
                want = reference_perceive(lum, vc, taper=True,
                                          foveal_mode="none")
                assert relative_error(
                    got[row, col],
                    channelize_slices(want, bank, slice_range)) <= RTOL

