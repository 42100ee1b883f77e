"""Oracle tests of the percept kernel's two paths.

The reference below is the full complex path both paths replace: the
gain on the whole fftn index grid, a complex fftn/ifftn pair and the real
part of the result.  The plain planes path (one rfftn, the gain on the
rfftn grid, irfftn) must match it to 1e-12 relative on whole perceived
stacks and on slice ranges, whether one viewing condition is filtered or
several share one forward transform, and so must the channel responses
of the cached spectral plan.  The plan's gain, batch by batch, must
equal transfer_gain bitwise.  The channel responses, taken from the part
of the stack even about the centre pixel, must ignore an odd part (and,
on square stacks, a part antisymmetric under transposition) and match
the projection of the perceived planes over generated shapes, depths,
ssr sets and foveal modes.  A point's output must not depend on the
other points of its pass, nor on the batch it is weighed in, and a long
sweep must hold only one batch of weighed spectra and one batch's gain
table at a time.  A channel bank that is not radial about the centre
pixel must be refused.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cinecho import percept
from cinecho.csf import ViewingConditions
from cinecho.display import DisplayModel
from cinecho.observer import ChannelBank, channelize_slices, lg_channel_bank
from cinecho.percept import (
    apply_stcsf,
    filter_contrast,
    foveal_weight,
    frequency_of_index,
    taper_margins,
    transfer_gain,
)
from cinecho.stacks import ImageStack, LesionSpec, StackGeometry, \
    centre_offsets, generate_dataset
from cinecho.trial import PipelineConfig, perceive_responses

pytestmark = pytest.mark.oracle

RTOL = 1e-12


def reference_filter(contrast, luminance, point):
    """Full-grid gain at browsing point (ssr, slice_rate), with
    x0 = width/ssr, complex fftn/ifftn, real part."""
    ssr, rate = point
    w_px, h_px, n_sl = contrast.shape
    vc = ViewingConditions(luminance=luminance, x0=w_px / ssr)
    u1 = frequency_of_index(np.arange(w_px), w_px, ssr)
    u2 = frequency_of_index(np.arange(h_px), h_px, ssr)
    w = frequency_of_index(np.arange(n_sl), n_sl, rate)
    gain = transfer_gain(u1[:, None, None], u2[None, :, None],
                         w[None, None, :], vc)
    back = np.fft.ifftn(np.fft.fftn(contrast) * gain, norm="forward")
    return (back / contrast.size).real


def reference_perceive(lum, point, *, taper, foveal_mode):
    """The perceived stack at browsing point (ssr, slice_rate): L is the
    stack mean and x0 = width/ssr."""
    lum_mean = float(lum.mean())
    contrast = lum - lum_mean
    if taper:
        contrast = taper_margins(contrast)
        contrast = contrast - contrast.mean()
    w_px, h_px, _ = lum.shape
    out = reference_filter(contrast, lum_mean, point)
    rows, cols = np.meshgrid(np.arange(w_px), np.arange(h_px), indexing="ij")
    alpha = np.hypot(rows - w_px // 2, cols - h_px // 2) / point[0]
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
    for point, got in zip(POINTS, filter_contrast(contrast, 40.0, POINTS)):
        assert relative_error(got, reference_filter(contrast, 40.0, point)) \
            <= RTOL
    alone, = filter_contrast(contrast, 40.0, POINTS[:1])
    assert relative_error(alone, reference_filter(contrast, 40.0, POINTS[0])) \
        <= RTOL


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("taper", [True, False])
@pytest.mark.parametrize("foveal_mode", ["none", "hard", "soft"])
def test_apply_stcsf_matches_full_complex_path(shape, taper, foveal_mode):
    rng = np.random.default_rng(3 * sum(shape))
    lum = rng.uniform(20.0, 80.0, size=shape)
    centre = shape[2] // 2
    slices = (centre - 2, centre - 1, centre, centre + 1, centre + 2)
    bank = lg_channel_bank(shape[0], shape[1], n_channels=5, spread=4.0)

    whole = apply_stcsf(lum, POINTS, taper=taper, foveal_mode=foveal_mode)
    ranged = apply_stcsf(lum, POINTS, taper=taper, foveal_mode=foveal_mode,
                         slices=slices)
    banked = apply_stcsf(lum, POINTS, taper=taper, foveal_mode=foveal_mode,
                         slices=slices, bank=bank)
    for point, full, part, responses in zip(POINTS, whole, ranged, banked):
        want = reference_perceive(lum, point, taper=taper,
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
            want = reference_perceive(lum, (config.ssr, config.slice_rate),
                                      taper=taper, foveal_mode=foveal_mode)
            assert relative_error(
                got[row, col],
                channelize_slices(want, bank, slice_range)) <= RTOL


@pytest.mark.parametrize("foveal_mode", ["hard", "soft"])
def test_foveal_weight_serves_every_condition_alike(foveal_mode):
    rng = np.random.default_rng(17)
    lum = rng.uniform(20.0, 80.0, size=(17, 12, 7))
    together = apply_stcsf(lum, RESPONSE_POINTS, foveal_mode=foveal_mode)
    for point, got in zip(RESPONSE_POINTS, together):
        alone, = apply_stcsf(lum, [point], foveal_mode=foveal_mode)
        assert np.array_equal(got.data, alone.data)


@settings(max_examples=200, deadline=None)
@given(w_px=st.integers(1, 40), h_px=st.integers(1, 40),
       n_sl=st.integers(1, 24), ssr=st.floats(0.5, 30.0),
       rates=st.lists(st.floats(0.5, 60.0), min_size=1, max_size=3),
       lum=st.floats(0.1, 2000.0))
# rates whose |w| grids share values, at an even and an odd K, and more
# rates than one batch holds
@example(w_px=12, h_px=10, n_sl=8, ssr=7.0, rates=[5.0, 10.0, 20.0],
         lum=500.0)
@example(w_px=9, h_px=14, n_sl=41, ssr=7.0, rates=[20.0, 5.0, 10.0, 5.0],
         lum=32.0)
@example(w_px=11, h_px=6, n_sl=9, ssr=3.5,
         rates=[float(r) for r in range(1, 2 * percept.BATCH_POINTS + 4)],
         lum=80.0)
def test_plan_gain_equals_transfer_gain_bitwise(w_px, h_px, n_sl, ssr, rates,
                                                lum):
    # every kept quadrant position (a, b) and every k3, at the folded
    # frequencies (index k and n - k share |u1| and |w|)
    vc = ViewingConditions(luminance=lum, x0=w_px / ssr)
    points = tuple((ssr, rate) for rate in rates)
    bank = lg_channel_bank(w_px, h_px, n_channels=1, spread=4.0)
    plan = percept._plan((w_px, h_px, n_sl), points, tuple(range(n_sl)),
                         "none", bank)
    a, b = plan.kept
    k3 = np.arange(n_sl)
    u1 = np.abs(frequency_of_index(a, w_px, ssr))
    u2 = np.abs(frequency_of_index(b, h_px, ssr))
    # weighing a spectrum of ones lays the gain out on the kept positions
    ones = np.ones((n_sl, len(a)))
    batches = [(members, out.copy())
               for members, _, out in plan.weighed(ones, lum)]
    assert [i for members, _ in batches for i in members] \
        == list(range(len(rates)))
    gains = np.concatenate([out for _, out in batches])
    for rate, got in zip(rates, gains):
        w = np.abs(frequency_of_index(np.minimum(k3, n_sl - k3), n_sl, rate))
        want = transfer_gain(u1[None, :], u2[None, :], w[:, None], vc)
        assert np.array_equal(got, want)


def test_trial_responses_match_full_complex_path():
    geometry = StackGeometry(16, 16, 9, 10, 1.0)
    dataset = generate_dataset(geometry, 8,
                               LesionSpec("microcalc", 180.0, diameter_px=4.0),
                               seed=404)
    # the 8 pairs are only perceived, in id order: too few to train 5
    # channels, so no plan is checked
    stacks = sorted(dataset.stacks, key=lambda s: s.stack_id)
    slice_range = next(s.lesion_slices for s in stacks if s.label == "lesion")
    base = PipelineConfig(n_channels=5, spread=4.0)
    dim = DisplayModel(l_min=0.5, l_max=300.0)
    # one pass per display, as a sweep makes them
    passes = [[base, PipelineConfig(n_channels=5, spread=4.0, ssr=3.5,
                                    slice_rate=40.0)],
              [PipelineConfig(display=dim, n_channels=5, spread=4.0)]]
    bank = lg_channel_bank(16, 16, n_channels=5, spread=4.0)
    for configs in passes:
        got = perceive_responses(stacks, configs, slice_range)
        assert got.shape == (len(stacks), len(configs), len(slice_range), 5)
        for row, stack in enumerate(stacks):
            for col, config in enumerate(configs):
                lum = config.display.code_to_luminance(stack.data)
                want = reference_perceive(
                    lum, (config.ssr, config.slice_rate), taper=True,
                    foveal_mode="none")
                assert relative_error(
                    got[row, col],
                    channelize_slices(want, bank, slice_range)) <= RTOL



def _radial_bank(w_px, h_px, most, spread):
    """lg_channel_bank with at most `most` channels, as many as the grid
    keeps independent: a radial bank's rank is at most the count of
    distinct pixel radii about the centre pixel, and lg_channel_bank
    refuses a rank-deficient bank."""
    rows, cols = centre_offsets(w_px, h_px)
    radii = np.unique(rows[:, None] ** 2 + cols[None, :] ** 2)
    return lg_channel_bank(w_px, h_px, min(most, len(radii)), spread)


def _mirror(arr, axis):
    """arr with pixel c + i and pixel c - i of the axis swapped, c = n//2
    (indices mod n): the reflection about the centre pixel."""
    n = arr.shape[axis]
    return arr.take((2 * (n // 2) - np.arange(n)) % n, axis=axis)


def _bank_and_planes(contrast, points, slices, foveal_mode, bank):
    """The channel responses of the untapered luminance 40 + contrast
    through apply_stcsf with the bank, and the channelize_slices of its
    planes without it, one pair per point."""
    lum = 40.0 + contrast
    banked = apply_stcsf(lum, points, slices=slices, foveal_mode=foveal_mode,
                         taper=False, bank=bank)
    planes = apply_stcsf(lum, points, slices=slices, foveal_mode=foveal_mode,
                         taper=False)
    return [(responses, channelize_slices(plane.data, bank,
                                          range(len(slices))))
            for responses, plane in zip(banked, planes)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(w_px=st.integers(1, 24), h_px=st.integers(1, 24),
       n_sl=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1),
       foveal_mode=st.sampled_from(["none", "hard", "soft"]))
@example(w_px=16, h_px=16, n_sl=4, seed=0, foveal_mode="none")
@example(w_px=15, h_px=15, n_sl=3, seed=1, foveal_mode="soft")
def test_responses_read_only_the_even_part(w_px, h_px, n_sl, seed,
                                           foveal_mode):
    # the radial templates, the foveal weight and the gain are even about
    # the centre pixel in x and in y, and symmetric under transposition
    # when W == H: a part of the stack odd in x, or antisymmetric under
    # transposition, moves no response on either path.  Untapered, since
    # the taper is symmetric about (W - 1)/2, not about the centre pixel
    rng = np.random.default_rng(seed)
    contrast = rng.normal(size=(w_px, h_px, n_sl))
    points = [(3.0, 20.0), (1.0, 5.0)]
    slices = tuple(range(n_sl))
    bank = _radial_bank(w_px, h_px, 4, 3.0)
    noise = rng.normal(size=contrast.shape)
    changes = [noise - _mirror(noise, 0)]
    if w_px == h_px:
        changes.append(noise - noise.transpose(1, 0, 2))
    base = _bank_and_planes(contrast, points, slices, foveal_mode, bank)
    for change in changes:
        moved = _bank_and_planes(contrast + change, points, slices,
                                 foveal_mode, bank)
        for pair, moved_pair in zip(base, moved):
            for want, got in zip(pair, moved_pair):
                bound = RTOL * np.abs(want).max()
                assert np.abs(got - want).max() <= bound


@settings(max_examples=60, deadline=None, derandomize=True)
@given(w_px=st.integers(1, 40), h_px=st.integers(1, 40),
       n_sl=st.integers(1, 24), seed=st.integers(0, 2 ** 32 - 1),
       ssrs=st.lists(st.sampled_from([0.5, 2.0, 7.0, 14.0]), min_size=1,
                     max_size=3, unique=True),
       rates=st.lists(st.floats(0.5, 60.0), min_size=1, max_size=2),
       foveal_mode=st.sampled_from(["none", "hard", "soft"]),
       picks=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=5))
@example(w_px=64, h_px=64, n_sl=32, seed=0, ssrs=[7.0, 3.5],
         rates=[25.0, 45.0], foveal_mode="none", picks=[12, 15, 16, 17, 20])
def test_bank_path_matches_the_planes_path(w_px, h_px, n_sl, seed, ssrs,
                                           rates, foveal_mode, picks):
    # square and not, odd and even sides and depths, one to three ssr
    # values, each at one or two rates, and any slices in any order
    slices = tuple(pick % n_sl for pick in picks)
    rng = np.random.default_rng(seed)
    contrast = rng.normal(size=(w_px, h_px, n_sl))
    contrast -= contrast.mean()
    points = [(ssr, rate) for ssr in ssrs for rate in rates]
    bank = _radial_bank(w_px, h_px, 5, 4.0)
    for got, want in _bank_and_planes(contrast, points, slices, foveal_mode,
                                      bank):
        assert got.shape == want.shape == (len(slices), bank.n_channels)
        assert np.abs(got - want).max() <= RTOL * np.abs(want).max()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(shape=st.sampled_from([(12, 12, 8), (13, 11, 7), (11, 16, 9)]),
       points=st.lists(st.tuples(st.sampled_from([2.0, 7.0]),
                                 st.sampled_from([1.0, 5.0, 12.5, 25.0,
                                                  40.0, 45.0])),
                       min_size=1, max_size=percept.BATCH_POINTS + 3),
       foveal_mode=st.sampled_from(["none", "hard", "soft"]),
       banked=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
# more points at one ssr than one batch holds, some of them repeated
@example(shape=(12, 12, 8),
         points=[(7.0, rate) for rate in (45.0, 1.0, 5.0, 12.5, 25.0, 40.0)]
         * 2 + [(2.0, 5.0)], foveal_mode="soft", banked=True, seed=0)
def test_points_are_independent(shape, points, foveal_mode, banked, seed):
    # a point's output is bitwise the same whatever else shares its pass:
    # which rates, in which order, at which ssr values, in which batch
    lum = np.random.default_rng(seed).uniform(20.0, 80.0, size=shape)
    slices = (shape[2] // 2 + 1, shape[2] // 2)
    bank = lg_channel_bank(shape[0], shape[1], n_channels=4, spread=3.0) \
        if banked else None

    def perceive(points):
        outs = apply_stcsf(lum, points, foveal_mode=foveal_mode,
                           slices=slices, bank=bank)
        return [out if banked else out.data for out in outs]

    for point, together in zip(points, perceive(points)):
        alone, = perceive([point])
        assert np.array_equal(together, alone)


def test_a_sweep_longer_than_a_batch_matches_shorter_ones():
    # points past the first batch go through the later ones; each batch
    # holds at most BATCH_POINTS points, so a long sweep does not hold
    # all of its weighed spectra at once
    lum = np.random.default_rng(21).uniform(20.0, 80.0, size=(16, 16, 12))
    bank = lg_channel_bank(16, 16, n_channels=5, spread=4.0)
    rates = np.linspace(1.0, 45.0, 3 * percept.BATCH_POINTS + 1).tolist()
    points = [(7.0, rate) for rate in rates]
    whole = apply_stcsf(lum, points, slices=(5, 6, 7), bank=bank)
    for start in range(0, len(points), 4):
        part = apply_stcsf(lum, points[start:start + 4], slices=(5, 6, 7),
                           bank=bank)
        for got, want in zip(whole[start:start + 4], part):
            assert np.array_equal(got, want)
    ones = np.ones((12, 45))
    plan = percept._plan((16, 16, 12), tuple(points), (5, 6, 7), "none",
                         bank)
    sizes = [len(out) for _, _, out in plan.weighed(ones, 40.0)]
    assert sizes == [percept.BATCH_POINTS] * 3 + [1]


@pytest.mark.parametrize("distinct", [False, True],
                         ids=["repeated", "distinct"])
def test_a_long_sweep_holds_one_batch_of_weighed_spectra(distinct):
    # traced allocations of one stack's pass, its plan built beforehand:
    # ten times the points may not take much more memory than one batch,
    # whether they repeat one rate or each bring their own |w|, which the
    # gain table of their batch alone holds
    lum = np.random.default_rng(22).uniform(20.0, 80.0, size=(32, 32, 16))
    bank = lg_channel_bank(32, 32, n_channels=5, spread=4.0)

    def peak(n_points):
        points = [(7.0, 1.0 + 44.0 * i / n_points if distinct else 25.0)
                  for i in range(n_points)]
        apply_stcsf(lum, points, slices=(7, 8, 9), bank=bank)
        tracemalloc.start()
        try:
            apply_stcsf(lum, points, slices=(7, 8, 9), bank=bank)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(10 * percept.BATCH_POINTS) < 1.5 * peak(percept.BATCH_POINTS)


def _bank(templates):
    """A channel bank of hand-made W x H x n templates."""
    w_px, h_px, n = templates.shape
    return ChannelBank(width=w_px, height=h_px, n_channels=n, spread=4.0,
                       matrix=templates.reshape(w_px * h_px, n))


@pytest.mark.parametrize("shape", [(15, 15), (16, 16)])
def test_a_bank_that_is_not_radial_is_refused(shape):
    # the responses read only the part of a stack even about the centre
    # pixel and, on a square grid, symmetric under transposition: a
    # template that is neither would be read wrong without a word
    w_px, h_px = shape
    lum = np.random.default_rng(23).uniform(20.0, 80.0, size=shape + (6,))
    templates = lg_channel_bank(w_px, h_px, n_channels=3,
                                spread=4.0).matrix.reshape(w_px, h_px, 3)
    shifted = np.roll(templates, 1, axis=0)
    rows, cols = centre_offsets(w_px, h_px)
    stretched = np.exp(-np.pi * (rows[:, None] ** 2
                                 + (cols[None, :] / 1.5) ** 2) / 16.0)
    for bank, message in (
            (_bank(shifted), r"channel bank is not even about the centre "
                             rf"pixel \({w_px // 2}, {h_px // 2}\)"),
            (_bank(stretched[:, :, None]),
             "channel bank of a square grid is not symmetric under "
             "transposition")):
        with pytest.raises(ValueError, match=message):
            apply_stcsf(lum, [(7.0, 25.0)], bank=bank)


@pytest.mark.parametrize("shape", [(15, 15), (16, 16), (16, 13), (13, 16),
                                   (1, 1), (2, 5)])
def test_radial_banks_are_accepted(shape):
    # odd, even and rectangular grids, down to the smallest (whose one
    # pixel keeps one channel independent)
    lum = np.random.default_rng(24).uniform(20.0, 80.0, size=shape + (4,))
    bank = _radial_bank(*shape, 3, 4.0)
    responses, = apply_stcsf(lum, [(7.0, 25.0)], taper=False, bank=bank)
    assert responses.shape == (4, bank.n_channels)
    # stretched along y only, a template is still even about the centre
    # pixel, which is all a rectangular grid needs
    w_px, h_px = shape
    if w_px != h_px:
        rows, cols = centre_offsets(w_px, h_px)
        stretched = np.exp(-np.pi * (rows[:, None] ** 2
                                     + (cols[None, :] / 1.5) ** 2) / 16.0)
        apply_stcsf(lum, [(7.0, 25.0)], taper=False,
                    bank=_bank(stretched[:, :, None]))
