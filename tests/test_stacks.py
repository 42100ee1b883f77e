import math
import sys
import tempfile
import threading
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
import scipy.ndimage
from hypothesis import given, settings
from hypothesis import strategies as st

from cinecho import stacks
from cinecho.errors import FormatError, LesionClippingWarning
from cinecho.stacks import (
    GEOMETRY_PRESETS,
    Dataset,
    ImageStack,
    LesionSpec,
    StackGeometry,
    generate_background,
    generate_dataset,
    insert_lesion,
    lesion_profile,
    read_dataset,
    read_stack,
    write_dataset,
    write_stack,
)

SMALL = StackGeometry(16, 16, 9, 10, 1.0)


class TestGeometry:
    def test_presets(self):
        a = GEOMETRY_PRESETS["dataset_a"]
        assert (a.width, a.height, a.n_slices) == (64, 64, 41)
        assert a.bit_depth == 10 and a.slice_sep_mm == 1.0
        b = GEOMETRY_PRESETS["dataset_b"]
        assert (b.width, b.height, b.n_slices) == (64, 64, 32)
        assert b.bit_depth == 10 and b.slice_sep_mm == 0.2

    def test_max_code(self):
        assert SMALL.max_code == 1023
        assert StackGeometry(4, 4, 4, 8, 1.0).max_code == 255

    @pytest.mark.parametrize("kwargs", [
        dict(width=0), dict(n_slices=0), dict(bit_depth=0),
        dict(bit_depth=17), dict(bit_depth=10.0), dict(slice_sep_mm=0.0),
        dict(width=8.0),
    ])
    def test_validation(self, kwargs):
        base = dict(width=8, height=8, n_slices=4, bit_depth=10,
                    slice_sep_mm=1.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            StackGeometry(**base)


class TestImageStack:
    def _mk(self, **kwargs):
        base = dict(geometry=StackGeometry(4, 4, 3, 10, 1.0),
                    data=np.zeros((4, 4, 3), dtype=np.uint16),
                    stack_id="s0", label="healthy")
        base.update(kwargs)
        return ImageStack(**base)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            self._mk(data=np.zeros((4, 4, 4), dtype=np.uint16))

    def test_dtype(self):
        with pytest.raises(ValueError, match="uint16"):
            self._mk(data=np.zeros((4, 4, 3), dtype=np.int32))

    def test_code_range(self):
        data = np.zeros((4, 4, 3), dtype=np.uint16)
        data[0, 0, 0] = 1024
        with pytest.raises(ValueError, match="range"):
            self._mk(data=data)

    def test_healthy_cannot_have_affected_slices(self):
        with pytest.raises(ValueError):
            self._mk(lesion_slices=(1,))

    def test_lesion_needs_source(self):
        with pytest.raises(ValueError, match="source"):
            self._mk(label="lesion", lesion_slices=(1,))

    def test_label_values(self):
        with pytest.raises(ValueError, match="label"):
            self._mk(label="abnormal")


class TestGenerateBackground:
    def test_deterministic(self):
        a = generate_background(SMALL, 42)
        b = generate_background(SMALL, 42)
        assert np.array_equal(a.data, b.data)
        c = generate_background(SMALL, 43)
        assert not np.array_equal(a.data, c.data)

    def test_codes_in_range(self):
        stack = generate_background(GEOMETRY_PRESETS["dataset_a"], 7)
        assert stack.data.dtype == np.uint16
        assert int(stack.data.max()) <= 1023

    def test_white_noise_variance(self):
        # flat spectrum: codes are rint(512 + 64 * unit-variance noise),
        # so the sample variance sits near 64^2 = 4096
        stack = generate_background(GEOMETRY_PRESETS["dataset_a"], 11,
                                    texture="white")
        var = float(np.var(stack.data.astype(np.float64)))
        assert abs(var - 4096.0) < 0.10 * 4096.0

    def test_white_is_beta_zero(self):
        a = generate_background(SMALL, 5, texture="white")
        b = generate_background(SMALL, 5, texture="power_law", beta=0.0)
        assert np.array_equal(a.data, b.data)

    def test_mean_near_midpoint(self):
        stack = generate_background(GEOMETRY_PRESETS["dataset_a"], 3)
        assert abs(float(stack.data.mean()) - 512.0) < 8.0

    def test_power_law_slope(self):
        # radially averaged 3D power spectrum of a beta=3 field falls as
        # f^-3; fit the log-log slope over mid frequencies
        geom = StackGeometry(64, 64, 64, 10, 1.0)
        stack = generate_background(geom, 123, beta=3.0)
        field = stack.data.astype(np.float64)
        field -= field.mean()
        power = np.abs(np.fft.fftn(field)) ** 2
        f = [np.fft.fftfreq(n) for n in field.shape]
        radial = np.sqrt(f[0][:, None, None] ** 2 + f[1][None, :, None] ** 2
                         + f[2][None, None, :] ** 2).ravel()
        power = power.ravel()
        mask = (radial > 0.05) & (radial < 0.3)
        edges = np.linspace(0.05, 0.3, 13)
        centers, means = [], []
        for lo, hi in zip(edges[:-1], edges[1:]):
            sel = mask & (radial >= lo) & (radial < hi)
            centers.append(np.log((lo + hi) / 2.0))
            means.append(np.log(power[sel].mean()))
        slope = np.polyfit(centers, means, 1)[0]
        assert abs(slope - (-3.0)) < 0.4

    def test_rejects_bad_texture(self):
        with pytest.raises(ValueError, match="texture"):
            generate_background(SMALL, 1, texture="fractal")
        with pytest.raises(ValueError, match="beta"):
            generate_background(SMALL, 1, beta=-1.0)

    # beta >= 171 overflows the spectrum's scale on a 64 x 64 x 32 grid;
    # the spectrum is cached, the refusal must not be
    @pytest.mark.parametrize("beta", [math.nan, math.inf, 200.0])
    def test_rejects_beta_that_gives_no_spectrum(self, beta):
        for _ in range(3):
            with pytest.raises(ValueError, match=f"beta .*{beta!r}"):
                generate_background(GEOMETRY_PRESETS["dataset_b"], 1,
                                    beta=beta)

    @pytest.mark.parametrize("geometry", [
        GEOMETRY_PRESETS["dataset_a"], GEOMETRY_PRESETS["dataset_b"],
        StackGeometry(33, 47, 9, 10, 1.0)], ids=["a", "b", "odd"])
    @pytest.mark.parametrize("texture, beta", [
        ("power_law", 3.0), ("power_law", 1.5), ("white", 0.0)])
    def test_equals_the_whole_spectrum_formula(self, geometry, texture,
                                               beta):
        # one irfftn of the shaped half spectrum, then the codes
        amplitude, sigma = stacks._power_law_spectrum(geometry.shape, beta)
        # eight plain seeds and the streams of pair 0 at three dataset seeds
        for seed in [*range(8), *(np.random.SeedSequence([s, 0])
                                  for s in (0, 7, 12345))]:
            white = np.random.default_rng(seed).standard_normal(
                geometry.shape)
            field = scipy.fft.irfftn(scipy.fft.rfftn(white) * amplitude,
                                     s=geometry.shape) / sigma
            codes = np.clip(np.rint(512 + field * 64.0), 0, 1023)
            got = generate_background(geometry, seed, texture, beta).data
            assert got.tobytes() == codes.astype(np.uint16).tobytes()

    def test_shapes_the_background_in_place(self):
        # traced allocations of one background: its spectrum and the
        # field, about twice the stack in float64, not the 4.3 times that
        # a fresh array per step takes
        geometry = GEOMETRY_PRESETS["dataset_b"]
        generate_background(geometry, 1)
        tracemalloc.start()
        try:
            generate_background(geometry, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 8 * math.prod(geometry.shape)

    def test_metadata(self):
        stack = generate_background(SMALL, 9, stack_id="bg")
        assert stack.label == "healthy"
        assert stack.stack_id == "bg"
        assert stack.lesion_slices == ()
        assert "seed" in stack.provenance


class TestLesionProfile:
    def test_affected_slice_counts(self):
        # exp(-(ds/sigma_z)^2) >= 0.01 iff |ds| <= sigma_z * sqrt(ln 100)
        geom = GEOMETRY_PRESETS["dataset_a"]
        spec = LesionSpec("microcalc", 50.0)
        assert stacks._lesion_shape(spec, geom)[3] == (18, 19, 20, 21, 22)
        spec = LesionSpec("mass", 50.0)
        assert stacks._lesion_shape(spec, geom)[3] == tuple(range(14, 27))

    def test_depth_peak_at_central_slice(self):
        _, depth = lesion_profile(LesionSpec("mass", 1.0, diameter_px=8.0),
                                  SMALL)
        assert depth[SMALL.n_slices // 2] == 1.0
        assert np.all(depth > 0)

    def test_inplane_peak_and_positivity(self):
        geom = GEOMETRY_PRESETS["dataset_a"]
        inplane, _ = lesion_profile(LesionSpec("microcalc", 1.0), geom)
        assert inplane[32, 32] == 1.0
        assert inplane.max() == 1.0
        assert np.all(inplane >= 0)

    def test_inplane_axis_symmetry(self):
        inplane, _ = lesion_profile(LesionSpec("microcalc", 1.0),
                                    GEOMETRY_PRESETS["dataset_a"])
        for d in range(1, 8):
            assert inplane[32 + d, 32] == pytest.approx(inplane[32 - d, 32],
                                                        rel=1e-9)
            assert inplane[32, 32 + d] == pytest.approx(inplane[32, 32 - d],
                                                        rel=1e-9)

    def test_inplane_radially_decreasing_along_axis(self):
        inplane, _ = lesion_profile(LesionSpec("mass", 1.0),
                                    GEOMETRY_PRESETS["dataset_a"])
        row = inplane[32:, 32]
        assert np.all(np.diff(row) <= 1e-12)

    def test_energy_factorizes(self):
        geom = GEOMETRY_PRESETS["dataset_a"]
        spec = LesionSpec("mass", 23.5)
        inplane, depth = lesion_profile(spec, geom)
        profile = spec.amplitude * inplane[:, :, None] * depth[None, None, :]
        expected = spec.amplitude * math.fsum(inplane.ravel()) \
            * math.fsum(depth)
        assert float(profile.sum()) == pytest.approx(expected, rel=1e-12)

    # diameters whose radius 4 sigma + 0.5 = d/2 + 0.5 lands just below or
    # just above an integer, on it, and the two default lesion sizes, on
    # square and odd grids
    @pytest.mark.parametrize("shape, diameter", [
        (shape, diameter) for shape in ((64, 64), (33, 47), (47, 33))
        for diameter in (1.0, 2.98, 3.0, 3.02, 4.98, 5.02, 8.0, 16.9, 17.3,
                         40.0) if diameter <= min(shape)])
    def test_smoothing_equals_ndimage_gaussian_filter(self, shape, diameter):
        # bit for bit, on the disc and on noise with no symmetry to hide
        # a wrong order of terms
        rows, cols = stacks.centre_offsets(*shape)
        disc = (np.hypot(rows[:, None], cols[None, :]) <= diameter / 2.0)
        noise = np.random.default_rng(int(100 * diameter)).standard_normal(
            shape)
        for image in (disc.astype(np.float64), noise):
            got = stacks._smooth(image, diameter / 8.0)
            want = scipy.ndimage.gaussian_filter(
                image, sigma=diameter / 8.0, mode="constant", cval=0.0)
            assert got.tobytes() == want.tobytes()

    def test_defaults_by_kind(self):
        mc = LesionSpec("microcalc", 1.0)
        assert mc.diameter_px == 8.0 and mc.sigma_z == 1.0
        mass = LesionSpec("mass", 1.0)
        assert mass.diameter_px == 40.0 and mass.sigma_z == 3.0

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="kind"):
            LesionSpec("blob", 1.0)
        with pytest.raises(ValueError, match="nonneg"):
            LesionSpec("mass", -1.0)
        with pytest.raises(ValueError):
            LesionSpec("mass", 1.0, diameter_px=-4.0)

    @pytest.mark.parametrize("field", ["amplitude", "diameter_px", "sigma_z"])
    def test_spec_rejects_infinity(self, field):
        with pytest.raises(ValueError, match="finite"):
            LesionSpec(**{"kind": "mass", "amplitude": 1.0, field: math.inf})

    def test_diameter_must_fit(self):
        with pytest.raises(ValueError, match="diameter"):
            lesion_profile(LesionSpec("mass", 1.0), SMALL)
        healthy = generate_background(SMALL, 2)
        for _ in range(2):
            with pytest.raises(ValueError, match="diameter"):
                insert_lesion(healthy, LesionSpec("mass", 1.0))


class TestInsertLesion:
    def _healthy(self, geom=None, seed=21):
        return generate_background(geom or GEOMETRY_PRESETS["dataset_a"], seed)

    def test_difference_nonnegative_and_centered(self):
        healthy = self._healthy()
        lesion = insert_lesion(healthy, LesionSpec("microcalc", 80.0))
        diff = lesion.data.astype(np.int64) - healthy.data.astype(np.int64)
        assert diff.min() >= 0
        center = (32, 32, 20)
        assert diff[center] == diff.max()
        assert diff[center] == 80

    def test_centered_along_each_axis(self):
        healthy = self._healthy(seed=4)
        lesion = insert_lesion(healthy, LesionSpec("mass", 60.0))
        diff = lesion.data.astype(np.int64) - healthy.data.astype(np.int64)
        assert diff[:, 32, 20].max() == diff.max()
        assert diff[32, :, 20].max() == diff.max()
        assert diff[32, 32, :].max() == diff.max()

    def test_metadata(self):
        healthy = self._healthy(seed=5)
        lesion = insert_lesion(healthy, LesionSpec("microcalc", 30.0),
                               stack_id="l5")
        assert lesion.label == "lesion"
        assert lesion.stack_id == "l5"
        assert lesion.source_id == healthy.stack_id
        assert lesion.lesion_slices == (18, 19, 20, 21, 22)

    def test_zero_amplitude_is_identity(self):
        healthy = self._healthy(seed=6)
        lesion = insert_lesion(healthy, LesionSpec("mass", 0.0))
        assert np.array_equal(lesion.data, healthy.data)
        assert lesion.label == "lesion"

    def test_requires_healthy_input(self):
        healthy = self._healthy(seed=7)
        lesion = insert_lesion(healthy, LesionSpec("mass", 10.0))
        with pytest.raises(ValueError, match="healthy"):
            insert_lesion(lesion, LesionSpec("mass", 10.0))

    def test_clipping_warns(self):
        data = np.full((64, 64, 41), 1000, dtype=np.uint16)
        healthy = ImageStack(geometry=GEOMETRY_PRESETS["dataset_a"],
                             data=data, stack_id="hi", label="healthy")
        # the lesion shape is cached: each insertion still warns
        for _ in range(2):
            with pytest.warns(LesionClippingWarning):
                insert_lesion(healthy, LesionSpec("microcalc", 200.0))

    def test_no_warning_with_headroom(self):
        healthy = self._healthy(seed=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            insert_lesion(healthy, LesionSpec("microcalc", 60.0))

    @pytest.mark.parametrize("amplitude, warns", [(21.5, False),
                                                  (22.0, True)])
    def test_clipping_warns_past_one_percent(self, amplitude, warns):
        # 20 codes of headroom everywhere under a microcalc peaking at the
        # amplitude: 21.5 clips ~0.9% of the inserted energy, 22 ~1.4%
        headroom = 20
        data = np.full(SMALL.shape, SMALL.max_code - headroom,
                       dtype=np.uint16)
        healthy = ImageStack(geometry=SMALL, data=data, stack_id="hi",
                             label="healthy")
        spec = LesionSpec("microcalc", amplitude)
        inplane, depth = lesion_profile(spec, SMALL)
        profile = amplitude * inplane[:, :, None] * depth[None, None, :]
        lost = np.maximum(profile - headroom, 0.0).sum() / profile.sum()
        assert (0.01 < lost < 0.02) if warns else (0.005 < lost < 0.01)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            insert_lesion(healthy, spec)
        assert any(issubclass(w.category, LesionClippingWarning)
                   for w in caught) == warns

    @pytest.mark.parametrize("preset", ["dataset_a", "dataset_b"])
    @pytest.mark.parametrize("kind", ["microcalc", "mass"])
    def test_an_amplitude_that_overflows_the_energy_is_refused(self, preset,
                                                               kind):
        # past some amplitude the inserted energy, or the energy clipped
        # over codes all at the top code, sums to inf, where the check
        # inf > 0.01 * inf would let every lesion clip without a word: the
        # amplitude is refused, by name.  Up to it, a lesion over a
        # saturated stack clips with a LesionClippingWarning and no numpy
        # overflow warning
        geometry = GEOMETRY_PRESETS[preset]

        def refused(bits):
            amplitude = float(np.int64(bits).view(np.float64))
            try:
                stacks._lesion_shape(LesionSpec(kind, amplitude), geometry)
            except ValueError as exc:
                assert str(exc) == (f"lesion amplitude {amplitude!r} "
                                    f"overflows its energy on "
                                    f"{geometry.shape} stacks")
                return True
            return False

        # positive doubles are ordered as their bit patterns
        low, high = (int(np.float64(a).view(np.int64))
                     for a in (1e300, np.finfo(float).max))
        assert not refused(low) and refused(high)
        while high - low > 1:
            middle = (low + high) // 2
            low, high = (low, middle) if refused(middle) else (middle, high)
        saturated = ImageStack(
            geometry=geometry, stack_id="hi", label="healthy",
            data=np.full(geometry.shape, geometry.max_code, dtype=np.uint16))
        largest = float(np.int64(low).view(np.float64))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            lesion = insert_lesion(saturated, LesionSpec(kind, largest))
        assert [w.category for w in caught] == [LesionClippingWarning]
        assert np.array_equal(lesion.data, saturated.data)

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["microcalc", "mass"]),
           amplitude=st.floats(0.0, 1e4), diameter=st.floats(0.5, 12.0),
           sigma_z=st.floats(0.05, 10.0), width=st.integers(12, 20),
           height=st.integers(12, 20), n_slices=st.integers(1, 12))
    def test_inserted_profile_is_nonnegative(self, kind, amplitude, diameter,
                                             sigma_z, width, height,
                                             n_slices):
        # insert_lesion clips only at the top of the code range: exact
        # because codes plus this profile are never negative
        spec = LesionSpec(kind, amplitude, diameter_px=diameter,
                          sigma_z=sigma_z)
        geometry = StackGeometry(width, height, n_slices, 10, 1.0)
        _, profile, _, _ = stacks._lesion_shape(spec, geometry)
        assert np.all(profile >= 0)

    @pytest.mark.parametrize("kind, amplitude", [("microcalc", 2e4),
                                                 ("mass", 500.0)])
    def test_equals_the_whole_stack_formula(self, kind, amplitude):
        # insertion works on the box around the in-plane support only; at a
        # 16-bit depth even the box's outermost ring adds a whole code, so
        # a box one pixel too small would show
        geometry = StackGeometry(48, 44, 7, 16, 1.0)
        data = np.random.default_rng(3).integers(0, 40, geometry.shape,
                                                 dtype=np.uint16)
        healthy = ImageStack(geometry=geometry, data=data, stack_id="h",
                             label="healthy")
        spec = LesionSpec(kind, amplitude)
        inplane, depth = lesion_profile(spec, geometry)
        ideal = data + amplitude * inplane[:, :, None] * depth[None, None, :]
        expected = np.minimum(np.rint(ideal), geometry.max_code)
        lesion = insert_lesion(healthy, spec)
        assert lesion.data.dtype == np.uint16
        assert np.array_equal(lesion.data, expected)


class TestGenerationCaches:
    """The background spectrum is built once per (shape, beta) and the
    lesion shape once per (spec, geometry); neither cache may change what
    a call returns or raises (see also the repeated calls in
    test_rejects_beta_that_gives_no_spectrum, test_diameter_must_fit and
    test_clipping_warns)."""

    def test_cached_arrays_are_read_only(self):
        amplitude, _ = stacks._power_law_spectrum(SMALL.shape, 3.0)
        _, profile, _, _ = stacks._lesion_shape(
            LesionSpec("microcalc", 9.0), SMALL)
        for cached in (amplitude, profile):
            assert not cached.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                cached[0, 0, 0] = 1.0

    def test_lesion_profile_stays_writable(self):
        spec = LesionSpec("microcalc", 9.0)
        insert_lesion(generate_background(SMALL, 1), spec)
        inplane, depth = lesion_profile(spec, SMALL)
        inplane[0, 0] = depth[0] = 2.0
        assert lesion_profile(spec, SMALL)[0][0, 0] != 2.0

    def test_interleaved_equals_one_at_a_time(self):
        # more (shape, beta) pairs than the cache holds, visited twice
        cases = [(geom, beta) for geom in (SMALL, StackGeometry(9, 12, 8,
                                                                12, 0.5))
                 for beta in (0.0, 1.5, 3.0)]
        interleaved = [generate_background(geom, 5, beta=beta).data
                       for _ in range(2) for geom, beta in cases]
        for k, (geom, beta) in enumerate(cases):
            stacks._power_law_spectrum.cache_clear()
            alone = generate_background(geom, 5, beta=beta).data
            assert np.array_equal(interleaved[k], alone)
            assert np.array_equal(interleaved[k + len(cases)], alone)


# ids stay on one header line without edge whitespace; provenance is
# free-form and written with its whitespace collapsed
# ids with line breaks or edge whitespace included: write_stack refuses them
_IDS = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1,
               max_size=12)


def _reads_back(text: str) -> bool:
    return text == text.strip() and len(text.splitlines()) <= 1


@st.composite
def _stacks(draw):
    width, height, n_slices = (draw(st.integers(1, 6)) for _ in range(3))
    bit_depth = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    data = rng.integers(0, 1 << bit_depth, size=(width, height, n_slices),
                        dtype=np.uint16)
    lesion = draw(st.booleans())
    lesion_slices = draw(st.lists(st.integers(0, n_slices - 1), max_size=4)) \
        if lesion else []
    geometry = StackGeometry(width, height, n_slices, bit_depth,
                             draw(st.floats(0.0, 1e6, exclude_min=True)))
    return ImageStack(
        geometry=geometry, data=data,
        stack_id=draw(_IDS), label="lesion" if lesion else "healthy",
        lesion_slices=tuple(lesion_slices),
        source_id=draw(_IDS) if lesion else "", provenance=draw(st.text()))


class TestStackIO:
    @settings(deadline=None, max_examples=60)
    @given(_stacks())
    def test_round_trip_property(self, stack):
        unwritable = [key for key in ("stack_id", "source_id")
                      if not _reads_back(getattr(stack, key))]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.u16"
            if unwritable:
                with pytest.raises(FormatError, match=f"^{unwritable[0]}: "):
                    write_stack(stack, path)
                assert not path.exists()
                return
            write_stack(stack, path)
            back = read_stack(path)
        assert np.array_equal(back.data, stack.data)
        assert back.data.dtype == np.uint16
        assert back.geometry == stack.geometry
        assert back.lesion_slices == stack.lesion_slices
        assert (back.label, back.stack_id, back.source_id) \
            == (stack.label, stack.stack_id, stack.source_id)
        assert back.provenance == " ".join(stack.provenance.split())

    def test_round_trip(self, tmp_path):
        stack = generate_background(SMALL, 31, stack_id="rt")
        lesion = insert_lesion(stack, LesionSpec("microcalc", 40.0,
                                                 diameter_px=4.0))
        path = tmp_path / "rt.u16"
        write_stack(lesion, path)
        back = read_stack(path)
        assert np.array_equal(back.data, lesion.data)
        assert back.stack_id == lesion.stack_id
        assert back.label == "lesion"
        assert back.lesion_slices == lesion.lesion_slices
        assert back.source_id == lesion.source_id
        assert back.geometry == lesion.geometry

    def test_payload_layout(self, tmp_path):
        # little-endian u16, row-major within slice, slices consecutive:
        # voxel (i, j, k) lives at byte 2 * (k*W*H + i*H + j)
        stack = generate_background(SMALL, 32)
        path = tmp_path / "layout.u16"
        write_stack(stack, path)
        payload = path.read_bytes()
        assert len(payload) == 16 * 16 * 9 * 2
        for (i, j, k) in [(0, 0, 0), (3, 7, 2), (15, 15, 8)]:
            off = 2 * (k * 16 * 16 + i * 16 + j)
            code = int(stack.data[i, j, k])
            assert payload[off] == code & 0xFF
            assert payload[off + 1] == code >> 8

    def test_truncated_payload(self, tmp_path):
        stack = generate_background(SMALL, 33)
        path = tmp_path / "trunc.u16"
        write_stack(stack, path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(FormatError, match="byte"):
            read_stack(path)

    def test_out_of_range_code_offset(self, tmp_path):
        stack = generate_background(SMALL, 34)
        path = tmp_path / "bad.u16"
        write_stack(stack, path)
        raw = bytearray(path.read_bytes())
        voxel = 100
        raw[2 * voxel:2 * voxel + 2] = int(2000).to_bytes(2, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=f"byte offset {2 * voxel}"):
            read_stack(path)

    def test_missing_header_key(self, tmp_path):
        stack = generate_background(SMALL, 35)
        path = tmp_path / "nokey.u16"
        write_stack(stack, path)
        hdr = path.with_name(path.name + ".hdr")
        lines = [ln for ln in hdr.read_text().splitlines()
                 if not ln.startswith("bit_depth")]
        hdr.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="bit_depth"):
            read_stack(path)

    def test_bad_label(self, tmp_path):
        stack = generate_background(SMALL, 36)
        path = tmp_path / "badlabel.u16"
        write_stack(stack, path)
        hdr = path.with_name(path.name + ".hdr")
        hdr.write_text(hdr.read_text().replace("label = healthy",
                                               "label = sick"))
        with pytest.raises(FormatError, match="label"):
            read_stack(path)

    def test_non_numeric_field(self, tmp_path):
        stack = generate_background(SMALL, 37)
        path = tmp_path / "nan.u16"
        write_stack(stack, path)
        hdr = path.with_name(path.name + ".hdr")
        hdr.write_text(hdr.read_text().replace("width = 16", "width = wide"))
        with pytest.raises(FormatError, match="numeric"):
            read_stack(path)

    @pytest.mark.parametrize("edit", [
        ("bit_depth = 10", "bit_depth = 0"), ("bit_depth = 10", "bit_depth = 20"),
        ("bit_depth = 10", "bit_depth = -1"),
        ("slice_sep_mm = 1.0", "slice_sep_mm = -1.0"),
        ("slice_sep_mm = 1.0", "slice_sep_mm = nan"),
        ("n_slices = 9", "n_slices = -2")])
    def test_geometry_rejected_before_the_payload(self, tmp_path, edit):
        stack = generate_background(SMALL, 39)
        path = tmp_path / "geom.u16"
        write_stack(stack, path)
        hdr = path.with_name(path.name + ".hdr")
        hdr.write_text(hdr.read_text().replace(*edit))
        path.unlink()  # the header alone must be refused
        with pytest.raises(FormatError, match=r"geom\.u16\.hdr: .*(bit_depth"
                                              r"|separation|dimensions)"):
            read_stack(path)

    @pytest.mark.parametrize("changes", [dict(bit_depth=0), dict(bit_depth=17),
                                         dict(slice_sep_mm=float("nan"))])
    def test_stack_geometry_checked_like_stack_geometry(self, changes):
        stack = generate_background(SMALL, 39)
        with pytest.raises(ValueError, match="bit_depth|separation"):
            replace(stack, geometry=replace(stack.geometry, **changes))

    def test_malformed_header_line(self, tmp_path):
        stack = generate_background(SMALL, 38)
        path = tmp_path / "mal.u16"
        write_stack(stack, path)
        hdr = path.with_name(path.name + ".hdr")
        hdr.write_text("width 16\n" + hdr.read_text())
        with pytest.raises(FormatError, match="key = value"):
            read_stack(path)

    @pytest.mark.parametrize("label, edit, match", [
        ("lesion", ("lesion_slices = 2,3,4,5,6", "lesion_slices = x"),
         "invalid literal"),
        ("lesion", ("lesion_slices = 2,3,4,5,6", "lesion_slices = 2,99"),
         "affected slices"),
        ("lesion", ("lesion_slices = 2,3,4,5,6", "lesion_slices = -1"),
         "affected slices"),
        ("lesion", ("source_id = h\n", ""), "source"),
        ("healthy", ("lesion_slices = ", "lesion_slices = 2"), "affected"),
        ("healthy", ("slice_sep_mm = 1.0", "slice_sep_mm = inf"),
         "separation"),
        ("healthy", ("provenance", "colour = red\nprovenance"),
         "unknown key 'colour'"),
        ("healthy", ("provenance", "width = 8\nprovenance"),
         ":10: key 'width' repeats the one on line 1")])
    def test_header_fault_names_the_header(self, tmp_path, label, edit,
                                           match):
        stack = generate_background(SMALL, 40, stack_id="h")
        if label == "lesion":
            stack = insert_lesion(stack, LesionSpec("microcalc", 40.0,
                                                    diameter_px=4.0))
        path = tmp_path / "fault.u16"
        write_stack(stack, path)
        hdr = path.with_name(path.name + ".hdr")
        assert edit[0] in hdr.read_text()
        hdr.write_text(hdr.read_text().replace(*edit))
        with pytest.raises(FormatError, match=r"fault\.u16\.hdr\b.*" + match):
            read_stack(path)

    @settings(deadline=None, max_examples=150)
    @given(data=st.data())
    def test_any_one_line_edit_reads_back_or_raises_format_error(self, data):
        stack = generate_background(SMALL, 41, stack_id="h")
        if data.draw(st.booleans(), label="lesion"):
            stack = insert_lesion(stack, LesionSpec("microcalc", 40.0,
                                                    diameter_px=4.0))
        text = st.text(st.characters(blacklist_categories=("Cs",)),
                       max_size=20)
        value = st.one_of(
            text, st.integers(-20, 70000).map(str), st.floats().map(repr),
            st.lists(st.integers(-3, 12), max_size=4).map(
                lambda ints: ",".join(map(str, ints))))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.u16"
            write_stack(stack, path)
            hdr = path.with_name(path.name + ".hdr")
            lines = hdr.read_text().splitlines()
            keys = [ln.partition(" = ")[0] for ln in lines]
            line = st.one_of(text, st.builds("{} = {}".format,
                                             st.sampled_from(keys), value))
            at = data.draw(st.integers(0, len(lines)), label="at")
            replace_line = at < len(lines) and data.draw(st.booleans(),
                                                         label="replace")
            lines[at:at + replace_line] = [data.draw(line, label="line")]
            hdr.write_text("\n".join(lines) + "\n", encoding="utf-8")
            try:
                read_stack(path)
            except FormatError:
                pass


class TestDataset:
    def _dataset(self, n_pairs=2, seed=99):
        return generate_dataset(SMALL, n_pairs,
                                LesionSpec("microcalc", 60.0, diameter_px=4.0),
                                seed=seed)

    def test_shape_and_ids(self):
        ds = self._dataset(n_pairs=3)
        assert len(ds.stacks) == 6
        labels = sorted(s.label for s in ds.stacks)
        assert labels == ["healthy"] * 3 + ["lesion"] * 3
        assert ds.pairing == (("h0", "l0"), ("h1", "l1"), ("h2", "l2"))

    def test_deterministic(self):
        a = self._dataset()
        b = self._dataset()
        for sa, sb in zip(a.stacks, b.stacks):
            assert sa.stack_id == sb.stack_id
            assert np.array_equal(sa.data, sb.data)

    def test_per_stack_streams_independent(self):
        # adding pairs must not change the ones already generated
        a = self._dataset(n_pairs=2)
        b = self._dataset(n_pairs=3)
        for sa, sb in zip(a.stacks, b.stacks[:4]):
            assert np.array_equal(sa.data, sb.data)

    def test_round_trip(self, tmp_path):
        ds = self._dataset()
        manifest = write_dataset(ds, tmp_path / "data")
        assert manifest.name == "manifest.csv"
        back = read_dataset(manifest)
        assert len(back.stacks) == len(ds.stacks)
        assert back.pairing == ds.pairing
        by_id = {s.stack_id: s for s in back.stacks}
        for stack in ds.stacks:
            assert np.array_equal(by_id[stack.stack_id].data, stack.data)

    def test_read_by_directory(self, tmp_path):
        ds = self._dataset()
        write_dataset(ds, tmp_path / "data")
        back = read_dataset(tmp_path / "data")
        assert len(back.stacks) == 4

    @pytest.mark.parametrize("stack_id", ["../../escaped", "sub/l0",
                                          "{tmp}/l0", "./l0"])
    def test_id_that_is_not_a_file_name_writes_nothing(self, tmp_path,
                                                       stack_id):
        # the id names the stack's file, so it must not leave the directory
        stack_id = stack_id.format(tmp=tmp_path)
        ds = self._dataset()
        stacks = tuple(replace(s, stack_id=stack_id) if s.stack_id == "l1"
                       else s for s in ds.stacks)
        target = tmp_path / "a" / "b" / "data"
        with pytest.raises(FormatError, match=f"stack_id {stack_id!r} does "
                                              "not name a file inside"):
            write_dataset(Dataset(stacks=stacks), target)
        assert not (tmp_path / "a").exists()

    def test_manifest_mismatch(self, tmp_path):
        ds = self._dataset()
        manifest = write_dataset(ds, tmp_path / "data")
        text = manifest.read_text().replace("h0,h0.u16,healthy",
                                            "h0,h0.u16,lesion")
        manifest.write_text(text)
        with pytest.raises(FormatError, match="disagrees"):
            read_dataset(manifest)

    def test_row_without_four_fields_is_named(self, tmp_path):
        manifest = write_dataset(self._dataset(), tmp_path / "data")
        manifest.write_text(manifest.read_text().replace(
            "h0,h0.u16,healthy,", "h0,h0.u16,healthy"))
        with pytest.raises(FormatError, match=r"malformed row \['h0', "
                                              r"'h0.u16', 'healthy'\]$"):
            read_dataset(manifest)

    def test_repeated_id_in_manifest_is_named(self, tmp_path):
        manifest = write_dataset(self._dataset(), tmp_path / "data")
        manifest.write_text(manifest.read_text().replace("l1,l1.u16",
                                                         "l0,l1.u16"))
        header = tmp_path / "data" / "l1.u16.hdr"
        header.write_text(header.read_text().replace("stack_id = l1",
                                                     "stack_id = l0"))
        with pytest.raises(FormatError, match=f"^{manifest}: stack id 'l0' "
                                              "names two stacks$"):
            read_dataset(manifest)

    def test_repeated_id_in_memory_is_refused(self, tmp_path):
        stacks = tuple(replace(s, stack_id="h0") if s.stack_id == "h1"
                       else s for s in self._dataset().stacks)
        with pytest.raises(ValueError, match="stack id 'h0' names two"):
            Dataset(stacks=stacks)

    def test_manifest_header_check(self, tmp_path):
        ds = self._dataset()
        manifest = write_dataset(ds, tmp_path / "data")
        lines = manifest.read_text().splitlines()
        lines[0] = "id,file,label,source"
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="header"):
            read_dataset(manifest)

    def test_dangling_source_reference(self):
        lone = generate_background(SMALL, 50, stack_id="h9")
        lesion = insert_lesion(lone, LesionSpec("microcalc", 40.0,
                                                diameter_px=4.0),
                               stack_id="l9")
        with pytest.raises(FormatError, match="unknown source"):
            Dataset(stacks=(lesion,)).pairing


class TestGenerationThreads:
    """Backgrounds are drawn on one thread per available CPU, lesions are
    inserted on the calling thread in pair order; the thread count must
    not change a byte, a warning's order or an exception."""

    LESION = LesionSpec("microcalc", 60.0, diameter_px=4.0)

    @staticmethod
    def _serial(n_pairs, lesion, seed):
        width = len(str(n_pairs - 1))
        stacks = []
        for i in range(n_pairs):
            healthy = generate_background(
                SMALL, np.random.SeedSequence([seed, i]),
                stack_id=f"h{i:0{width}d}")
            stacks += (healthy, insert_lesion(healthy, lesion,
                                              stack_id=f"l{i:0{width}d}"))
        return stacks

    @staticmethod
    def _cpus(monkeypatch, n):
        monkeypatch.setattr(stacks, "_available_cpus", lambda: n)

    @pytest.mark.parametrize("cpus", [1, 2, 64])
    def test_any_thread_count_gives_the_serial_bytes(self, monkeypatch, cpus):
        self._cpus(monkeypatch, cpus)
        drawn_on = []
        draw = stacks.generate_background

        def recorded(*args, **kwargs):
            drawn_on.append(args)
            return draw(*args, **kwargs)

        monkeypatch.setattr(stacks, "generate_background", recorded)
        # threads switch as often as the interpreter allows
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = generate_dataset(SMALL, 12, self.LESION, seed=31).stacks
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.undo()
        expected = self._serial(12, self.LESION, 31)
        assert [s.stack_id for s in got] == [s.stack_id for s in expected]
        for a, b in zip(got, expected):
            assert np.array_equal(a.data, b.data)
            assert (a.label, a.source_id, a.lesion_slices, a.provenance) \
                == (b.label, b.source_id, b.lesion_slices, b.provenance)
        # the name is looked up through the module, as perfbench patches it
        assert len(drawn_on) == 12

    def test_clipping_warnings_reach_the_caller_in_pair_order(
            self, monkeypatch):
        # 980 codes of headroom at most: amplitude 2000 clips every pair
        lesion = LesionSpec("microcalc", 2000.0, diameter_px=4.0)
        with warnings.catch_warnings(record=True) as serial:
            warnings.simplefilter("always")
            self._serial(6, lesion, 8)
        self._cpus(monkeypatch, 2)
        inserted_on = []
        insert = stacks.insert_lesion

        def recorded(*args, **kwargs):
            inserted_on.append(threading.get_ident())
            return insert(*args, **kwargs)

        monkeypatch.setattr(stacks, "insert_lesion", recorded)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            generate_dataset(SMALL, 6, lesion, seed=8)
        assert [w.category for w in caught] == [LesionClippingWarning] * 6
        messages = [str(w.message) for w in caught]
        assert messages == [str(w.message) for w in serial]
        assert len(set(messages)) > 1  # the order is visible
        assert inserted_on == [threading.get_ident()] * 6

    @pytest.mark.parametrize("cpus, failing", [(1, 2), (2, 0), (2, 3),
                                               (3, 6)])
    def test_a_failing_pair_reaches_the_caller_unchanged(
            self, monkeypatch, cpus, failing):
        self._cpus(monkeypatch, cpus)
        boom = RuntimeError("pair failed")
        draw = stacks.generate_background

        def fail_one(*args, stack_id, **kwargs):
            if stack_id == f"h{failing}":
                raise boom
            return draw(*args, stack_id=stack_id, **kwargs)

        monkeypatch.setattr(stacks, "generate_background", fail_one)
        threads = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            generate_dataset(SMALL, 7, self.LESION, seed=2)
        assert info.value is boom
        assert threading.active_count() == threads

    @pytest.mark.parametrize("kwargs, message", [
        ({"n_pairs": 2.0}, "need at least one pair, got n_pairs = 2.0"),
        ({"seed": -1}, "seed must be a non-negative integer, got -1"),
        ({"seed": 1.5}, "seed must be a non-negative integer, got 1.5"),
        ({"seed": "3"}, "seed must be a non-negative integer, got '3'"),
        ({"n_pairs": 0}, "need at least one pair, got n_pairs = 0"),
        ({"lesion": LesionSpec("microcalc", 1e308)},
         r"lesion amplitude 1e\+308 overflows its energy on \(16, 16, 9\) "
         "stacks")])
    def test_bad_arguments_are_refused_before_any_thread(
            self, monkeypatch, kwargs, message):
        self._cpus(monkeypatch, 4)

        def no_thread(*args, **kwargs):
            pytest.fail("a thread pool was started")

        monkeypatch.setattr(stacks, "ThreadPoolExecutor", no_thread)
        monkeypatch.setattr(stacks, "generate_background", no_thread)
        arguments = {"geometry": SMALL, "n_pairs": 3, "lesion": self.LESION,
                     "seed": 1, **kwargs}
        with pytest.raises(ValueError, match=message):
            generate_dataset(**arguments)


class TestAvailableCpus:
    """Both pools size themselves by _available_cpus: the affinity mask,
    capped by the cgroup v2 cpu.max quota."""

    @pytest.mark.parametrize(("text", "want"), [
        ("150000 100000\n", 2),   # 1.5 CPUs round up
        ("200000 100000\n", 2),
        ("50000 100000\n", 1),
        ("1 100000\n", 1),
        ("0 100000\n", 1),        # never fewer than one thread
        ("1600000 100000\n", 8),  # no more than the affinity mask
        ("max 100000\n", 8),
        (None, 8),                # missing or unreadable: no limit
        ("", 8),                  # malformed: no limit
        ("150000\n", 8)])
    def test_the_quota_caps_the_affinity_mask(self, monkeypatch, text, want):
        monkeypatch.setattr(stacks.os, "sched_getaffinity",
                            lambda pid: set(range(8)))
        monkeypatch.setattr(stacks, "_cpu_max", lambda: text)
        assert stacks._available_cpus() == want

    def test_cpu_max_is_found_through_the_unified_line(self, tmp_path):
        cgroups = tmp_path / "cgroup"
        cgroups.write_text("4:memory:/elsewhere\n0::/jobs/run7\n")
        group = tmp_path / "fs" / "jobs" / "run7"
        group.mkdir(parents=True)
        assert stacks._cpu_max(cgroups, tmp_path / "fs") is None
        (group / "cpu.max").write_text("250000 100000\n")
        assert stacks._cpu_max(cgroups, tmp_path / "fs") == "250000 100000\n"
        # a v1-only host has no 0:: line; a missing file reads as none
        cgroups.write_text("1:cpu:/\n")
        assert stacks._cpu_max(cgroups, tmp_path / "fs") is None
        assert stacks._cpu_max(tmp_path / "absent", tmp_path) is None
