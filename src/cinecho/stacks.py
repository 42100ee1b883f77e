# stacks.py
# -----------------------------------------------------------------------------
# Image stack data model, synthetic dataset generation, and bit-exact I/O.
#
# Backgrounds are Gaussian noise shaped in the frequency domain with an
# isotropic 1/f^(beta/2) amplitude (beta = 3 by default, a mammography-like
# texture; beta = 0 is white noise), normalized to unit theoretical variance
# and affine-mapped so +-4 sigma spans the central half of the code range.
# The amplitude and its sigma are built once per (shape, beta) and applied
# on the real half spectrum by numpy's 1-D passes: rfft over the slices,
# then the in-plane fft and, after the weighing, its inverse in place, then
# the real inverse over the slices; a background holds about twice its
# float64 size at its peak.  Percept's planes use the same pair of passes.
# Lesions are additive smoothed discs (disc convolved with a Gaussian of
# sigma = diameter/8, peak-normalized) with a Gaussian through-slice depth
# profile, inserted at the spatio-temporal stack center; the shape is built
# once per (spec, geometry), cropped to its in-plane support.
# A dataset's backgrounds are drawn on one thread per available CPU; each
# pair has its own seed, so the thread count cannot change a byte.
#
# A stack is its codes plus one StackGeometry.  On disk it is a raw
# little-endian u16 payload (row-major within slice, slices consecutive) plus
# a "<name>.hdr" sidecar of key = value lines, read by parse_fields as config
# files are; a dataset is a directory of those plus a manifest CSV listing
# id, path, label and the healthy source of every lesion stack.
# -----------------------------------------------------------------------------

from __future__ import annotations

import contextlib
import csv
import io
import math
import numbers
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import FormatError, LesionClippingWarning

__all__ = [
    "StackGeometry",
    "GEOMETRY_PRESETS",
    "ImageStack",
    "LesionSpec",
    "Dataset",
    "centre_offsets",
    "generate_background",
    "lesion_profile",
    "insert_lesion",
    "generate_dataset",
    "check_writable",
    "parse_fields",
    "write_stack",
    "read_stack",
    "write_dataset",
    "read_dataset",
]

LABELS = ("healthy", "lesion")
TEXTURES = ("power_law", "white")

# fraction of the peak above which a slice counts as lesion-affected
AFFECTED_THRESHOLD = 0.01


@dataclass(frozen=True)
class StackGeometry:
    """Stack dimensions and code width."""

    width: int
    height: int
    n_slices: int
    bit_depth: int
    slice_sep_mm: float

    def __post_init__(self) -> None:
        if not all(isinstance(n, int) and n >= 1 for n in self.shape):
            raise ValueError("dimensions must be positive integers")
        if not (isinstance(self.bit_depth, int) and 1 <= self.bit_depth <= 16):
            raise ValueError("bit_depth must be an integer in 1..16")
        if not 0 < self.slice_sep_mm < np.inf:
            raise ValueError("slice separation must be positive and finite")

    @property
    def max_code(self) -> int:
        return (1 << self.bit_depth) - 1

    @property
    def shape(self) -> tuple:
        return (self.width, self.height, self.n_slices)


GEOMETRY_PRESETS = {
    "dataset_a": StackGeometry(64, 64, 41, 10, 1.0),
    "dataset_b": StackGeometry(64, 64, 32, 10, 0.2),
}


@dataclass(frozen=True, eq=False)
class ImageStack:
    """One browsed stack of integer code values, shaped as its geometry.

    lesion_slices is the tuple of slice indices the insertion affected
    (empty for healthy stacks); source_id names the healthy origin of a
    lesion stack; provenance is free-form generator bookkeeping.
    """

    geometry: StackGeometry
    data: np.ndarray
    stack_id: str
    label: str
    lesion_slices: tuple = ()
    source_id: str = ""
    provenance: str = ""

    def __post_init__(self) -> None:
        if self.label not in LABELS:
            raise ValueError(f"label must be one of {LABELS}")
        geometry = self.geometry
        data = np.asarray(self.data)
        if data.shape != geometry.shape:
            raise ValueError(
                f"data shape {data.shape} does not match declared "
                f"{geometry.shape}")
        if data.dtype != np.uint16:
            raise ValueError("codes must be uint16")
        if data.size and int(data.max()) > geometry.max_code:
            raise ValueError(f"code {int(data.max())} exceeds "
                             f"{geometry.bit_depth}-bit range")
        object.__setattr__(self, "lesion_slices",
                           tuple(int(s) for s in self.lesion_slices))
        if self.label == "healthy" and self.lesion_slices:
            raise ValueError("healthy stacks cannot have affected slices")
        if any(not 0 <= s < geometry.n_slices for s in self.lesion_slices):
            raise ValueError(f"affected slices {self.lesion_slices} leave "
                             f"the {geometry.n_slices} slices of the stack")
        if self.label == "lesion" and not self.source_id:
            raise ValueError("lesion stacks must name their healthy source")


@dataclass(frozen=True)
class LesionSpec:
    """Additive lesion description.

    kind picks the defaults: microcalc is an 8-pixel disc with a
    one-slice depth spread, mass a 40-pixel disc spread over sigma_z = 3
    slices.  amplitude is the peak height in code units; zero is allowed
    (a no-op insertion that still records the affected slices).
    """

    kind: str
    amplitude: float
    diameter_px: float = 0.0
    sigma_z: float = 0.0

    _DEFAULTS = {"microcalc": (8.0, 1.0), "mass": (40.0, 3.0)}

    def __post_init__(self) -> None:
        if self.kind not in self._DEFAULTS:
            raise ValueError(f"kind must be one of {tuple(self._DEFAULTS)}")
        if not 0 <= self.amplitude < np.inf:
            raise ValueError("amplitude must be nonnegative and finite")
        d, sz = self._DEFAULTS[self.kind]
        if self.diameter_px == 0.0:
            object.__setattr__(self, "diameter_px", d)
        if self.sigma_z == 0.0:
            object.__setattr__(self, "sigma_z", sz)
        if not (0 < self.diameter_px < np.inf and 0 < self.sigma_z < np.inf):
            raise ValueError("diameter and sigma_z must be finite and > 0")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Stacks with distinct ids plus the healthy-to-lesion pairing."""

    stacks: tuple

    def __post_init__(self) -> None:
        ids = [s.stack_id for s in self.stacks]
        if len(set(ids)) < len(ids):
            repeated = next(i for k, i in enumerate(ids) if i in ids[:k])
            raise ValueError(f"stack id {repeated!r} names two stacks")

    @property
    def pairing(self) -> tuple:
        pairs = tuple((s.source_id, s.stack_id) for s in self.stacks
                      if s.label == "lesion")
        known = {s.stack_id for s in self.stacks}
        for healthy_id, lesion_id in pairs:
            if healthy_id not in known:
                raise FormatError(
                    f"lesion stack {lesion_id!r} names unknown source "
                    f"{healthy_id!r}")
        return pairs


@lru_cache(maxsize=4)
def _power_law_spectrum(shape: tuple, beta: float):
    """(amplitude, sigma): the isotropic f^(-beta/2) amplitude (DC zero) on
    the rfftn half grid of shape, read-only, and the root mean square of the
    amplitude over the full grid.  Raises ValueError if sigma is not finite
    and nonzero (an exception is not cached)."""
    width, height, n_slices = shape
    fx = np.fft.fftfreq(width)[:, None, None]
    fy = np.fft.fftfreq(height)[None, :, None]
    fz = np.fft.fftfreq(n_slices)[None, None, :]
    radial = np.sqrt(fx * fx + fy * fy + fz * fz)
    with np.errstate(divide="ignore", over="ignore"):
        amplitude = radial ** (-beta / 2.0)
        amplitude[0, 0, 0] = 0.0
        sigma = float(np.sqrt(np.mean(amplitude * amplitude)))
    if not 0 < sigma < np.inf:
        raise ValueError(f"beta = {beta!r} gives no finite, nonzero spectrum "
                         f"on the {shape} grid")
    # |fftfreq| is symmetric, so the half grid is the first n_slices//2 + 1
    half = np.ascontiguousarray(amplitude[:, :, :n_slices // 2 + 1])
    half.flags.writeable = False
    return half, sigma


def _rfft3(real):
    """The half spectrum of a real W x H x K array over all three axes:
    rfft over the slices, then fft over axis 1 and axis 0 in place."""
    spectrum = np.fft.rfft(real, axis=2)
    np.fft.fft(spectrum, axis=1, out=spectrum)
    return np.fft.fft(spectrum, axis=0, out=spectrum)


def _irfft3(spectrum, n_slices: int):
    """The real W x H x n_slices array of a half spectrum, _rfft3's inverse:
    ifft over axis 0 and axis 1 in place (spectrum is overwritten), then
    irfft over the slices."""
    np.fft.ifft(spectrum, axis=0, out=spectrum)
    np.fft.ifft(spectrum, axis=1, out=spectrum)
    return np.fft.irfft(spectrum, n=n_slices, axis=2)


def generate_background(geometry: StackGeometry, seed,
                        texture: str = "power_law", beta: float = 3.0,
                        stack_id: str = "stack") -> ImageStack:
    """Generate one healthy background stack, deterministic per seed.

    seed may be anything np.random.default_rng accepts.  White Gaussian
    noise is shaped with the isotropic amplitude f^(-beta/2) (DC removed),
    scaled to unit theoretical standard deviation, and mapped to codes as
    center + field * quarter_range / 4, clipped and rounded: +-4 sigma of
    the field spans the central half of the code range.  The noise is
    dropped once transformed, and the spectrum and then the field are
    shaped in place, in the order irfftn(rfftn(noise) * amplitude) / sigma
    takes, to the same codes.  A beta that is negative, not finite or
    overflows the spectrum raises ValueError.
    """
    if texture not in TEXTURES:
        raise ValueError(f"texture must be one of {TEXTURES}")
    if texture == "white":
        beta = 0.0
    if not 0 <= beta < np.inf:
        raise ValueError(f"beta must be nonnegative and finite, got {beta!r}")
    amplitude, sigma = _power_law_spectrum(geometry.shape, beta)
    rng = np.random.default_rng(seed)
    spectrum = _rfft3(rng.standard_normal(geometry.shape))
    spectrum *= amplitude
    shaped = _irfft3(spectrum, geometry.n_slices)
    del spectrum  # not held beside the codes

    # +-4 sigma of the unit-variance field maps to +-(range/4) around the
    # midpoint, i.e. the central half of the code range.  The scale is a
    # power of two, so one division by sigma / scale is exact to dividing
    # by sigma and multiplying by it; the bounds are integers, so clipping
    # before rounding gives the same codes.
    shaped /= sigma / 2.0 ** (geometry.bit_depth - 4)
    shaped += 1 << (geometry.bit_depth - 1)
    np.clip(shaped, 0, geometry.max_code, out=shaped)
    codes = np.empty(geometry.shape, dtype=np.uint16)
    np.rint(shaped, out=codes, casting="unsafe")
    if isinstance(seed, np.random.SeedSequence):
        seed_text = f"entropy={seed.entropy}"
    else:
        seed_text = repr(seed)
    provenance = f"texture={texture} beta={beta!r} seed={seed_text}"
    return ImageStack(geometry=geometry, data=codes, stack_id=stack_id,
                      label="healthy", provenance=provenance)


def centre_offsets(width: int, height: int):
    """Row and column offsets, in pixels, of a width x height grid from its
    centre pixel (width//2, height//2): the point where lesions are
    inserted, channels are centred and the viewing axis passes."""
    return (np.arange(width, dtype=np.float64) - width // 2,
            np.arange(height, dtype=np.float64) - height // 2)


def _smooth(image, sigma: float):
    """image correlated along axis 0, then axis 1, with Gaussian weights of
    sigma pixels out to 4 sigma, normalized to sum 1, and zero beyond the
    edges.  Each output is the centre term, then the symmetric pairs from
    the outermost inwards: the terms and order of ndimage's gaussian_filter
    (mode "constant"), so the same bits."""
    radius = int(4.0 * sigma + 0.5)
    offsets = np.arange(-radius, radius + 1)
    weights = np.exp(-0.5 / (sigma * sigma) * offsets ** 2)
    weights = weights / weights.sum()
    for axis in (0, 1):
        lines = np.moveaxis(image, axis, 0)
        n = len(lines)
        padded = np.zeros((n + 2 * radius,) + lines.shape[1:])
        padded[radius:radius + n] = lines
        out = padded[radius:radius + n] * weights[radius]
        for j in range(radius, 0, -1):
            out += (padded[radius - j:radius - j + n]
                    + padded[radius + j:radius + j + n]) * weights[radius + j]
        image = np.moveaxis(out, 0, axis)
    return image


def lesion_profile(spec: LesionSpec, geometry: StackGeometry):
    """The separable lesion shape on the given grid.

    Returns (inplane, depth): a W x H smoothed-disc profile peaking at 1
    at the center pixel, and a length-K Gaussian slice profile
    exp(-((s - center)/sigma_z)^2) peaking at 1 at the central slice.
    The inserted lesion is amplitude * outer(inplane, depth).
    """
    if spec.diameter_px > min(geometry.width, geometry.height):
        raise ValueError("lesion diameter exceeds the image")
    rows, cols = centre_offsets(geometry.width, geometry.height)
    r = np.hypot(rows[:, None], cols[None, :])
    disc = (r <= spec.diameter_px / 2.0).astype(np.float64)
    inplane = _smooth(disc, spec.diameter_px / 8.0)
    inplane /= inplane[geometry.width // 2, geometry.height // 2]

    s = np.arange(geometry.n_slices, dtype=np.float64) - geometry.n_slices // 2
    depth = np.exp(-((s / spec.sigma_z) ** 2))
    return inplane, depth


@lru_cache(maxsize=4)
def _lesion_shape(spec: LesionSpec, geometry: StackGeometry):
    """(window, profile, energy, affected slices) of spec on geometry.

    window is the (rows, columns) slice pair of the tight box around the
    in-plane support, over which the inserted amplitude * outer(inplane,
    depth) is nonzero; profile is that product on the window, read-only;
    energy is its sum over the whole stack.  A slice is affected when its
    depth weight is at least AFFECTED_THRESHOLD of the peak weight.
    Raises ValueError, naming the amplitude, when the energy overflows or
    insert_lesion's clipped energy could (it is at most its sum over codes
    all at the top code, in the same order, which is taken here)."""
    inplane, depth = lesion_profile(spec, geometry)
    rows = np.flatnonzero(inplane.any(axis=1))
    cols = np.flatnonzero(inplane.any(axis=0))
    window = (slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1))
    top = geometry.max_code
    try:
        with np.errstate(over="raise"):
            profile = spec.amplitude * inplane[:, :, None] * depth
            energy = float(profile.sum())
            profile = profile[window].copy()
            np.maximum(profile + top - top, 0.0).sum()
    except FloatingPointError:
        raise ValueError(f"lesion amplitude {spec.amplitude!r} overflows "
                         f"its energy on {geometry.shape} stacks") from None
    profile.flags.writeable = False
    affected = np.flatnonzero(depth >= AFFECTED_THRESHOLD * depth.max())
    return window, profile, energy, tuple(int(i) for i in affected)


def insert_lesion(healthy: ImageStack, spec: LesionSpec,
                  stack_id: str = "") -> ImageStack:
    """Add the lesion profile to a healthy stack at its center.

    The result is rounded back to integer codes and clamped to the code
    range; if clamping discards more than 1% of the inserted energy a
    LesionClippingWarning is emitted (the amplitude leaves no headroom).
    Only the box around the lesion's in-plane support is touched: outside
    it the profile is zero, so the codes stay those of the healthy stack.
    """
    if healthy.label != "healthy":
        raise ValueError("can only insert into a healthy stack")
    geometry = healthy.geometry
    window, profile, energy, lesion_slices = _lesion_shape(spec, geometry)
    codes = healthy.data.copy()
    # the profile is nonnegative, so only the top of the range can clip
    ideal = codes[window] + profile
    codes[window] = np.minimum(np.rint(ideal), geometry.max_code)
    lost = float(np.maximum(ideal - geometry.max_code, 0.0).sum())
    if energy > 0 and lost > 0.01 * energy:
        warnings.warn(
            f"clipping removed {lost:.3g} of {energy:.3g} inserted energy "
            f"(amplitude {spec.amplitude} too high for the code headroom)",
            LesionClippingWarning)

    return replace(healthy, data=codes,
                   stack_id=stack_id or f"{healthy.stack_id}-lesion",
                   label="lesion",
                   lesion_slices=lesion_slices,
                   source_id=healthy.stack_id,
                   provenance=healthy.provenance
                   + f" lesion={spec.kind} amp={spec.amplitude!r}")


def _cpu_max(cgroups="/proc/self/cgroup", root="/sys/fs/cgroup"):
    """The text of this process's cgroup v2 cpu.max, found through the
    0:: line of cgroups under root, or None where it cannot be read."""
    try:
        for line in Path(cgroups).read_text().splitlines():
            if line.startswith("0::"):
                return (Path(root) / line[3:].lstrip("/") / "cpu.max") \
                    .read_text()
    except OSError:
        pass
    return None


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's count, and no more than its cgroup v2
    cpu.max quota allows, quota/period rounded up (at least 1).  A quota
    of max, or a cpu.max that is missing, unreadable or malformed, sets
    no limit."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    try:
        quota, period = (_cpu_max() or "max").split()
        return min(cpus, max(1, math.ceil(int(quota) / int(period))))
    except (ValueError, ZeroDivisionError):
        return cpus


def generate_dataset(geometry: StackGeometry, n_pairs: int,
                     lesion: LesionSpec, seed: int,
                     texture: str = "power_law", beta: float = 3.0) -> Dataset:
    """Generate n_pairs healthy stacks of geometry and their lesion twins.

    Stack i draws from an independent stream seeded by (seed, i), so
    neither generation order nor the thread count can change the output.
    Backgrounds are drawn on a pool of one thread per available CPU, at
    most n_pairs.  Lesions are inserted on the calling thread in pair
    order, so LesionClippingWarnings reach the caller in that order, and
    an exception raised for a pair (such as generate_background's or
    insert_lesion's ValueError) reaches it unchanged.  A pair count below
    one, a seed that is not a non-negative integer and a lesion the
    geometry cannot hold (_lesion_shape) raise ValueError before a thread
    starts.
    """
    if not (isinstance(n_pairs, numbers.Integral) and n_pairs >= 1):
        raise ValueError(f"need at least one pair, got n_pairs = {n_pairs!r}")
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    _lesion_shape(lesion, geometry)
    width = len(str(max(n_pairs - 1, 1)))

    def background(i):
        return generate_background(geometry,
                                   np.random.SeedSequence([int(seed), i]),
                                   texture, beta, stack_id=f"h{i:0{width}d}")

    stacks = []
    # map yields in pair order; closing it cancels the backgrounds not yet
    # started when a pair fails, and the pool joins its threads on exit
    with ThreadPoolExecutor(min(_available_cpus(), n_pairs)) as pool, \
            contextlib.closing(pool.map(background, range(n_pairs))) as drawn:
        for i, healthy in enumerate(drawn):
            stacks += (healthy, insert_lesion(healthy, lesion,
                                              stack_id=f"l{i:0{width}d}"))
    return Dataset(stacks=tuple(stacks))


# ---------------------------------------------------------------------------
# on-disk format


_HEADER_KEYS = tuple(f.name for f in fields(StackGeometry)) + (
    "label", "lesion_slices", "stack_id", "source_id", "provenance")


def check_writable(key: str, value: str, forbidden: str = "") -> None:
    """Raise FormatError naming key when value would not read back from
    a 'key = value' line: it holds a line break (as str.splitlines counts
    them), edge whitespace or one of the forbidden characters."""
    if value != value.strip() or len(value.splitlines()) > 1 \
            or any(c in value for c in forbidden):
        listed = "".join(f"{c!r}, " for c in forbidden)
        raise FormatError(f"{key}: value {value!r} cannot be written back "
                          f"({listed}line break or edge whitespace)")


def write_stack(stack: ImageStack, path) -> None:
    """Write the payload to path and the header to path + '.hdr';
    raises FormatError naming an id that check_writable refuses."""
    check_writable("stack_id", stack.stack_id)
    check_writable("source_id", stack.source_id)
    path = Path(path)
    payload = stack.data.transpose(2, 0, 1).astype(
        "<u2", copy=False).tobytes()
    path.write_bytes(payload)
    lines = [f"{key} = {value!r}"
             for key, value in asdict(stack.geometry).items()]
    lines += [
        f"label = {stack.label}",
        "lesion_slices = " + ",".join(str(s) for s in stack.lesion_slices),
        f"stack_id = {stack.stack_id}",
        f"source_id = {stack.source_id}",
        # free-form text must stay on one line to keep the format parseable
        "provenance = " + " ".join(stack.provenance.split()),
    ]
    Path(str(path) + ".hdr").write_text("\n".join(lines) + "\n",
                                        encoding="utf-8")


def read_utf8(path) -> str:
    """The text of the file at path, newlines untouched.  Raises
    FormatError naming the file if its bytes are not UTF-8."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc.reason} at byte "
                          f"{exc.start}") from None


def parse_fields(text: str, source: str, keys) -> dict:
    """{key: value} of the 'key = value' lines of text, both stripped,
    skipping blank and '#' lines.  Raises FormatError naming source:line
    for a line without '=', a key not in keys or a repeated key."""
    values, first_line = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"{source}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in keys:
            raise FormatError(f"{source}:{lineno}: unknown key {key!r}")
        if key in first_line:
            raise FormatError(f"{source}:{lineno}: key {key!r} repeats the "
                              f"one on line {first_line[key]}")
        first_line[key] = lineno
        values[key] = value.strip()
    return values


def read_stack(path) -> ImageStack:
    """Read a stack written by write_stack, verifying the format.

    Raises FormatError naming the header for a malformed line, an unknown,
    repeated or missing key, a non-numeric field, geometry StackGeometry
    rejects (before the payload is read) and the rules of ImageStack, and
    naming the byte offset for truncated payloads and out-of-range codes.
    """
    path = Path(path)
    header_path = str(path) + ".hdr"
    header = parse_fields(read_utf8(header_path), header_path, _HEADER_KEYS)
    missing = [k for k in _HEADER_KEYS[:8] if k not in header]
    if missing:
        raise FormatError(f"{header_path}: missing header keys {missing}")
    try:
        dims = [int(header[key]) for key in _HEADER_KEYS[:4]]
        slice_sep = float(header["slice_sep_mm"])
    except ValueError as exc:
        raise FormatError(f"{header_path}: non-numeric geometry field: {exc}")
    try:
        geometry = StackGeometry(*dims, slice_sep)
    except ValueError as exc:
        raise FormatError(f"{header_path}: {exc}") from None
    # ImageStack reads the tokens as integers and checks them
    lesion_slices = [tok for tok in header["lesion_slices"].split(",")
                     if tok.strip() != ""]

    width, height, n_slices = geometry.shape
    payload = path.read_bytes()
    expected = width * height * n_slices * 2
    if len(payload) != expected:
        raise FormatError(
            f"{path}: payload is {len(payload)} bytes, expected {expected} "
            f"(truncated at byte {min(len(payload), expected)})")
    codes = np.frombuffer(payload, dtype="<u2").reshape(n_slices, width, height)
    flat = codes.reshape(-1)
    bad = np.nonzero(flat > geometry.max_code)[0]
    if bad.size:
        offset = int(bad[0]) * 2
        raise FormatError(
            f"{path}: code {int(flat[bad[0]])} at byte offset {offset} "
            f"exceeds the {geometry.bit_depth}-bit range")
    data = codes.transpose(1, 2, 0).astype(np.uint16, order="C")
    try:
        return ImageStack(geometry=geometry, data=data,
                          stack_id=header["stack_id"], label=header["label"],
                          lesion_slices=lesion_slices,
                          source_id=header.get("source_id", ""),
                          provenance=header.get("provenance", ""))
    except ValueError as exc:
        raise FormatError(f"{header_path}: {exc}") from None


def write_dataset(dataset: Dataset, directory) -> Path:
    """Write every stack plus a manifest.csv; returns the manifest path.
    Raises FormatError, before writing anything, naming a stack id whose
    file name would not be a single path component inside directory."""
    names = [f"{stack.stack_id}.u16" for stack in dataset.stacks]
    for stack, name in zip(dataset.stacks, names):
        if Path(name).name != name:
            raise FormatError(f"stack_id {stack.stack_id!r} does not name a "
                              f"file inside the dataset directory")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rows = []
    for stack, name in zip(dataset.stacks, names):
        write_stack(stack, directory / name)
        rows.append((stack.stack_id, name, stack.label, stack.source_id))
    manifest = directory / "manifest.csv"
    with open(manifest, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("stack_id", "path", "label", "source_id"))
        writer.writerows(rows)
    return manifest


def read_dataset(manifest_path) -> Dataset:
    """Read a dataset back from its manifest.csv (or its directory).
    A fault of the manifest, such as a repeated id, raises FormatError."""
    manifest_path = Path(manifest_path)
    if manifest_path.is_dir():
        manifest_path = manifest_path / "manifest.csv"
    reader = csv.reader(io.StringIO(read_utf8(manifest_path), newline=""))
    header = next(reader, None)
    if header != ["stack_id", "path", "label", "source_id"]:
        raise FormatError(f"{manifest_path}: unexpected manifest header "
                          f"{header}")
    rows = list(reader)
    stacks = []
    for row in rows:
        if len(row) != 4:
            raise FormatError(f"{manifest_path}: malformed row {row}")
        stack = read_stack(manifest_path.parent / row[1])
        if stack.stack_id != row[0] or stack.label != row[2] \
                or stack.source_id != row[3]:
            raise FormatError(
                f"{manifest_path}: row for {row[0]!r} disagrees with the "
                f"stack header")
        stacks.append(stack)
    try:
        dataset = Dataset(stacks=tuple(stacks))
        dataset.pairing  # validates source references
    except ValueError as exc:
        raise FormatError(f"{manifest_path}: {exc}") from None
    return dataset
