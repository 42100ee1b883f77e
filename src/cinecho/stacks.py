# stacks.py
# -----------------------------------------------------------------------------
# Image stack data model, synthetic dataset generation, and bit-exact I/O.
#
# Backgrounds are Gaussian noise shaped in the frequency domain with an
# isotropic 1/f^(beta/2) amplitude (beta = 3 by default, a mammography-like
# texture; beta = 0 is white noise), normalized to unit theoretical variance
# and affine-mapped so +-4 sigma spans the central half of the code range.
# The amplitude and its sigma are built once per (shape, beta) and applied
# on the real half spectrum (rfftn / irfftn).
# Lesions are additive smoothed discs (disc convolved with a Gaussian of
# sigma = diameter/8, peak-normalized) with a Gaussian through-slice depth
# profile, inserted at the spatio-temporal stack center; the shape is built
# once per (spec, geometry).
#
# A stack is its codes plus one StackGeometry.  On disk it is a raw
# little-endian u16 payload (row-major within slice, slices consecutive) plus
# a "<name>.hdr" sidecar of key = value lines, read by parse_fields as config
# files are; a dataset is a directory of those plus a manifest CSV listing
# id, path, label and the healthy source of every lesion stack.
# -----------------------------------------------------------------------------

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import asdict, dataclass, fields, replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import scipy.fft
from scipy.ndimage import gaussian_filter

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
    """Generated stacks plus the healthy-to-lesion pairing."""

    stacks: tuple

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


def generate_background(geometry: StackGeometry, seed,
                        texture: str = "power_law", beta: float = 3.0,
                        stack_id: str = "stack") -> ImageStack:
    """Generate one healthy background stack, deterministic per seed.

    seed may be anything np.random.default_rng accepts.  White Gaussian
    noise is shaped with the isotropic amplitude f^(-beta/2) (DC removed),
    scaled to unit theoretical standard deviation, and mapped to codes as
    center + field * quarter_range / 4, rounded and clipped: +-4 sigma of
    the field spans the central half of the code range.  A beta that is
    negative, not finite or overflows the spectrum raises ValueError.
    """
    if texture not in TEXTURES:
        raise ValueError(f"texture must be one of {TEXTURES}")
    if texture == "white":
        beta = 0.0
    if not 0 <= beta < np.inf:
        raise ValueError(f"beta must be nonnegative and finite, got {beta!r}")
    amplitude, sigma = _power_law_spectrum(geometry.shape, beta)
    rng = np.random.default_rng(seed)
    white = rng.standard_normal(geometry.shape)

    shaped = scipy.fft.irfftn(scipy.fft.rfftn(white) * amplitude,
                              s=geometry.shape) / sigma

    # +-4 sigma of the unit-variance field maps to +-(range/4) around the
    # midpoint, i.e. the central half of the code range
    center = 1 << (geometry.bit_depth - 1)
    scale = (1 << geometry.bit_depth) / 16.0
    codes = np.rint(center + shaped * scale)
    codes = np.clip(codes, 0, geometry.max_code).astype(np.uint16)
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
    inplane = gaussian_filter(disc, sigma=spec.diameter_px / 8.0,
                              mode="constant", cval=0.0)
    inplane /= inplane[geometry.width // 2, geometry.height // 2]

    s = np.arange(geometry.n_slices, dtype=np.float64) - geometry.n_slices // 2
    depth = np.exp(-((s / spec.sigma_z) ** 2))
    return inplane, depth


def affected_slices(depth_profile) -> tuple:
    """Slice indices whose depth weight is at least 1% of the peak."""
    depth = np.asarray(depth_profile, dtype=np.float64)
    return tuple(int(i) for i in
                 np.nonzero(depth >= AFFECTED_THRESHOLD * depth.max())[0])


@lru_cache(maxsize=4)
def _lesion_shape(spec: LesionSpec, geometry: StackGeometry):
    """(profile, energy, affected slices) of spec on geometry: the inserted
    amplitude * outer(inplane, depth), read-only, its sum and the slices it
    affects."""
    inplane, depth = lesion_profile(spec, geometry)
    profile = spec.amplitude * inplane[:, :, None] * depth[None, None, :]
    profile.flags.writeable = False
    return profile, float(profile.sum()), affected_slices(depth)


def insert_lesion(healthy: ImageStack, spec: LesionSpec,
                  stack_id: str = "") -> ImageStack:
    """Add the lesion profile to a healthy stack at its center.

    The result is rounded back to integer codes and clamped to the code
    range; if clamping discards more than 1% of the inserted energy a
    LesionClippingWarning is emitted (the amplitude leaves no headroom).
    """
    if healthy.label != "healthy":
        raise ValueError("can only insert into a healthy stack")
    geometry = healthy.geometry
    profile, energy, lesion_slices = _lesion_shape(spec, geometry)
    ideal = healthy.data + profile
    codes = np.clip(np.rint(ideal), 0, geometry.max_code)

    lost = float(np.maximum(ideal - geometry.max_code, 0.0).sum()
                 + np.maximum(-ideal, 0.0).sum())
    if energy > 0 and lost > 0.01 * energy:
        warnings.warn(
            f"clipping removed {lost:.3g} of {energy:.3g} inserted energy "
            f"(amplitude {spec.amplitude} too high for the code headroom)",
            LesionClippingWarning)

    return replace(healthy, data=codes.astype(np.uint16),
                   stack_id=stack_id or f"{healthy.stack_id}-lesion",
                   label="lesion",
                   lesion_slices=lesion_slices,
                   source_id=healthy.stack_id,
                   provenance=healthy.provenance
                   + f" lesion={spec.kind} amp={spec.amplitude!r}")


def generate_dataset(geometry, n_pairs: int, lesion: LesionSpec, seed: int,
                     texture: str = "power_law", beta: float = 3.0) -> Dataset:
    """Generate n_pairs healthy stacks and their lesion twins.

    geometry may be a StackGeometry or a preset name.  Stack i draws from
    an independent stream seeded by (seed, i), so generation order cannot
    change the output.
    """
    if isinstance(geometry, str):
        geometry = GEOMETRY_PRESETS[geometry]
    if n_pairs < 1:
        raise ValueError("need at least one pair")
    width = len(str(max(n_pairs - 1, 1)))
    stacks = []
    for i in range(n_pairs):
        child_seed = np.random.SeedSequence([int(seed), i])
        healthy = generate_background(geometry, child_seed, texture, beta,
                                      stack_id=f"h{i:0{width}d}")
        stacks.append(healthy)
        stacks.append(insert_lesion(healthy, lesion,
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
    """Write every stack plus a manifest.csv; returns the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rows = []
    for stack in dataset.stacks:
        name = f"{stack.stack_id}.u16"
        write_stack(stack, directory / name)
        rows.append((stack.stack_id, name, stack.label, stack.source_id))
    manifest = directory / "manifest.csv"
    with open(manifest, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("stack_id", "path", "label", "source_id"))
        writer.writerows(rows)
    return manifest


def read_dataset(manifest_path) -> Dataset:
    """Read a dataset back from its manifest.csv (or its directory)."""
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
    dataset = Dataset(stacks=tuple(stacks))
    dataset.pairing  # validates source references
    return dataset
