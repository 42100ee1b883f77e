# config.py
# -----------------------------------------------------------------------------
# Experiment configuration: a single flat text file of dotted keys,
#
#   key.subkey = value        # comment
#
# overlaid on documented defaults; stack headers share the grammar (without
# inline comments) and its reader, stacks.parse_fields.  (config, seeds) pins
# every emitted byte; config_hash gives the short fingerprint in result rows.
# -----------------------------------------------------------------------------

from __future__ import annotations

import hashlib

from .display import DisplayModel
from .errors import FormatError
from .stacks import GEOMETRY_PRESETS, LesionSpec, StackGeometry, \
    check_writable, parse_fields, read_utf8
from .trial import PipelineConfig

__all__ = [
    "DEFAULTS",
    "parse_config",
    "load_config",
    "format_config",
    "config_hash",
    "display_from",
    "pipeline_from",
    "lesion_from",
    "geometry_from",
]

# defaults double as the type schema: file values are coerced to the type
# of the default under the same key
DEFAULTS = {
    # display mapping from integer codes to luminance
    "display.l_min": 1.05,
    "display.l_max": 1000.0,
    "display.bit_depth": 10,
    "display.mapping": "linear_luminance",
    # viewing and perceptual filtering
    "percept.ssr": 7.0,
    "percept.slice_rate": 25.0,
    "percept.foveal_mode": "none",
    "percept.taper": True,
    # channelized observer
    "observer.n_channels": 15,
    "observer.spread": 10.0,
    "observer.combiner": "hotelling",
    # trial plan
    "trial.n_readers": 3,
    "trial.seed": 20260819,
    "trial.min_per_class": 16,
    # manifest path; empty means generate the dataset in memory
    "trial.dataset": "",
    # synthetic dataset generator
    "generator.preset": "dataset_b",
    "generator.n_pairs": 200,
    "generator.seed": 1,
    "generator.texture": "power_law",
    "generator.beta": 3.0,
    "generator.lesion_kind": "microcalc",
    "generator.lesion_amplitude": 30.0,
    # zero means "use the kind's default"
    "generator.lesion_diameter_px": 0.0,
    "generator.lesion_sigma_z": 0.0,
    # parameter sweeps
    "sweep.axis": "slice_rate",
    "sweep.values": (1.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0,
                     40.0, 45.0),
    "sweep.workers": 1,
    # sensitivity table dumps
    "csf.luminance": 20.0,
    "csf.x0": 2.5,
    "csf.temporal": True,
    "csf.u_values": (0.0, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0,
                     6.0, 8.0, 10.0, 12.0, 16.0, 20.0, 24.0, 32.0, 40.0,
                     48.0, 60.0),
    "csf.w_values": (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 20.0,
                     25.0, 30.0, 40.0),
}


def _coerce(key: str, text: str):
    default = DEFAULTS[key]
    if isinstance(default, bool):
        lowered = text.lower()
        if lowered in ("true", "yes", "1", "on"):
            return True
        if lowered in ("false", "no", "0", "off"):
            return False
        raise FormatError(f"{key}: expected a boolean, got {text!r}")
    if isinstance(default, (int, float)):
        kind = "an integer" if isinstance(default, int) else "a number"
        try:
            return type(default)(text)
        except ValueError:
            raise FormatError(f"{key}: expected {kind}, got {text!r}")
    if isinstance(default, tuple):
        try:
            return tuple(float(tok) for tok in text.split(",") if tok.strip())
        except ValueError:
            raise FormatError(f"{key}: expected comma-separated numbers, "
                              f"got {text!r}")
    return text


def parse_config(text: str, source: str = "<config>") -> dict:
    """Parse config text over the defaults; '#' starts a comment.  Line
    faults (parse_fields) raise before values of the wrong type."""
    uncommented = "\n".join(line.split("#", 1)[0]
                            for line in text.splitlines())
    fields = parse_fields(uncommented, source, DEFAULTS)
    return {**DEFAULTS, **{key: _coerce(key, value)
                           for key, value in fields.items()}}


def load_config(path=None) -> dict:
    """Defaults overlaid with the file at path (None for pure defaults)."""
    if path is None:
        return dict(DEFAULTS)
    return parse_config(read_utf8(path), source=str(path))


def _render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(repr(float(v)) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def format_config(config: dict) -> str:
    """Canonical text form: sorted keys, one per line; parses back to
    the same dict.

    Raises FormatError naming the key of a string value that would not
    read back: one with '#', a line break or edge whitespace.
    """
    for key, value in config.items():
        if isinstance(value, str):
            check_writable(key, value, forbidden="#")
    return "".join(f"{key} = {_render(config[key])}\n"
                   for key in sorted(config))


def config_hash(config: dict) -> str:
    """12-hex-digit fingerprint of the canonical config text."""
    digest = hashlib.sha256(format_config(config).encode("utf-8"))
    return digest.hexdigest()[:12]


def display_from(config: dict) -> DisplayModel:
    return DisplayModel(l_min=config["display.l_min"],
                        l_max=config["display.l_max"],
                        bit_depth=config["display.bit_depth"],
                        mapping=config["display.mapping"])


def pipeline_from(config: dict) -> PipelineConfig:
    return PipelineConfig(display=display_from(config),
                          ssr=config["percept.ssr"],
                          slice_rate=config["percept.slice_rate"],
                          foveal_mode=config["percept.foveal_mode"],
                          taper=config["percept.taper"],
                          n_channels=config["observer.n_channels"],
                          spread=config["observer.spread"],
                          combiner=config["observer.combiner"])


def lesion_from(config: dict) -> LesionSpec:
    return LesionSpec(kind=config["generator.lesion_kind"],
                      amplitude=config["generator.lesion_amplitude"],
                      diameter_px=config["generator.lesion_diameter_px"],
                      sigma_z=config["generator.lesion_sigma_z"])


def geometry_from(config: dict) -> StackGeometry:
    preset = config["generator.preset"]
    if preset not in GEOMETRY_PRESETS:
        raise FormatError(f"generator.preset: unknown preset {preset!r}; "
                          f"available: {sorted(GEOMETRY_PRESETS)}")
    return GEOMETRY_PRESETS[preset]
