# harness.py
# -----------------------------------------------------------------------------
# Parameter sweeps over the trial pipeline plus result plumbing: CSV rows
# at full double precision, static SVG plots with error bars, and affine
# rescaling of external digitized series onto our operating point.
#
# A sweep holds the dataset and the trial plan fixed and varies exactly one
# axis, so AUC differences across rows reflect only the swept parameter:
#   slice_rate      browsing speed in slices per second
#   ssr             spatial sampling rate in pixels per degree
#   l_max           peak display luminance, contrast ratio held fixed
#   contrast_ratio  L_max/L_min with L_max held fixed
# -----------------------------------------------------------------------------

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from html import escape
from pathlib import Path

import numpy as np

from .config import config_hash, pipeline_from
from .csf import TAU10, ViewingConditions
from .errors import FormatError
from .stacks import read_utf8
from .trial import (
    PipelineConfig,
    TrialPlan,
    _score,
    perceive_responses,
    plan_stacks,
    run_trial,  # unused here; perfbench/spans.py patches this name
    split_dataset,
)

__all__ = [
    "SWEEP_AXES",
    "SweepSpec",
    "ResultRow",
    "sweep_points",
    "run_sweep",
    "overlay_rescale",
    "emit_csv",
    "read_rows_csv",
    "read_overlay_csv",
    "emit_svg_plot",
]

SWEEP_AXES = ("slice_rate", "ssr", "l_max", "contrast_ratio")

CSV_HEADER = "axis,mean_auc,auc_stddev,n_readers,seed,config_hash"


@dataclass(frozen=True)
class SweepSpec:
    """One swept axis with the values to visit, in increasing order."""

    axis: str
    values: tuple

    def __post_init__(self) -> None:
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"axis must be one of {SWEEP_AXES}")
        if not self.values:
            raise ValueError("values must be non-empty")
        values = tuple(float(v) for v in self.values)
        # inf is left to the per-point checks, which name the axis
        if any(math.isnan(v) for v in values):
            raise ValueError(f"nan in values {values} is not a number")
        if any(not a < b for a, b in zip(values, values[1:])):
            raise ValueError("values must be strictly increasing")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class ResultRow:
    """One sweep point: the axis value and the trial outcome."""

    axis_value: float
    mean_auc: float
    auc_stddev: float
    n_readers: int
    seed: int
    config_hash: str

    def __post_init__(self) -> None:
        if not math.isfinite(self.axis_value):
            raise ValueError(f"axis value {self.axis_value} is not finite")
        if not 0.0 <= self.mean_auc <= 1.0:
            raise ValueError("mean_auc must lie in [0, 1]")
        # nan is legal: it means inestimable (see trial.one_shot_mrmc)
        if self.auc_stddev < 0 or math.isinf(self.auc_stddev):
            raise ValueError("auc_stddev must be nonnegative and finite, "
                             "or nan")


def _named(spec: SweepSpec, value, thunk):
    """thunk(), with any failure raised as a RuntimeError naming the point."""
    try:
        return thunk()
    except Exception as exc:
        raise RuntimeError(
            f"sweep aborted at {spec.axis} = {value}: {exc}") from exc


def sweep_points(spec: SweepSpec, base: PipelineConfig) -> list:
    """The pipeline at each value of spec; raises RuntimeError naming the
    first value whose pipeline is invalid.  slice_rate and ssr set the field
    they name; l_max scales both display endpoints to keep the contrast
    ratio, and contrast_ratio lowers L_min under a fixed L_max."""
    def point(value):
        display = base.display
        if spec.axis == "l_max":
            ratio = display.l_max / display.l_min
            display = replace(display, l_min=value / ratio, l_max=value)
        elif spec.axis == "contrast_ratio":
            display = replace(display, l_min=display.l_max / value)
        else:
            return replace(base, **{spec.axis: value})
        return replace(base, display=display)

    return [_named(spec, v, lambda: point(v)) for v in spec.values]


def _check_points(spec: SweepSpec, points, width: int) -> None:
    """Raise RuntimeError naming the first value of spec whose point has
    an apparent size x0 = width/ssr out of range (any luminance will do)
    or a top temporal frequency w = slice_rate/2 at which the temporal
    filters' (2 pi tau w)**2 overflows for tau = TAU10, the largest."""
    def check(point):
        ViewingConditions(1.0, width / point.ssr)
        top = 2.0 * np.pi * TAU10 * (float(point.slice_rate) / 2)
        if top * top == np.inf:
            raise ValueError(f"slice_rate = {point.slice_rate!r} Hz "
                             "overflows the temporal filters")

    for value, point in zip(spec.values, points):
        _named(spec, value, lambda: check(point))


def run_sweep(dataset, spec: SweepSpec, config: dict,
              plan: TrialPlan | None = None):
    """Run the trial once per axis value and return the result rows.

    config is the full flat config dict (the plan seed, reader count, and
    row fingerprint come from it); plan may be passed to reuse a split.  The
    plan (plan_stacks) and every point's apparent size are checked once,
    then the channel responses are computed in one pass over the stacks per
    display (see perceive_responses): one for a slice_rate or ssr sweep, one
    per value for l_max and contrast_ratio.  Every pass runs before any
    point is scored, and each point is scored from its own pass's array,
    which is not copied.  Each point's readers train and score as in
    run_trial, to the same bits.  Each pass runs its stacks on one thread
    per CPU the process may run on, with output identical at any CPU count;
    config['sweep.workers'] is accepted and ignored.  Every pass shares one
    cached channel bank and spectral plan.
    """
    if plan is None:
        plan = split_dataset(dataset.pairing, config["trial.n_readers"],
                             config["trial.seed"],
                             config["trial.min_per_class"])
    base = pipeline_from(config)
    fingerprint = config_hash(config)
    points = sweep_points(spec, base)
    stacks, slice_range = plan_stacks(dataset, plan, base)
    _check_points(spec, points, stacks[0].data.shape[0])
    groups = {}
    for i, point in enumerate(points):
        groups.setdefault(point.display, []).append(i)
    # every pass runs before any point is scored, so a failing pass is
    # named ahead of a failing point; each point reads its pass's column
    columns = [None] * len(points)
    for members in groups.values():
        responses = _named(
            spec, spec.values[members[0]], lambda: perceive_responses(
                stacks, [points[i] for i in members], slice_range))
        for column, i in enumerate(members):
            columns[i] = responses[:, column]
    rows = []
    for value, point, responses in zip(spec.values, points, columns):
        result = _named(spec, value, lambda: _score(
            stacks, plan, responses, point, slice_range))
        rows.append(ResultRow(axis_value=value, mean_auc=result.mean_auc,
                              auc_stddev=math.sqrt(result.variance),
                              n_readers=plan.n_readers, seed=plan.seed,
                              config_hash=fingerprint))
    return rows


def overlay_rescale(ext_axis, ext_values, ext_tolerances, row_axis,
                    row_means):
    """Affine-map an external series onto our scale.

    The map makes the external values' mean and standard deviation equal
    those of our results at the shared axis points; tolerances are
    multiplied by the same scale factor std(ours)/std(external).
    """
    ext_axis = np.asarray(ext_axis, dtype=np.float64)
    ext_values = np.asarray(ext_values, dtype=np.float64)
    ext_tolerances = np.asarray(ext_tolerances, dtype=np.float64)
    row_axis = np.asarray(row_axis, dtype=np.float64)
    row_means = np.asarray(row_means, dtype=np.float64)
    if np.any(ext_tolerances < 0):
        raise ValueError("tolerances must be nonnegative")

    shared_ext, shared_ours = [], []
    for i, a in enumerate(ext_axis):
        hits = np.nonzero(np.isclose(row_axis, a, rtol=1e-9, atol=1e-12))[0]
        if hits.size:
            shared_ext.append(ext_values[i])
            shared_ours.append(row_means[hits[0]])
    if len(shared_ext) < 2:
        raise ValueError("need at least two shared axis points to rescale")

    # the external moments are taken on the series scaled by a power of
    # two, which rounds nothing, so that no square or sum of it overflows
    unit = math.ldexp(1.0, -math.frexp(float(np.abs(ext_values).max()))[1])
    scaled = np.multiply(shared_ext, unit)
    std_ext = float(np.std(scaled)) / unit
    std_ours = float(np.std(shared_ours))
    if std_ext == 0.0:
        if std_ours != 0.0:
            raise ValueError("external series is constant at the shared "
                             "points; cannot match a varying anchor")
        scale = 1.0
    else:
        scale = std_ours / std_ext
    shift = float(np.mean(shared_ours)) \
        - scale * (float(np.mean(scaled)) / unit)
    return scale * ext_values + shift, scale * ext_tolerances


# ---------------------------------------------------------------------------
# CSV emission


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def emit_csv(rows, path) -> Path:
    """Write rows with a fixed header; floats carry 17 significant digits
    so a re-parse reproduces them exactly."""
    if not rows:
        raise ValueError("no rows to write")
    path = Path(path)
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join((_fmt(row.axis_value), _fmt(row.mean_auc),
                               _fmt(row.auc_stddev), str(row.n_readers),
                               str(row.seed), row.config_hash)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _read_csv(path, header: str, parse) -> list:
    """parse(fields) of every non-blank line after the header line.
    Raises FormatError when there is no such line, and one naming
    path:line for a wrong field count or for fields parse rejects with
    ValueError (a non-numeric one, say)."""
    path = Path(path)
    lines = read_utf8(path).splitlines()
    if not lines or lines[0] != header:
        raise FormatError(f"{path}: expected header {header!r}")
    n_fields = header.count(",") + 1
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != n_fields:
            raise FormatError(f"{path}:{lineno}: expected {n_fields} fields")
        try:
            records.append(parse(parts))
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
    if not records:
        raise FormatError(f"{path}: no data rows")
    return records


def read_rows_csv(path):
    """Result rows from a CSV file emit_csv wrote."""
    return _read_csv(path, CSV_HEADER, lambda parts: ResultRow(
        axis_value=float(parts[0]), mean_auc=float(parts[1]),
        auc_stddev=float(parts[2]), n_readers=int(parts[3]),
        seed=int(parts[4]), config_hash=parts[5]))


def _finite(text: str) -> float:
    if not math.isfinite(value := float(text)):
        raise ValueError(f"value {text!r} is not finite")
    return value


def read_overlay_csv(path):
    """External series as CSV 'axis,value,tolerance', all finite."""
    records = _read_csv(path, "axis,value,tolerance",
                        lambda parts: [_finite(p) for p in parts])
    axis, values, tolerances = np.array(records).T
    return axis, values, tolerances


# ---------------------------------------------------------------------------
# SVG plotting


_WIDTH, _HEIGHT = 640.0, 440.0
_LEFT, _RIGHT, _TOP, _BOTTOM = 64.0, 24.0, 24.0, 56.0
_COLORS = ("#1f6feb", "#d29922", "#3fb950", "#db61a2")


def _ticks(lo: float, hi: float):
    # on halves, exact for normal floats, so hi - lo cannot overflow
    return [2 * float(t) for t in np.linspace(lo / 2, hi / 2, 5)]


def emit_svg_plot(rows, overlays, path, axis_label: str = "axis") -> Path:
    """Line plot of mean AUC vs the axis with +-1 stddev error bars.

    overlays is a list of (label, axis_values, values, tolerances) series,
    already rescaled, drawn in distinct colors with their own error bars.
    """
    if not rows:
        raise ValueError("no rows to plot")
    series = [("mean AUC", np.array([r.axis_value for r in rows]),
               np.array([r.mean_auc for r in rows]),
               np.array([0.0 if math.isnan(r.auc_stddev) else r.auc_stddev
                         for r in rows]))]
    series += [(label, np.asarray(a, float), np.asarray(v, float),
                np.asarray(t, float)) for label, a, v, t in overlays]

    x_lo = min(float(np.min(a)) for _, a, _, _ in series)
    x_hi = max(float(np.max(a)) for _, a, _, _ in series)
    y_lo = min(float(np.min(v - t)) for _, _, v, t in series)
    y_hi = max(float(np.max(v + t)) for _, _, v, t in series)
    if x_hi == x_lo:
        # a unit each side, or a float step where a unit is lost; finite
        step = max(1.0, math.ulp(x_lo))
        x_lo, x_hi = np.nan_to_num((x_lo - step, x_hi + step))
    pad = 0.05 * (y_hi - y_lo) or 0.05
    y_lo, y_hi = y_lo - pad, y_hi + pad

    inner_w = _WIDTH - _LEFT - _RIGHT
    inner_h = _HEIGHT - _TOP - _BOTTOM

    def sx(v):
        return _LEFT + (v / 2 - x_lo / 2) / (x_hi / 2 - x_lo / 2) * inner_w

    def sy(v):
        return _TOP + (y_hi - v) / (y_hi - y_lo) * inner_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{_WIDTH:.0f}" height="{_HEIGHT:.0f}" '
        f'viewBox="0 0 {_WIDTH:.0f} {_HEIGHT:.0f}">',
        f'<rect width="{_WIDTH:.0f}" height="{_HEIGHT:.0f}" fill="white"/>',
        f'<rect x="{_LEFT:.1f}" y="{_TOP:.1f}" width="{inner_w:.1f}" '
        f'height="{inner_h:.1f}" fill="none" stroke="#444"/>',
    ]
    for t in _ticks(x_lo, x_hi):
        x = sx(t)
        parts.append(f'<line x1="{x:.2f}" y1="{_TOP + inner_h:.2f}" '
                     f'x2="{x:.2f}" y2="{_TOP + inner_h + 6:.2f}" '
                     f'stroke="#444"/>')
        parts.append(f'<text x="{x:.2f}" y="{_TOP + inner_h + 22:.2f}" '
                     f'font-size="12" text-anchor="middle">{t:g}</text>')
    for t in _ticks(y_lo, y_hi):
        y = sy(t)
        parts.append(f'<line x1="{_LEFT - 6:.2f}" y1="{y:.2f}" '
                     f'x2="{_LEFT:.2f}" y2="{y:.2f}" stroke="#444"/>')
        parts.append(f'<text x="{_LEFT - 10:.2f}" y="{y + 4:.2f}" '
                     f'font-size="12" text-anchor="end">{t:.3g}</text>')
    parts.append(f'<text x="{_LEFT + inner_w / 2:.1f}" '
                 f'y="{_HEIGHT - 12:.1f}" font-size="14" '
                 f'text-anchor="middle">{escape(axis_label)}</text>')
    parts.append(f'<text x="18" y="{_TOP + inner_h / 2:.1f}" font-size="14" '
                 f'text-anchor="middle" transform="rotate(-90 18 '
                 f'{_TOP + inner_h / 2:.1f})">mean AUC</text>')

    for idx, (label, axis, values, tols) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        pts = " ".join(f"{sx(a):.2f},{sy(v):.2f}"
                       for a, v in zip(axis, values))
        for a, v, t in zip(axis, values, tols):
            if t > 0:
                x, y1, y2 = sx(a), sy(v - t), sy(v + t)
                parts.append(f'<line x1="{x:.2f}" y1="{y1:.2f}" '
                             f'x2="{x:.2f}" y2="{y2:.2f}" '
                             f'stroke="{color}"/>')
                for y in (y1, y2):
                    parts.append(f'<line x1="{x - 4:.2f}" y1="{y:.2f}" '
                                 f'x2="{x + 4:.2f}" y2="{y:.2f}" '
                                 f'stroke="{color}"/>')
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1.5" points="{pts}"/>')
        for a, v in zip(axis, values):
            parts.append(f'<circle cx="{sx(a):.2f}" cy="{sy(v):.2f}" '
                         f'r="2.5" fill="{color}"/>')
        parts.append(f'<text x="{_LEFT + inner_w - 8:.1f}" '
                     f'y="{_TOP + 18 + 16 * idx:.1f}" font-size="12" '
                     f'fill="{color}" text-anchor="end">{escape(label)}</text>')

    parts.append("</svg>")
    path = Path(path)
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")
    return path
