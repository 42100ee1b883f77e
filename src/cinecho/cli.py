# cli.py
# -----------------------------------------------------------------------------
# Command-line harness.  Every command reads one flat config file (defaults
# apply when --config is omitted), so a config plus the seeds pins every
# emitted byte.
#
#   cinecho gen-dataset --out DIR [--config C] [--seed N]
#   cinecho run-trial   --out DIR [--config C] [--seed N]
#   cinecho sweep       --out DIR [--config C] [--seed N]
#                       [--axis A] [--values 1,5,10]
#   cinecho csf-table   --out DIR [--config C]
#   cinecho plot RESULTS.csv --out DIR [--overlay EXTERNAL.csv]
#
# --seed overrides both the generator seed and the trial plan seed.
#
# The CLI runs OpenBLAS at one thread unless OPENBLAS_NUM_THREADS says
# otherwise: the perception and generation pools already run a thread per
# CPU, and BLAS threads of their own inside each only contend with them.
# The default is set when this module is imported, before numpy loads, and
# only then: an interpreter that loaded numpy first (the tests, the demos,
# perfbench) keeps its own setting.  Output bytes do not depend on it.
# -----------------------------------------------------------------------------

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .config import (
    format_config,
    geometry_from,
    lesion_from,
    load_config,
    parse_numbers,
    pipeline_from,
)
from .csf import ViewingConditions, stcsf
from .errors import FormatError
from .harness import (
    SWEEP_AXES,
    SweepSpec,
    _check_points,
    emit_csv,
    emit_svg_plot,
    overlay_rescale,
    read_overlay_csv,
    read_rows_csv,
    run_sweep,
    sweep_points,
)
from .observer import lg_channel_bank
from .stacks import _lesion_shape, generate_dataset, read_dataset, \
    write_dataset
from .trial import _check_per_class, _check_split

__all__ = ["main"]


def _prepare_config(args) -> dict:
    config = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        config["generator.seed"] = args.seed
        config["trial.seed"] = args.seed
    return config


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _dataset(config: dict, spec: SweepSpec | None = None):
    """Read or generate the dataset; with a sweep's spec, every point's
    pipeline is built first, and before generation the pairs meet the
    trial split's and training checks, the channel bank is built and
    every point's apparent size and slice rate are checked."""
    if spec is not None:
        pipeline = pipeline_from(config)
        points = sweep_points(spec, pipeline)
    manifest = config["trial.dataset"]
    if manifest:
        return read_dataset(manifest)
    geometry, lesion = geometry_from(config), lesion_from(config)
    if spec is not None:
        _check_split(config["generator.n_pairs"], config["trial.n_readers"],
                     config["trial.seed"], config["trial.min_per_class"])
        # split_dataset deals n_pairs // (n_readers + 1) of each class to
        # the fewest-served training subset, and insert_lesion records the
        # lesion's affected slices
        _check_per_class(
            config["generator.n_pairs"] // (config["trial.n_readers"] + 1),
            len(_lesion_shape(lesion, geometry)[3]), pipeline)
        # the bank is cached, so the pass perceives with this one
        lg_channel_bank(geometry.width, geometry.height, pipeline.n_channels,
                        pipeline.spread)
        _check_points(spec, points, geometry.width)
    return generate_dataset(geometry, config["generator.n_pairs"], lesion,
                            seed=config["generator.seed"],
                            texture=config["generator.texture"],
                            beta=config["generator.beta"])


def _write_resolved(config: dict, out: Path) -> None:
    (out / "config.txt").write_text(format_config(config), encoding="utf-8")


def _cmd_gen_dataset(args) -> int:
    config = _prepare_config(args)
    dataset = _dataset(config)
    # --out is made only once there is something to write in it
    out = _out_dir(args)
    manifest = write_dataset(dataset, out)
    _write_resolved(config, out)
    print(f"wrote {len(dataset.stacks)} stacks to {manifest}")
    return 0


def _sweep_to_csv(config: dict, spec: SweepSpec, args, name: str) -> tuple:
    """Read or generate the dataset (see _dataset), run the sweep, make
    --out and write the rows to name in it beside config.txt; returns the
    rows and the CSV path."""
    rows = run_sweep(_dataset(config, spec), spec, config)
    out = _out_dir(args)
    path = emit_csv(rows, out / name)
    _write_resolved(config, out)
    return rows, path


def _cmd_run_trial(args) -> int:
    config = _prepare_config(args)
    # a trial is the one-point slice_rate sweep at the configured rate; the
    # pipeline comes first, so a bad rate gets the pipeline's message
    pipeline_from(config)
    spec = SweepSpec("slice_rate", (config["percept.slice_rate"],))
    (row,), path = _sweep_to_csv(config, spec, args, "trial.csv")
    print(f"mean AUC = {row.mean_auc:.4f} +- {row.auc_stddev:.4f} "
          f"({row.n_readers} readers); wrote {path}")
    return 0


def _cmd_sweep(args) -> int:
    config = _prepare_config(args)
    axis = args.axis or config["sweep.axis"]
    values = config["sweep.values"] if args.values is None \
        else parse_numbers(args.values, "--values")
    spec = SweepSpec(axis=axis, values=values)
    rows, csv_path = _sweep_to_csv(config, spec, args, "sweep.csv")
    emit_svg_plot(rows, [], csv_path.with_name("sweep.svg"),
                  axis_label=spec.axis)
    best = max(rows, key=lambda r: r.mean_auc)
    print(f"swept {spec.axis} over {len(rows)} values; peak mean AUC "
          f"{best.mean_auc:.4f} at {spec.axis} = {best.axis_value:g}; "
          f"wrote {csv_path}")
    return 0


def _cmd_csf_table(args) -> int:
    config = _prepare_config(args)
    for key in ("csf.u_values", "csf.w_values"):
        if not np.isfinite(config[key]).all():
            raise FormatError(f"{key}: expected finite numbers, "
                              f"got {config[key]}")
    vc = ViewingConditions(config["csf.luminance"], config["csf.x0"])
    u = np.array(config["csf.u_values"])
    w = np.array(config["csf.w_values"])
    uu, ww = np.meshgrid(u, w, indexing="ij")
    s = stcsf(uu, ww, vc, temporal_filters=config["csf.temporal"])
    lines = ["u,w,sensitivity"]
    for i in range(u.size):
        for j in range(w.size):
            lines.append(f"{u[i]:.17g},{w[j]:.17g},{s[i, j]:.17g}")
    path = _out_dir(args) / "csf.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {u.size * w.size} sensitivities to {path}")
    return 0


def _cmd_plot(args) -> int:
    rows = read_rows_csv(args.results)
    overlays = []
    if args.overlay:
        ext_axis, ext_values, ext_tols = read_overlay_csv(args.overlay)
        row_axis = [r.axis_value for r in rows]
        row_means = [r.mean_auc for r in rows]
        values, tols = overlay_rescale(ext_axis, ext_values, ext_tols,
                                       row_axis, row_means)
        overlays.append((Path(args.overlay).stem, ext_axis, values, tols))
    path = emit_svg_plot(rows, overlays, _out_dir(args) / "plot.svg")
    print(f"wrote {path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cinecho",
        description="virtual detection trials on browsed image stacks "
                    "through a spatio-temporal contrast sensitivity model")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--config", metavar="PATH",
                       help="config file of 'key = value' lines")
        p.add_argument("--out", metavar="DIR", required=True,
                       help="output directory")
        if seed:
            p.add_argument("--seed", type=int, metavar="N",
                           help="override generator and plan seeds")

    p = sub.add_parser("gen-dataset",
                       help="generate a synthetic stack dataset on disk")
    common(p)
    p.set_defaults(func=_cmd_gen_dataset)

    p = sub.add_parser("run-trial", help="run one virtual trial")
    common(p)
    p.set_defaults(func=_cmd_run_trial)

    p = sub.add_parser("sweep", help="sweep one parameter across a trial")
    common(p)
    p.add_argument("--axis", choices=SWEEP_AXES)
    p.add_argument("--values", metavar="V1,V2,...",
                   help="comma-separated axis values, increasing")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("csf-table",
                       help="dump a sensitivity grid over (u, w)")
    common(p, seed=False)
    p.set_defaults(func=_cmd_csf_table)

    p = sub.add_parser("plot", help="render a sweep CSV to SVG")
    p.add_argument("results", metavar="RESULTS.csv")
    p.add_argument("--out", metavar="DIR", required=True)
    p.add_argument("--overlay", metavar="PATH",
                   help="external series CSV 'axis,value,tolerance'")
    p.set_defaults(func=_cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
