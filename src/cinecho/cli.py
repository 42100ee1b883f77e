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
# -----------------------------------------------------------------------------

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import (
    format_config,
    geometry_from,
    lesion_from,
    load_config,
    pipeline_from,
)
from .csf import ViewingConditions, stcsf
from .errors import FormatError
from .harness import (
    SWEEP_AXES,
    SweepSpec,
    emit_csv,
    emit_svg_plot,
    overlay_rescale,
    read_overlay_csv,
    read_rows_csv,
    run_sweep,
    sweep_points,
)
from .stacks import generate_dataset, read_dataset, write_dataset

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


def _dataset(config: dict):
    manifest = config["trial.dataset"]
    if manifest:
        return read_dataset(manifest)
    return generate_dataset(geometry_from(config),
                            config["generator.n_pairs"],
                            lesion_from(config),
                            seed=config["generator.seed"],
                            texture=config["generator.texture"],
                            beta=config["generator.beta"])


def _write_resolved(config: dict, out: Path) -> None:
    (out / "config.txt").write_text(format_config(config), encoding="utf-8")


def _cmd_gen_dataset(args) -> int:
    config = _prepare_config(args)
    out = _out_dir(args)
    dataset = _dataset(config)
    manifest = write_dataset(dataset, out)
    _write_resolved(config, out)
    print(f"wrote {len(dataset.stacks)} stacks to {manifest}")
    return 0


def _sweep_to_csv(config: dict, spec: SweepSpec, pipeline, out: Path,
                  name: str) -> tuple:
    """Check every point of spec, then read or generate the dataset, run
    the sweep and write its rows to out/name beside config.txt; returns
    the rows and the CSV path."""
    # the model is checked before seconds go into generating the dataset
    sweep_points(spec, pipeline)
    rows = run_sweep(_dataset(config), spec, config)
    path = emit_csv(rows, out / name)
    _write_resolved(config, out)
    return rows, path


def _cmd_run_trial(args) -> int:
    config = _prepare_config(args)
    out = _out_dir(args)
    # a trial is the one-point slice_rate sweep at the configured rate; the
    # pipeline comes first, so a bad rate gets the pipeline's message
    pipeline = pipeline_from(config)
    spec = SweepSpec("slice_rate", (config["percept.slice_rate"],))
    (row,), path = _sweep_to_csv(config, spec, pipeline, out, "trial.csv")
    print(f"mean AUC = {row.mean_auc:.4f} +- {row.auc_stddev:.4f} "
          f"({row.n_readers} readers); wrote {path}")
    return 0


def _cmd_sweep(args) -> int:
    config = _prepare_config(args)
    out = _out_dir(args)
    axis = args.axis or config["sweep.axis"]
    if args.values:
        try:
            values = tuple(float(tok) for tok in args.values.split(",")
                           if tok.strip())
        except ValueError:
            raise FormatError(f"--values: expected comma-separated numbers, "
                              f"got {args.values!r}") from None
    else:
        values = config["sweep.values"]
    spec = SweepSpec(axis=axis, values=values)
    rows, csv_path = _sweep_to_csv(config, spec, pipeline_from(config), out,
                                   "sweep.csv")
    emit_svg_plot(rows, [], out / "sweep.svg", axis_label=spec.axis)
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
    out = _out_dir(args)
    vc = ViewingConditions(luminance=config["csf.luminance"],
                           x0=config["csf.x0"],
                           ssr=config["percept.ssr"],
                           slice_rate=config["percept.slice_rate"])
    u = np.array(config["csf.u_values"])
    w = np.array(config["csf.w_values"])
    uu, ww = np.meshgrid(u, w, indexing="ij")
    s = stcsf(uu, ww, vc, temporal_filters=config["csf.temporal"])
    lines = ["u,w,sensitivity"]
    for i in range(u.size):
        for j in range(w.size):
            lines.append(f"{u[i]:.17g},{w[j]:.17g},{s[i, j]:.17g}")
    path = out / "csf.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {u.size * w.size} sensitivities to {path}")
    return 0


def _cmd_plot(args) -> int:
    out = _out_dir(args)
    rows = read_rows_csv(args.results)
    overlays = []
    if args.overlay:
        ext_axis, ext_values, ext_tols = read_overlay_csv(args.overlay)
        row_axis = [r.axis_value for r in rows]
        row_means = [r.mean_auc for r in rows]
        values, tols = overlay_rescale(ext_axis, ext_values, ext_tols,
                                       row_axis, row_means)
        overlays.append((Path(args.overlay).stem, ext_axis, values, tols))
    path = emit_svg_plot(rows, overlays, out / "plot.svg")
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
