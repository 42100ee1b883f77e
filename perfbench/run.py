"""cinecho benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root: the package is imported from ``src/`` next to
this directory, never from an installed copy.  BLAS is capped at one thread
before numpy is imported.

--trace 0 sets the workload up SETUP_REPS times (``setup_s`` is the import
time plus the median set-up), then repeats the body until S seconds have
passed (at least once: a sweep body outlasts S) and reports the median
body.  --trace 1 sets up once and runs the body once, both traced; the
per-layer metrics cover both, and ``trace.wall_s`` is the traced body's
time, so the tracing overhead is ``trace.wall_s`` minus the ``wall_s`` of
untraced runs (baseline.py reports it).  Every body's outputs are checked
(see workloads.check).  Progress, with each body's time, and a provenance
line go to stdout; the last line is the JSON result.  Spans of a traced run
are written to ``.perfbench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
# the workloads BENCHMARK.json declares
WORKLOAD_NAMES = (
    # the paper's curve: the default 10-point serial slice_rate sweep,
    # writing sweep.csv and sweep.svg like `cinecho sweep`
    "sweep_slice_rate",
    # generate, write and read back: only the stacks layer works here
    "dataset_roundtrip",
)
# runnable by hand, not declared: the benchmark's time budget holds two
# workloads at a run length that keeps their spread inside the bounds
EXTRA_WORKLOADS = (
    # one run_trial: the percept FFT pair dominates and nothing is reused
    # across sweep points, so kernel changes show here and sweep reuse not
    "trial_default",
)
SETUP_REPS = 3

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("stacks_per_s", "1/s"),
              ("peak_rss_mb", "MB"), ("success_rate", "fraction"))

# (metric, unit, span name, stat) for span totals; counts come after
SPAN_METRICS = (
    ("display.code_to_luminance.s", "s", "display.code_to_luminance", "s"),
    ("display.code_to_luminance.calls", "count",
     "display.code_to_luminance", "calls"),
    ("percept.apply_stcsf.s", "s", "percept.apply_stcsf", "s"),
    ("percept.apply_stcsf.calls", "count", "percept.apply_stcsf", "calls"),
    ("percept.taper_margins.s", "s", "percept.taper_margins", "s"),
    ("percept.filter_contrast.self_s", "s", "percept.filter_contrast",
     "self_s"),
    ("percept.transfer_gain.self_s", "s", "percept.transfer_gain", "self_s"),
    ("csf.stcsf.s", "s", "csf.stcsf", "s"),
    ("csf.derive_optics.s", "s", "csf.derive_optics", "s"),
    ("observer.lg_channel_bank.s", "s", "observer.lg_channel_bank", "s"),
    ("observer.channelize_slices.s", "s", "observer.channelize_slices", "s"),
    ("observer.channelize_slices.calls", "count",
     "observer.channelize_slices", "calls"),
    ("observer.train_mscho_from_responses.s", "s",
     "observer.train_mscho_from_responses", "s"),
    ("observer.hotelling_template.s", "s", "observer.hotelling_template",
     "s"),
    ("observer.hotelling_template.calls", "count",
     "observer.hotelling_template", "calls"),
    ("observer.score_responses.s", "s", "observer.score_responses", "s"),
    ("observer.score_responses.calls", "count", "observer.score_responses",
     "calls"),
    ("trial.run_trial.self_s", "s", "trial.run_trial", "self_s"),
    ("trial.split_dataset.s", "s", "trial.split_dataset", "s"),
    ("trial.auc_wilcoxon.s", "s", "trial.auc_wilcoxon", "s"),
    ("trial.one_shot_mrmc.s", "s", "trial.one_shot_mrmc", "s"),
    ("stacks.generate_background.self_s", "s", "stacks.generate_background",
     "self_s"),
    ("stacks.insert_lesion.self_s", "s", "stacks.insert_lesion", "self_s"),
    ("stacks.write_stack.s", "s", "stacks.write_stack", "s"),
    ("stacks.read_stack.s", "s", "stacks.read_stack", "s"),
    ("harness.run_sweep.self_s", "s", "harness.run_sweep", "self_s"),
    ("harness.emit_csv.s", "s", "harness.emit_csv", "s"),
    ("harness.emit_svg_plot.s", "s", "harness.emit_svg_plot", "s"),
)
COUNT_METRICS = (("percept.fft_bytes", "bytes"), ("csf.stcsf.points", "count"),
                 ("stacks.bytes_written", "bytes"),
                 ("stacks.bytes_read", "bytes"),
                 ("stacks.lesion_clipping_warnings", "count"))
OTHER_METRICS = (("percept.apply_stcsf.p50_ms", "ms"),
                 ("percept.apply_stcsf.p95_ms", "ms"),
                 ("observer.ridge_fired", "fraction"),
                 ("trace.wall_s", "s"))


def per_layer_names() -> list:
    """Every per-layer metric a traced run reports, in BENCHMARK.json order."""
    return ([m[0] for m in SPAN_METRICS] + [m[0] for m in COUNT_METRICS]
            + [m[0] for m in OTHER_METRICS])


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + EXTRA_WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_cinecho() -> float:
    """Cap BLAS threads, import the package from SRC; returns seconds."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    for module in ("cinecho", "cinecho.config", "cinecho.harness",
                   "cinecho.stacks", "cinecho.trial"):
        importlib.import_module(module)
    elapsed = perf_counter() - start
    imported = Path(sys.modules["cinecho"].__file__).resolve()
    if SRC.resolve() not in imported.parents:
        raise SystemExit(f"imported cinecho from {imported}, not {SRC}")
    return elapsed


# ---------------------------------------------------------------------------
# provenance


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_sha():
    """HEAD of the repository at ROOT, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_files():
    return sorted(p for p in SRC.rglob("*.py") if "__pycache__" not in p.parts)


def provenance() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    lines = 0
    for path in _src_files():
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "mp_start_method": multiprocessing.get_context().get_start_method(),
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


# ---------------------------------------------------------------------------
# runs


def _reference(workload: str, seed: int):
    if not REFERENCE.is_file():
        return None
    table = json.loads(REFERENCE.read_text())
    return table.get(workload, {}).get(str(seed))


class Tally:
    """Operations attempted and failed, with the fingerprint to compare to."""

    def __init__(self, workloads, state, reference):
        self.wl = workloads
        self.state = state
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def record(self, outputs, scratch: Path) -> None:
        attempted, failed = self.wl.check(self.state, outputs,
                                          self.reference, scratch)
        if self.reference is None and failed == 0:
            # no recorded reference for this seed: later repetitions must
            # reproduce the first one
            self.reference = self.wl.fingerprint(self.state, outputs)
        self.attempted += attempted
        self.failed += failed

    def record_exception(self, exc: Exception) -> None:
        print(f"body failed: {exc!r}", file=sys.stderr)
        ops = self.wl.operations(self.state)
        self.attempted += ops
        self.failed += ops


def timed_body(wl, state, scratch: Path, tally: Tally) -> float:
    """Run one body in a fresh directory under scratch; returns seconds."""
    body_dir = scratch / "body"
    body_dir.mkdir()
    try:
        start = perf_counter()
        try:
            outputs = wl.run_body(state, body_dir)
        except Exception as exc:  # a failed operation is counted, not fatal
            tally.record_exception(exc)
            return perf_counter() - start
        elapsed = perf_counter() - start
        tally.record(outputs, body_dir)
        return elapsed
    finally:
        shutil.rmtree(body_dir)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its waited children
    (sweep pool workers, when sweep.workers > 1)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_untraced(args, import_s: float, scratch: Path):
    import workloads as wl
    setups = []
    for _ in range(SETUP_REPS):
        state = None  # free the previous set-up before timing the next
        start = perf_counter()
        state = wl.setup(args.workload, args.seed)
        setups.append(perf_counter() - start)
    reference = _reference(args.workload, args.seed)
    tally = Tally(wl, state, reference)
    walls = []
    deadline = perf_counter() + args.seconds
    while not walls or perf_counter() < deadline:
        walls.append(timed_body(wl, state, scratch, tally))
    wall_s = statistics.median(walls)
    metrics = {
        "setup_s": import_s + statistics.median(setups),
        "wall_s": wall_s,
        "stacks_per_s": wl.stack_evaluations(state) / wall_s,
        "peak_rss_mb": peak_rss_mb(),
        "success_rate": 1.0 - tally.failed / tally.attempted,
    }
    print(f"{args.workload}: {len(walls)} bodies, {SETUP_REPS} set-ups, "
          f"reference {'recorded' if reference else 'none'}; body seconds "
          + " ".join(f"{w:.4f}" for w in walls))
    return tally, {name: (metrics[name], unit) for name, unit in END_TO_END}


def run_traced(args, scratch: Path):
    import spans
    import workloads as wl
    recorder = spans.Recorder()
    spans.instrument(recorder)
    try:
        state = wl.setup(args.workload, args.seed)
        tally = Tally(wl, state, _reference(args.workload, args.seed))
        traced = timed_body(wl, state, scratch, tally)
    finally:
        recorder.unpatch_all()
    recorder.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")

    stats = spans.layer_stats(recorder)
    metrics = {}
    for metric, unit, name, stat in SPAN_METRICS:
        metrics[metric] = (stats.get(name, {}).get(stat, 0), unit)
    for metric, unit in COUNT_METRICS:
        metrics[metric] = (recorder.counts.get(metric, 0), unit)
    durations = stats.get("percept.apply_stcsf", {}).get("durations", [])
    trained = recorder.counts.get("observer.templates_trained", 0)
    ridged = recorder.counts.get("observer.templates_ridged", 0)
    others = {
        "percept.apply_stcsf.p50_ms": spans.percentile_ms(durations, 50),
        "percept.apply_stcsf.p95_ms": spans.percentile_ms(durations, 95),
        "observer.ridge_fired": ridged / trained if trained else 0.0,
        "trace.wall_s": traced,
    }
    for metric, unit in OTHER_METRICS:
        metrics[metric] = (others[metric], unit)
    print(f"{args.workload}: traced {len(recorder.spans)} spans; "
          f"body {traced:.4f} s")
    return tally, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cinecho" / "__init__.py").is_file():
        print(f"no cinecho package under {SRC}", file=sys.stderr)
        return 2
    import_s = import_cinecho()
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        if args.trace:
            tally, metrics = run_traced(args, scratch)
        else:
            tally, metrics = run_untraced(args, import_s, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {unit}")
    print(json.dumps({"provenance": provenance()}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
