"""Measure a baseline row: every workload on several seeds, untraced, plus
one traced run per workload.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

Run from the repository root.  Workloads are interleaved seed by seed, so a
slow spell of the machine spreads over all of them.  For each end-to-end
metric the row gives the median, the quartiles (statistics.quantiles, n=4)
and the spread, which is (q3 - q1) / median.  The tracing overhead is the
traced run's body time minus the median untraced wall_s.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run
from record_reference import parse_seeds

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, seed: int, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["provenance"] = json.loads(lines[-2])["provenance"]
    result["elapsed_s"] = time.perf_counter() - start
    return result


def summary(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", nargs="+", default=["1-10"])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    names = [w["name"] for w in BENCHMARK["workloads"]]

    values = {name: {} for name in names}
    failures = {name: 0 for name in names}
    elapsed = {name: [] for name in names}
    provenance = None
    for seed in seeds:
        for name in names:
            result = bench(name, seed, trace=0)
            provenance = result["provenance"]
            failures[name] += result["failed"]
            elapsed[name].append(result["elapsed_s"])
            for metric, entry in result["metrics"].items():
                values[name].setdefault(metric, []).append(entry["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m} {e['value']:.4g}" for m, e in result["metrics"].items()),
                flush=True)
    row = {"provenance": provenance, "run_seconds": BENCHMARK["run_seconds"],
           "seeds": seeds, "workloads": {}}
    for name in names:
        traced = bench(name, seeds[0], trace=1)
        end_to_end = {m: summary(v) for m, v in values[name].items()}
        per_layer = {m: e["value"] for m, e in traced["metrics"].items()}
        row["workloads"][name] = {
            "failed": failures[name],
            "run_elapsed_s": elapsed[name],
            "traced_run_elapsed_s": traced["elapsed_s"],
            "end_to_end": end_to_end,
            "per_layer": per_layer,
            "trace_overhead_s": (per_layer["trace.wall_s"]
                                 - end_to_end["wall_s"]["median"]),
        }
        for metric, s in row["workloads"][name]["end_to_end"].items():
            print(f"{name} {metric}: median {s['median']:.6g} "
                  f"spread {s['spread']:.3f}")
    args.out.write_text(json.dumps(row, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
