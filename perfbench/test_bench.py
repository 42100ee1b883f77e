"""The benchmark's own checks.

    python3 -m pytest perfbench/test_bench.py -q

Runs every workload traced twice (a few minutes on two cores) and checks
that exact counts repeat, that the reported metrics are the ones
BENCHMARK.json declares, and that the correctness gate catches a drift.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# per-layer metrics that are counts, computed sizes or ratios of counts
EXACT = ["display.code_to_luminance.calls", "percept.apply_stcsf.calls",
         "observer.channelize_slices.calls",
         "observer.hotelling_template.calls", "observer.score_responses.calls",
         "percept.fft_bytes", "csf.stcsf.points", "stacks.bytes_written",
         "stacks.bytes_read", "stacks.lesion_clipping_warnings",
         "observer.ridge_fired"]


def bench(workload: str, trace: int, cwd: Path = run.ROOT, seed: int = 1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    return out


def declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] \
        == list(run.WORKLOAD_NAMES)
    assert declared("end_to_end") == dict(run.END_TO_END)
    assert list(declared("per_layer")) == run.per_layer_names()
    assert set(EXACT) <= set(declared("per_layer"))


@pytest.mark.parametrize("workload",
                         run.WORKLOAD_NAMES + run.EXTRA_WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = (result(bench(workload, trace=1)) for _ in range(2))
    units = {name: m["unit"] for name, m in first["metrics"].items()}
    assert units == declared("per_layer")
    for name in EXACT:
        assert first["metrics"][name]["value"] \
            == second["metrics"][name]["value"], name
    assert first["metrics"]["percept.apply_stcsf.calls"]["value"] > 0 \
        or workload == "dataset_roundtrip"


def test_untraced_run_reports_end_to_end_metrics():
    out = result(bench("dataset_roundtrip", trace=0))
    units = {name: m["unit"] for name, m in out["metrics"].items()}
    assert units == declared("end_to_end")
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("trial_default", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_gate_counts_a_drift_as_failure(tmp_path):
    run.import_cinecho()
    import workloads as wl
    state = wl.setup("trial_default", 1)
    outputs = wl.run_body(state, tmp_path)
    reference = wl.fingerprint(state, outputs)
    assert wl.check(state, outputs, reference, tmp_path) == (1, 0)
    reference["points"][0]["mean_auc"] += 2 * wl.TOLERANCE
    assert wl.check(state, outputs, reference, tmp_path) == (1, 1)
    reference["config_hash"] = "0" * 12
    reference["points"][0]["mean_auc"] = outputs.mean_auc
    assert wl.check(state, outputs, reference, tmp_path) == (1, 1)
