"""The benchmark's workloads: inputs from a seed, the timed body, and the
correctness check of its outputs.

Every workload runs at ``config.DEFAULTS`` (200 pairs of ``dataset_b``,
microcalc amplitude 30, three readers) with the seed written into
``generator.seed`` and ``trial.seed``, as ``cinecho --seed`` does.  Smaller
datasets are not used: with 64 or 100 pairs the one-shot MRMC variance
estimate comes out negative beyond tolerance on some seeds (64 pairs: seed
9 at slice_rate 40; 100 pairs: seed 0 at the defaults), and run_trial
raises ValueError.

Import this module only after the BLAS thread cap is set: it imports numpy.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cinecho import config as cfgmod
from cinecho import harness, stacks, trial

TOLERANCE = 1e-9


@dataclass
class State:
    """Inputs of one workload, built by setup()."""

    name: str
    config: dict
    dataset: object
    plan: object


def generate(config: dict):
    return stacks.generate_dataset(cfgmod.geometry_from(config),
                                   config["generator.n_pairs"],
                                   cfgmod.lesion_from(config),
                                   seed=config["generator.seed"],
                                   texture=config["generator.texture"],
                                   beta=config["generator.beta"])


def setup(name: str, seed: int) -> State:
    config = dict(cfgmod.DEFAULTS, **{"generator.seed": seed,
                                      "trial.seed": seed})
    dataset = generate(config)
    plan = trial.split_dataset(dataset.pairing, config["trial.n_readers"],
                               config["trial.seed"],
                               config["trial.min_per_class"])
    return State(name, config, dataset, plan)


def stack_evaluations(state: State) -> int:
    """Stacks processed by one body: one stack at one sweep point, or one
    stack generated, written and read back."""
    n_stacks = len(state.plan.subset_assignment)
    if state.name == "sweep_slice_rate":
        return n_stacks * len(state.config["sweep.values"])
    return n_stacks


def operations(state: State) -> int:
    """Checked operations per body: one trial, one sweep point or one stack
    round trip."""
    if state.name == "trial_default":
        return 1
    if state.name == "sweep_slice_rate":
        return len(state.config["sweep.values"])
    return len(state.dataset.stacks)


def run_body(state: State, scratch: Path):
    """The timed work of one repetition; returns its raw outputs."""
    config = state.config
    if state.name == "trial_default":
        return trial.run_trial(state.dataset, state.plan,
                               cfgmod.pipeline_from(config))
    if state.name == "dataset_roundtrip":
        dataset = generate(config)
        stacks.write_dataset(dataset, scratch / "dataset")
        return dataset, stacks.read_dataset(scratch / "dataset")
    spec = harness.SweepSpec(axis=config["sweep.axis"],
                             values=config["sweep.values"])
    rows = harness.run_sweep(state.dataset, spec, config, state.plan)
    harness.emit_csv(rows, scratch / "sweep.csv")
    harness.emit_svg_plot(rows, [], scratch / "sweep.svg",
                          axis_label=spec.axis)
    return rows


# ---------------------------------------------------------------------------
# correctness


def dataset_sha256(dataset) -> str:
    digest = hashlib.sha256()
    for stack in dataset.stacks:
        digest.update(stack.stack_id.encode())
        digest.update(np.ascontiguousarray(stack.data).tobytes())
    return digest.hexdigest()


def fingerprint(state: State, outputs) -> dict:
    """What the reference file pins for one body's outputs."""
    if state.name == "dataset_roundtrip":
        return {"dataset_sha256": dataset_sha256(outputs[0])}
    if state.name == "trial_default":
        points = [(float(state.config["percept.slice_rate"]),
                   outputs.mean_auc, outputs.variance)]
    else:
        points = [(r.axis_value, r.mean_auc, r.auc_stddev ** 2)
                  for r in outputs]
    return {"config_hash": cfgmod.config_hash(state.config),
            "points": [{"axis_value": a, "mean_auc": m, "variance": v}
                       for a, m, v in points]}


def _same_stack(a, b) -> bool:
    return (a.stack_id == b.stack_id and a.label == b.label
            and a.source_id == b.source_id
            and a.lesion_slices == b.lesion_slices
            and a.data.dtype == b.data.dtype
            and np.array_equal(a.data, b.data))


def _brute_force_auc(healthy, lesion) -> float:
    gt = (lesion[None, :] > healthy[:, None]).sum()
    eq = (lesion[None, :] == healthy[:, None]).sum()
    return (gt + 0.5 * eq) / (healthy.size * lesion.size)


def check(state: State, outputs, reference: dict | None,
          scratch: Path) -> tuple[int, int]:
    """(attempted, failed) operations of one body (see operations()).

    Outputs must match the reference recorded for this seed, when there
    is one, to TOLERANCE absolute and config hashes exactly; every seed is
    also checked against invariants that need no reference.
    """
    if state.name == "dataset_roundtrip":
        generated, back = outputs
        failed = sum(not _same_stack(a, b) or not _same_stack(a, c)
                     for a, b, c in zip(generated.stacks, back.stacks,
                                        state.dataset.stacks))
        n = len(generated.stacks)
        failed += n - min(len(back.stacks), len(state.dataset.stacks), n)
        if reference is not None and (dataset_sha256(generated)
                                      != reference["dataset_sha256"]):
            failed = n
        return n, failed

    got = fingerprint(state, outputs)
    points = got["points"]
    bad = [not (0.0 <= p["mean_auc"] <= 1.0 and math.isfinite(p["variance"])
                and p["variance"] >= 0.0) for p in points]
    if state.name == "trial_default":
        labels = outputs.test_labels
        aucs = [_brute_force_auc(s[~labels], s[labels])
                for s in outputs.scores]
        if (not np.allclose(aucs, outputs.per_reader_auc, rtol=0,
                            atol=TOLERANCE)
                or abs(np.mean(aucs) - outputs.mean_auc) > TOLERANCE):
            bad[0] = True
    else:
        expected = cfgmod.config_hash(state.config)
        written = harness.read_rows_csv(scratch / "sweep.csv")
        if len(written) != len(outputs):
            bad = [True] * len(points)
        for i, (row, back) in enumerate(zip(outputs, written)):
            if row != back or row.config_hash != expected:
                bad[i] = True
    if reference is not None:
        if got["config_hash"] != reference["config_hash"] \
                or len(points) != len(reference["points"]):
            bad = [True] * len(points)
        for i, (p, ref) in enumerate(zip(points, reference["points"])):
            if (p["axis_value"] != ref["axis_value"]
                    or abs(p["mean_auc"] - ref["mean_auc"]) > TOLERANCE
                    or abs(p["variance"] - ref["variance"]) > TOLERANCE):
                bad[i] = True
    return len(points), sum(bad)
