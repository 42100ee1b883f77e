"""Same-numbers check: does the working tree compute what REV computes?

Builds REV's src/ from `git archive` in a temporary directory and runs
the same jobs on it and on the working tree's src/, each in a fresh
interpreter with that src/ first on the import path:

- the channel responses of the default sweep's perception pass
  (`cinecho sweep` at the defaults, its `perceive_responses` result) at
  seeds 1 and 7, under the foveal modes none and soft; per case it
  reports whether the two arrays are bitwise equal, the largest absolute
  difference over the largest |response| (normwise) and the largest
  elementwise relative difference;
- `cinecho sweep --seed 1` and `cinecho run-trial --seed 1`: whether
  `diff -r` finds the two output trees equal, and each tree's
  config_hash;
- the config_hash of the default config.

Both sides run with the same environment, OPENBLAS_NUM_THREADS set to 1
unless it is set already.  The report (both commits, the results and
the run time) is written as one JSON file.  The exit status is 0 when
every case is bitwise equal and every tree equal, else 1.

    python3 tools/same_numbers.py REV [--out same_numbers.json]

Standard library only: the responses are compared as raw doubles.
"""

import argparse
import array
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 7)
FOVEAL_MODES = ("none", "soft")
COMMANDS = ("sweep", "run-trial")

# run in each tree: the CLI's sweep, with harness.perceive_responses
# wrapped to keep its results; argv: seed, config file, output tree,
# file of raw responses
CAPTURE = """\
import sys
import numpy as np
from cinecho import cli, harness
seed, config, out, raw = sys.argv[1:]
perceive, kept = harness.perceive_responses, []
def capture(*args, **kwargs):
    result = perceive(*args, **kwargs)
    kept.append(np.ascontiguousarray(result, dtype=np.float64))
    return result
harness.perceive_responses = capture
code = cli.main(["sweep", "--seed", seed, "--config", config, "--out", out])
if code:
    sys.exit(code)
with open(raw, "wb") as f:
    for responses in kept:
        f.write(responses.tobytes())
print([r.shape for r in kept])
"""

RUN_CLI = "import sys; from cinecho.cli import main; sys.exit(main(sys.argv[1:]))"
DEFAULT_HASH = ("from cinecho.config import config_hash, load_config; "
                "print(config_hash(load_config()))")


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def build(rev: str, into: Path) -> Path:
    """REV's src/ unpacked under into; returns that src/."""
    into.mkdir()
    tar = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT,
                         check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=tar, check=True)
    return into / "src"


def python(src: Path, env: dict, *argv) -> str:
    """Run python with src first on the import path; returns the last
    line it prints."""
    proc = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True,
        env={**env, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"})
    if proc.returncode:
        sys.exit(f"{src}: {' '.join(argv[:3])} exited {proc.returncode}:\n"
                 f"{proc.stderr}")
    return proc.stdout.strip().splitlines()[-1]


def compare(got: bytes, want: bytes) -> dict:
    """Bitwise equality, normwise and elementwise maxima of two arrays of
    doubles (want the reference)."""
    a, b = array.array("d", got), array.array("d", want)
    if len(a) != len(b):
        return {"bitwise_equal": False, "sizes": [len(a), len(b)]}
    scale = max(map(abs, b), default=0.0)
    largest = relative = 0.0
    for x, y in zip(a, b):
        diff = abs(x - y)
        if diff:
            largest = max(largest, diff)
            relative = max(relative, diff / abs(y) if y else float("inf"))
    return {"bitwise_equal": got == want, "values": len(a),
            "normwise_max": largest / scale if scale else largest,
            "elementwise_relative_max": relative}


def config_hashes(tree: Path) -> list:
    """The config_hash column of every CSV row in an output tree."""
    hashes = set()
    for csv in sorted(tree.glob("*.csv")):
        for line in csv.read_text(encoding="utf-8").splitlines()[1:]:
            hashes.add(line.rsplit(",", 1)[-1])
    return sorted(hashes)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the commit to compare against")
    parser.add_argument("--out", default="same_numbers.json",
                        help="the JSON report (default: %(default)s)")
    args = parser.parse_args()
    started = time.monotonic()
    env = dict(os.environ)
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    report = {
        "rev": git("rev-parse", args.rev),
        "head": git("rev-parse", "HEAD"),
        "worktree_changes": bool(git("status", "--porcelain", "--", "src")),
        "openblas_num_threads": env["OPENBLAS_NUM_THREADS"],
        "responses": [], "trees": []}
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        sides = {"rev": build(args.rev, scratch / "rev"),
                 "worktree": ROOT / "src"}
        for mode in FOVEAL_MODES:
            config = scratch / f"foveal-{mode}.txt"
            config.write_text(f"percept.foveal_mode = {mode}\n",
                              encoding="utf-8")
            for seed in SEEDS:
                raw, shapes = {}, {}
                for side, src in sides.items():
                    path = scratch / f"{side}-{mode}-{seed}.bin"
                    shapes[side] = python(
                        src, env, "-c", CAPTURE, str(seed), str(config),
                        str(scratch / f"{side}-{mode}-{seed}"),
                        str(path))
                    raw[side] = path.read_bytes()
                case = {"seed": seed, "foveal_mode": mode,
                        "shapes": shapes["worktree"],
                        **compare(raw["worktree"], raw["rev"])}
                if shapes["worktree"] != shapes["rev"]:
                    case.update(bitwise_equal=False, rev_shapes=shapes["rev"])
                report["responses"].append(case)
                print(json.dumps(case), flush=True)
        for command in COMMANDS:
            trees = {side: scratch / f"{side}-{command}" for side in sides}
            for side, src in sides.items():
                python(src, env, "-c", RUN_CLI, command, "--seed", "1",
                       "--out", str(trees[side]))
            diff = subprocess.run(["diff", "-r", str(trees["rev"]),
                                   str(trees["worktree"])],
                                  capture_output=True, text=True)
            case = {"command": f"{command} --seed 1",
                    "diff_r_equal": diff.returncode == 0,
                    "diff": diff.stdout[:2000],
                    "config_hash": {side: config_hashes(tree)
                                    for side, tree in trees.items()}}
            report["trees"].append(case)
            print(json.dumps(case), flush=True)
        report["default_config_hash"] = {
            side: python(src, env, "-c", DEFAULT_HASH)
            for side, src in sides.items()}
    report["run_s"] = round(time.monotonic() - started, 1)
    same = all(c["bitwise_equal"] for c in report["responses"]) \
        and all(c["diff_r_equal"] for c in report["trees"])
    report["same"] = same
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n",
                              encoding="utf-8")
    print(f"{'same' if same else 'NOT the same'} numbers as {args.rev}; "
          f"report in {args.out}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
