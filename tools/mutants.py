"""Mutation gate: every mutant listed in tools/mutants.txt must turn its
test file red.

For each mutant the repository is copied to a temporary directory, the
one text replacement is made in the copy and only the mutant's test file
is run there (pytest -x, with the copy's src/ first on the import path).
A mutant is caught when pytest reports a failed test.  The exit status is
1 if any mutant survives, cannot be applied (its old text does not occur
exactly once) or makes pytest stop for another reason, else 0.

    python3 tools/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KEYS = ("file", "old", "new", "test")
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                              ".hypothesis", ".perfbench_out", "output")


def read_mutants(path):
    """The entries of the list: blocks of 'key: value' lines."""
    mutants = []
    for block in path.read_text(encoding="utf-8").split("\n\n"):
        lines = [line for line in block.splitlines()
                 if line.strip() and not line.startswith("#")]
        if lines:
            entry = {key.strip(): value.strip() for key, _, value in
                     (line.partition(":") for line in lines)}
            if sorted(entry) != sorted(KEYS):
                sys.exit(f"{path}: entry {lines} needs the keys {KEYS}")
            mutants.append(entry)
    return mutants


def run(mutant, workdir):
    """Apply mutant to a fresh copy of the repository and run its test
    file; returns the verdict."""
    copy = Path(workdir) / "repo"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(ROOT, copy, ignore=SKIP)
    target = copy / mutant["file"]
    text = target.read_text(encoding="utf-8")
    count = text.count(mutant["old"])
    if count != 1:
        return f"NOT APPLIED: old text occurs {count} times"
    target.write_text(text.replace(mutant["old"], mutant["new"]),
                      encoding="utf-8")
    paths = [str(copy / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths)),
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", "import cinecho; print(cinecho.__file__)"],
        cwd=copy, env=env, capture_output=True, text=True)
    if not proc.stdout.startswith(str(copy)):
        return f"NOT APPLIED: cinecho imports from {proc.stdout.strip()!r}"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         mutant["test"]], cwd=copy, env=env, capture_output=True, text=True)
    return {0: "SURVIVED", 1: "caught"}.get(
        proc.returncode, f"ERROR: pytest exited {proc.returncode}")


def main():
    mutants = read_mutants(ROOT / "tools" / "mutants.txt")
    failed = 0
    with tempfile.TemporaryDirectory() as workdir:
        for n, mutant in enumerate(mutants, start=1):
            verdict = run(mutant, workdir)
            failed += verdict != "caught"
            print(f"{n:2d} {verdict:8s} {mutant['file']}: {mutant['old']!r} "
                  f"-> {mutant['new']!r} ({mutant['test']})", flush=True)
    print(f"{len(mutants) - failed} of {len(mutants)} mutants caught")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
