"""Record the reference outputs that the benchmark's correctness gate
compares against, for every workload and the given seeds.

    python3 perfbench/record_reference.py 0-10 12345

Run from the repository root, at the commit whose outputs are to be
pinned.  Each output must first pass the reference-free checks; the
results are merged into perfbench/reference.json.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def parse_seeds(tokens) -> list:
    seeds = []
    for token in tokens:
        lo, _, hi = token.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv) -> int:
    seeds = parse_seeds(argv)
    if not seeds:
        print(__doc__, file=sys.stderr)
        return 2
    run.import_cinecho()
    import workloads as wl

    table = (json.loads(run.REFERENCE.read_text())
             if run.REFERENCE.is_file() else {})
    run.OUT.mkdir(exist_ok=True)
    for name in run.WORKLOAD_NAMES + run.EXTRA_WORKLOADS:
        for seed in seeds:
            state = wl.setup(name, seed)
            scratch = Path(tempfile.mkdtemp(prefix="ref-", dir=run.OUT))
            try:
                outputs = wl.run_body(state, scratch)
                attempted, failed = wl.check(state, outputs, None, scratch)
            finally:
                shutil.rmtree(scratch)
            if failed:
                print(f"{name} seed {seed}: {failed} of {attempted} "
                      "operations fail the reference-free checks",
                      file=sys.stderr)
                return 1
            table.setdefault(name, {})[str(seed)] = wl.fingerprint(state,
                                                                   outputs)
            print(f"{name} seed {seed}: recorded", flush=True)
    run.REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True)
                             + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
