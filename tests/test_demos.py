"""Run the narrative demos end to end: each asserts what it claims."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# demo 05 runs a full sweep and writes demos/output/, so it is left out
DEMOS = ["01_sensitivity_surface.py", "02_perceived_stack.py",
         "03_observer_training.py", "04_virtual_trial.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
