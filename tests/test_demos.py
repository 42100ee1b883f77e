"""Run the narrative demos and the README's Python example end to end:
each asserts or prints what it claims, and must exit cleanly."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DEMOS = ["01_sensitivity_surface.py", "02_perceived_stack.py",
         "03_observer_training.py", "04_virtual_trial.py",
         "05_browsing_speed_sweep.py"]


def run_python(*args):
    """Run the interpreter on args from the repository root with src/ on
    the path, a RuntimeWarning raised as an error as under pytest; assert
    it exits 0."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *args], cwd=ROOT,
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    run_python(str(ROOT / "demos" / demo))


def test_readme_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    assert len(blocks) == 1
    run_python("-c", blocks[0])
