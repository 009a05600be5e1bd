"""Smoke test: the demos that call the stability and mean-state diagnostics
run to completion against the package in ``src/``."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script", ["01_scalar_design.py", "02_grid_comparison.py",
                                    "04_stability_and_mean_state.py"])
def test_demo_exits_zero(script):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, os.path.join(ROOT, "demos", script)], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
