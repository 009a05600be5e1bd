"""Smoke test: ``tools/fingerprint.py``, the script that compares two checkouts bit
for bit, runs on one workload and seed, exits 0, that workload's own check finds
nothing, and no line digests another workload."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_fingerprint_runs_and_its_check_passes():
    done = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "fingerprint.py"),
                           "--workloads", "small_oos", "--seeds", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    checks = [line for line in done.stdout.splitlines() if " check: " in line]
    assert checks == ["small_oos seed 0 check: []"], done.stdout
    others = [line for line in done.stdout.splitlines()
              if "grid_tune" in line or "grid_mc" in line]
    assert others == [], done.stdout
