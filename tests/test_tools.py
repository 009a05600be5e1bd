"""Smoke test: ``tools/fingerprint.py``, the script that compares two checkouts bit
for bit, runs on one workload and seed, exits 0, that workload's own check finds
nothing, and no line digests another workload. A check that reports a problem makes
it exit 1 and count the failure on its last line."""

import importlib.util
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


def test_fingerprint_exits_1_when_a_check_reports_a_problem(monkeypatch, capsys):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # the script pins these on import; restore them after
    monkeypatch.setattr(sys, "path", list(sys.path))  # main() prepends the checkout's paths
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    import workloads

    spec = importlib.util.spec_from_file_location("fingerprint",
                                                  os.path.join(ROOT, "tools", "fingerprint.py"))
    fingerprint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fingerprint)
    monkeypatch.setattr(workloads.WORKLOADS["small_oos"], "check", lambda s, out: ["patched"])
    assert fingerprint.main(["--workloads", "small_oos", "--seeds", "0"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "small_oos seed 0 check: ['patched']" in lines
    assert lines[-1] == "checks failed: 1 of 1"
