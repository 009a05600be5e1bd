"""Smoke test: every benchmark workload sets up, runs one task and passes its
own checks at the tiny size, in a fresh interpreter with BLAS pinned to one
thread as in ``bench/run.py``. It only imports the benchmark's files."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json, sys
sys.path[:0] = [%r, %r]
from workloads import WORKLOADS
problems = {}
for name, workload in WORKLOADS.items():
    state = workload.setup(0, tiny=True)
    problems[name] = workload.check(state, workload.task(state))
print(json.dumps(problems))
""" % (os.path.join(ROOT, "src"), os.path.join(ROOT, "bench"))


def test_workloads_run_and_pass_their_checks():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    problems = json.loads(done.stdout.strip().splitlines()[-1])
    assert problems and all(found == [] for found in problems.values()), problems
