"""Print each benchmark workload's outputs, for bit-for-bit comparison of two checkouts.

    python3 tools/fingerprint.py [--seeds 0 1] [--workloads grid_tune small_oos]
                                 [--repo PATH]

For every workload and seed it runs the workload's ``setup`` and one ``task``
from ``bench/workloads.py`` and prints the fingerprint (floats as ``repr``,
strings as their SHA-256), the ``check`` result, and for ``grid_tune`` each
grid row's penalty, status and rho. ``--repo`` names the checkout whose
``src/`` and ``bench/`` are imported (default: the one holding this script),
so the same script can print an older commit's outputs; run it once per
checkout and diff the two outputs. BLAS is pinned to one thread, as in
``bench/run.py``, because the reference values hold only with the pin.
Nothing is written.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import sys

DEFAULT_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _show(value):
    if isinstance(value, str):
        return "sha256:" + hashlib.sha256(value.encode()).hexdigest()
    return repr(value)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    parser.add_argument("--workloads", nargs="+", default=None,
                        help="workload names (default: all)")
    parser.add_argument("--repo", default=DEFAULT_REPO,
                        help="checkout to import src/ and bench/ from")
    args = parser.parse_args(argv)

    repo = os.path.abspath(args.repo)
    sys.path[:0] = [os.path.join(repo, "src"), os.path.join(repo, "bench")]
    from workloads import WORKLOADS

    for name in args.workloads or list(WORKLOADS):
        workload = WORKLOADS[name]
        for seed in args.seeds:
            state = workload.setup(seed, False)
            out = workload.task(state)
            marks = ", ".join(_show(v) for v in workload.fingerprint(out))
            print("%s seed %d fingerprint: %s" % (name, seed, marks))
            print("%s seed %d check: %r" % (name, seed, workload.check(state, out)))
            for row in out.get("rows", []):
                print("%s seed %d row: %r %s %r" % (name, seed, row["lam"], row["status"],
                                                    row["rho"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
