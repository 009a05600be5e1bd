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

Per seed it also prints one SHA-256 over every design that the public
``evaluate_lambda_grid`` makes on ``small_oos``'s grid for each of that
workload's training nominals (the ones ``out_of_sample_curve`` draws for its
cell) and on ``grid_tune``'s grid for its nominal: every array and number of
an ok row's ``steady`` solution and its estimator gain, and a rejected row's
status. A single design that drifts changes it, where a cell mean may not.
Two more SHA-256 per seed cover the Riccati layer's public closed forms:
``steady_state_policy_params`` at ``solve_are``'s P on the scalar plant
A = B = C = 1 (nominal mean 0.3, covariance 2, penalties 4, 10 and 1e3) and on
``grid_tune``'s plant and nominal at each grid penalty (a rejected solve adds
its message), and ``finite_horizon_recursion`` over 30 stages on that scalar
plant at penalty 10 and on ``small_oos``'s plant and first training nominal at
penalty 40.
One more SHA-256 per seed covers ``worst_case_cov_steady`` on the 16 (S, P, lam)
triples of ``grid_tune``'s grid and on ``small_oos``'s first training nominal at
each of its 8 grid penalties (S and P from ``solve_are`` and
``steady_state_policy_params``): every field of each result, ``iterations`` and
``kkt_residual`` included, so the ascent's path is compared and not only its end
point; a rejected case adds its message.
One more SHA-256 per workload and seed covers the per-run arrays (total,
average and penalized average cost of every run) that ``sim._run_costs``
returns in one task of ``grid_mc`` (its three Monte Carlo calls) and of
``small_oos`` (its cell), so a change in how runs are stepped together is
compared run by run, not only through the means.
``--workloads`` restricts all of the above to the workloads it names: their
fingerprint, check and row lines and their ``designs`` and ``runs`` digests. The
Riccati and ``worst_case_cov_steady`` digests mix inputs of several workloads, so
they run only when every workload is named.

It then runs, whatever ``--workloads`` names, the ``wdrc`` CLI's six modes,
``simulate`` once more with ``method: LQG``, ``sweep-theta`` once more with one
dataset draw and ``tune`` once more on the default grid, on one fixed 2-state
config in a temporary directory, and prints each artifact's name in the order
the CLI printed it with the SHA-256 of its bytes (``summary.csv`` without its
wall-time column).
Nothing is written outside that directory.

The last line counts the workload checks that reported a problem; the script
exits 1 if any did, so a seed sweep such as ``--workloads grid_tune --seeds
$(seq 0 31)`` fails on a single failing certificate.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile

DEFAULT_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


_EYE = [[1.0, 0.0], [0.0, 1.0]]
# the out-of-sample plant of acceptance criterion 11, sized to run in seconds
CLI_CONFIG = {
    "system": {"A": [[0.85, 0.2], [0.0, 0.7]], "B": _EYE, "C": _EYE,
               "M": [[0.2, 0.0], [0.0, 0.2]], "m0": [0.0, 0.0],
               "M0": [[0.05, 0.0], [0.0, 0.05]]},
    "weights": {"Q": _EYE, "Qf": _EYE, "R": _EYE},
    "truth": {"type": "gaussian", "mean": [0.05, -0.02], "cov": [[0.3, 0.1], [0.1, 0.2]]},
    "nominal": {"sample_count": 20},
    "theta": 0.1, "thetas": [0.1], "sample_sizes": [20],
    "lambda_grid": [4.0, 40.0, 400.0, 4000.0],
    "runs": 4, "horizon": 30, "seed": 0, "traces": 2,
}
CLI_RUNS = [(mode, {}) for mode in ("design", "simulate", "compare", "sweep-theta",
                                    "sweep-lambda", "tune")]
CLI_RUNS += [("simulate", {"method": "LQG"}), ("sweep-theta", {"dataset_draws": 1}),
             ("tune", {"lambda_grid": None})]  # a one-draw cell; the default grid


def _artifact_sha256(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path) == "summary.csv":  # drop the wall-time column
        data = b"".join(line.rsplit(b",", 1)[0] + b"\n" for line in data.splitlines())
    return hashlib.sha256(data).hexdigest()


def _cli_artifacts():
    from wdrc.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        for idx, (mode, updates) in enumerate(CLI_RUNS):
            label = " ".join([mode] + ["%s=%s" % kv for kv in updates.items()])
            out_dir = os.path.join(tmp, "out_%d" % idx)
            path = os.path.join(tmp, "config_%d.json" % idx)
            with open(path, "w") as fh:
                json.dump(dict(CLI_CONFIG, out_dir=out_dir, **updates), fh)
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                code = cli_main([mode, "--config", path])
            print("cli %s exit: %d" % (label, code))
            for written in printed.getvalue().splitlines():
                print("cli %s %s sha256:%s" % (label, os.path.relpath(written, out_dir),
                                               _artifact_sha256(written)))


def _oos_nominals(oos, seed):
    """out_of_sample_curve's training nominals for small_oos's one cell."""
    import numpy as np
    import wdrc

    for d in range(oos["draws"]):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0, 0, d, 0)))
        samples = np.atleast_2d(oos["truth"].sample(rng, 20))
        yield wdrc.empirical_moments(samples, jitter=1e-8)


def _design_digests(workloads, names, seed):
    """(label, row count, ok count, SHA-256) of the per-design digest of each workload
    among ``names`` that has one (small_oos, grid_tune)."""
    import numpy as np
    import wdrc

    cases = []
    if "small_oos" in names:
        oos = workloads["small_oos"].setup(seed, False)
        cases.append(("small_oos", oos["system"], oos["weights"], list(_oos_nominals(oos, seed)),
                      oos["theta"], oos["grid"]))
    if "grid_tune" in names:
        tune = workloads["grid_tune"]
        grid = tune.setup(seed, False)
        cases.append(("grid_tune", grid["system"], grid["weights"], [grid["nominal"]],
                      tune.theta, grid["grid"]))
    for label, system, weights, nominal_list, theta, lams in cases:
        digest, count, ok = hashlib.sha256(), 0, 0
        for nominal in nominal_list:
            for row in wdrc.evaluate_lambda_grid(system, weights, nominal, theta, lams):
                count += 1
                if row["bundle"] is None:
                    digest.update(row["status"].encode())
                    continue
                ok += 1
                steady = row["bundle"].steady
                values = [getattr(steady, f.name) for f in dataclasses.fields(steady)]
                for value in values + [row["bundle"].estimator_gain]:
                    digest.update(repr(value).encode() if value is None
                                  else np.ascontiguousarray(value, dtype=float).tobytes())
        yield label, count, ok, digest.hexdigest()


def _digest_arrays(digest, values):
    import numpy as np

    for value in values:
        digest.update(np.ascontiguousarray(value, dtype=float).tobytes())


def _riccati_digests(workloads, seed):
    """(label, case count, SHA-256) of steady_state_policy_params and of
    finite_horizon_recursion on their fixed cases."""
    import wdrc

    scalar = (wdrc.LinearSystem(A=[[1.0]], B=[[1.0]], C=[[1.0]], M=[[1.0]], m0=[0.0],
                                M0=[[1.0]]),
              wdrc.CostWeights(Q=[[1.0]], Qf=[[1.0]], R=[[1.0]]),
              wdrc.NominalMoments(w_hat=[0.3], sigma_hat=[[2.0]]))
    grid = workloads["grid_tune"].setup(seed, False)
    steady = [scalar + (lam,) for lam in (4.0, 10.0, 1e3)]
    steady += [(grid["system"], grid["weights"], grid["nominal"], lam) for lam in grid["grid"]]
    digest = hashlib.sha256()
    for system, weights, nominal, lam in steady:
        try:
            P = wdrc.solve_are(system, weights, lam)
        except (wdrc.AssumptionViolated, wdrc.NoConvergence) as exc:
            digest.update(str(exc).encode())
            continue
        _digest_arrays(digest, wdrc.steady_state_policy_params(system, weights, nominal, lam, P))
    yield "steady_state_policy_params", len(steady), digest.hexdigest()

    oos = workloads["small_oos"].setup(seed, False)
    finite = [scalar + (10.0,),
              (oos["system"], oos["weights"], next(_oos_nominals(oos, seed)), 40.0)]
    digest = hashlib.sha256()
    for system, weights, nominal, lam in finite:
        sol = wdrc.finite_horizon_recursion(system, weights, nominal, lam, 30)
        _digest_arrays(digest, [getattr(sol, f.name) for f in dataclasses.fields(sol)])
    yield "finite_horizon_recursion", len(finite), digest.hexdigest()


def _wc_digest(workloads, seed):
    """(case count, solved count, SHA-256) of worst_case_cov_steady over every field of
    its result (iterations and kkt_residual included), or its exception's message."""
    import numpy as np
    import wdrc

    grid = workloads["grid_tune"].setup(seed, False)
    oos = workloads["small_oos"].setup(seed, False)
    first = next(_oos_nominals(oos, seed))
    cases = [(grid["system"], grid["weights"], grid["nominal"], lam) for lam in grid["grid"]]
    cases += [(oos["system"], oos["weights"], first, lam) for lam in oos["grid"]]
    digest, solved = hashlib.sha256(), 0
    for system, weights, nominal, lam in cases:
        try:
            P = wdrc.solve_are(system, weights, lam)
            S = wdrc.steady_state_policy_params(system, weights, nominal, lam, P).S
            result = wdrc.worst_case_cov_steady(system, S, P, nominal.sigma_hat, lam)
        except (wdrc.AssumptionViolated, wdrc.NoConvergence) as exc:
            digest.update(str(exc).encode())
            continue
        solved += 1
        for field in dataclasses.fields(result):
            value = getattr(result, field.name)
            digest.update(repr(value).encode() if isinstance(value, int)
                          else np.ascontiguousarray(value, dtype=float).tobytes())
    return len(cases), solved, digest.hexdigest()


def _run_cost_digests(workloads, names, seed):
    """(label, call count, run count, SHA-256) of the per-run arrays that
    ``sim._run_costs`` returns in one task of each of grid_mc and small_oos
    among ``names``."""
    import wdrc.sim

    run_costs = wdrc.sim._run_costs
    for label in [name for name in ("grid_mc", "small_oos") if name in names]:
        workload, calls = workloads[label], []

        def recording(*args, **kwargs):
            calls.append(run_costs(*args, **kwargs))
            return calls[-1]

        state = workload.setup(seed, False)
        wdrc.sim._run_costs = recording
        try:
            workload.task(state)
        finally:
            wdrc.sim._run_costs = run_costs
        digest = hashlib.sha256()
        _digest_arrays(digest, [array for out in calls for array in out if array is not None])
        yield label, len(calls), sum(out[0].size for out in calls), digest.hexdigest()


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

    names, failed = args.workloads or list(WORKLOADS), 0
    for name in names:
        workload = WORKLOADS[name]
        for seed in args.seeds:
            state = workload.setup(seed, False)
            out = workload.task(state)
            marks = ", ".join(_show(v) for v in workload.fingerprint(out))
            print("%s seed %d fingerprint: %s" % (name, seed, marks))
            problems = workload.check(state, out)
            failed += bool(problems)
            print("%s seed %d check: %r" % (name, seed, problems))
            for row in out.get("rows", []):
                print("%s seed %d row: %r %s %r" % (name, seed, row["lam"], row["status"],
                                                    row["rho"]))
    for seed in args.seeds:
        for label, count, ok, digest in _design_digests(WORKLOADS, names, seed):
            print("designs %s seed %d: %d rows, %d ok, sha256:%s" % (label, seed, count, ok,
                                                                   digest))
        if set(WORKLOADS) <= set(names):  # these digests mix the workloads' inputs
            for label, count, digest in _riccati_digests(WORKLOADS, seed):
                print("riccati %s seed %d: %d cases, sha256:%s" % (label, seed, count, digest))
            print("ambiguity worst_case_cov_steady seed %d: %d cases, %d solved, sha256:%s"
                  % ((seed,) + _wc_digest(WORKLOADS, seed)))
        for label, calls, runs, digest in _run_cost_digests(WORKLOADS, names, seed):
            print("runs %s seed %d: %d calls, %d runs, sha256:%s" % (label, seed, calls, runs,
                                                                     digest))
    _cli_artifacts()
    print("checks failed: %d of %d" % (failed, len(names) * len(args.seeds)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
