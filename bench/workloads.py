"""The three benchmark workloads: set-up, one task, and the task's output checks.

Each workload builds its inputs from the seed alone, runs one task through the
public ``wdrc`` API, and checks the task's own certificates. On the default
seed the outputs are also compared with the reference values below, which
were recorded from the seed code with BLAS pinned to one thread.
"""

import json
import math

import numpy as np

import wdrc
from wdrc import serialize

from tracing import capture_returns

DEFAULT_SEED = 0
REL_TOL = 1e-6

# np.geomspace(29.403874434189913, 1e6, 16), the seed code's
# default_lambda_grid(points=16) on the grid plant, stored as literals so a
# change to the grid heuristic cannot change the traffic.
GRID_LAMBDAS = (
    29.403874434189913, 58.953680328570485, 118.19994783551499,
    236.98652213825636, 475.1492086387483, 952.6565833069525,
    1910.041202253337, 3829.561941031461, 7678.130002062385,
    15394.36657151753, 30865.13540075521, 61883.45450143731,
    124074.03665359456, 248763.8528834873, 498762.32103426504, 1000000.0,
)


def _close(value, reference, tol=REL_TOL):
    return abs(value - reference) <= tol * max(abs(reference), 1e-300)


def _grid_plant(seed):
    """20-state grid plant and the nominal of five N(0, 0.01 I) draws."""
    system, weights = wdrc.synthetic_power_grid()
    truth = wdrc.Gaussian(np.zeros(system.n_x), 0.01 * np.eye(system.n_x))
    samples = truth.sample(np.random.default_rng(seed), 5)
    nominal = wdrc.empirical_moments(samples, jitter=1e-8)
    return system, weights, truth, nominal


class GridTune:
    name = "grid_tune"
    why = ("offline design at n=20 dominated by rejections: bound by the Riccati "
           "layer and its fail-slow solves, sim does nothing")
    expected_spans = {
        "design.tune_lambda", "design.evaluate_lambda_grid", "design.design_wdrc",
        "design.design_lqg", "riccati.solve_are", "riccati.steady_state_policy_params",
        "ambiguity.worst_case_cov_steady", "ambiguity.filter_fixpoint", "linalg.dlyap",
        "ambiguity.solve_filter_are", "serialize.dumps_json",
    }
    theta = 1e-3
    # rho per grid penalty on the default seed; None where the point is rejected.
    reference_rho = {
        29.403874434189913: None, 58.953680328570485: None,
        118.19994783551499: None, 236.98652213825636: None,
        475.1492086387483: 7.2661044360063585, 952.6565833069525: 5.589564709277454,
        1910.041202253337: 5.0891807948739824, 3829.561941031461: 4.8821655506931165,
        7678.130002062385: 4.787191607567138, 15394.36657151753: 4.741666040897599,
        30865.13540075521: None, 61883.45450143731: 4.708395545669191,
        124074.03665359456: 4.702922658278112, 248763.8528834873: 4.70020422579546,
        498762.32103426504: 4.698874076333595, 1000000.0: 4.6982240906509105,
    }

    def setup(self, seed, tiny):
        system, weights, _, nominal = _grid_plant(seed)
        grid = GRID_LAMBDAS[9:12] if tiny else GRID_LAMBDAS
        return dict(seed=seed, system=system, weights=weights, nominal=nominal,
                    grid=np.array(grid))

    def task(self, s):
        system, weights, nominal = s["system"], s["weights"], s["nominal"]
        rows = []
        with capture_returns("wdrc.design", "evaluate_lambda_grid", rows.extend):
            lam, report = wdrc.tune_lambda(system, weights, nominal, self.theta, grid=s["grid"])
        bundle = wdrc.design_wdrc(system, weights, nominal, lam, theta=self.theta)
        lqg = wdrc.design_lqg(system, weights, nominal)
        text = serialize.dumps_json({
            "tune": serialize.bound_to_dict(report),
            "wdrc": serialize.bundle_to_dict(bundle),
            "lqg": serialize.bundle_to_dict(lqg),
        })
        return dict(lam=lam, bound=report.bound, rho=bundle.steady.rho,
                    bundle=bundle, json=text, rows=rows)

    def fingerprint(self, out):
        return (out["lam"], out["bound"], out["rho"], out["json"])

    def perturb(self, out):
        return dict(out, bound=out["bound"] * (1.0 + 1e-3))

    def check(self, s, out):
        problems = []
        rows = out["rows"]
        if not rows:  # tune_lambda no longer goes through evaluate_lambda_grid
            rows = wdrc.evaluate_lambda_grid(s["system"], s["weights"], s["nominal"],
                                             self.theta, s["grid"])
        ok = [r for r in rows if r["status"] == "ok"]
        best = None
        for r in sorted(ok, key=lambda r: r["lam"]):
            if best is None or r["bound"] < best["bound"]:
                best = r
        if best is None or out["lam"] != best["lam"] or not _close(out["bound"], best["bound"], 1e-12):
            problems.append("lambda* is not the bound-minimizing ok row")
        bound = self.theta ** 2 * out["lam"] + out["rho"]
        if not _close(out["bound"], bound, 1e-12):
            problems.append("bound %r != theta^2 lam* + rho = %r" % (out["bound"], bound))
        tol = 1e-6 * (1.0 + abs(out["rho"]))
        means = np.random.default_rng([s["seed"], 1]).standard_normal((3, s["system"].n_x))
        for x_bar in means:
            res = wdrc.bellman_residual(out["bundle"], s["nominal"], x_bar)
            if not res <= tol:
                problems.append("Bellman residual %.3e above %.3e" % (res, tol))
        doc = json.loads(out["json"])
        if doc["tune"]["bound"] != out["bound"]:
            problems.append("serialized bound does not round-trip")
        if s["seed"] == DEFAULT_SEED:
            for r in ok:
                ref = self.reference_rho.get(r["lam"])
                if ref is not None and not _close(r["rho"], ref):
                    problems.append("rho at lam=%g is %r, reference %r" % (r["lam"], r["rho"], ref))
        return problems


class GridMc:
    name = "grid_mc"
    why = ("online closed loop at n=20, 100 runs wide: sim, estimator and sampling "
           "do all the work, so batching across runs shows; Riccati is idle")
    expected_spans = {
        "sim.monte_carlo_summary", "sim.run_closed_loop", "sim.penalized_average_cost",
        "estimator.filter_step", "model.sample",
    }
    lam = 5e4
    reference = dict(wdrc=566.3159000751072, lqg=545.2716098239072, penalized=4.786257669684365)

    def setup(self, seed, tiny):
        system, weights, truth, nominal = _grid_plant(seed)
        bundle = wdrc.design_wdrc(system, weights, nominal, self.lam, theta=1e-3)
        lqg = wdrc.design_lqg(system, weights, nominal)
        runs, horizon = (3, 10) if tiny else (100, 100)
        return dict(seed=seed, bundle=bundle, lqg=lqg, truth=truth, runs=runs,
                    horizon=horizon, tiny=tiny)

    def task(self, s):
        base = 10 * s["seed"]
        robust = wdrc.monte_carlo_summary(s["bundle"], s["truth"], s["horizon"], s["runs"], base + 1)
        lqg = wdrc.monte_carlo_summary(s["lqg"], s["truth"], s["horizon"], s["runs"], base + 2)
        penalized = wdrc.penalized_average_cost(s["bundle"], s["horizon"], s["runs"], base + 3)
        return dict(wdrc=robust.mean_total_cost, lqg=lqg.mean_total_cost, penalized=penalized,
                    runs=(robust.runs, lqg.runs))

    def fingerprint(self, out):
        return (out["wdrc"], out["lqg"], out["penalized"])

    def perturb(self, out):
        return dict(out, wdrc=float("nan"))

    def check(self, s, out):
        problems = []
        if out["runs"] != (s["runs"], s["runs"]):
            problems.append("summaries report %r runs, asked for %d" % (out["runs"], s["runs"]))
        for key in ("wdrc", "lqg", "penalized"):
            if not math.isfinite(out[key]):
                problems.append("%s mean is not finite" % key)
            elif key != "penalized" and out[key] <= 0.0:
                problems.append("%s mean cost %r is not positive" % (key, out[key]))
        if s["seed"] == DEFAULT_SEED and not s["tiny"]:
            for key, ref in self.reference.items():
                if not _close(out[key], ref):
                    problems.append("%s mean %r, reference %r" % (key, out[key], ref))
        return problems


class SmallOos:
    name = "small_oos"
    why = ("many n=2 designs and narrow 4-run simulations: call overhead beats flops, "
           "so a kernel or batching scheme that wins at n=20 can lose here")
    expected_spans = {
        "design.tune_lambda", "design.evaluate_lambda_grid", "design.design_wdrc",
        "riccati.solve_are", "riccati.steady_state_policy_params",
        "ambiguity.worst_case_cov_steady", "ambiguity.filter_fixpoint", "linalg.dlyap",
        "ambiguity.solve_filter_are", "estimator.filter_step", "sim.out_of_sample_curve",
        "sim.monte_carlo_summary", "sim.run_closed_loop", "model.sample",
    }
    draws = 40
    beta = 0.05
    reference = dict(mean_cost=0.9653028586549611, mean_bound=1.9382986167160923)

    def setup(self, seed, tiny):
        A = np.array([[0.85, 0.2], [0.0, 0.7]])
        system = wdrc.LinearSystem(A=A, B=np.eye(2), C=np.eye(2), M=0.2 * np.eye(2),
                                   m0=np.zeros(2), M0=0.05 * np.eye(2))
        weights = wdrc.CostWeights(Q=np.eye(2), Qf=np.eye(2), R=np.eye(2))
        truth = wdrc.Gaussian(mean=[0.05, -0.02], cov=[[0.3, 0.1], [0.1, 0.2]])
        draws, runs, horizon = (2, 1, 20) if tiny else (self.draws, 4, 400)
        return dict(seed=seed, system=system, weights=weights, truth=truth,
                    theta=wdrc.radius_from_samples(20, 2, self.beta),
                    grid=np.geomspace(4.0, 1e4, 8), draws=draws, runs=runs,
                    horizon=horizon, tiny=tiny)

    def task(self, s):
        rows = wdrc.out_of_sample_curve(
            s["system"], s["weights"], s["truth"], [20], [s["theta"]], runs=s["runs"],
            base_seed=s["seed"], dataset_draws=s["draws"], horizon=s["horizon"],
            lambda_grid=s["grid"])
        return dict(rows[0])

    def fingerprint(self, out):
        return (out["mean_cost"], out["mean_bound"], out["violation_fraction"], out["failures"])

    def perturb(self, out):
        return dict(out, failures=out["failures"] + 1)

    def check(self, s, out):
        problems = []
        if out["failures"] != 0:
            problems.append("%d of %d dataset draws failed" % (out["failures"], out["draws"]))
        limit = self.beta + 3.0 * math.sqrt(self.beta * (1.0 - self.beta) / s["draws"])
        if not (out["violation_fraction"] is not None and out["violation_fraction"] <= limit):
            problems.append("violation fraction %r above %.4f" % (out["violation_fraction"], limit))
        if s["seed"] == DEFAULT_SEED and not s["tiny"]:
            for key, ref in self.reference.items():
                if not _close(out[key], ref):
                    problems.append("%s %r, reference %r" % (key, out[key], ref))
        return problems


WORKLOADS = {w.name: w for w in (GridTune(), GridMc(), SmallOos())}
