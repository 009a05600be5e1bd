"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s``. Statistical criteria use
fixed seeds, so every run is deterministic.
"""

import time

import numpy as np

import wdrc

from helpers import (
    REF,
    ZERO_A,
    newton_sqrt,
    random_admissible,
    random_psd,
    random_system,
    admissible_lambda,
)


def _verdict(num, ok, detail):
    print("criterion %d: %s - %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def test_criterion_01_scalar_steady_state_certificate():
    start = time.time()
    P = wdrc.solve_are(REF["system"], REF["weights"], REF["lam"])
    params = wdrc.steady_state_policy_params(REF["system"], REF["weights"],
                                             REF["nominal"], REF["lam"], P)
    errs = (abs(P[0, 0] - 5.0 / 3.0),
            abs(params.K[0, 0] + 2.0 / 3.0),
            abs(params.S[0, 0] - 1.0))
    elapsed = time.time() - start
    ok = max(errs) < 1e-9 and elapsed < 1.0
    _verdict(1, ok, "P/K/S errors %.2e/%.2e/%.2e in %.2f s" % (*errs, elapsed))


def test_criterion_02_finite_to_steady_convergence():
    start = time.time()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 5))
        system, weights, nominal = random_system(rng, n)
        lam = admissible_lambda(system, weights)
        P_ss = wdrc.solve_are(system, weights, lam)
        P, *_ = wdrc.backward_pass(system, weights, nominal, lam, 1000)
        worst = max(worst, float(np.linalg.norm(P[0] - P_ss, "fro")))
    elapsed = time.time() - start
    ok = worst < 1e-6 and elapsed < 30.0
    _verdict(2, ok, "max |P_0(T=1000) - P_ss|_F = %.2e over 20 systems in %.1f s"
             % (worst, elapsed))


def test_criterion_03_worst_case_covariance_oracle():
    start = time.time()
    sys0, w0 = ZERO_A["system"], ZERO_A["weights"]
    P = wdrc.solve_are(sys0, w0, 2.0)
    res = wdrc.worst_case_cov_steady(sys0, np.zeros((1, 1)), P,
                                     np.array([[1.0]]), 2.0)
    # independent grid-search oracle on the eliminated objective
    grid = np.arange(0.0, 20.0 + 1e-12, 1e-4)
    oracle = grid[np.argmax(-grid + 4.0 * np.sqrt(grid))]
    x_prior, x_post = wdrc.solve_filter_are(sys0, res.sigma_star)
    errs = (abs(res.sigma_star[0, 0] - oracle),
            abs(x_prior[0, 0] - 4.0),
            abs(x_post[0, 0] - 0.8))
    elapsed = time.time() - start
    ok = errs[0] < 1e-4 and errs[1] < 1e-8 and errs[2] < 1e-8 and elapsed < 5.0
    _verdict(3, ok, "sigma*/X_prior/X_post errors %.2e/%.2e/%.2e in %.1f s"
             % (*errs, elapsed))


def test_criterion_04_gaussian_moment_distance_equality():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(100):
        a = (rng.standard_normal(4), random_psd(rng, 4) + 0.2 * np.eye(4))
        b = (rng.standard_normal(4), random_psd(rng, 4) + 0.2 * np.eye(4))
        d_eig = wdrc.gelbrich_distance(a, b)
        d_newton = wdrc.gelbrich_distance(a, b, sqrt_fn=newton_sqrt)
        worst = max(worst, abs(d_eig - d_newton))
    ok = worst < 1e-8
    _verdict(4, ok, "max |G_eig - G_newton| = %.2e over 100 Gaussian pairs" % worst)


def test_criterion_05_bellman_certificate():
    rng = np.random.default_rng(505)
    worst = 0.0
    min_gap = np.inf
    for _ in range(10):
        n = int(rng.integers(1, 4))
        system, weights, nominal, lam, bundle = random_admissible(rng, n)
        for _ in range(100):
            x = rng.standard_normal(n)
            worst = max(worst, wdrc.bellman_residual(bundle, nominal, x))
        x = rng.standard_normal(n) + 0.5
        gap = wdrc.bellman_suboptimality_gap(bundle, nominal, x, 0.1)
        min_gap = min(min_gap, gap)
    ok = worst < 1e-6 and min_gap > 0.0
    _verdict(5, ok, "max residual %.2e over 10 systems x 100 means; min detuned gap %.2e"
             % (worst, min_gap))


def test_criterion_06_penalized_average_cost_consistency():
    start = time.time()
    bundle = wdrc.design_wdrc(ZERO_A["system"], ZERO_A["weights"],
                              ZERO_A["nominal"], ZERO_A["lam"])
    value = wdrc.penalized_average_cost(bundle, 2000, 200, 606)
    rel = abs(value - bundle.steady.rho) / abs(bundle.steady.rho)
    elapsed = time.time() - start
    ok = rel < 0.05 and elapsed < 60.0
    _verdict(6, ok, "Monte Carlo %.4f vs analytic rho %.4f (rel %.3f) in %.1f s"
             % (value, bundle.steady.rho, rel, elapsed))


def test_criterion_07_guaranteed_cost_over_the_ball():
    start = time.time()
    theta = 0.1
    fails = 0
    checked = 0

    def run_case(system, weights, nominal, lam, bundle, horizon, tag, seed):
        nonlocal fails, checked
        bound = wdrc.guaranteed_bound(theta, lam, bundle.steady.rho).bound
        rng = np.random.default_rng(seed)
        worst_excess = -np.inf
        for k in range(50):
            adversary = wdrc.perturb_within_gelbrich_ball(nominal, theta, rng)
            s = wdrc.monte_carlo_summary(
                bundle, adversary, horizon, 6,
                np.random.SeedSequence(entropy=seed, spawn_key=(k,)))
            avg = s.mean_total_cost / horizon
            se = s.std_total_cost / horizon / np.sqrt(6)
            checked += 1
            if avg > bound + 3 * se:
                fails += 1
            worst_excess = max(worst_excess, avg - bound)
        return worst_excess

    b_scalar = wdrc.design_wdrc(ZERO_A["system"], ZERO_A["weights"],
                                ZERO_A["nominal"], ZERO_A["lam"])
    w1 = run_case(ZERO_A["system"], ZERO_A["weights"], ZERO_A["nominal"],
                  ZERO_A["lam"], b_scalar, 1500, "scalar", 71)
    rng = np.random.default_rng(72)
    system, weights, nominal, lam, b4 = random_admissible(rng, 4)
    w2 = run_case(system, weights, nominal, lam, b4, 1200, "4-state", 73)
    elapsed = time.time() - start
    ok = fails == 0 and elapsed < 120.0
    _verdict(7, ok, "0 bound violations expected, got %d/%d; worst excesses "
             "%.3f / %.3f; %.0f s" % (fails, checked, w1, w2, elapsed))


def test_criterion_08_stability_and_mean_state_limit():
    start = time.time()
    rng = np.random.default_rng(808)
    worst_radius = 0.0
    worst_limit_err = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        system, weights, nominal, lam, bundle = random_admissible(rng, n)
        rep = wdrc.stability_report(bundle)
        worst_radius = max(worst_radius, rep.rho_closed_loop, rep.rho_penalized_loop)
        rate = max(rep.rho_closed_loop, rep.rho_penalized_loop, rep.rho_filter_loop)
        horizon = min(6000, max(300, int(np.log(1e-10) / np.log(min(rate, 0.999)))))
        ms = wdrc.mean_state_trajectory(bundle, system.m0 + 1.0, horizon)
        worst_limit_err = max(worst_limit_err, ms.limit_error)
    # zero-mean nominal limit is exactly zero
    b0 = wdrc.design_wdrc(REF["system"], REF["weights"], REF["nominal"], REF["lam"])
    zero_limit = float(np.abs(wdrc.stability_report(b0).mean_state_limit).max())
    elapsed = time.time() - start
    ok = worst_radius < 1.0 and worst_limit_err < 1e-6 and zero_limit < 1e-12
    _verdict(8, ok, "max closed-loop radius %.4f; max mean-state limit error %.2e; "
             "zero-mean limit %.1e; %.0f s" % (worst_radius, worst_limit_err,
                                               zero_limit, elapsed))


def test_criterion_09_case_study_direction():
    start = time.time()
    system, weights = wdrc.synthetic_power_grid()
    grid = wdrc.default_lambda_grid(system, weights, points=16)
    theta = 1e-3
    scenarios = [
        ("gaussian", wdrc.Gaussian(np.zeros(20), 0.01 * np.eye(20))),
        ("uniform", wdrc.UniformBox(lo=-0.15 * np.ones(20), hi=0.15 * np.ones(20))),
    ]
    details = []
    ok = True
    for name, truth in scenarios:
        rng = np.random.default_rng(0)
        nominal = wdrc.empirical_moments(truth.sample(rng, 5), jitter=1e-8)
        _, robust, _ = wdrc.tune_wdrc(system, weights, nominal, theta, grid=grid)
        lam = robust.steady.lam
        baseline = wdrc.design_lqg(system, weights, nominal)
        s_rob = wdrc.monte_carlo_summary(robust, truth, 100, 100, base_seed=0)
        s_lqg = wdrc.monte_carlo_summary(baseline, truth, 100, 100, base_seed=0)
        details.append("%s: lam*=%.3g WDRC %.3f vs LQG %.3f"
                       % (name, lam, s_rob.mean_total_cost, s_lqg.mean_total_cost))
        ok = ok and s_rob.mean_total_cost < s_lqg.mean_total_cost
    elapsed = time.time() - start
    ok = ok and elapsed < 300.0
    _verdict(9, ok, "; ".join(details) + "; %.0f s" % elapsed)


def test_criterion_10_large_penalty_reaches_the_baseline_gain():
    rng = np.random.default_rng(1010)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 5))
        system, weights, nominal = random_system(rng, n)
        robust = wdrc.design_wdrc(system, weights, nominal, 1e9)
        baseline = wdrc.design_lqg(system, weights, nominal)
        worst = max(worst, float(np.abs(robust.steady.K - baseline.lqg.K).max()))
    ok = worst < 1e-6
    _verdict(10, ok, "max elementwise gain gap %.2e over 20 systems" % worst)


def test_criterion_11_out_of_sample_guarantee():
    start = time.time()
    A = np.array([[0.85, 0.2], [0.0, 0.7]])
    system = wdrc.LinearSystem(A=A, B=np.eye(2), C=np.eye(2), M=0.2 * np.eye(2),
                               m0=np.zeros(2), M0=0.05 * np.eye(2))
    weights = wdrc.CostWeights(Q=np.eye(2), Qf=np.eye(2), R=np.eye(2))
    truth = wdrc.Gaussian(mean=[0.05, -0.02], cov=[[0.3, 0.1], [0.1, 0.2]])
    beta = 0.05
    n_train = 20
    theta = wdrc.radius_from_samples(n_train, 2, beta)  # c1 = c2 = 1 defaults
    rows = wdrc.out_of_sample_curve(system, weights, truth, [n_train], [theta],
                                    runs=4, base_seed=1107, dataset_draws=200,
                                    horizon=400,
                                    lambda_grid=np.geomspace(4.0, 1e4, 8))
    row = rows[0]
    limit = beta + 3.0 * np.sqrt(beta * (1.0 - beta) / 200.0)
    elapsed = time.time() - start
    ok = (row["failures"] == 0 and row["violation_fraction"] <= limit
          and elapsed < 300.0)
    _verdict(11, ok, "violation fraction %.3f <= %.3f (radius %.3f) over 200 "
             "dataset draws in %.0f s" % (row["violation_fraction"], limit,
                                          theta, elapsed))
