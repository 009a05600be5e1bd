import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import wdrc
from wdrc import (
    Gaussian,
    design_lqg,
    design_wdrc,
    mean_state_trajectory,
    monte_carlo_summary,
    out_of_sample_curve,
    penalized_average_cost,
    run_closed_loop,
    stability_report,
)
from wdrc.ambiguity import bures_squared
from wdrc.exceptions import NoAdmissibleLambda

from helpers import (
    REF,
    ZERO_A,
    assert_same_design,
    exact_total_cost,
    penalized_average_cost_loop,
    random_admissible,
    scalar_nominal,
    scalar_system,
    scalar_weights,
)


def _zero(n):
    return Gaussian(mean=np.zeros(n), cov=np.zeros((n, n)))


def _ref_bundle():
    return design_wdrc(REF["system"], REF["weights"], REF["nominal"], REF["lam"])


def _radius(matrix):
    return float(np.abs(np.linalg.eigvals(matrix)).max())


def _closed_form_limit(bundle):
    """Mean-state limit in P and Phi: (I - (I + Phi P)^-1 A)^-1 times
    (I - Phi (I + P Phi - A')^-1 P) w_hat."""
    A, st = bundle.system.A, bundle.steady
    eye = np.eye(bundle.system.n_x)
    lhs = eye - np.linalg.solve(eye + st.Phi @ st.P, A)
    rhs = (eye - st.Phi @ np.linalg.solve(eye + st.P @ st.Phi - A.T, st.P)) @ bundle.nominal.w_hat
    return np.linalg.solve(lhs, rhs)


class TestRunClosedLoop:
    def test_zero_weights_zero_cost(self):
        weights = wdrc.CostWeights(Q=[[0.0]], Qf=[[0.0]], R=[[1e-12]])
        b = design_lqg(scalar_system(a=0.5), weights, scalar_nominal())
        trace = run_closed_loop(b, Gaussian([0.3], [[0.2]]), 50, 0)
        assert trace.total_cost < 1e-12

    @pytest.mark.parametrize("method", ["WDRC", "LQG"])
    def test_noise_free_trace_matches_mean_recursion(self, method):
        # zero truth, zero measurement noise, deterministic x0: the trace must
        # reproduce the deterministic closed-loop recursion exactly (plant
        # driven by nothing, filter still predicting with the method's mean:
        # the adversarial H x_hat + G, or LQG's nonzero nominal w_hat)
        if method == "WDRC":
            b = _ref_bundle()
            K, L, H, G = b.steady.K, b.steady.L, b.steady.H, b.steady.G
        else:
            b = design_lqg(REF["system"], REF["weights"], scalar_nominal(w=0.3))
            K, L, H, G = b.lqg.K, b.lqg.L, np.zeros((1, 1)), b.nominal.w_hat
        system = b.system
        A, B, C = system.A, system.B, system.C
        gain = b.estimator_gain
        x0 = np.array([1.5])
        T = 40
        trace = run_closed_loop(
            b, _zero(1), T, 0,
            x0_model=Gaussian(x0, [[0.0]]), v_model=_zero(1))
        x = x0.copy()
        x_hat = system.m0 + gain @ (C @ x0 - C @ system.m0)
        for t in range(T):
            assert np.abs(trace.x[t] - x).max() < 1e-12
            assert np.abs(trace.x_hat[t] - x_hat).max() < 1e-12
            u = K @ x_hat + L
            w_bar = H @ x_hat + G
            x = A @ x + B @ u
            pred = A @ x_hat + B @ u + w_bar
            x_hat = pred + gain @ (C @ x - C @ pred)
        assert np.abs(trace.x[T] - x).max() < 1e-12

    def test_single_step_hand_cost(self):
        b = _ref_bundle()
        x0 = np.array([2.0])
        trace = run_closed_loop(
            b, _zero(1), 1, 0, x0_model=Gaussian(x0, [[0.0]]), v_model=_zero(1))
        # y0 = x0, xhat0 = gain*(x0 - 0), u0 = K xhat0, x1 = x0 + u0
        gain = b.estimator_gain[0, 0]
        xhat0 = gain * 2.0
        u0 = b.steady.K[0, 0] * xhat0
        x1 = 2.0 + u0
        expected = 2.0 ** 2 + u0 ** 2 + x1 ** 2
        assert abs(trace.total_cost - expected) < 1e-12

    def test_penalized_stage_cost_fields(self):
        b = _ref_bundle()
        trace = run_closed_loop(b, Gaussian([0.0], [[1.0]]), 10, 3)
        lam = b.steady.lam
        pen_cov = bures_squared(b.steady.Sigma_star, REF["nominal"].sigma_hat)
        for t in range(10):
            w_bar = b.steady.H @ trace.x_hat[t] + b.steady.G
            pen = lam * (np.sum(w_bar ** 2) + pen_cov)
            assert abs(trace.penalized_stage_cost[t] - (trace.stage_cost[t] - pen)) < 1e-10

    def test_dimension_mismatch_rejected(self):
        b = _ref_bundle()
        with pytest.raises(ValueError):
            run_closed_loop(b, Gaussian([0.0, 0.0], np.eye(2)), 5, 0)

    def test_initial_state_dimension_mismatch_rejected(self):
        b = _ref_bundle()
        with pytest.raises(ValueError, match="initial-state model dimension"):
            run_closed_loop(b, Gaussian([0.0], [[1.0]]), 5, 0, x0_model=_zero(2))

    def test_measurement_noise_dimension_mismatch_named(self):
        b = _ref_bundle()
        with pytest.raises(ValueError, match="measurement-noise model dimension"):
            run_closed_loop(b, Gaussian([0.0], [[1.0]]), 5, 0, v_model=_zero(2))


class TestMonteCarloSummary:
    def test_deterministic_given_seed(self):
        b = _ref_bundle()
        truth = Gaussian([0.0], [[0.5]])
        s1 = monte_carlo_summary(b, truth, 30, 20, 42)
        s2 = monte_carlo_summary(b, truth, 30, 20, 42)
        assert s1.mean_total_cost == s2.mean_total_cost
        assert s1.std_total_cost == s2.std_total_cost

    def test_summary_equals_mean_of_single_runs(self):
        b = _ref_bundle()
        truth = Gaussian([0.0], [[0.5]])
        s = monte_carlo_summary(b, truth, 30, 16, 42)
        children = np.random.SeedSequence(42).spawn(16)
        traces = [run_closed_loop(b, truth, 30, child) for child in children]
        totals = np.array([tr.total_cost for tr in traces])
        averages = np.array([tr.average_cost for tr in traces])
        assert abs(s.mean_total_cost - totals.mean()) <= 1e-12 * abs(totals.mean())
        assert abs(s.std_total_cost - totals.std(ddof=1)) <= 1e-12 * totals.std(ddof=1)
        assert abs(s.mean_avg_cost - averages.mean()) <= 1e-12 * abs(averages.mean())

    def test_cost_overflow_rejected(self):
        b = _ref_bundle()
        # x0^2 = 1e400 overflows the stage cost to inf on every run
        with np.errstate(all="ignore"), pytest.raises(ValueError):
            monte_carlo_summary(b, _zero(1), 20, 4, 0,
                                x0_model=Gaussian([1e200], [[0.0]]))

    def test_degenerate_runs_have_zero_std(self):
        b = _ref_bundle()
        s = monte_carlo_summary(b, _zero(1), 20, 8, 0,
                                x0_model=Gaussian([1.0], [[0.0]]), v_model=_zero(1))
        assert s.std_total_cost == 0.0


class TestPenalizedAverageCost:
    def test_matches_rho_on_reference_instance(self):
        b = design_wdrc(ZERO_A["system"], ZERO_A["weights"], ZERO_A["nominal"], 2.0)
        value = penalized_average_cost(b, 800, 60, 2024)
        assert abs(value - b.steady.rho) / abs(b.steady.rho) < 0.1

    def test_penalty_vanishes_when_moments_match(self):
        # at enormous penalties the worst case collapses onto the nominal
        b = design_wdrc(REF["system"], REF["weights"], REF["nominal"], 1e8)
        st = b.steady
        pen_cov = bures_squared(st.Sigma_star, REF["nominal"].sigma_hat)
        assert st.lam * pen_cov < 1e-3
        assert np.abs(st.H).max() < 1e-6

    @pytest.mark.parametrize("instance", ["zero_a", "random_4"])
    def test_matches_per_run_loop(self, instance):
        if instance == "zero_a":
            b = design_wdrc(ZERO_A["system"], ZERO_A["weights"], ZERO_A["nominal"], 2.0)
        else:
            *_, b = random_admissible(np.random.default_rng(7), 4)
        value = penalized_average_cost(b, 50, 5, 11)
        reference = penalized_average_cost_loop(b, 50, 5, 11)
        assert abs(value - reference) <= 1e-12 * abs(reference)

    def test_rejects_lqg_bundles(self):
        b = design_lqg(REF["system"], REF["weights"], REF["nominal"])
        with pytest.raises(ValueError):
            penalized_average_cost(b, 10, 2, 0)


class TestExactTotalCost:
    """monte_carlo_summary's mean total cost against tests/helpers.exact_total_cost."""

    @staticmethod
    def _cases(case):
        if case in ("ref_gaussian", "ref_uniform"):
            system, weights, nominal = REF["system"], REF["weights"], scalar_nominal(w=0.3, s=2.0)
            robust = design_wdrc(system, weights, nominal, REF["lam"])
            truth = (Gaussian([0.1], [[1.5]]) if case == "ref_gaussian"
                     else wdrc.UniformBox([-1.0], [1.5]))
            return robust, design_lqg(system, weights, nominal), truth, 50, 4000
        if case == "random_4":
            system, weights, nominal, _, robust = random_admissible(np.random.default_rng(11), 4)
            truth = Gaussian(0.5 * nominal.w_hat, nominal.sigma_hat)
            return robust, design_lqg(system, weights, nominal), truth, 60, 2000
        system, weights = wdrc.synthetic_power_grid()
        truth = Gaussian(np.zeros(20), 0.01 * np.eye(20))
        nominal = wdrc.empirical_moments(truth.sample(np.random.default_rng(0), 5), jitter=1e-8)
        robust = design_wdrc(system, weights, nominal, 5e4)
        return robust, design_lqg(system, weights, nominal), truth, 100, 400

    @pytest.mark.parametrize("case", ["ref_gaussian", "ref_uniform", "random_4", "grid"])
    def test_monte_carlo_within_four_standard_errors(self, case):
        *bundles, truth, T, runs = self._cases(case)
        mean, cov = truth.moments()
        for b in bundles:
            exact = exact_total_cost(b, mean, cov, T)
            s = monte_carlo_summary(b, truth, T, runs, 0)
            assert abs(s.mean_total_cost - exact) <= 4.0 * s.std_total_cost / np.sqrt(runs)

    def test_grid_lqg_value(self):
        # the LQG baseline of acceptance criterion 9's Gaussian scenario
        _, lqg, truth, T, _ = self._cases("grid")
        assert abs(exact_total_cost(lqg, *truth.moments(), T) - 555.418191) < 1e-6


class TestStabilityReport:
    def test_scalar_reference_radii(self):
        rep = stability_report(_ref_bundle())
        assert abs(rep.rho_closed_loop - 1.0 / 3.0) < 1e-9
        assert abs(rep.rho_penalized_loop - 0.4) < 1e-9
        assert rep.rho_filter_loop < 1.0

    def test_zero_mean_nominal_limit_is_zero(self):
        rep = stability_report(_ref_bundle())
        assert np.abs(rep.mean_state_limit).max() < 1e-12

    def test_open_loop_unstable_plant_stabilized(self):
        system = scalar_system(a=1.2)
        nominal = scalar_nominal()
        b = design_wdrc(system, scalar_weights(), nominal, 30.0)
        rep = stability_report(b)
        assert rep.rho_closed_loop < 1.0
        assert rep.rho_penalized_loop < 1.0
        assert rep.rho_filter_loop < 1.0


    @pytest.mark.parametrize("case", ["random", "grid"])
    def test_matches_riccati_and_filter_forms(self, case):
        # the radii and limit read from (K, L, H, G) and the gain against
        # their forms in P, Phi and X_prior: A'(I + P Phi)^-1, A - K_p C A
        # with the prior-form gain K_p, and the P/Phi closed-form limit
        if case == "random":
            rng = np.random.default_rng(808)
            bundles = [random_admissible(rng, int(rng.integers(1, 4)))[-1] for _ in range(20)]
        else:
            system, weights = wdrc.synthetic_power_grid()
            truth = Gaussian(np.zeros(20), 0.01 * np.eye(20))
            nominal = wdrc.empirical_moments(truth.sample(np.random.default_rng(0), 5), jitter=1e-8)
            bundles = [design_wdrc(system, weights, nominal, 5e4)]
        for b in bundles:
            rep = stability_report(b)
            A, C, M, st = b.system.A, b.system.C, b.system.M, b.steady
            eye = np.eye(b.system.n_x)
            penalized = np.linalg.solve((eye + st.P @ st.Phi).T, A).T
            prior_gain = np.linalg.solve(C @ st.X_prior @ C.T + M, C @ st.X_prior).T
            assert abs(rep.rho_penalized_loop - _radius(penalized)) <= 1e-12
            assert abs(rep.rho_filter_loop - _radius(A - prior_gain @ C @ A)) <= 1e-12
            limit = _closed_form_limit(b)
            assert np.abs(rep.mean_state_limit - limit).max() <= 1e-12 * (1 + np.abs(limit).max())

    @pytest.mark.parametrize("diagnostic", ["stability_report", "mean_state_trajectory"])
    def test_rejects_lqg_bundles(self, diagnostic):
        b = design_lqg(REF["system"], REF["weights"], REF["nominal"])
        with pytest.raises(ValueError, match="apply to WDRC bundles"):
            if diagnostic == "stability_report":
                stability_report(b)
            else:
                mean_state_trajectory(b, [1.0], 10)


class TestMeanStateTrajectory:
    def test_zero_mean_decay(self):
        b = _ref_bundle()
        ms = mean_state_trajectory(b, [1.0], 500)
        assert np.linalg.norm(ms.states[500]) < 1e-8
        assert ms.limit_error < 1e-8

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            mean_state_trajectory(_ref_bundle(), [1.0], -1)

    @pytest.mark.parametrize("arg", ["x0_mean", "estimate0"])
    def test_wrong_size_start_rejected(self, arg):
        args = {"x0_mean": [1.0], "estimate0": [0.0]}
        args[arg] = [1.0, 2.0]
        with pytest.raises(ValueError, match=arg):
            mean_state_trajectory(_ref_bundle(), args["x0_mean"], 10, estimate0=args["estimate0"])

    def test_nonzero_mean_converges_to_closed_form(self):
        nominal = scalar_nominal(w=0.1)
        b = design_wdrc(REF["system"], REF["weights"], nominal, REF["lam"])
        ms = mean_state_trajectory(b, [2.0], 300)
        rep = stability_report(b)
        assert np.abs(ms.limit - rep.mean_state_limit).max() < 1e-12
        assert ms.limit_error < 1e-6

    def test_estimate_mismatch_decays_geometrically(self):
        b = _ref_bundle()
        rep = stability_report(b)
        ms = mean_state_trajectory(b, [1.0], 60, estimate0=[-1.0])
        rate = max(rep.rho_filter_loop, rep.rho_penalized_loop)
        bound = 10.0 * rate ** 60 * 2.0
        assert ms.estimation_error < max(bound, 1e-10)

    def test_bounded_disturbance_mean_keeps_states_bounded(self):
        # BIBO check on the closed-loop gain matrix: bounded mean input,
        # bounded mean state, against the geometric-series bound
        b = _ref_bundle()
        A_cl = REF["system"].A + REF["system"].B @ b.steady.K
        rho = stability_report(b).rho_closed_loop
        rng = np.random.default_rng(0)
        x = np.zeros(1)
        sup_norm = 0.0
        for _ in range(500):
            w_mean = rng.uniform(-1.0, 1.0, size=1)
            x = A_cl @ x + w_mean
            sup_norm = max(sup_norm, abs(x[0]))
        assert sup_norm <= 1.0 / (1.0 - rho) + 1e-9


class TestOutOfSampleCurve:
    def test_zero_radius_bound_equals_rho(self):
        system, weights = REF["system"], REF["weights"]
        truth = Gaussian([0.0], [[1.0]])
        rows = out_of_sample_curve(system, weights, truth, [30], [0.0],
                                   runs=2, base_seed=1, dataset_draws=2,
                                   horizon=60, lambda_grid=[4.0, 8.0])
        assert len(rows) == 1
        assert rows[0]["failures"] == 0
        assert rows[0]["mean_bound"] is not None

    def test_failures_recorded_not_raised(self):
        system, weights = REF["system"], REF["weights"]
        truth = Gaussian([0.0], [[1.0]])
        rows = out_of_sample_curve(system, weights, truth, [10], [0.1],
                                   runs=2, base_seed=1, dataset_draws=2,
                                   horizon=30, lambda_grid=[0.5])  # inadmissible
        assert rows[0]["failures"] == 2
        assert rows[0]["mean_cost"] is None

    def test_designs_once_per_grid_point(self, monkeypatch):
        # every design of a cell is a lane of one design._designs stack: one per (draw, lam)
        calls = []
        designs = wdrc.design._designs

        def counting(*args, **kwargs):
            calls.extend((id(nominal), float(lam)) for nominal in args[2] for lam in args[3][0])
            return designs(*args, **kwargs)

        monkeypatch.setattr(wdrc.design, "_designs", counting)
        grid = [4.0, 8.0, 16.0]
        rows = out_of_sample_curve(REF["system"], REF["weights"], Gaussian([0.0], [[1.0]]),
                                   [20], [0.05], runs=2, base_seed=3, dataset_draws=2,
                                   horizon=20, lambda_grid=grid)
        assert rows[0]["failures"] == 0
        assert len(calls) == len(set(calls)) == 2 * len(grid)
        assert sorted({lam for _, lam in calls}) == grid

    @pytest.mark.parametrize("grid", [[4.0, 8.0, 16.0], None])
    def test_solves_each_stage_once(self, monkeypatch, grid):
        # the Riccati stage depends on the plant and penalty only, so a 3-draw
        # cell stages each penalty once; the default grid (one solve_are at its
        # upper end, a stage of one, plus 40 stages) is also built once per call
        calls = []
        stages = wdrc.riccati._stages

        def counting(*args, **kwargs):
            calls.extend(args[2])
            return stages(*args, **kwargs)

        for module in (wdrc.riccati, wdrc.design, wdrc.sim):
            monkeypatch.setattr(module, "_stages", counting)
        rows = out_of_sample_curve(REF["system"], REF["weights"], Gaussian([0.0], [[1.0]]),
                                   [20], [0.05], runs=2, base_seed=3, dataset_draws=3,
                                   horizon=20, lambda_grid=grid)
        assert rows[0]["failures"] == 0
        assert len(calls) == (3 if grid else 41)

    def test_failing_default_grid_is_built_once(self, monkeypatch):
        # with Q = Qf = 0, (A, Q^1/2) is unobservable and the default grid's own
        # solve fails: once per call, recorded for every draw of every cell
        calls = []
        build = wdrc.design.default_lambda_grid

        def counting(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        for module in (wdrc.design, wdrc.sim):
            monkeypatch.setattr(module, "default_lambda_grid", counting)
        rows = out_of_sample_curve(scalar_system(), scalar_weights(q=0.0),
                                   Gaussian([0.0], [[1.0]]), [10, 20], [0.05, 0.1], runs=2,
                                   base_seed=3, dataset_draws=2, horizon=20)
        assert len(calls) == 1
        assert [row["failures"] for row in rows] == [2] * 4

    def test_empty_grid_rejected_when_a_cell_is_tuned(self):
        kwargs = dict(runs=2, base_seed=3, dataset_draws=2, horizon=20, lambda_grid=[])
        args = REF["system"], REF["weights"], Gaussian([0.0], [[1.0]])
        with pytest.raises(ValueError, match="grid must be nonempty"):
            out_of_sample_curve(*args, [20], [0.05], **kwargs)
        assert out_of_sample_curve(*args, [], [0.05], **kwargs) == []

    def test_negative_theta_rejected_before_any_design(self, monkeypatch):
        calls = []
        designs = wdrc.design._designs

        def counting(*args, **kwargs):
            calls.extend(args[2])
            return designs(*args, **kwargs)

        monkeypatch.setattr(wdrc.design, "_designs", counting)
        with pytest.raises(ValueError, match="theta must be nonnegative"):
            out_of_sample_curve(REF["system"], REF["weights"], Gaussian([0.0], [[1.0]]),
                                [20], [0.05, -0.1], runs=2, base_seed=3, dataset_draws=2,
                                horizon=20, lambda_grid=[4.0, 8.0])
        assert calls == []

    def test_deterministic_rows(self):
        system, weights = REF["system"], REF["weights"]
        truth = Gaussian([0.0], [[1.0]])
        kw = dict(runs=2, base_seed=9, dataset_draws=2, horizon=40,
                  lambda_grid=[5.0, 10.0])
        a = out_of_sample_curve(system, weights, truth, [20], [0.05], **kw)
        b = out_of_sample_curve(system, weights, truth, [20], [0.05], **kw)
        assert a == b


def _small_oos_plant():
    """The 2-state plant, weights and truth of the small_oos benchmark workload."""
    A = np.array([[0.85, 0.2], [0.0, 0.7]])
    system = wdrc.LinearSystem(A=A, B=np.eye(2), C=np.eye(2), M=0.2 * np.eye(2),
                               m0=np.zeros(2), M0=0.05 * np.eye(2))
    weights = wdrc.CostWeights(Q=np.eye(2), Qf=np.eye(2), R=np.eye(2))
    truth = Gaussian(mean=[0.05, -0.02], cov=[[0.3, 0.1], [0.1, 0.2]])
    return system, weights, truth


def _small_oos_nominals(truth):
    """The 40 seed-0 training nominals of small_oos's one cell."""
    nominals = []
    for d in range(40):
        seed = np.random.SeedSequence(entropy=0, spawn_key=(0, 0, d, 0))
        samples = truth.sample(np.random.default_rng(seed), 20)
        nominals.append(wdrc.empirical_moments(samples, jitter=1e-8))
    return nominals


class TestBatchedCell:
    """out_of_sample_curve simulates a cell's designs in one _run_costs call;
    each draw's cost must equal its own monte_carlo_summary."""

    horizon = 60
    base_seed = 4

    def _curve(self, monkeypatch, runs, draws):
        system, weights, truth = _small_oos_plant()
        calls = []
        run_costs = wdrc.sim._run_costs

        def recording(bundles, seeds, *args, **kwargs):
            out = run_costs(bundles, seeds, *args, **kwargs)
            calls.append((list(bundles), seeds, [float(row.mean()) for row in out[1]]))
            return out

        with monkeypatch.context() as patch:
            patch.setattr(wdrc.sim, "_run_costs", recording)
            rows = out_of_sample_curve(system, weights, truth, [20], [0.1], runs=runs,
                                       base_seed=self.base_seed, dataset_draws=draws,
                                       horizon=self.horizon,
                                       lambda_grid=np.geomspace(4.0, 1e4, 8))
        assert len(calls) == 1
        return truth, rows[0], calls[0]

    def _eval_seed(self, d):
        return np.random.SeedSequence(entropy=self.base_seed, spawn_key=(0, 0, d, 1))

    @pytest.mark.parametrize("runs, draws", [(5, 7), (70, 1)])
    def test_costs_equal_per_bundle_summaries(self, monkeypatch, runs, draws):
        # the cell is one block of 7 bundles of 5 runs, or of 1 bundle of 70
        # runs; each draw's summary is a block of that draw's runs alone
        truth, row, (bundles, _, costs) = self._curve(monkeypatch, runs, draws)
        assert row["failures"] == 0 and len(bundles) == draws
        for d, (bundle, cost) in enumerate(zip(bundles, costs)):
            single = monte_carlo_summary(bundle, truth, self.horizon, runs, self._eval_seed(d))
            assert cost == single.mean_avg_cost
        assert row["mean_cost"] == float(np.mean(costs))

    def test_failed_draw_is_not_simulated(self, monkeypatch):
        truth, _, (_, seeds, costs) = self._curve(monkeypatch, 5, 7)
        tuned, calls = wdrc.sim._tuned, []

        def failing_third(*args):  # called once per draw of the cell, in draw order
            calls.append(args)
            if len(calls) == 3:
                return NoAdmissibleLambda("no admissible penalty")
            return tuned(*args)

        monkeypatch.setattr(wdrc.sim, "_tuned", failing_third)
        _, row, (bundles, kept_seeds, kept_costs) = self._curve(monkeypatch, 5, 7)
        assert row["failures"] == 1 and len(bundles) == 6
        assert kept_costs == costs[:2] + costs[3:]
        keys = [[child.spawn_key for child in run_seeds] for run_seeds in kept_seeds]
        assert keys == [[child.spawn_key for child in run_seeds]
                        for run_seeds in seeds[:2] + seeds[3:]]

    def test_lanes_are_independent_of_their_stack(self):
        # small_oos's cell: 40 seed-0 training nominals x 8 penalties in one
        # 320-lane stack; each lane equals the same (nominal, lam) designed alone
        system, weights, truth = _small_oos_plant()
        theta = wdrc.radius_from_samples(20, 2, 0.05)
        staged = wdrc.riccati._stages(system, weights, np.geomspace(4.0, 1e4, 8))
        nominals = _small_oos_nominals(truth)
        tuned = [wdrc.design._tuned(rows, theta)
                 for rows in wdrc.design._grid_rows(system, weights, nominals, theta, staged)]
        assert len(tuned) == 40
        for nominal, (rows, _, _) in zip(nominals, tuned):
            for row in rows:
                alone = design_wdrc(system, weights, nominal, row["lam"], theta=theta)
                assert_same_design(row["bundle"], alone)

    @pytest.mark.parametrize("staged", [False, True], ids=["raw", "staged"])
    def test_nominal_free_work_scales_with_the_grid(self, monkeypatch, staged):
        # Phi, P and S read only the plant, the weights and the penalty, so a
        # 40-nominal x 8-penalty tuning solves them once per penalty, not per lane,
        # and a grid staged beforehand solves them no more
        system, weights, truth = _small_oos_plant()
        grid = np.geomspace(4.0, 1e4, 8)
        stages = wdrc.riccati._stages
        prestaged = stages(system, weights, grid) if staged else None
        compute_phi, calls = wdrc.riccati.compute_phi, []

        def counting(*args):
            calls.append(args)
            return compute_phi(*args)

        monkeypatch.setattr(wdrc.riccati, "compute_phi", counting)
        curves = wdrc.design._grid_rows(system, weights, _small_oos_nominals(truth), 0.1,
                                        prestaged or stages(system, weights, grid))
        tuned = [wdrc.design._tuned(rows, 0.1) for rows in curves]
        assert [len(rows) for rows, _, _ in tuned] == [8] * 40
        assert len(calls) == (0 if staged else len(grid))

    def test_row_values_are_builtin(self):
        system, weights, truth = _small_oos_plant()
        rows = out_of_sample_curve(system, weights, truth, [20, 40], [0.05, 0.2], runs=3,
                                   base_seed=2, dataset_draws=3, horizon=30,
                                   lambda_grid=np.geomspace(4.0, 1e4, 8))
        rows += out_of_sample_curve(REF["system"], REF["weights"], Gaussian([0.0], [[1.0]]),
                                    [10], [0.1], runs=2, base_seed=1, dataset_draws=2,
                                    horizon=30, lambda_grid=[0.5])  # every draw fails
        assert rows[-1]["mean_cost"] is None
        for row in rows:
            for value in row.values():
                assert type(value) in (int, float, type(None))

    @pytest.mark.parametrize("name, sizes", [
        ("horizon", dict(horizon=0)),
        ("runs", dict(runs=0)),
        ("dataset_draws", dict(dataset_draws=-1)),
    ])
    def test_bad_sizes_fail_before_any_tuning(self, monkeypatch, name, sizes):
        system, weights, truth = _small_oos_plant()
        tuned = []
        for tuning in ("_grid_rows", "_tuned"):
            monkeypatch.setattr(wdrc.sim, tuning, lambda *args: tuned.append(args))
        kwargs = dict(dict(runs=4, dataset_draws=40, horizon=400), **sizes)
        with pytest.raises(ValueError, match=name):
            out_of_sample_curve(system, weights, truth, [20], [0.1], base_seed=0,
                                lambda_grid=np.geomspace(4.0, 1e4, 8), **kwargs)
        assert tuned == []


def _run_bytes(system, horizon, worst_case):
    """The bytes one run takes in a _simulate block: its states and outputs,
    which carry its draws, and its stage costs (and penalized ones)."""
    return 8 * ((horizon + 1) * (system.n_x + system.n_y) + horizon * (1 + worst_case))


class TestBlocking:
    """_run_costs sizes its _simulate blocks by bytes; how a call is cut into
    blocks changes no bit of any run's costs."""

    @staticmethod
    def _bundles(plant):
        if plant == "small":
            system, weights, truth = _small_oos_plant()
            nominals = _small_oos_nominals(truth)[:3]
            bundles = [design_wdrc(system, weights, nominal, lam)
                       for nominal, lam in zip(nominals, (40.0, 100.0, 400.0))]
            return bundles, truth, 30, 5
        system, weights = wdrc.synthetic_power_grid()
        truth = Gaussian(np.zeros(20), 0.01 * np.eye(20))
        nominal = wdrc.empirical_moments(truth.sample(np.random.default_rng(0), 5), jitter=1e-8)
        return [design_wdrc(system, weights, nominal, lam) for lam in (5e4, 1e5)], truth, 20, 5

    @pytest.mark.parametrize("worst_case", [False, True], ids=["truth", "worst_case"])
    @pytest.mark.parametrize("plant", ["small", "grid"])
    def test_split_blocks_give_the_same_costs(self, monkeypatch, plant, worst_case):
        bundles, truth, horizon, runs = self._bundles(plant)
        seeds = [np.random.SeedSequence(b).spawn(runs) for b in range(len(bundles))]
        args = bundles, seeds, horizon, truth
        simulate, blocks = wdrc.sim._simulate, []

        def recording(block_bundles, block_seeds, *rest, **kwargs):
            blocks.append((len(block_bundles), len(block_seeds[0])))
            return simulate(block_bundles, block_seeds, *rest, **kwargs)

        monkeypatch.setattr(wdrc.sim, "_simulate", recording)
        whole = wdrc.sim._run_costs(*args, worst_case=worst_case)
        assert blocks == [(len(bundles), runs)]
        one = _run_bytes(bundles[0].system, horizon, worst_case)
        # a budget for one bundle's runs splits by bundle; one for 3 runs
        # splits each bundle's 5 runs into blocks of 2 and 3; so does one for
        # a single run, as a block of one run would round differently
        for budget, shape in (((runs + 1) * one, [(1, runs)] * len(bundles)),
                              (3 * one + 7, [(1, 2), (1, 3)] * len(bundles)),
                              (one, [(1, 2), (1, 3)] * len(bundles))):
            blocks.clear()
            monkeypatch.setattr(wdrc.sim, "_BLOCK_BYTES", budget)
            split = wdrc.sim._run_costs(*args, worst_case=worst_case)
            assert blocks == shape
            if budget >= 3 * one:
                assert all(count * width * one <= budget for count, width in blocks)
            for got, expected in zip(split, whole):
                if worst_case or expected is not None:
                    assert np.array_equal(got, expected)
                else:
                    assert got is None

    def test_benchmark_calls_are_one_block_and_large_calls_split(self, monkeypatch):
        # the blocking arithmetic alone: the simulator is replaced by one that
        # records each block and returns zero costs
        blocks = []

        def recording(bundles, seeds, horizon, truth, worst_case=False, **kwargs):
            blocks.append((len(bundles), len(seeds[0]), horizon, worst_case))
            costs = np.zeros((len(bundles), len(seeds[0]), horizon))
            return None, None, None, None, costs, costs, costs[..., 0]

        monkeypatch.setattr(wdrc.sim, "_simulate", recording)
        grid = SimpleNamespace(system=wdrc.synthetic_power_grid()[0])
        small = SimpleNamespace(system=_small_oos_plant()[0])
        for worst_case in (False, True):  # grid_mc's three 100-run x 100-step calls
            blocks.clear()
            wdrc.sim._run_costs([grid], [range(100)], 100, None, worst_case=worst_case)
            assert blocks == [(1, 100, 100, worst_case)]
        blocks.clear()  # small_oos's cell: 40 draws x 4 runs x 400 steps
        wdrc.sim._run_costs([small] * 40, [range(4)] * 40, 400, None)
        assert blocks == [(40, 4, 400, False)]
        blocks.clear()
        wdrc.sim._run_costs([small], [range(10 ** 4)], 400, None)
        one = _run_bytes(small.system, 400, False)
        assert len(blocks) > 1 and sum(width for _, width, _, _ in blocks) == 10 ** 4
        assert all(width * one <= wdrc.sim._BLOCK_BYTES for _, width, _, _ in blocks)


def test_import_and_small_curve_leave_scipy_unloaded():
    # scipy.linalg is imported only by zoh_discretize and design_lqg
    code = """
import sys
import numpy as np
import wdrc
system = wdrc.LinearSystem(A=[[0.85, 0.2], [0.0, 0.7]], B=np.eye(2), C=np.eye(2),
                           M=0.2 * np.eye(2), m0=np.zeros(2), M0=0.05 * np.eye(2))
weights = wdrc.CostWeights(Q=np.eye(2), Qf=np.eye(2), R=np.eye(2))
truth = wdrc.Gaussian(mean=[0.05, -0.02], cov=[[0.3, 0.1], [0.1, 0.2]])
rows = wdrc.out_of_sample_curve(system, weights, truth, [20], [0.1], runs=2, base_seed=0,
                                dataset_draws=2, horizon=20, lambda_grid=[4.0, 40.0, 400.0])
assert rows[0]["failures"] == 0, rows
print("scipy.linalg" in sys.modules)
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(wdrc.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]
