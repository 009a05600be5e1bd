import itertools
import time
from datetime import timedelta

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import wdrc
from wdrc import (
    AssumptionViolated,
    NoAdmissibleLambda,
    bellman_residual,
    bellman_suboptimality_gap,
    design_lqg,
    design_wdrc,
    evaluate_rho,
    guaranteed_bound,
    radius_from_samples,
    solve_filter_are,
    tune_lambda,
    tune_wdrc,
    worst_case_cov_steady,
)
from wdrc._linalg import max_eigval
from wdrc.serialize import bundle_to_dict, dumps_json

from helpers import (
    REF,
    ZERO_A,
    admissible_lambda,
    assert_same_design,
    dare_fixed_point,
    exact_rho,
    random_admissible,
    random_system,
    scalar_nominal,
    scalar_system,
    scalar_weights,
)

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


class TestDesignWdrc:
    def test_scalar_reference_bundle(self):
        b = design_wdrc(REF["system"], REF["weights"], REF["nominal"], REF["lam"])
        st = b.steady
        assert abs(st.K[0, 0] + 2.0 / 3.0) < 1e-10
        assert abs(st.H[0, 0] - 1.0 / 15.0) < 1e-10
        assert abs(st.L[0]) < 1e-12 and abs(st.G[0]) < 1e-12

    def test_zero_dynamics_chain(self):
        b = design_wdrc(ZERO_A["system"], ZERO_A["weights"], ZERO_A["nominal"],
                        ZERO_A["lam"])
        st = b.steady
        assert abs(st.Sigma_star[0, 0] - 4.0) < 1e-6
        assert abs(st.X_prior[0, 0] - 4.0) < 1e-6
        assert abs(st.X_post[0, 0] - 0.8) < 1e-7
        assert abs(st.rho - 2.0) < 1e-6

    def test_inadmissible_lambda_names_assumption_one(self):
        with pytest.raises(AssumptionViolated) as exc:
            design_wdrc(REF["system"], REF["weights"], REF["nominal"], 0.1)
        assert "assumption 1" in str(exc.value)

    def test_floor_penalty_raises_fast(self):
        # lam = 2 is REF's floor (P_ss = lam); the fixed point stops a hair below it
        start = time.perf_counter()
        with pytest.raises(AssumptionViolated, match="assumption 1"):
            design_wdrc(REF["system"], REF["weights"], REF["nominal"], 2.0)
        assert time.perf_counter() - start < 1.0

    def test_just_above_floor_certifies(self):
        b = design_wdrc(REF["system"], REF["weights"], REF["nominal"], 2.0 * (1.0 + 1e-6))
        rho = b.steady.rho
        for x in (-1.0, 0.0, 0.5):
            assert bellman_residual(b, REF["nominal"], [x]) <= 1e-6 * (1.0 + abs(rho))
        assert abs(exact_rho(b) - rho) <= 1e-6 * abs(rho)

    def test_deterministic_serialization(self):
        a = design_wdrc(REF["system"], REF["weights"], REF["nominal"], REF["lam"])
        b = design_wdrc(REF["system"], REF["weights"], REF["nominal"], REF["lam"])
        assert dumps_json(bundle_to_dict(a)) == dumps_json(bundle_to_dict(b))

    def test_undetectable_filter_fails_fast(self):
        # (A, C) = (2, 0): the ascent's filter recursion cannot converge
        system = scalar_system(a=2.0, b=1.0, c=0.0)
        start = time.perf_counter()
        with pytest.raises(AssumptionViolated, match="assumption 4"):
            design_wdrc(system, scalar_weights(), scalar_nominal(), 10.0)
        assert time.perf_counter() - start < 1.0

    def test_filter_pair_comes_from_covariance_program(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return solve_filter_are(*args, **kwargs)

        monkeypatch.setattr(wdrc.ambiguity, "solve_filter_are", counting)
        monkeypatch.setattr(wdrc.design, "solve_filter_are", counting)
        for case in (REF, ZERO_A):
            b = design_wdrc(case["system"], case["weights"], case["nominal"], case["lam"])
            st = b.steady
            wc = worst_case_cov_steady(case["system"], st.S, st.P,
                                       case["nominal"].sigma_hat, case["lam"])
            assert np.array_equal(st.X_prior, wc.x_prior)
            assert np.array_equal(st.X_post, wc.x_cov)
        assert calls == []

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_non_finite_penalty_rejected(self, lam):
        with pytest.raises(ValueError, match="lam must be positive and finite"):
            design_wdrc(REF["system"], REF["weights"], REF["nominal"], lam)

    def test_provenance_digest_tracks_inputs(self):
        a = design_wdrc(REF["system"], REF["weights"], REF["nominal"], REF["lam"])
        b = design_wdrc(REF["system"], REF["weights"], REF["nominal"], 11.0)
        assert a.provenance["input_sha256"] != b.provenance["input_sha256"]


class TestDesignLqg:
    def test_scalar_certainty_equivalent(self):
        b = design_lqg(REF["system"], REF["weights"], REF["nominal"])
        assert abs(b.lqg.P[0, 0] - GOLDEN) < 1e-10
        assert abs(b.lqg.K[0, 0] + GOLDEN / (1.0 + GOLDEN)) < 1e-10

    def test_zero_input_stable_plant(self):
        system = scalar_system(a=0.5, b=0.0)
        b = design_lqg(system, scalar_weights(), scalar_nominal())
        assert b.lqg.K[0, 0] == 0.0

    def test_lqg_limit_of_wdrc_gain(self):
        rng = np.random.default_rng(42)
        for _ in range(3):
            system, weights, nominal = random_system(rng, 3)
            w = design_wdrc(system, weights, nominal, 1e9)
            l = design_lqg(system, weights, nominal)
            assert np.abs(w.steady.K - l.lqg.K).max() < 1e-6

    def test_unstabilizable_rejected(self):
        system = scalar_system(a=2.0, b=0.0)
        with pytest.raises(wdrc.NoConvergence):
            design_lqg(system, scalar_weights(), scalar_nominal())

    def test_undetectable_filter_fails_fast(self):
        system = scalar_system(a=2.0, b=1.0, c=0.0)
        start = time.perf_counter()
        with pytest.raises(AssumptionViolated, match="assumption 4"):
            design_lqg(system, scalar_weights(), scalar_nominal())
        assert time.perf_counter() - start < 1.0

    def test_matches_fixed_point_oracle(self):
        rng = np.random.default_rng(7)
        cases = [(REF["system"], REF["weights"], REF["nominal"]),
                 (scalar_system(a=0.5, b=0.0), scalar_weights(), scalar_nominal())]
        cases += [random_system(rng, 3) for _ in range(3)]
        for system, weights, nominal in cases:
            P = design_lqg(system, weights, nominal).lqg.P
            oracle = dare_fixed_point(system.A, system.B, weights.Q, weights.R)
            assert np.abs(P - oracle).max() <= 1e-10 * np.abs(oracle).max()

    def test_riccati_failure_is_no_convergence(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Failed to find a finite solution.")

        monkeypatch.setattr(scipy.linalg, "solve_discrete_are", fail)
        with pytest.raises(wdrc.NoConvergence, match="Riccati"):
            design_lqg(REF["system"], REF["weights"], REF["nominal"])


class TestRhoAndBound:
    def test_scalar_rho_value(self):
        b = design_wdrc(ZERO_A["system"], ZERO_A["weights"], ZERO_A["nominal"], 2.0)
        assert abs(evaluate_rho(b.steady, ZERO_A["nominal"]) - 2.0) < 1e-6

    def test_zero_mean_reduces_to_trace_terms(self):
        b = design_wdrc(REF["system"], REF["weights"], REF["nominal"], REF["lam"])
        st = b.steady
        expected = -st.lam * np.trace(REF["nominal"].sigma_hat) + st.z
        assert abs(st.rho - expected) < 1e-10

    def test_large_penalty_limit(self):
        lam = 1e6
        b = design_wdrc(REF["system"], REF["weights"], REF["nominal"], lam)
        st = b.steady
        limit = float(np.sum(st.S * st.X_post) + np.sum(st.P * REF["nominal"].sigma_hat))
        assert abs(st.rho - limit) / abs(limit) < 1e-3

    def test_bound_arithmetic(self):
        assert guaranteed_bound(0.0, 5.0, 2.5).bound == 2.5
        assert abs(guaranteed_bound(1.0, 2.0, 2.0).bound - 4.0) < 1e-15

    def test_bound_monotone_in_theta(self):
        values = [guaranteed_bound(t, 2.0, 1.0).bound for t in (0.0, 0.5, 1.0, 2.0)]
        assert all(b2 >= b1 for b1, b2 in zip(values, values[1:]))

    def test_negative_theta_rejected(self):
        with pytest.raises(ValueError):
            guaranteed_bound(-0.1, 1.0, 1.0)

    def test_nan_theta_rejected(self):
        with pytest.raises(ValueError, match="theta must be nonnegative"):
            guaranteed_bound(float("nan"), 1.0, 1.0)


def _grid_case(plant):
    """(system, weights, nominal, grid) of a tuning case: REF, whose grid holds one
    rejected penalty, or a random 3-state plant on its default grid."""
    if plant == "ref":  # 1.5 fails assumption 1
        return REF["system"], REF["weights"], REF["nominal"], [1.5, 4.0, 8.0, 16.0]
    system, weights, nominal = random_system(np.random.default_rng(31), 3)
    return system, weights, nominal, list(wdrc.default_lambda_grid(system, weights, points=6))


each_tuner = pytest.mark.parametrize("tune", [tune_lambda, tune_wdrc], ids=lambda f: f.__name__)


class TestTuneLambda:
    def test_matches_exhaustive_oracle(self):
        grid = [2.0, 4.0, 8.0]
        theta = 0.1
        lam_star, report = tune_lambda(REF["system"], REF["weights"],
                                       REF["nominal"], theta, grid=grid)
        bounds = {}
        for lam in grid:
            try:
                b = design_wdrc(REF["system"], REF["weights"], REF["nominal"], lam)
            except AssumptionViolated:  # rejected, as the tuner rejects it
                continue
            bounds[lam] = theta ** 2 * lam + b.steady.rho
        best = min(bounds, key=lambda l: bounds[l])
        assert lam_star == best
        assert abs(report.bound - bounds[best]) < 1e-9

    def test_zero_theta_minimizes_rho(self):
        grid = [3.0, 6.0, 12.0]
        lam_star, report = tune_lambda(REF["system"], REF["weights"],
                                       REF["nominal"], 0.0, grid=grid)
        rhos = {}
        for lam in grid:
            b = design_wdrc(REF["system"], REF["weights"], REF["nominal"], lam)
            rhos[lam] = b.steady.rho
        assert lam_star == min(grid, key=lambda l: rhos[l])
        assert report.bound == report.rho

    @each_tuner
    def test_nan_theta_rejected(self, tune):
        with pytest.raises(ValueError, match="theta must be nonnegative"):
            tune(REF["system"], REF["weights"], REF["nominal"], float("nan"), grid=[4.0, 8.0])

    @each_tuner
    def test_all_inadmissible(self, tune):
        with pytest.raises(NoAdmissibleLambda):
            tune(REF["system"], REF["weights"], REF["nominal"], 0.1, grid=[0.2, 0.5, 0.9])

    @each_tuner
    def test_empty_grid_rejected(self, tune):
        with pytest.raises(ValueError, match="grid must be nonempty"):
            tune(REF["system"], REF["weights"], REF["nominal"], 0.1, grid=[])

    def test_evaluates_its_grid_through_the_public_call(self, monkeypatch):
        # a wrapper of evaluate_lambda_grid, such as the benchmark's row
        # capture, sees the rows that tune_lambda picks from
        calls = []
        evaluate = wdrc.design.evaluate_lambda_grid

        def recording(*args, **kwargs):
            calls.append(args)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(wdrc.design, "evaluate_lambda_grid", recording)
        grid = [1.5, 4.0, 8.0]
        tune_lambda(REF["system"], REF["weights"], REF["nominal"], 0.1, grid=grid)
        assert len(calls) == 1 and calls[0][4] is grid

    def test_near_floor_gain_check_failure_is_a_row(self):
        # design._stage accepts this plant's penalties down to about 1.68943
        # (its admissible lam is 5.03); just above that floor the design's
        # steady gain misses its identity check by 2.6e-9, which is the
        # design's NoConvergence and so a row, not an error ending the tuning
        system, weights, nominal, lam, _ = random_admissible(np.random.default_rng(1), 2)
        low = 1.00001 * 1.68943
        with pytest.raises(wdrc.NoConvergence, match="steady gain identity violated"):
            design_wdrc(system, weights, nominal, low)
        rows = wdrc.evaluate_lambda_grid(system, weights, nominal, 0.1, [low, lam])
        assert rows[0]["status"].startswith("no-convergence: steady gain identity violated")
        assert rows[1]["status"] == "ok"
        assert tune_lambda(system, weights, nominal, 0.1, grid=[low, lam])[0] == lam

    @pytest.mark.parametrize("plant", ["ref", "random3"])
    def test_staged_rows_equal_design_wdrc(self, plant):
        # a grid staged once, as out_of_sample_curve shares it across draws,
        # tunes to the same designs as design_wdrc solving each stage itself
        system, weights, nominal, grid = _grid_case(plant)
        theta = 0.05
        staged = wdrc.riccati._stages(system, weights, grid)
        for _ in range(2):  # a second nominal reuses the same stages
            curve = wdrc.design._grid_rows(system, weights, [nominal], theta, staged)[0]
            rows = wdrc.design._tuned(curve, theta)[0]
            assert [r["lam"] for r in rows] == grid
            for row, lam in zip(rows, grid):
                try:
                    expected = design_wdrc(system, weights, nominal, lam, theta=theta).steady
                except (AssumptionViolated, wdrc.NoConvergence) as exc:
                    assert row["status"].endswith(str(exc))
                    continue
                got = row["bundle"].steady
                for name in ("P", "S", "Sigma_star", "K", "L", "H", "G"):
                    assert np.array_equal(getattr(got, name), getattr(expected, name)), name
                assert (got.z, got.rho) == (expected.z, expected.rho)
                for name in ("X_prior", "X_post"):
                    a, b = getattr(got, name), getattr(expected, name)
                    assert np.abs(a - b).max() <= 1e-10 * np.abs(b).max(), name
            nominal = wdrc.NominalMoments(w_hat=nominal.w_hat + 0.1,
                                          sigma_hat=2.0 * nominal.sigma_hat)
        assert {r["status"] == "ok" for r in rows} == {True, False}

    @pytest.mark.parametrize("plant", ["ref", "random3"])
    def test_tune_wdrc_returns_the_design_at_lambda_star(self, plant):
        system, weights, nominal, grid = _grid_case(plant)
        theta = 0.05
        rows, bundle, report = tune_wdrc(system, weights, nominal, theta, grid=grid)
        assert_same_design(bundle, design_wdrc(system, weights, nominal, report.lam, theta=theta))
        assert (report.lam, report) == tune_lambda(system, weights, nominal, theta, grid=grid)
        curve = wdrc.evaluate_lambda_grid(system, weights, nominal, theta, grid)
        assert [(r["lam"], r["status"], r["rho"]) for r in rows] == [
            (r["lam"], r["status"], r["rho"]) for r in curve]

    def test_tune_wdrc_designs_once(self, monkeypatch):
        # one stack of one lane per grid penalty, and no second design at lam*
        stacks, singles, designs = [], [], wdrc.design._designs

        def counting(system, weights, nominals, staged, *args):
            stacks.append(len(nominals) * len(staged[0]))
            return designs(system, weights, nominals, staged, *args)

        monkeypatch.setattr(wdrc.design, "_designs", counting)
        monkeypatch.setattr(wdrc.design, "design_wdrc", lambda *args, **kw: singles.append(args))
        grid = [1.5, 4.0, 8.0, 16.0]
        tune_wdrc(REF["system"], REF["weights"], REF["nominal"], 0.1, grid=grid)
        assert stacks == [len(grid)] and singles == []


class TestLaneStack:
    """Designs run as lanes of one stacked ascent; each lane's outcome is the one
    it has when designed alone."""

    def test_mixed_stack_records_each_lane_outcome(self):
        system, weights = wdrc.synthetic_power_grid()
        truth = wdrc.Gaussian(np.zeros(system.n_x), 0.01 * np.eye(system.n_x))
        nominal = wdrc.empirical_moments(truth.sample(np.random.default_rng(0), 5), jitter=1e-8)
        # REF at 1.5 fails assumption 1; on the grid plant one of 15394 and
        # 30865 stalls (which one depends on the BLAS thread count)
        cases = [(REF["system"], REF["weights"], REF["nominal"], lam, 0.1)
                 for lam in (1.5, 4.0, 10.0)]
        cases += [(system, weights, nominal, lam, 1e-3)
                  for lam in (7678.130002062385, 15394.36657151753, 30865.13540075521)]
        outcomes = []  # one stack per plant, one nominal times its three penalties
        for plant in (cases[:3], cases[3:]):
            sys_, w, nom, _, theta = plant[0]
            staged = wdrc.riccati._stages(sys_, w, [lam for _, _, _, lam, _ in plant])
            outcomes += wdrc.design._designs(sys_, w, [nom], staged, theta)
        kinds = set()
        for (sys_, w, nom, lam, theta), outcome in zip(cases, outcomes):
            try:
                alone = design_wdrc(sys_, w, nom, lam, theta=theta)
            except (AssumptionViolated, wdrc.NoConvergence) as exc:
                assert type(outcome) is type(exc) and str(outcome) == str(exc)
                kinds.add(type(exc))
                continue
            assert_same_design(outcome, alone)
        assert kinds == {AssumptionViolated, wdrc.NoConvergence}

    def test_shared_rejection_keeps_its_traceback(self):
        # lanes sharing a rejected stage return its exception unraised, so its
        # traceback stays the one caught in riccati._stages, whatever the lane count
        staged = wdrc.riccati._stages(REF["system"], REF["weights"], [1.5])
        exc, tb = staged[2][0], staged[2][0].__traceback__
        outcomes = wdrc.design._designs(REF["system"], REF["weights"], [REF["nominal"]] * 3, staged)
        assert all(outcome is exc for outcome in outcomes) and exc.__traceback__ is tb
        with pytest.raises(AssumptionViolated) as info:
            design_wdrc(REF["system"], REF["weights"], REF["nominal"], 1.5)
        names = [entry.name for entry in info.traceback]
        assert names[-2:] == ["_riccati_step", "_require_dominance"]

    def test_first_uncaught_exception_in_grid_order_propagates(self, monkeypatch):
        policy = wdrc.design._steady_policy
        errors = {8.0: ValueError("first"), 16.0: TypeError("second")}

        def failing(system, weights, w_hat, lam, stage):
            # one stacked call for the grid's lanes, then one call per lane
            for value in lam:
                if float(value) in errors:
                    raise errors[float(value)]
            return policy(system, weights, w_hat, lam, stage)

        monkeypatch.setattr(wdrc.design, "_steady_policy", failing)
        args = REF["system"], REF["weights"], REF["nominal"], 0.1
        with pytest.raises(ValueError, match="first"):
            wdrc.evaluate_lambda_grid(*args, [1.5, 4.0, 8.0, 16.0])
        with pytest.raises(TypeError, match="second"):
            wdrc.evaluate_lambda_grid(*args, [1.5, 16.0, 4.0, 8.0])
        rows = wdrc.evaluate_lambda_grid(*args, [1.5, 4.0])
        assert [r["status"][:12] for r in rows] == ["assumption: ", "ok"]


def _same_outcome(got, alone):
    """Two design outcomes agree: the same bundle bit for bit, or the same exception."""
    if isinstance(alone, Exception):
        assert type(got) is type(alone) and str(got) == str(alone)
    else:
        assert_same_design(got, alone)


class TestStackProperty:
    """Property: on random 1- to 3-state plants, every lane of a stack of 2 to 6
    designs, one or two nominals times a list of penalties (each list drawn with
    repeats and in any order), ends as its stack of one (``design_wdrc``), whatever
    its neighbours.
    The draws mix full-rank and rank-deficient nominal covariances with the two
    penalties that bracket the admissibility floor to 0.2 % (bisected by staging,
    so one is rejected and one is just admissible) and comfortably admissible
    ones. Near the floor a design can run the filter recursion and the ascent to
    their caps, for up to about 20 s, so the caps are lowered to 1,000 filter steps and 150
    sweeps for both the stack and the lone designs; each case must then finish
    within 20 s."""

    @settings(max_examples=10, deadline=timedelta(seconds=20), derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2 ** 16), n=st.integers(1, 3),
           picks=st.lists(st.integers(0, 2), min_size=1, max_size=2).flatmap(
               lambda picks: st.tuples(st.just(picks), st.lists(
                   st.integers(0, 3), min_size=2 // len(picks), max_size=6 // len(picks)))))
    def test_each_lane_equals_its_stack_of_one(self, seed, n, picks):
        rng = np.random.default_rng(seed)
        system, weights, nominal, lam, _ = random_admissible(rng, n)
        below, above = max_eigval(wdrc.solve_are(system, weights, 1e9)), lam
        while above > 1.002 * below:
            mid = np.sqrt(below * above)
            if wdrc.riccati._stages(system, weights, [mid])[2][0] is not None:
                below = mid
            else:
                above = mid
        root = np.linalg.cholesky(nominal.sigma_hat)[:, : n - 1]  # rank n - 1
        nominals = [nominal,
                    wdrc.NominalMoments(w_hat=-nominal.w_hat, sigma_hat=root @ root.T),
                    wdrc.NominalMoments(w_hat=nominal.w_hat + 0.05, sigma_hat=2.0 * nominal.sigma_hat)]
        lams = [below, above, lam, 4.0 * lam]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(wdrc.ambiguity, "_FILTER_MAX_ITER", 1000)
            patch.setattr(wdrc.ambiguity, "_ASCENT_MAX_ITER", 150)
            noms, pens = picks
            staged = wdrc.riccati._stages(system, weights, [lams[k] for k in pens])
            outcomes = wdrc.design._designs(system, weights, [nominals[j] for j in noms], staged)
            for (j, k), outcome in zip(itertools.product(noms, pens), outcomes):
                try:
                    alone = design_wdrc(system, weights, nominals[j], lams[k])
                except Exception as exc:
                    alone = exc
                _same_outcome(outcome, alone)


class TestRadiusFromSamples:
    def test_light_tail_branches(self):
        # log(c1/beta) = 1, c2 = 1
        beta = np.exp(-1.0)
        assert abs(radius_from_samples(4, 2, beta) - 0.5) < 1e-12
        assert abs(radius_from_samples(16, 8, beta) - 0.5) < 1e-12

    def test_small_sample_branch(self):
        beta = np.exp(-8.0)
        theta = radius_from_samples(4, 2, beta, constants=(1.0, 1.0, 4.0))
        assert abs(theta - np.sqrt(2.0)) < 1e-12

    def test_dimension_four_bisection(self):
        beta = 0.05
        n = 400
        theta = radius_from_samples(n, 4, beta)
        target = np.sqrt(np.log(1.0 / beta) / n)
        assert abs(theta / np.log(2.0 + 1.0 / theta) - target) < 1e-10

    def test_dimension_four_gap_rejected(self):
        beta = np.exp(-1.0)  # log(c1/beta) = 1, thresholds 1 and (log 3)^2
        with pytest.raises(ValueError):
            radius_from_samples(1, 4, beta)

    def test_compact_support_branches(self):
        beta = np.exp(-1.0)
        assert abs(radius_from_samples(16, 2, beta, compact_support_half_diameter=2.0)
                   - 2.0 * (1.0 / 16.0) ** 0.25) < 1e-12
        assert abs(radius_from_samples(64, 6, beta, compact_support_half_diameter=1.0)
                   - (1.0 / 64.0) ** (1.0 / 6.0)) < 1e-12
        xi = 1.5
        theta = radius_from_samples(100, 4, beta, compact_support_half_diameter=xi)
        target = np.sqrt(1.0 / 100.0)
        lhs = theta ** 2 / (xi ** 2 * np.log(2.0 + xi ** 2 / theta ** 2))
        assert abs(lhs - target) < 1e-10

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            radius_from_samples(10, 3, 1.5)
        with pytest.raises(ValueError):
            radius_from_samples(10, 3, 0.05, constants=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            radius_from_samples(0, 3, 0.05)


class TestBellmanCertificate:
    def test_scalar_residual_tiny(self):
        b = design_wdrc(REF["system"], REF["weights"], REF["nominal"], REF["lam"])
        for x in (-1.3, 0.0, 0.4, 2.0):
            assert bellman_residual(b, REF["nominal"], [x]) < 1e-9

    def test_random_systems_residual(self):
        rng = np.random.default_rng(5)
        for _ in range(3):
            system, weights, nominal = random_system(rng, 3)
            lam = admissible_lambda(system, weights)
            b = design_wdrc(system, weights, nominal, lam)
            for _ in range(10):
                x = rng.standard_normal(3)
                assert bellman_residual(b, nominal, x) < 1e-6

    def test_perturbed_gain_strictly_suboptimal(self):
        b = design_wdrc(REF["system"], REF["weights"], REF["nominal"], REF["lam"])
        gap = bellman_suboptimality_gap(b, REF["nominal"], [0.7], 0.1)
        assert gap > 1e-6


class TestExactRho:
    """steady.rho against the closed-form stationary cost of tests/helpers.py."""

    @staticmethod
    def _rel(bundle):
        return abs(exact_rho(bundle) - bundle.steady.rho) / abs(bundle.steady.rho)

    @pytest.mark.parametrize("lam", [10.0, 1e4, 1e6])
    def test_scalar_reference(self, lam):
        b = design_wdrc(REF["system"], REF["weights"], scalar_nominal(w=0.3, s=2.0), lam)
        assert self._rel(b) <= 1e-9

    def test_small_out_of_sample_plant(self):
        # the 2-state plant and truth of acceptance criterion 11, 20-sample nominals
        system = wdrc.LinearSystem(A=[[0.85, 0.2], [0.0, 0.7]], B=np.eye(2), C=np.eye(2),
                                   M=0.2 * np.eye(2), m0=np.zeros(2), M0=0.05 * np.eye(2))
        weights = wdrc.CostWeights(Q=np.eye(2), Qf=np.eye(2), R=np.eye(2))
        truth = wdrc.Gaussian(mean=[0.05, -0.02], cov=[[0.3, 0.1], [0.1, 0.2]])
        rng = np.random.default_rng(0)
        for _ in range(10):
            nominal = wdrc.empirical_moments(truth.sample(rng, 20))
            for lam in np.geomspace(4.0, 1e4, 8):
                assert self._rel(design_wdrc(system, weights, nominal, lam)) <= 1e-9

    def test_random_plants(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            assert self._rel(random_admissible(rng, 3)[-1]) <= 1e-9
