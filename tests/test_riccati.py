import time
import traceback
import warnings

import numpy as np
import pytest

import wdrc
from wdrc import (
    AssumptionViolated,
    backward_pass,
    check_lambda,
    compute_phi,
    design_wdrc,
    evaluate_rho,
    finite_horizon_recursion,
    solve_are,
    steady_state_policy_params,
)
from wdrc._linalg import spectral_radius
from wdrc.riccati import _stage_at, _stages

from helpers import (
    REF,
    admissible_lambda,
    random_admissible,
    random_system,
    scalar_nominal,
    scalar_system,
    scalar_weights,
)


class TestComputePhi:
    def test_scalar(self):
        res = compute_phi(scalar_system(), scalar_weights(), 10.0)
        assert abs(res.matrix[0, 0] - 0.9) < 1e-15
        assert res.is_psd

    def test_zero_input(self):
        system = scalar_system(b=0.0)
        res = compute_phi(system, scalar_weights(), 4.0)
        assert abs(res.matrix[0, 0] + 0.25) < 1e-15
        assert not res.is_psd

    def test_small_lambda(self):
        res = compute_phi(scalar_system(), scalar_weights(), 2.0)
        assert abs(res.matrix[0, 0] - 0.5) < 1e-15

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            compute_phi(scalar_system(), scalar_weights(), 0.0)

    def test_ill_conditioned_r_warns_at_construction_only(self):
        with pytest.warns(RuntimeWarning, match="R: condition number") as record:
            weights = wdrc.CostWeights(Q=np.eye(2), Qf=np.eye(2), R=np.diag([1.0, 1e-13]))
        assert len(record) == 1
        system = wdrc.LinearSystem(A=0.5 * np.eye(2), B=np.eye(2), C=np.eye(2), M=np.eye(2),
                                   m0=np.zeros(2), M0=np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compute_phi(system, weights, 10.0)


class TestBackwardPass:
    def test_one_stage_terminal_zero(self):
        system = scalar_system()
        weights = scalar_weights(qf=0.0)
        nominal = scalar_nominal(s=3.0)
        P, S, r, q, K, L, H, G = backward_pass(system, weights, nominal, 10.0, 1)
        assert abs(P[0, 0, 0] - 1.0) < 1e-15  # P_0 = Q
        assert abs(S[0, 0, 0]) < 1e-15
        assert abs(r[0, 0]) < 1e-15
        assert abs(q[0] + 10.0 * 3.0) < 1e-12  # -lam tr(sigma_hat)

    def test_two_stage_hand_recursion(self):
        P, *_ = backward_pass(scalar_system(), scalar_weights(qf=0.0),
                              scalar_nominal(), 10.0, 2)
        assert abs(P[1, 0, 0] - 1.0) < 1e-15
        assert abs(P[0, 0, 0] - (1.0 + 1.0 / 1.9)) < 1e-12

    def test_terminal_weight_violating_penalty(self):
        weights = scalar_weights(qf=20.0)  # Qf = 2 lam
        with pytest.raises(AssumptionViolated) as exc:
            backward_pass(scalar_system(), weights, scalar_nominal(), 10.0, 3)
        assert "assumption 1" in str(exc.value)

    def test_nonzero_mean_q_term(self):
        # q_0 for T=1 with Qf=0 reduces to -lam tr(sigma_hat) regardless of w_hat
        nominal = scalar_nominal(w=0.7, s=2.0)
        *_, q, K, L, H, G = backward_pass(scalar_system(), scalar_weights(qf=0.0),
                                          nominal, 5.0, 1)[3:]
        assert abs(q[0] + 10.0) < 1e-12


class TestSolveAre:
    def test_scalar_reference(self):
        P = solve_are(REF["system"], REF["weights"], REF["lam"])
        assert abs(P[0, 0] - 5.0 / 3.0) < 1e-11

    def test_zero_dynamics(self):
        P = solve_are(scalar_system(a=0.0), scalar_weights(q=3.0), 10.0)
        assert abs(P[0, 0] - 3.0) < 1e-12

    def test_zero_phi_lyapunov(self):
        # B chosen so B^2/R = 1/lam makes Phi = 0; P = Q + a^2 P
        lam = 2.0
        system = scalar_system(a=0.5, b=1.0 / np.sqrt(lam))
        P = solve_are(system, scalar_weights(), lam)
        assert abs(P[0, 0] - 4.0 / 3.0) < 1e-12

    def test_inadmissible_lambda(self):
        with pytest.raises(AssumptionViolated) as exc:
            solve_are(REF["system"], REF["weights"], 1.0)
        assert "assumption 1" in str(exc.value)

    def test_floor_penalty_raises_fast(self):
        # P^2 - P - 2 = 0 puts P_ss exactly at lam = 2: no certified gap
        start = time.perf_counter()
        with pytest.raises(AssumptionViolated, match="assumption 1"):
            solve_are(REF["system"], REF["weights"], 2.0)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("lam", [118.19994783551499, 236.98652213825636])
    def test_inadmissible_grid_penalty_fails_fast(self, lam):
        # above max eig Q, but the iterates cross lam within tens of sweeps
        system, weights = wdrc.synthetic_power_grid()
        start = time.perf_counter()
        with pytest.raises(AssumptionViolated, match="assumption 1"):
            solve_are(system, weights, lam)
        assert time.perf_counter() - start < 1.0

    def test_unobservable_rejected(self):
        system = scalar_system(a=2.0)
        weights = wdrc.CostWeights(Q=[[0.0]], Qf=[[0.0]], R=[[1.0]])
        with pytest.raises(AssumptionViolated) as exc:
            solve_are(system, weights, 50.0)
        assert "assumption 3" in str(exc.value)

    def test_finite_horizon_converges_to_steady_state(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            system, weights, nominal = random_system(rng, rng.integers(2, 5))
            lam = admissible_lambda(system, weights)
            P_ss = solve_are(system, weights, lam)
            P, *_ = backward_pass(system, weights, nominal, lam, 1000)
            assert np.linalg.norm(P[0] - P_ss, "fro") < 1e-6

    def test_stable_penalized_loop(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            system, weights, _ = random_system(rng, 3)
            lam = admissible_lambda(system, weights)
            P = solve_are(system, weights, lam)
            phi = compute_phi(system, weights, lam).matrix
            closed = system.A.T @ np.linalg.inv(np.eye(3) + P @ phi)
            assert spectral_radius(closed) < 1.0


    @pytest.mark.parametrize("lam", [0.0, -1.0])
    def test_nonpositive_penalty_fails_assumption_1_first(self, lam):
        with pytest.raises(AssumptionViolated, match="assumption 1 .* at the first iterate"):
            solve_are(REF["system"], REF["weights"], lam)

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_undefined_penalty_is_a_value_error(self, lam):
        with pytest.raises(ValueError, match="lam must be positive and finite"):
            solve_are(REF["system"], REF["weights"], lam)

    @pytest.mark.parametrize("lam", [0.0, -1.0, np.nan, np.inf])
    def test_designs_reject_an_invalid_penalty_before_staging(self, lam):
        args = REF["system"], REF["weights"], REF["nominal"]
        with pytest.raises(ValueError, match="lam must be positive and finite"):
            design_wdrc(*args, lam)
        with pytest.raises(ValueError, match="lam must be positive and finite"):
            wdrc.evaluate_lambda_grid(*args, 0.1, [lam, 4.0])


def _floor_bracket(system, weights, lam):
    """The two penalties bracketing the plant's admissibility floor to 0.2 %, bisected
    by staging from the floor's estimate up to the admissible ``lam``."""
    below, above = wdrc._linalg.max_eigval(solve_are(system, weights, 1e9)), lam
    while above > 1.002 * below:
        mid = np.sqrt(below * above)
        if _stages(system, weights, [mid])[2][0] is not None:
            below = mid
        else:
            above = mid
    return below, above


def _assert_lanes_stand_alone(system, weights, lams):
    """Each penalty of one _stages stack ends byte for byte as its stack of one: every
    stage field, memory order included, or the exception's type, message and assumption.
    An accepted penalty's stage is the one _stage_at forms alone at its P."""
    _, stages, rejected = _stages(system, weights, lams)
    for i, lam in enumerate(lams):
        _, alone, (exc,) = _stages(system, weights, [lam])
        if exc is None:
            assert rejected[i] is None, rejected[i]
            lone = _stage_at(system, weights, lam, stages.phi[i], stages.P[i])[0]
            for got, want, single in zip(stages, alone, lone):
                assert got[i].tobytes() == want[0].tobytes() == single.tobytes()
                assert got[i].strides == want[0].strides == single.strides
        else:
            assert type(rejected[i]) is type(exc) and str(rejected[i]) == str(exc)
            assert getattr(rejected[i], "assumption", None) == getattr(exc, "assumption", None)
    return rejected


class TestStages:
    """``riccati._stages`` stages a grid of penalties as one stack; each penalty's
    stage, or its rejection, is the one it gets alone."""

    def test_reference_plant(self):
        # 1.5 crosses lam within a few sweeps; 2 is the floor, with no certified gap
        rejected = _assert_lanes_stand_alone(REF["system"], REF["weights"],
                                             [10.0, 1.5, 2.0, 4.0, 1e6, 1.5])
        assert [exc is None for exc in rejected] == [True, False, False, True, True, False]

    def test_grid_tune_penalties(self):
        system, weights = wdrc.synthetic_power_grid()
        rejected = _assert_lanes_stand_alone(system, weights,
                                             np.geomspace(29.403874434189913, 1e6, 16))
        assert [str(exc) for exc in rejected[:2]] == [
            "assumption 3 (control regularity) violated: (A, Phi^1/2) is not stabilizable"] * 2
        assert ["at sweep 11 " in str(rejected[2]), "at sweep 28 " in str(rejected[3])] == [True] * 2
        assert [exc.assumption for exc in rejected[2:4]] == ["1 (penalty dominance)"] * 2
        assert rejected[4:] == [None] * 12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_plants_with_their_floor(self, n):
        system, weights, _, lam, _ = random_admissible(np.random.default_rng(40 + n), n)
        below, above = _floor_bracket(system, weights, lam)
        rejected = _assert_lanes_stand_alone(system, weights,
                                             [lam, below, 4.0 * lam, above, below, 0.5 * below])
        assert rejected[1] is not None and rejected[3] is None

    def test_capped_lane_ends_alone_while_the_others_finish(self, monkeypatch):
        # on REF, lam = 10 converges in 16 sweeps and lam = 2.5 in 20
        monkeypatch.setattr(wdrc.riccati, "_ARE_MAX_ITER", 17)
        rejected = _assert_lanes_stand_alone(REF["system"], REF["weights"], [2.5, 10.0, 1.5])
        assert str(rejected[0]) == "value iteration for the steady-state equation hit 17 iterations"
        assert rejected[1] is None and "assumption 1" in str(rejected[2])

    def test_rejection_keeps_the_traceback_it_was_caught_with(self):
        _, _, rejected = _stages(REF["system"], REF["weights"], [0.5, 4.0, 1.5])
        for exc, raised_in in ((rejected[0], "regular"), (rejected[2], "step")):
            names = [frame.name for frame in traceback.extract_tb(exc.__traceback__)]
            assert raised_in in names and names[-1] == "_require_dominance"

    def test_value_error_comes_before_any_check(self, monkeypatch):
        checked = []
        monkeypatch.setattr(wdrc.riccati, "_require_dominance", lambda *args: checked.append(args))
        with pytest.raises(ValueError, match="lam must be positive and finite"):
            _stages(REF["system"], REF["weights"], [0.5, 4.0, np.nan])
        assert checked == []


class TestSteadyPolicyParams:
    def test_scalar_reference_values(self):
        P = solve_are(REF["system"], REF["weights"], REF["lam"])
        p = steady_state_policy_params(REF["system"], REF["weights"],
                                       REF["nominal"], REF["lam"], P)
        assert abs(p.K[0, 0] + 2.0 / 3.0) < 1e-11
        assert abs(p.S[0, 0] - 1.0) < 1e-11
        assert abs(p.H[0, 0] - 1.0 / 15.0) < 1e-11
        assert abs(p.r[0]) < 1e-14 and abs(p.L[0]) < 1e-14 and abs(p.G[0]) < 1e-14

    def test_zero_dynamics(self):
        system = scalar_system(a=0.0)
        P = solve_are(system, scalar_weights(), 10.0)
        p = steady_state_policy_params(system, scalar_weights(), scalar_nominal(), 10.0, P)
        for v in (p.K, p.L, p.H, p.G, p.S):
            assert np.abs(v).max() < 1e-14

    def test_bias_with_nonzero_mean(self):
        system = scalar_system(a=0.0)
        nominal = scalar_nominal(w=0.3)
        P = solve_are(system, scalar_weights(), 2.0)
        p = steady_state_policy_params(system, scalar_weights(), nominal, 2.0, P)
        assert abs(p.r[0]) < 1e-14
        assert abs(p.L[0] + 0.3 * 2.0 / 3.0) < 1e-14  # L = -(1/(1+Phi)) w_hat

    def test_adversary_mean_consistency(self):
        # H x + G must equal (1/lam)(I+P Phi)^-1 (P A x + P w_hat + r) + w_hat
        rng = np.random.default_rng(3)
        for _ in range(10):
            system, weights, nominal = random_system(rng, 3)
            lam = admissible_lambda(system, weights)
            P = solve_are(system, weights, lam)
            p = steady_state_policy_params(system, weights, nominal, lam, P)
            phi = compute_phi(system, weights, lam).matrix
            for _ in range(10):
                x = rng.standard_normal(3)
                lhs = p.H @ x + p.G
                g = np.linalg.solve(np.eye(3) + P @ phi,
                                    P @ (system.A @ x) + P @ nominal.w_hat + p.r)
                rhs = g / lam + nominal.w_hat
                assert np.abs(lhs - rhs).max() < 1e-10

    def test_mean_state_identities(self):
        # A + B K + H = (I + Phi P)^-1 A and B L + G = (I - Phi (I+P Phi-A')^-1 P) w_hat
        rng = np.random.default_rng(9)
        for _ in range(10):
            system, weights, nominal = random_system(rng, 3)
            lam = admissible_lambda(system, weights)
            P = solve_are(system, weights, lam)
            p = steady_state_policy_params(system, weights, nominal, lam, P)
            phi = compute_phi(system, weights, lam).matrix
            eye = np.eye(3)
            lhs = system.A + system.B @ p.K + p.H
            rhs = np.linalg.solve(eye + phi @ P, system.A)
            assert np.abs(lhs - rhs).max() < 1e-9
            lhs2 = system.B @ p.L + p.G
            rhs2 = (eye - phi @ np.linalg.solve(eye + P @ phi - system.A.T, P)) @ nominal.w_hat
            assert np.abs(lhs2 - rhs2).max() < 1e-9


class TestCheckLambda:
    def test_scalar_gap(self):
        res = check_lambda(10.0, np.array([[5.0 / 3.0]]))
        assert res.passed
        assert abs(res.gap - (10.0 - 5.0 / 3.0)) < 1e-12

    def test_boundary_fails_with_margin(self):
        P = np.diag([2.0, 1.0])
        assert not check_lambda(2.0, P, margin=0.0).passed  # no certified gap at the floor
        lam = 2.0 * (1.0 + 1e-9)
        assert check_lambda(lam, P, margin=0.0).passed
        assert not check_lambda(lam, P, margin=1e-6).passed

    def test_zero_matrix(self):
        assert check_lambda(1e-6, np.zeros((3, 3))).passed
        assert not check_lambda(0.0, np.zeros((2, 2))).passed


class TestFiniteHorizonRecursion:
    def test_full_solution_shapes_and_symmetry(self):
        sol = finite_horizon_recursion(REF["system"], REF["weights"],
                                       REF["nominal"], REF["lam"], 6)
        assert sol.P.shape == (7, 1, 1) and sol.z.shape == (6,)
        for arrays in (sol.P, sol.S, sol.Sigma_star, sol.X_post):
            for m in arrays:
                assert np.abs(m - m.T).max() < 1e-12

    def test_gains_converge_toward_steady_state(self):
        system, weights, lam = REF["system"], REF["weights"], REF["lam"]
        P_ss = solve_are(system, weights, lam)
        for nominal in (REF["nominal"], scalar_nominal(w=0.3)):
            sol = finite_horizon_recursion(system, weights, nominal, lam, 60)
            params = steady_state_policy_params(system, weights, nominal, lam, P_ss)
            for name in ("K", "L", "H", "G"):
                assert np.abs(getattr(sol, name)[0] - getattr(params, name)).max() < 1e-8

    def test_constant_term_increment_approaches_rho(self):
        # q_t - q_{t+1} tends to the stationary rho - z of the same closed form
        system, weights, lam = REF["system"], REF["weights"], REF["lam"]
        nominal = scalar_nominal(w=0.3, s=2.0)
        steady = design_wdrc(system, weights, nominal, lam).steady
        q = backward_pass(system, weights, nominal, lam, 200)[3]
        expected = evaluate_rho(steady, nominal) - steady.z
        assert abs((q[0] - q[1]) - expected) < 1e-9 * (1.0 + abs(expected))
