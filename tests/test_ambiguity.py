import dataclasses

import numpy as np
import pytest

import wdrc
from wdrc import (
    AssumptionViolated,
    NoConvergence,
    WorstCaseCovResult,
    bures_squared,
    gelbrich_distance,
    solve_filter_are,
    worst_case_cov_finite,
    worst_case_cov_steady,
)
from wdrc._linalg import (
    dlyap,
    dot,
    frobenius,
    matvec,
    min_eigval,
    psd_project,
    psd_sqrt,
    solve_vec,
    sym,
)
from wdrc.ambiguity import (
    _BACKTRACK,
    _CANDIDATE,
    _START,
    _TRIAL,
    _Ascent,
    _by_lane,
    _steady_lanes,
    _tr_sqrt_and_grad,
)
from wdrc.estimator import _measurement_update
from wdrc.riccati import _stages
from helpers import (
    ZERO_A,
    newton_sqrt,
    random_admissible,
    random_psd,
    scalar_nominal,
    scalar_system,
)

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


class TestGelbrichDistance:
    def test_identical_moments(self):
        cov = np.diag([1.0, 2.0])
        assert gelbrich_distance(([0.0, 1.0], cov), ([0.0, 1.0], cov)) == 0.0

    def test_point_masses(self):
        z = np.zeros((2, 2))
        d = gelbrich_distance(([1.0, 0.0], z), ([0.0, 1.0], z))
        assert abs(d - np.sqrt(2.0)) < 1e-15

    def test_scalar_variances(self):
        d = gelbrich_distance(([0.0], [[4.0]]), ([0.0], [[1.0]]))
        assert abs(d - 1.0) < 1e-12

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            a = (rng.standard_normal(3), random_psd(rng, 3))
            b = (rng.standard_normal(3), random_psd(rng, 3))
            d_ab = gelbrich_distance(a, b)
            d_ba = gelbrich_distance(b, a)
            assert d_ab >= 0.0
            assert abs(d_ab - d_ba) < 1e-10

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(8)
        mean = rng.standard_normal(3)
        cov = random_psd(rng, 3) + 0.1 * np.eye(3)
        assert gelbrich_distance((mean, cov), (mean, cov)) < 1e-10
        other = cov + 0.01 * np.eye(3)
        assert gelbrich_distance((mean, cov), (mean, other)) > 1e-3

    def test_rejects_indefinite_input(self):
        with pytest.raises(ValueError):
            gelbrich_distance(([0.0], [[-1.0]]), ([0.0], [[1.0]]))

    def test_rejects_mismatched_dimensions(self):
        eye = np.eye(2)
        with pytest.raises(ValueError, match="moments_a: mean of size 1 and covariance of shape"):
            gelbrich_distance(([0.0], eye), ([1.0, 2.0], eye))
        with pytest.raises(ValueError, match="moments_b: mean of size 1 and covariance of shape"):
            gelbrich_distance(([0.0, 0.0], eye), ([1.0], eye))
        with pytest.raises(ValueError, match="moments_b: mean of size 2 and covariance of shape"):
            gelbrich_distance(([0.0], [[1.0]]), ([1.0, 2.0], [[1.0]]))
        with pytest.raises(ValueError, match=r"moments_b: .* do not match dimension 1"):
            gelbrich_distance(([0.0], [[1.0]]), ([1.0, 2.0], eye))

    def test_two_root_algorithms_agree(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            a = (rng.standard_normal(4), random_psd(rng, 4) + 0.2 * np.eye(4))
            b = (rng.standard_normal(4), random_psd(rng, 4) + 0.2 * np.eye(4))
            d_eig = gelbrich_distance(a, b)
            d_newton = gelbrich_distance(a, b, sqrt_fn=newton_sqrt)
            assert abs(d_eig - d_newton) < 1e-8

    def test_accepts_nominal_moments(self):
        nom = scalar_nominal(s=4.0)
        assert abs(gelbrich_distance(nom, ([0.0], [[1.0]])) - 1.0) < 1e-12


class TestWorstCaseCovSteady:
    def test_scalar_closed_form(self):
        # A=0, Q=1 => P=1, S=0; stationarity (P-lam) + lam sqrt(s_hat/s) = 0 => s=4
        sys0, w0 = ZERO_A["system"], ZERO_A["weights"]
        P = wdrc.solve_are(sys0, w0, 2.0)
        S = np.zeros((1, 1))
        res = worst_case_cov_steady(sys0, S, P, np.array([[1.0]]), 2.0)
        assert abs(res.sigma_star[0, 0] - 4.0) < 1e-6
        assert abs(res.objective - 4.0) < 1e-6
        assert res.kkt_residual <= 1e-7

    def test_scalar_against_grid_oracle(self):
        # brute-force scan of the eliminated objective over [0, 20]
        sigma = np.arange(0.0, 20.0 + 1e-9, 1e-4)
        objective = -sigma + 4.0 * np.sqrt(sigma)  # S=0 decouples the filter
        oracle = sigma[np.argmax(objective)]
        sys0, w0 = ZERO_A["system"], ZERO_A["weights"]
        P = wdrc.solve_are(sys0, w0, 2.0)
        res = worst_case_cov_steady(sys0, np.zeros((1, 1)), P, np.array([[1.0]]), 2.0)
        assert abs(res.sigma_star[0, 0] - oracle) < 1e-4

    def test_large_penalty_returns_nominal(self):
        sys0 = scalar_system(a=0.0)
        P = np.array([[1.0]])
        res = worst_case_cov_steady(sys0, np.zeros((1, 1)), P, np.array([[1.0]]), 1e6)
        assert abs(res.sigma_star[0, 0] - 1.0) < 1e-3

    def test_zero_nominal_covariance(self):
        sys0 = scalar_system(a=0.0)
        res = worst_case_cov_steady(sys0, np.zeros((1, 1)), np.array([[1.0]]),
                                    np.zeros((1, 1)), 2.0)
        assert res.sigma_star[0, 0] == 0.0
        assert abs(res.objective) < 1e-14

    def test_unbounded_when_penalty_dominance_fails(self):
        sys0 = scalar_system(a=0.0)
        with pytest.raises(AssumptionViolated) as exc:
            worst_case_cov_steady(sys0, np.zeros((1, 1)), np.array([[3.0]]),
                                  np.eye(1), 2.0)
        assert "assumption 1" in str(exc.value)

    def test_filter_constraints_hold_at_optimum(self):
        rng = np.random.default_rng(15)
        A = 0.6 * np.eye(2) + 0.1 * rng.standard_normal((2, 2))
        system = wdrc.LinearSystem(A=A, B=np.eye(2), C=np.eye(2), M=0.5 * np.eye(2),
                                   m0=np.zeros(2), M0=np.eye(2))
        sigma_hat = random_psd(rng, 2) + 0.2 * np.eye(2)
        S = random_psd(rng, 2)
        P = random_psd(rng, 2) + 0.1 * np.eye(2)
        lam = 30.0
        res = worst_case_cov_steady(system, S, P, sigma_hat, lam)
        x_prior, x_post = solve_filter_are(system, res.sigma_star)
        assert np.abs(x_post - res.x_cov).max() < 1e-8
        resid = x_prior - (A @ x_post @ A.T + res.sigma_star)
        assert np.abs(resid).max() < 1e-8


class TestWorstCaseCovFinite:
    def test_decoupled_matches_steady_formula(self):
        # S_next = 0: maximizer is (lam/(lam-P))^2 sigma_hat
        sys0 = scalar_system(a=0.5)
        res = worst_case_cov_finite(sys0, np.zeros((1, 1)), np.array([[1.0]]),
                                    np.array([[2.0]]), 4.0, np.array([[0.3]]))
        expect = (4.0 / 3.0) ** 2 * 2.0
        assert abs(res.sigma_star[0, 0] - expect) < 1e-6

    def test_uninformative_output_limit(self):
        # M huge: sqrt(sigma*) -> lam sqrt(s_hat) / (lam - P - S) = 2
        system = wdrc.LinearSystem(A=[[1.0]], B=[[1.0]], C=[[1.0]], M=[[1e9]],
                                   m0=[0.0], M0=[[1.0]])
        res = worst_case_cov_finite(system, np.array([[1.0]]), np.array([[1.0]]),
                                    np.array([[1.0]]), 4.0, np.array([[1.0]]))
        assert abs(res.sigma_star[0, 0] - 4.0) < 1e-3

    def test_penalty_dominance_guard(self):
        with pytest.raises(AssumptionViolated):
            worst_case_cov_finite(scalar_system(), np.zeros((1, 1)),
                                  np.array([[5.0]]), np.eye(1), 4.0, np.eye(1))

    def test_stagewise_iteration_reaches_steady_solution(self):
        # iterate the finite-stage program with stationary inputs; the two
        # programs coincide in the strong-measurement regime where the
        # filter loop contribution ~ rho(A F)^2 |S| / lam is negligible
        system = scalar_system(a=0.7, m=1e-3)
        sigma_hat = np.array([[1.5]])
        P = np.array([[2.0]])
        S = np.array([[0.6]])
        lam = 50.0
        steady = worst_case_cov_steady(system, S, P, sigma_hat, lam)
        x_cov = np.array([[0.2]])
        for _ in range(200):
            res = worst_case_cov_finite(system, S, P, sigma_hat, lam, x_cov)
            x_cov = res.x_cov
        assert np.abs(res.sigma_star - steady.sigma_star).max() < 1e-6


class TestSolveFilterAre:
    def test_zero_noise_stable_plant(self):
        system = scalar_system(a=0.5)
        x_prior, x_post = solve_filter_are(system, np.zeros((1, 1)))
        assert abs(x_prior[0, 0]) < 1e-11
        assert abs(x_post[0, 0]) < 1e-11

    def test_zero_dynamics(self):
        system = scalar_system(a=0.0)
        x_prior, _ = solve_filter_are(system, np.array([[2.5]]))
        assert abs(x_prior[0, 0] - 2.5) < 1e-11

    def test_scalar_golden_ratio(self):
        system = scalar_system(a=1.0)
        x_prior, x_post = solve_filter_are(system, np.eye(1))
        assert abs(x_prior[0, 0] - GOLDEN) < 1e-10
        assert abs(x_post[0, 0] - GOLDEN / (GOLDEN + 1.0)) < 1e-10

    def test_detectability_guard(self):
        system = wdrc.LinearSystem(A=[[2.0]], B=[[1.0]], C=[[0.0]], M=[[1.0]],
                                   m0=[0.0], M0=[[1.0]])
        with pytest.raises(AssumptionViolated) as exc:
            solve_filter_are(system, np.eye(1))
        assert "assumption 4" in str(exc.value)

    def test_converged_start_matches_cold_start(self):
        # the covariance program's pair, converged from warm starts along the
        # ascent, is the stationary filter at its maximizer: a cold solve agrees
        rng = np.random.default_rng(45)
        for _ in range(5):
            n = int(rng.integers(1, 4))
            A = rng.standard_normal((n, n)) * 0.5
            system = wdrc.LinearSystem(A=A, B=np.eye(n), C=np.eye(n),
                                       M=0.3 * np.eye(n), m0=np.zeros(n), M0=np.eye(n))
            sigma_hat = random_psd(rng, n) + 0.1 * np.eye(n)
            res = worst_case_cov_steady(system, random_psd(rng, n),
                                        random_psd(rng, n) + 0.1 * np.eye(n), sigma_hat, 40.0)
            cold = solve_filter_are(system, res.sigma_star)
            stationary = A @ res.x_cov @ A.T + res.sigma_star
            assert np.abs(res.x_prior - stationary).max() <= 1e-10 * np.abs(stationary).max()
            for a, b in zip((res.x_prior, res.x_cov), cold):
                assert np.abs(a - b).max() <= 1e-10 * np.abs(b).max()

    @pytest.mark.parametrize("a, c, sigma", [(2.0, 0.0, 1.0), (2.0, 1.0, 0.0)])
    def test_start_keeps_regularity_checks(self, a, c, sigma):
        # undetectable (c = 0) or non-stabilizable (sigma = 0) at an unstable a:
        # the cold solve and the covariance program's own pair both refuse it
        # (with a zero nominal the program's maximizer is sigma_star = 0)
        system = scalar_system(a=a, c=c)
        with pytest.raises(AssumptionViolated, match="assumption 4"):
            solve_filter_are(system, np.array([[sigma]]))
        with pytest.raises(AssumptionViolated, match="assumption 4"):
            worst_case_cov_steady(system, np.zeros((1, 1)), np.eye(1),
                                  np.array([[sigma]]), 10.0)

    def test_update_never_increases_covariance(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            A = rng.standard_normal((n, n)) * 0.5
            system = wdrc.LinearSystem(A=A, B=np.eye(n), C=np.eye(n),
                                       M=0.3 * np.eye(n), m0=np.zeros(n),
                                       M0=np.eye(n))
            sigma = random_psd(rng, n) + 0.1 * np.eye(n)
            x_prior, x_post = solve_filter_are(system, sigma)
            gap_eigs = np.linalg.eigvalsh(x_prior - x_post)
            assert gap_eigs.min() >= -1e-10


class TestBuresSquared:
    def test_matches_scalar_formula(self):
        assert abs(bures_squared([[4.0]], [[1.0]]) - 1.0) < 1e-12

    def test_clamped_at_zero(self):
        cov = np.diag([1.0, 2.0])
        assert bures_squared(cov, cov) >= 0.0

    def test_singular_nominal_restricts_to_range(self):
        # transport against a rank-1 nominal only sees the shared direction
        hat = np.array([[1.0, 0.0], [0.0, 0.0]])
        cov = np.diag([1.0, 3.0])
        b2 = bures_squared(cov, hat)
        assert abs(b2 - ((1.0 - 1.0) ** 2 + 3.0)) < 1e-10


def _stable_plant(rng, n):
    """A stable n-state plant, a sensor with n - 2 outputs (at least one), PD noise."""
    A = rng.standard_normal((n, n))
    A *= 0.9 / max(abs(np.linalg.eigvals(A)))
    n_y = max(1, n - 2)
    C = rng.standard_normal((n_y, n))
    M = random_psd(rng, n_y) + 0.5 * np.eye(n_y)
    return A, C, M


class TestStackedKernels:
    """Each stack-aware kernel gives every matrix of a stack exactly what it
    gives that matrix alone, so a lane's result cannot depend on its stack."""

    @pytest.mark.parametrize("n", [1, 2, 20])
    def test_stack_equals_single_calls(self, n):
        rng = np.random.default_rng(100 + n)
        k = 7
        A, C, M = _stable_plant(rng, n)
        priors = np.stack([random_psd(rng, n) + 0.1 * np.eye(n) for _ in range(k)])
        loops = 0.3 * rng.standard_normal((k, n, n))
        rhs = rng.standard_normal((k, n, n))

        stacked = _measurement_update(priors, C, M)
        for i in range(k):
            for got, alone in zip(stacked, _measurement_update(priors[i], C, M)):
                assert np.array_equal(got[i], alone)
        assert np.array_equal(sym(rhs), np.stack([sym(r) for r in rhs]))
        assert np.array_equal(dlyap(loops, rhs),
                              np.stack([dlyap(g, w) for g, w in zip(loops, rhs)]))
        noises = np.stack([random_psd(rng, n) + 0.1 * np.eye(n) for _ in range(k)])
        starts = priors + np.eye(n)
        fixed = wdrc.ambiguity._filter_fixpoint(A, C, M, noises, starts)
        for i in range(k):
            alone = wdrc.ambiguity._filter_fixpoint(A, C, M, noises[i], starts[i])
            assert np.array_equal(fixed[i], alone)

    @pytest.mark.parametrize("n", [1, 2, 20])
    def test_spectral_kernels_equal_single_calls(self, n):
        # psd_project keeps a PSD matrix as it is and clamps an indefinite one,
        # so the stack mixes both kinds; _tr_sqrt_and_grad gets one rank-deficient
        # root of the nominal
        rng = np.random.default_rng(200 + n)
        k = 7
        psd = [random_psd(rng, n) + 0.1 * np.eye(n) for _ in range(4)]
        mats = np.stack(psd + [rng.standard_normal((n, n)) - np.eye(n) for _ in range(k - 4)])
        assert {min_eigval(m) >= 0.0 for m in mats} == {True, False}
        roots = np.stack([psd_sqrt(m) for m in psd] + [np.zeros((n, n))] * (k - 4))
        roots[1, :, 0] = roots[1, 0, :] = 0.0
        for stack_fn, single_fn in ((psd_sqrt, psd_sqrt), (psd_project, psd_project),
                                    (min_eigval, min_eigval)):
            got = stack_fn(mats)
            for i in range(k):
                assert np.array_equal(got[i], single_fn(mats[i]))
        values, grads = _tr_sqrt_and_grad(roots, mats)
        for i in range(k):
            value, grad = _tr_sqrt_and_grad(roots[i], mats[i])
            assert values[i] == value and np.array_equal(grads[i], grad)
        # the vector products of the design's closed forms, against numpy's 1-D forms
        # (a transposed matrix, as riccati._Stage.W is, takes BLAS's other path)
        x, y = rng.standard_normal((2, k, n))
        pd = mats[:4] @ mats[:4].swapaxes(-1, -2) + np.eye(n)
        for a in (pd, np.stack([m.T.copy() for m in pd]).swapaxes(-1, -2)):
            products, solutions, dots = matvec(a, x[:4]), solve_vec(a, x[:4]), dot(x, y)
            for i in range(4):
                assert np.array_equal(products[i], a[i] @ x[i])
                assert np.array_equal(solutions[i], np.linalg.solve(a[i], x[i]))
                assert dots[i] == x[i] @ y[i]

    @pytest.mark.parametrize("n", [2, 20])
    def test_frobenius_matches_the_matrix_norm(self, n):
        stack = np.random.default_rng(n).standard_normal((2000, n, n))
        norms = frobenius(stack)
        assert all(norms[i] == np.linalg.norm(m, "fro") for i, m in enumerate(stack))


def _backtracking_lanes(scales):
    """A 3-state plant, its nominal, and (S, P, lam) stacked at ``scales`` times its
    admissible penalty. At half that penalty the ascent takes 26 fixed-point
    candidates and 11 backtracking trials, 6 of them accepted."""
    system, weights, nominal, lam, _ = random_admissible(np.random.default_rng(4), 3)
    lams = lam * np.asarray(scales, dtype=float)
    stages = _stages(system, weights, lams)[1]
    return system, nominal, stages.S, stages.P, lams


class TestLaneDriver:
    """worst_case_cov_steady is a stack of one lane of ``_steady_lanes``; each lane of
    a larger stack ends as it does alone."""

    @staticmethod
    def _record_rounds(monkeypatch):
        """Per round of every ascent that runs: the phases that asked for a coupling
        evaluation, the trials accepted and the candidates taken."""
        rounds = []
        evaluate, candidate, tried = _Ascent._evaluate, _Ascent._candidate, _Ascent._tried

        def recording_evaluate(self, i):
            rounds.append({"asked": list(self.phase[i]), "accepted": 0, "taken": 0})
            evaluate(self, i)

        def recording_candidate(self, i):
            candidate(self, i)
            rounds[-1]["taken"] = int(np.sum(self.phase[i] != _BACKTRACK))

        def recording_tried(self, i):
            tried(self, i)
            rounds[-1]["accepted"] = int(np.sum(self.phase[i] != _BACKTRACK))

        monkeypatch.setattr(_Ascent, "_evaluate", recording_evaluate)
        monkeypatch.setattr(_Ascent, "_candidate", recording_candidate)
        monkeypatch.setattr(_Ascent, "_tried", recording_tried)
        return rounds

    def test_rejected_trials_solve_no_lyapunov_equation(self, monkeypatch):
        # Omega is solved at starts, candidates and accepted trials only
        system, nominal, S, P, lams = _backtracking_lanes([0.5])
        rounds, solved = self._record_rounds(monkeypatch), []
        lyap = wdrc.ambiguity.dlyap

        def counting_dlyap(a, q):
            solved.append(len(a))
            return lyap(a, q)

        monkeypatch.setattr(wdrc.ambiguity, "dlyap", counting_dlyap)
        worst_case_cov_steady(system, S[0], P[0], nominal.sigma_hat, lams[0])
        asked = [phase for r in rounds for phase in r["asked"]]
        accepted = sum(r["accepted"] for r in rounds)
        assert asked.count(_TRIAL) > accepted > 0
        assert sum(solved) == asked.count(_START) + asked.count(_CANDIDATE) + accepted
        assert sum(solved) < len(asked)

    def test_mixed_phase_stack_matches_lanes_alone(self, monkeypatch):
        # in some round one lane is on a backtracking trial while the other takes
        # a candidate; each lane still ends bit for bit as its stack of one
        system, nominal, S, P, lams = _backtracking_lanes([0.5, 1.0])
        sigma_hat = np.stack([nominal.sigma_hat] * 2)
        rounds = self._record_rounds(monkeypatch)
        outcomes = _steady_lanes(system, S, P, sigma_hat, lams)
        assert any(_TRIAL in r["asked"] and r["taken"] for r in rounds)
        for k, outcome in enumerate(outcomes):
            alone = _steady_lanes(system, S[k:k + 1], P[k:k + 1], sigma_hat[k:k + 1],
                                  lams[k:k + 1])[0]
            assert isinstance(outcome, WorstCaseCovResult)
            for field in dataclasses.fields(WorstCaseCovResult):
                got, want = getattr(outcome, field.name), getattr(alone, field.name)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), field.name

    def test_coupling_failure_lands_on_its_lane(self, monkeypatch):
        # a tiny nominal covariance makes the filter fixed point slow (loop
        # factor near a = 0.99), so only that lane hits a lowered iteration cap
        # inside the stacked coupling; the stack is then evaluated lane by lane
        monkeypatch.setattr(wdrc.ambiguity, "_FILTER_MAX_ITER", 400)
        system = scalar_system(a=0.99)
        S, P, lam = np.array([[0.5]]), np.array([[1.0]]), 4.0
        sigma_hats = [np.array([[s]]) for s in (10.0, 1e-8, 3.0)]
        outcomes = _steady_lanes(system, np.stack([S] * 3), np.stack([P] * 3),
                                 np.stack(sigma_hats), np.full(3, lam))
        assert [type(o) for o in outcomes] == [WorstCaseCovResult, NoConvergence,
                                               WorstCaseCovResult]
        for sigma_hat, outcome in zip(sigma_hats, outcomes):
            try:
                alone = worst_case_cov_steady(system, S, P, sigma_hat, lam)
            except NoConvergence as exc:
                assert str(outcome) == str(exc)
                continue
            for field in ("sigma_star", "x_cov", "x_prior"):
                assert np.array_equal(getattr(outcome, field), getattr(alone, field))
            assert (outcome.objective, outcome.kkt_residual, outcome.iterations) == (
                alone.objective, alone.kkt_residual, alone.iterations)

    def test_detectability_is_tested_once_per_stack(self, monkeypatch):
        calls = []
        detectable = wdrc.ambiguity.is_detectable

        def counting(*args):
            calls.append(args)
            return detectable(*args)

        monkeypatch.setattr(wdrc.ambiguity, "is_detectable", counting)
        system = scalar_system(a=0.5)
        outcomes = _steady_lanes(system, np.full((4, 1, 1), 0.5), np.ones((4, 1, 1)),
                                 np.array([[[s]] for s in (0.5, 1.0, 2.0, 4.0)]),
                                 np.array([4.0, 8.0, 16.0, 32.0]))
        assert len(calls) == 1
        assert all(isinstance(o, WorstCaseCovResult) for o in outcomes)

    def test_sigma_hat_check_comes_before_detectability(self):
        # on an undetectable plant a non-PSD nominal still fails on its own check,
        # as it does alone, and the other lanes fail assumption 4
        system = scalar_system(a=2.0, c=0.0)
        sigma_hats = np.array([[[1.0]], [[-1.0]], [[2.0]]])
        outcomes = _steady_lanes(system, np.zeros((3, 1, 1)), np.ones((3, 1, 1)), sigma_hats,
                                 np.full(3, 10.0))
        assert [type(o) for o in outcomes] == [AssumptionViolated, ValueError, AssumptionViolated]
        for sigma_hat, outcome in zip(sigma_hats, outcomes):
            with pytest.raises(type(outcome)) as alone:
                worst_case_cov_steady(system, np.zeros((1, 1)), np.ones((1, 1)), sigma_hat, 10.0)
            assert str(alone.value) == str(outcome)

    def test_capped_lane_names_the_cap(self, monkeypatch):
        # uncapped, the first lane converges after 8 sweeps and the second after 3;
        # with the cap at 3 the first uses every sweep and says so, not that it stalled
        monkeypatch.setattr(wdrc.ambiguity, "_ASCENT_MAX_ITER", 3)
        system = scalar_system(a=0.5)
        S, P = np.array([[0.5]]), np.array([[1.0]])
        sigma_hats, lams = [np.array([[0.5]]), np.array([[4.0]])], [4.0, 32.0]
        outcomes = _steady_lanes(system, np.stack([S] * 2), np.stack([P] * 2),
                                 np.stack(sigma_hats), np.array(lams))
        capped, converged = outcomes
        assert isinstance(capped, NoConvergence)
        assert str(capped).startswith("worst-case covariance ascent hit 3 iterations at "
                                      "normalized residual ")
        with pytest.raises(NoConvergence) as alone:
            worst_case_cov_steady(system, S, P, sigma_hats[0], lams[0])
        assert str(alone.value) == str(capped)
        alone = worst_case_cov_steady(system, S, P, sigma_hats[1], lams[1])
        assert converged.iterations == alone.iterations == 3
        assert np.array_equal(converged.sigma_star, alone.sigma_star)


class TestByLane:
    """``_by_lane`` runs one stacked call, reruns each lane alone when it raises, stores
    each failing lane's exception in the ledger and returns the lanes still standing."""

    @staticmethod
    def _failing_on(bad, calls):
        def fn(lanes):
            calls.append(list(lanes))
            for lane in lanes:
                if lane in bad:
                    raise ValueError("lane %d" % lane)
        return fn

    def test_stacked_success_returns_the_same_lanes(self):
        lanes, ledger, calls = np.array([0, 2, 3]), [None] * 4, []
        assert _by_lane(self._failing_on((), calls), lanes, ledger) is lanes
        assert calls == [[0, 2, 3]]
        assert ledger == [None] * 4

    def test_failures_land_on_their_lanes_and_the_rest_stand_in_order(self):
        ledger, calls = [None] * 5, []
        standing = _by_lane(self._failing_on((1, 3), calls), np.array([4, 3, 1, 0]), ledger)
        assert list(standing) == [4, 0]
        assert calls == [[4, 3, 1, 0], [4], [3], [1], [0]]
        assert [str(exc) if exc is not None else None for exc in ledger] == [
            None, "lane 1", None, "lane 3", None]

    def test_empty_lanes_never_call_fn(self):
        calls = []
        assert len(_by_lane(self._failing_on((), calls), np.array([], dtype=int), [])) == 0
        assert calls == []

    def test_ledger_holding_results_keeps_its_standing_lanes(self):
        # the standing set comes from the reruns, not from a scan of the ledger
        ledger = ["result 0", "result 1", "result 2"]
        standing = _by_lane(self._failing_on((1,), []), np.array([0, 1, 2]), ledger)
        assert list(standing) == [0, 2]
        assert ledger[0] == "result 0" and ledger[2] == "result 2"
        assert isinstance(ledger[1], ValueError)
