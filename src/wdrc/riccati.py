"""Backward Riccati recursion, its steady-state equation, and policy parameters.

The value function of the penalized minimax problem stays quadratic in the
state and the estimation error, with coefficients (P, S, r, q) propagated
backward by a Riccati-type recursion in which the penalty parameter ``lam``
enters through Phi = B R^-1 B' - (1/lam) I. The controller gain/bias (K, L)
and the adversarial disturbance-mean parameters (H, G) are closed forms in
those coefficients. Steady-state quantities are the fixed points reached as
the horizon grows; their nominal-free half at a grid of penalties is staged
once, as one stack over the penalties (``_stages``; ``solve_are`` is a stack of one).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from ._linalg import (
    _COND_LIMIT,
    dot,
    frobenius,
    is_psd,
    matvec,
    max_eigval,
    psd_project,
    psd_sqrt,
    is_observable,
    is_stabilizable,
    solve_vec,
    sym,
)
from .ambiguity import _by_lane, _require_dominance, worst_case_cov_finite
from .estimator import _measurement_update
from .exceptions import AssumptionViolated, NoConvergence

__all__ = [
    "FiniteHorizonSolution",
    "SteadyStateSolution",
    "PhiResult",
    "SteadyPolicyParams",
    "LambdaCheck",
    "compute_phi",
    "backward_pass",
    "finite_horizon_recursion",
    "solve_are",
    "steady_state_policy_params",
    "check_lambda",
]

# steady-state solve: Frobenius change that stops it, sweep cap, accepted residual
_ARE_TOL, _ARE_MAX_ITER, _ARE_RESIDUAL_TOL = 1e-12, 100_000, 1e-9


@dataclass(frozen=True)
class FiniteHorizonSolution:
    """Stagewise solution over horizon T.

    Value-function coefficients P, S (T+1, n, n), r (T+1, n), q (T+1,) are
    indexed by stage with the terminal entries last; gains K (T, n_u, n),
    L (T, n_u), adversary parameters H (T, n, n), G (T, n), worst-case
    covariances Sigma_star (T, n, n), belief covariances X_post (T+1, n, n),
    and per-stage adversary values z (T,) follow the same indexing.
    """

    horizon: int
    lam: float
    P: np.ndarray
    S: np.ndarray
    r: np.ndarray
    q: np.ndarray
    K: np.ndarray
    L: np.ndarray
    H: np.ndarray
    G: np.ndarray
    Sigma_star: Optional[np.ndarray]
    X_post: Optional[np.ndarray]
    z: Optional[np.ndarray]


@dataclass(frozen=True)
class SteadyStateSolution:
    """Stationary policy pair and the quantities needed to certify it."""

    lam: float
    theta: Optional[float]
    P: np.ndarray
    S: np.ndarray
    r: np.ndarray
    K: np.ndarray
    L: np.ndarray
    H: np.ndarray
    G: np.ndarray
    Phi: np.ndarray
    Sigma_star: np.ndarray
    X_prior: np.ndarray
    X_post: np.ndarray
    z: float
    rho: float


class PhiResult(NamedTuple):
    matrix: np.ndarray
    is_psd: bool


class SteadyPolicyParams(NamedTuple):
    S: np.ndarray
    r: np.ndarray
    K: np.ndarray
    L: np.ndarray
    H: np.ndarray
    G: np.ndarray


class LambdaCheck(NamedTuple):
    passed: bool
    gap: float
    lam_max: float


_Stage = namedtuple("_Stage", "phi P S inv1_PA T1 W")  # see _stage_at


def compute_phi(system, weights, lam):
    """Phi = B R^-1 B' - (1/lam) I, with a flag for Phi >= 0.

    A negative part no larger than 1/lam is unavoidable whenever the input
    matrix has fewer columns than states, so callers decide how strictly to
    treat the flag.
    """
    if not 0 < lam < np.inf:
        raise ValueError("lam must be positive and finite")
    B = system.B
    phi = sym(B @ np.linalg.solve(weights.R, B.T) - np.eye(system.n_x) / lam)
    return PhiResult(phi, is_psd(phi))


def _riccati_step(A, Q, phi, lam, P, where):
    """One stage of the penalized Riccati map at P: tests assumption 1
    (lam*I - P positive definite; ``where`` names the stage), then returns
    sym(Q + A'(I + P Phi)^-1 P A) together with (I + P Phi)^-1 P A; for one
    penalty or for a stack of lanes (phi, lam and P stacked)."""
    _require_dominance(lam, P, where)
    inv1_PA = np.linalg.solve(np.eye(P.shape[-1]) + P @ phi, P @ A)
    return sym(Q + A.T @ inv1_PA), inv1_PA


def _gains(A, B, R, lam, w_hat, P, r, inv1_PA, inv1_rw):
    """Controller gain and bias (K, L) and adversary mean parameters (H, G)
    from P, r, (I + P Phi)^-1 P A and (I + P Phi)^-1 (r + P w_hat), for one
    penalty or for a stack of lanes (one lam per lane)."""
    lam = np.asarray(lam)[..., None]
    K = -np.linalg.solve(R, B.T @ inv1_PA)
    L = -solve_vec(R, matvec(B.T, inv1_rw))
    lamP = lam[..., None] * np.eye(P.shape[-1]) - P
    H = np.linalg.solve(lamP, P @ (A + B @ K))
    G = solve_vec(lamP, matvec(P, matvec(B, L)) + r + lam * w_hat)
    return K, L, H, G


def _offset(P, phi, lam, w_hat, tr_sigma_hat, r):
    """Constant-term increment (2 w_hat - Phi r)'(I + P Phi)^-1 r + w_hat'(I + P Phi)^-1 P w_hat
    - lam Tr[Sigma_hat], and the sum (I + P Phi)^-1 r + (I + P Phi)^-1 P w_hat of its solves,
    for one penalty or for a stack of lanes."""
    T1 = np.eye(P.shape[-1]) + P @ phi
    inv1_r, inv1_Pw = solve_vec(T1, r), solve_vec(T1, matvec(P, w_hat))
    value = dot(2.0 * w_hat - matvec(phi, r), inv1_r) + dot(w_hat, inv1_Pw) - lam * tr_sigma_hat
    return value, inv1_r + inv1_Pw


def backward_pass(system, weights, nominal, lam, horizon):
    """Backward recursion from the terminal stage; no adversary covariances.

    Returns arrays (P, S, r, q, K, L, H, G) with P, S, r, q covering stages
    0..T and the policy arrays covering stages 0..T-1. Raises
    AssumptionViolated if lam*I - P loses positive definiteness at any stage
    where the recursion uses it (stages 1..T).
    """
    A, B, Q = system.A, system.B, weights.Q
    n, nu = system.n_x, system.n_u
    T = int(horizon)
    if T < 1:
        raise ValueError("horizon must be >= 1")
    phi = compute_phi(system, weights, lam).matrix
    w_hat = nominal.w_hat
    tr_sigma_hat = float(np.trace(nominal.sigma_hat))

    P = np.zeros((T + 1, n, n))
    S = np.zeros((T + 1, n, n))
    r = np.zeros((T + 1, n))
    q = np.zeros(T + 1)
    K = np.zeros((T, nu, n))
    L = np.zeros((T, nu))
    H = np.zeros((T, n, n))
    G = np.zeros((T, n))

    P[T] = sym(weights.Qf)
    for t in range(T - 1, -1, -1):
        P1, r1 = P[t + 1], r[t + 1]
        P[t], inv1_PA = _riccati_step(A, Q, phi, lam, P1, "at stage t=%d" % (t + 1))
        dq, inv1_rw = _offset(P1, phi, lam, w_hat, tr_sigma_hat, r1)
        S[t] = sym(Q + A.T @ P1 @ A - P[t])
        r[t], q[t] = A.T @ inv1_rw, q[t + 1] + dq
        K[t], L[t], H[t], G[t] = _gains(A, B, weights.R, lam, w_hat, P1, r1, inv1_PA, inv1_rw)
    return P, S, r, q, K, L, H, G


def finite_horizon_recursion(system, weights, nominal, lam, horizon):
    """Full finite-horizon solution: backward pass plus the forward pass that
    interleaves the worst-case covariance program (worst_case_cov_finite)
    with the belief-covariance recursion (both are offline quantities).
    """
    P, S, r, q, K, L, H, G = backward_pass(system, weights, nominal, lam, horizon)
    T = int(horizon)
    n = system.n_x

    Sigma_star = np.zeros((T, n, n))
    X_post = np.zeros((T + 1, n, n))
    z = np.zeros(T)
    X_post[0] = _measurement_update(system.M0, system.C, system.M)[0]
    for t in range(T):
        res = worst_case_cov_finite(system, S[t + 1], P[t + 1], nominal.sigma_hat, lam, X_post[t])
        Sigma_star[t] = res.sigma_star
        X_post[t + 1] = res.x_cov
        z[t] = res.objective

    return FiniteHorizonSolution(
        horizon=T, lam=float(lam), P=P, S=S, r=r, q=q, K=K, L=L, H=H, G=G,
        Sigma_star=Sigma_star, X_post=X_post, z=z,
    )


def solve_are(system, weights, lam):
    """Steady-state P solving P = Q + A'(I + P Phi)^-1 P A: ``_stages`` of one penalty,
    after assumption 1 on the first iterate Q, which rejects a nonpositive lam first.
    Phi >= 0 is not required: any system with fewer inputs than states has Phi
    indefinite by exactly 1/lam."""
    _require_dominance(lam, weights.Q, "at the first iterate")
    _, stages, (rejected,) = _stages(system, weights, [lam])
    if rejected is not None:
        raise rejected
    return stages.P[0]


def _stages(system, weights, lams):
    """(lam, stages, rejected) of a grid of penalties: ``stages`` one _Stage (see _stage_at)
    stacked over them, ``rejected`` the exception each one raises alone (an
    AssumptionViolated or NoConvergence rejects it), or None; a rejected penalty's fields
    are not to be read. compute_phi's ValueError comes first; then, in order: assumption 1
    at the first iterate Q, (A, proj_psd(Phi)^1/2) stabilizable and (A, Q^1/2) observable;
    value iteration from Q to a Frobenius change below 1e-12 within 1e5 sweeps, with
    assumption 1 at each, so an inadmissible lam fails fast; at the fixed point assumption
    1, residual below 1e-9 and A'(I + P Phi)^-1 strictly stable. Each check runs over the
    stack of the penalties still standing, and penalty by penalty when it raises
    (``_by_lane``), so each gets the stage, or the exception, it gets alone."""
    A, Q, n = system.A, weights.Q, system.n_x
    lam = np.array([float(value) for value in lams])
    phi = np.array([compute_phi(system, weights, value).matrix for value in lam]).reshape(-1, n, n)
    rejected, change = [None] * len(lam), np.zeros(len(lam))
    P, S, inv1_PA, T1 = np.zeros((4, len(lam), n, n))
    W = np.zeros((len(lam), n, n)).swapaxes(-1, -2)  # each W a transposed solve, as _stage_at's
    P[:] = sym(Q)

    def standing(check, lanes):
        _by_lane(check, lanes, rejected.__setitem__)
        return np.array([i for i in lanes if rejected[i] is None], dtype=int)

    def regular(i):
        _require_dominance(lam[i], Q, "at the first iterate")
        if not is_stabilizable(A, psd_sqrt(psd_project(phi[i]))).all():
            raise AssumptionViolated("3 (control regularity)", "(A, Phi^1/2) is not stabilizable")
        if not is_observable(A, psd_sqrt(Q)):
            raise AssumptionViolated("3 (control regularity)", "(A, Q^1/2) is not observable")

    def step(i):
        P_next = _riccati_step(A, Q, phi[i], lam[i], P[i], "at sweep %d" % sweep)[0]
        change[i], P[i] = frobenius(P_next - P[i]), P_next

    def capped(i):
        raise NoConvergence("value iteration for the steady-state equation hit %d iterations" % _ARE_MAX_ITER)

    def certify(i):
        stage, P_next = _stage_at(system, weights, lam[i], phi[i], P[i])
        residual = frobenius(P[i] - P_next)
        if (residual >= _ARE_RESIDUAL_TOL).any():
            raise NoConvergence("steady-state equation residual %.3e above %.1e"
                                % (residual.max(), _ARE_RESIDUAL_TOL))
        if (np.abs(np.linalg.eigvals(stage.W)).max(axis=-1) >= 1.0).any():
            raise AssumptionViolated("3 (control regularity)", "penalized closed-loop map is not stable")
        S[i], inv1_PA[i], T1[i], W[i] = stage.S, stage.inv1_PA, stage.T1, stage.W

    live = standing(regular, np.arange(len(lam)))
    for sweep in range(_ARE_MAX_ITER):
        if not len(live):
            break
        live = standing(step, live)
        live = live[~(change[live] < _ARE_TOL)]
    standing(capped, live)
    standing(certify, np.flatnonzero([exc is None for exc in rejected]))
    return lam, _Stage(phi, P, S, inv1_PA, T1, W), rejected


def _stage_at(system, weights, lam, phi, P):
    """The nominal-free half of the steady policy at P, (Phi, P, S, (I + P Phi)^-1 P A,
    T1 = I + P Phi, W = A'(I + P Phi)^-1), and the Riccati map's value there; tests
    assumption 1 at P. For one penalty or for a stack of lanes."""
    P_next, inv1_PA = _riccati_step(system.A, weights.Q, phi, lam, P, "at P_ss")
    T1 = np.eye(system.n_x) + P @ phi
    S = sym(weights.Q + system.A.T @ P @ system.A - P)
    W = np.linalg.solve(T1.swapaxes(-1, -2), system.A).swapaxes(-1, -2)
    return _Stage(phi, P, S, inv1_PA, T1, W), P_next


def _steady_policy(system, weights, w_hat, lam, stage):
    """The per-nominal half of the steady policy at a _Stage: the bias r, then K, L, H, G;
    for one nominal mean, or for a stack of lanes (w_hat, lam and the stage's fields
    stacked)."""
    P, W = stage.P, stage.W
    try:
        r = solve_vec(np.eye(system.n_x) - W, matvec(W, matvec(P, w_hat)))
    except np.linalg.LinAlgError:
        raise AssumptionViolated(
            "3 (control regularity)",
            "resolvent I - A'(I + P Phi)^-1 is singular; steady-state bias undefined",
        )
    inv1_rw = solve_vec(stage.T1, r + matvec(P, w_hat))
    return (r,) + _gains(system.A, system.B, weights.R, lam, w_hat, P, r, stage.inv1_PA, inv1_rw)


def steady_state_policy_params(system, weights, nominal, lam, P_ss):
    """Closed-form steady-state S, r and policy parameters K, L, H, G."""
    stage = _stage_at(system, weights, lam, compute_phi(system, weights, lam).matrix, P_ss)[0]
    r, K, L, H, G = _steady_policy(system, weights, nominal.w_hat, lam, stage)
    return SteadyPolicyParams(S=stage.S, r=r, K=K, L=L, H=H, G=G)


def check_lambda(lam, P, margin=0.0):
    """Penalty admissibility report: passes iff lam > 0 and assumption 1's gap
    holds with the margin, (1 - 1/_COND_LIMIT) lam > (1 + margin) max eig P."""
    lam_max = max_eigval(P)
    passed = bool(lam > 0 and (1.0 - 1.0 / _COND_LIMIT) * lam > (1.0 + margin) * lam_max)
    return LambdaCheck(passed=passed, gap=float(lam - lam_max), lam_max=lam_max)
