"""Offline controller synthesis, the LQG baseline, cost bounds, and tuning.

``design_wdrc`` runs the offline stage end to end: steady-state Riccati
solve, closed-form policy parameters, and the worst-case covariance program
with its stationary filter, bundling everything needed to run online with no
further solves. ``design_lqg`` builds the certainty-equivalent baseline that
plugs the nominal moments directly into both the controller and the estimator.
``tune_wdrc`` returns the design at the grid penalty minimizing the certified
bound, with that bound and the grid's rows, so no caller designs again at it.
Designs read the penalties' Riccati stages from ``riccati._stages`` by index.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._linalg import is_detectable, is_stabilizable, max_eigval, psd_sqrt, sym
from .ambiguity import _by_lane, _steady_lanes, _unwrap, bures_squared, solve_filter_are
from .estimator import _steady_gain
from .exceptions import AssumptionViolated, NoAdmissibleLambda, NoConvergence
from .riccati import SteadyStateSolution, _offset, _Stage, _stages, _steady_policy, solve_are

__all__ = [
    "BoundReport",
    "LqgSolution",
    "PolicyBundle",
    "design_wdrc",
    "design_lqg",
    "evaluate_rho",
    "guaranteed_bound",
    "default_lambda_grid",
    "evaluate_lambda_grid",
    "tune_lambda",
    "tune_wdrc",
    "radius_from_samples",
    "bellman_residual",
    "bellman_suboptimality_gap",
]


@dataclass(frozen=True)
class BoundReport:
    """Certified average-cost bound theta^2 * lam + rho for radius theta."""

    lam: float
    theta: float
    rho: float
    bound: float

    def __post_init__(self):
        if self.theta >= 0 and self.bound < self.rho - 1e-12:
            raise ValueError("bound must dominate rho for nonnegative theta")


@dataclass(frozen=True)
class LqgSolution:
    """Certainty-equivalent Riccati solution and its nominal filter."""

    P: np.ndarray
    K: np.ndarray
    L: np.ndarray
    r: np.ndarray
    X_prior: np.ndarray
    X_post: np.ndarray


@dataclass(frozen=True)
class PolicyBundle:
    """Everything the online loop needs: method tag, plant, weights, nominal
    moments, the solved policy, the steady estimator gain, and provenance
    (input digest + seed) for reproducibility."""

    method: str
    system: object
    weights: object
    nominal: object
    steady: Optional[SteadyStateSolution]
    lqg: Optional[LqgSolution]
    estimator_gain: np.ndarray
    provenance: dict


def _input_digest(system, weights, nominal, lam):
    h = hashlib.sha256()
    for a in (system.A, system.B, system.C, system.M, system.m0, system.M0,
              weights.Q, weights.Qf, weights.R, nominal.w_hat, nominal.sigma_hat):
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    h.update(np.float64(lam).tobytes())
    return h.hexdigest()


def evaluate_rho(steady, nominal):
    """Stationary penalized average cost of the optimal policy pair.

    rho = (2 w_hat - Phi r)'(I + P Phi)^-1 r - lam Tr[Sigma_hat]
          + w_hat'(I + P Phi)^-1 P w_hat + z.
    """
    return float(_rho(steady.P, steady.Phi, steady.lam, nominal.w_hat, nominal.sigma_hat,
                      steady.r, steady.z))


def _rho(P, phi, lam, w_hat, sigma_hat, r, z):
    """evaluate_rho for one design or for each design of a stack."""
    tr_sigma_hat = np.trace(sigma_hat, axis1=-2, axis2=-1)
    return _offset(P, phi, lam, w_hat, tr_sigma_hat, r)[0] + z


def design_wdrc(system, weights, nominal, lam, theta=None, seed=None):
    """Offline synthesis of the robust policy pair at penalty ``lam``.

    Pipeline: steady-state Riccati solve, policy parameters, and the worst-case
    covariance program, whose certified stationary filter pair the bundle
    carries. Raises AssumptionViolated or NoConvergence from the failing stage.
    The design is a stack of one lane (see ``_designs``).
    """
    staged = _stages(system, weights, [lam])
    return _unwrap(_designs(system, weights, [nominal], staged, theta, seed)[0])


def _designs(system, weights, nominals, staged, theta=None, seed=None):
    """design_wdrc at each (nominal, penalty) pair of one plant, nominal-major over
    ``staged``, the penalties' ``riccati._stages``, as one stack: each pair's bundle, or
    the exception it raises alone. A rejected penalty's exception is returned unraised,
    keeping the traceback it was caught with. Each step runs once over the pairs still
    standing: the per-nominal half of the policy, the covariance program
    (``ambiguity._steady_lanes``), then rho and the estimator gain."""
    lams, stages, rejected = staged
    outcomes = [exc for _ in nominals for exc in rejected]
    if not outcomes:
        return outcomes
    n, n_u, count = system.n_x, system.n_u, len(outcomes)
    nominal, penalty = [nom for nom in nominals for _ in lams], np.arange(count) % len(lams)
    lam, stage = lams[penalty], _Stage(*(field[penalty] for field in stages))  # W stays transposed
    w_hat = np.array([nom.w_hat for nom in nominal])
    sigma_hat = np.array([nom.sigma_hat for nom in nominal])
    policy = [np.zeros((count,) + shape) for shape in ((n,), (n_u, n), (n_u,), (n, n), (n,))]

    def solve_policy(i):
        for out, value in zip(policy, _steady_policy(
                system, weights, w_hat[i], lam[i], _Stage(*(field[i] for field in stage)))):
            out[i] = value

    lanes = np.flatnonzero([outcome is None for outcome in outcomes])
    _by_lane(solve_policy, lanes, outcomes.__setitem__)
    posed = np.array([i for i, outcome in enumerate(outcomes) if outcome is None], dtype=int)
    results = _steady_lanes(system, stage.S[posed], stage.P[posed], sigma_hat[posed], lam[posed])
    wc = {}
    x_cov, x_prior = np.zeros((2, count, n, n))
    z, rho = np.zeros(count), np.zeros(count)
    gain = np.zeros((count, system.n_y, n)).swapaxes(-1, -2)  # each gain a transpose, as steady_gain's
    for i, result in zip(posed, results):
        if isinstance(result, Exception):
            outcomes[i] = result
        else:
            wc[i], x_cov[i], x_prior[i], z[i] = result, result.x_cov, result.x_prior, result.objective
    solved = np.array(list(wc), dtype=int)

    def finish(i):
        rho[i], gain[i] = (
            _rho(stage.P[i], stage.phi[i], lam[i], w_hat[i], sigma_hat[i], policy[0][i], z[i]),
            _steady_gain(x_cov[i], system, x_prior[i], NoConvergence))

    _by_lane(finish, solved, outcomes.__setitem__)
    for i in solved:
        if outcomes[i] is not None:
            continue
        lam_i, result = float(lam[i]), wc[i]
        r_i, K, L, H, G = (field[i] for field in policy)
        steady = SteadyStateSolution(
            lam=lam_i, theta=None if theta is None else float(theta),
            P=stage.P[i], S=stage.S[i], r=r_i, K=K, L=L, H=H, G=G, Phi=stage.phi[i],
            Sigma_star=result.sigma_star, X_prior=result.x_prior, X_post=result.x_cov,
            z=result.objective, rho=float(rho[i]),
        )
        provenance = {"input_sha256": _input_digest(system, weights, nominal[i], lam_i),
                      "seed": seed}
        outcomes[i] = PolicyBundle(method="WDRC", system=system, weights=weights,
                                   nominal=nominal[i], steady=steady, lqg=None,
                                   estimator_gain=gain[i], provenance=provenance)
    return outcomes


def design_lqg(system, weights, nominal, seed=None):
    """Certainty-equivalent baseline: standard Riccati gain plus a Kalman
    filter built directly from the nominal moments.

    The filter pair comes from solve_filter_are with the nominal covariance,
    so it gets the same filter-regularity (assumption 4) and residual checks
    as the robust design. A failed Riccati solve raises NoConvergence.
    """
    A, B = system.A, system.B
    Q, R = weights.Q, weights.R
    if not is_stabilizable(A, B):
        raise NoConvergence("(A, B) is not stabilizable; no stabilizing baseline gain")
    if not is_detectable(A, psd_sqrt(Q)):
        raise NoConvergence("(A, Q^1/2) is not detectable; baseline Riccati solution may not exist")
    import scipy.linalg  # here, not at import: only this baseline solve needs scipy
    try:
        P = sym(scipy.linalg.solve_discrete_are(A, B, Q, R))
    except np.linalg.LinAlgError as exc:
        raise NoConvergence("certainty-equivalent Riccati solve failed: %s" % exc)

    BtP = B.T @ P
    gain_den = R + BtP @ B
    K = -np.linalg.solve(gain_den, BtP @ A)
    w_hat = nominal.w_hat
    A_cl = A + B @ K
    r = np.linalg.solve(np.eye(system.n_x) - A_cl.T, A_cl.T @ (P @ w_hat))
    L = -np.linalg.solve(gain_den, B.T @ (P @ w_hat + r))

    X_prior, X_post = solve_filter_are(system, nominal.sigma_hat)
    lqg = LqgSolution(P=P, K=K, L=L, r=r, X_prior=X_prior, X_post=X_post)
    gain = _steady_gain(X_post, system, X_prior, NoConvergence)
    provenance = {"input_sha256": _input_digest(system, weights, nominal, 0.0),
                  "seed": seed}
    return PolicyBundle(method="LQG", system=system, weights=weights,
                        nominal=nominal, steady=None, lqg=lqg,
                        estimator_gain=gain, provenance=provenance)


def guaranteed_bound(theta, lam, rho):
    """Average-cost guarantee theta^2 * lam + rho over the radius-theta ball."""
    if not theta >= 0:
        raise ValueError("theta must be nonnegative")
    return BoundReport(lam=float(lam), theta=float(theta), rho=float(rho),
                       bound=float(theta * theta * lam + rho))


def default_lambda_grid(system, weights, points=40, lam_hi=1e6):
    """Log-spaced penalty grid from just above the admissibility floor
    (estimated at the large-penalty Riccati solution) up to ``lam_hi``."""
    P_hi = solve_are(system, weights, lam_hi)
    lo = 1.05 * max_eigval(P_hi)
    if lo <= 0:
        lo = min(1.0, lam_hi / 2.0)
    if lo >= lam_hi:
        return np.array([lam_hi])
    return np.geomspace(lo, lam_hi, points)


def evaluate_lambda_grid(system, weights, nominal, theta, grid):
    """Bound curve over a penalty grid; inadmissible points are recorded,
    not fatal. Returns a list of dict rows (lam, rho, bound, status, bundle),
    with ``bundle`` the design at that penalty, or None for a rejected row.
    The grid's designs run as one stack of lanes."""
    return _grid_rows(system, weights, [nominal], theta, _stages(system, weights, grid))[0]


def _grid_rows(system, weights, nominals, theta, staged):
    """evaluate_lambda_grid's rows for each nominal over ``staged``, the grid's
    ``riccati._stages``, which all nominals share; every (nominal, penalty) design
    is a lane of one stack. A lane's AssumptionViolated or NoConvergence becomes
    its row's status; any other exception is raised, the first in
    nominal-then-penalty order, as designing one at a time would raise it."""
    outcomes = iter(_designs(system, weights, nominals, staged, theta))
    curves = []
    for _ in nominals:
        rows = []
        for lam, outcome in zip(staged[0], outcomes):
            row = {"lam": float(lam), "rho": None, "bound": None, "status": "ok", "bundle": None}
            if isinstance(outcome, AssumptionViolated):
                row["status"] = "assumption: %s" % outcome
            elif isinstance(outcome, NoConvergence):
                row["status"] = "no-convergence: %s" % outcome
            else:
                bundle = _unwrap(outcome)
                row["rho"] = bundle.steady.rho
                row["bound"] = float(theta * theta * row["lam"] + bundle.steady.rho)
                row["bundle"] = bundle
            rows.append(row)
        curves.append(rows)
    return curves


def _tuned(rows, theta):
    """(rows, bundle, report) of a grid curve: the design at its bound-minimizing
    ok row and its certified bound, or the NoAdmissibleLambda to raise when no
    row is ok. Raises ValueError for an empty curve."""
    if not rows:
        raise ValueError("grid must be nonempty")
    ok = [r for r in rows if r["status"] == "ok"]
    if not ok:
        lams = [r["lam"] for r in rows]
        return NoAdmissibleLambda("no admissible penalty on the grid [%g, %g] (%d points)"
                                  % (min(lams), max(lams), len(lams)))
    best = min(ok, key=lambda r: (r["bound"], r["lam"]))
    return rows, best["bundle"], guaranteed_bound(theta, best["lam"], best["rho"])


def tune_wdrc(system, weights, nominal, theta, grid=None):
    """(rows, bundle, report): ``evaluate_lambda_grid``'s rows over ``grid`` (default:
    ``default_lambda_grid``), the design at the ok row minimizing theta^2 lam + rho(lam),
    ties going to the smaller lam, and its bound; raises NoAdmissibleLambda if none is ok."""
    if not theta >= 0:
        raise ValueError("theta must be nonnegative")
    if grid is None:
        grid = default_lambda_grid(system, weights)
    return _unwrap(_tuned(evaluate_lambda_grid(system, weights, nominal, theta, grid), theta))


def tune_lambda(system, weights, nominal, theta, grid=None):
    """``(lam*, report)`` of ``tune_wdrc``: the tuned penalty and its certified bound."""
    report = tune_wdrc(system, weights, nominal, theta, grid)[2]
    return report.lam, report


def _bisect_increasing(func, target, lo=1e-12, hi=1.0, tol=1e-12, max_iter=400):
    """Solve func(x) = target for increasing func by bracketing + bisection."""
    while func(hi) < target:
        hi *= 2.0
        if hi > 1e18:
            raise ValueError("failed to bracket the implicit radius equation")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if func(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def radius_from_samples(n_samples, n_x, beta, constants=(1.0, 1.0, 3.0),
                        compact_support_half_diameter=None):
    """Ambiguity radius for an N-sample nominal at confidence 1 - beta.

    ``constants`` supplies (c1, c2, c); c1 = c2 = 1 are illustrative defaults
    since the measure-concentration constants are problem dependent, and c > 2
    is the light-tail exponent. With a compact support half-diameter the
    tighter three-branch rule applies (c unused). The n_x = 4 branch solves
    its implicit equation by bisection to 1e-12.
    """
    c1, c2, c = constants
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    if c1 <= 0 or c2 <= 0:
        raise ValueError("c1 and c2 must be positive")
    if beta >= c1:
        raise ValueError("beta must be below c1 for a positive radius")
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    log_term = np.log(c1 / beta)
    base = log_term / (c2 * n_samples)

    xi = compact_support_half_diameter
    if xi is not None:
        if xi <= 0:
            raise ValueError("support half-diameter must be positive")
        if n_x < 4:
            return float(xi * base ** 0.25)
        if n_x > 4:
            return float(xi * base ** (1.0 / n_x))
        target = np.sqrt(base)
        xi2 = xi * xi
        return float(_bisect_increasing(
            lambda t: t * t / (xi2 * np.log(2.0 + xi2 / (t * t))), target))

    if c <= 2:
        raise ValueError("light-tail exponent c must exceed 2")
    if n_samples < log_term / c2:
        return float(base ** (2.0 / c))
    if n_x < 4:
        return float(np.sqrt(base))
    if n_x > 4:
        return float(base ** (2.0 / n_x))
    if n_samples >= (np.log(3.0) ** 2) * log_term / c2:
        target = np.sqrt(base)
        return float(_bisect_increasing(lambda t: t / np.log(2.0 + 1.0 / t), target))
    raise ValueError(
        "radius rule undefined for n_x = 4 with N in the gap between "
        "log(c1/beta)/c2 and (log 3)^2 log(c1/beta)/c2; increase N"
    )


def _bellman_rhs(bundle, nominal, x_bar, K_used):
    """Right side of the stationary optimality equation at belief mean x_bar,
    with control gain K_used and the adversary's best mean response."""
    st = bundle.steady
    sys_, w = bundle.system, bundle.weights
    A, B = sys_.A, sys_.B
    w_hat, sigma_hat = nominal.w_hat, nominal.sigma_hat
    lam = st.lam

    u = K_used @ x_bar + st.L
    lamP = lam * np.eye(sys_.n_x) - st.P
    w_bar = np.linalg.solve(lamP, st.P @ (A @ x_bar + B @ u) + st.r + lam * w_hat)
    x_pred = A @ x_bar + B @ u + w_bar

    penalty = lam * (float(np.sum((w_bar - w_hat) ** 2))
                     + bures_squared(st.Sigma_star, sigma_hat))
    value = x_bar @ w.Q @ x_bar + float(np.sum(w.Q * st.X_post))
    value += u @ w.R @ u - penalty
    value += x_pred @ st.P @ x_pred + 2.0 * st.r @ x_pred
    value += float(np.sum(st.P * st.X_prior)) + float(np.sum(st.S * st.X_post))
    return float(value)


def _bellman_lhs(bundle, x_bar):
    st = bundle.steady
    h = x_bar @ st.P @ x_bar + 2.0 * st.r @ x_bar + float(np.sum((st.S + st.P) * st.X_post))
    return float(st.rho + h)


def bellman_residual(bundle, nominal, belief_mean):
    """|LHS - RHS| of the stationary optimality equation at a belief mean.

    The right side is evaluated analytically at the optimal policy pair; a
    residual at float resolution certifies that the synthesized quantities
    actually solve the fixed-point equation.
    """
    x_bar = np.asarray(belief_mean, dtype=float).reshape(-1)
    rhs = _bellman_rhs(bundle, nominal, x_bar, bundle.steady.K)
    return abs(_bellman_lhs(bundle, x_bar) - rhs)


def bellman_suboptimality_gap(bundle, nominal, belief_mean, gain_offset):
    """RHS - LHS when the control gain is perturbed by ``gain_offset``.

    Strictly positive for any nonzero perturbation at a nonzero belief mean,
    since the optimal control is the unique minimizer of the (re-maximized)
    right side.
    """
    x_bar = np.asarray(belief_mean, dtype=float).reshape(-1)
    K_pert = bundle.steady.K + gain_offset
    rhs = _bellman_rhs(bundle, nominal, x_bar, K_pert)
    return float(rhs - _bellman_lhs(bundle, x_bar))
