"""Moment-based distribution distance and the worst-case covariance programs.

The adversary's covariance solves, in the stationary case,

    max_{Sigma >= 0}  Tr[S X(Sigma) + (P - lam I) Sigma
                         + 2 lam (Sh^1/2 Sigma Sh^1/2)^1/2]

where X(Sigma) is the stationary filtered covariance induced by process
noise Sigma, i.e. the pair

    X_prior = A X A' + Sigma,
    X       = X_prior - X_prior C'(C X_prior C' + M)^-1 C X_prior.

The finite-horizon variant replaces the stationary coupling by
X_prior = A X_t A' + Sigma with the current belief covariance X_t held
fixed. Both are concave in Sigma when S >= 0 and lam I > P (an indefinite S,
as partially actuated plants give, leaves a certified stationary point), and
are solved here by projected gradient ascent on Sigma alone: the
filter-constrained X is eliminated analytically at each iterate, the gradient
of the trace-root term comes from an exact eigendecomposition, PSD feasibility
is kept by eigenvalue clamping, and steps use Armijo halving so the objective
sequence is nondecreasing by construction. A stationarity fixed-point candidate

    Sigma <- lam^2 W^-1 Sh W^-1,   W = lam I - P - Omega(Sigma)

(Omega is the adjoint sensitivity of Tr[S X(Sigma)]) is tried first each
sweep and kept only when it does not decrease the objective; it typically
cuts the iteration count by orders of magnitude. The equivalent LMI form of
the program is written out in the README for anyone who prefers to plug in
an interior-point SDP solver instead.

The ascent runs in lanes. ``_ascend`` is a generator that asks for each
coupling evaluation with ``yield lane, Sigma``; ``_drive`` advances many such
generators together and answers each round's requests of one plant with one
stacked coupling call (a masked filter fixed point, a stacked measurement
update and a blocked Kronecker Lyapunov solve). Each stacked kernel gives
every matrix the arithmetic it gets alone, so a lane's result, or the
exception it raises, does not depend on what it is stacked with. A single
solve is a stack of one; a design (``design._design``) is a lane that wraps
``_steady_lane``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import (
    _COND_LIMIT,
    dlyap,
    frobenius,
    is_detectable,
    is_stabilizable,
    max_eigval,
    min_eigval,
    psd_project,
    psd_sqrt,
    sym,
)
from .estimator import _measurement_update
from .exceptions import AssumptionViolated, NoConvergence
from .model import NominalMoments

__all__ = [
    "WorstCaseCovResult",
    "gelbrich_distance",
    "bures_squared",
    "worst_case_cov_steady",
    "worst_case_cov_finite",
    "solve_filter_are",
]

_ASCENT_TOL, _ASCENT_MAX_ITER = 1e-7, 10_000  # normalized stationarity residual, sweeps
_FILTER_TOL, _FILTER_MAX_ITER = 1e-12, 100_000  # Frobenius change, recursion steps
_FILTER_RESIDUAL_TOL = 1e-8  # largest accepted stationary filter-equation residual


@dataclass(frozen=True)
class WorstCaseCovResult:
    """Maximizer Sigma_star, its filtered and one-step-ahead covariances (the
    filter pair), the optimal value, the stationarity residual, the iteration count."""

    sigma_star: np.ndarray
    x_cov: np.ndarray
    x_prior: np.ndarray
    objective: float
    kkt_residual: float
    iterations: int


@dataclass
class _Lane:
    """Coupling data of one ascent: the plant, S, and the covariance the coupling
    starts from (the stationary filter's warm start, moved to each evaluation's
    fixed point, or the finite stage's propagated belief covariance)."""

    system: object
    S: np.ndarray
    start: np.ndarray


def _as_moments(m):
    if isinstance(m, NominalMoments):
        return m.w_hat, m.sigma_hat
    mean, cov = m
    return np.asarray(mean, dtype=float).reshape(-1), np.asarray(cov, dtype=float)


def _check_psd_input(cov, name):
    w = np.linalg.eigvalsh(sym(cov))
    if w[0] < -1e-10:
        raise ValueError("%s must be PSD (min eigenvalue %.3e)" % (name, w[0]))


def bures_squared(cov_a, cov_b, sqrt_fn=None):
    """Squared Bures distance Tr[Sa + Sb - 2 (Sb^1/2 Sa Sb^1/2)^1/2] >= 0.

    Evaluated in the equivalent aligned-factor form |Ra - Rb U|_F^2 with
    U the orthogonal polar factor of Rb Ra (the cross trace equals the
    nuclear norm of Rb Ra), which is exact at coincident covariances where
    the trace form loses half the working precision to cancellation.
    ``sqrt_fn`` overrides the matrix square root (default: symmetric
    eigendecomposition with clamped eigenvalues), which lets tests drive the
    same computation through an independent root algorithm.
    """
    if sqrt_fn is None:
        sqrt_fn = psd_sqrt
    cov_a = sym(np.asarray(cov_a, dtype=float))
    cov_b = sym(np.asarray(cov_b, dtype=float))
    _check_psd_input(cov_a, "cov_a")
    _check_psd_input(cov_b, "cov_b")
    root_a = sqrt_fn(cov_a)
    root_b = sqrt_fn(cov_b)
    u, _, vt = np.linalg.svd(root_b @ root_a)
    align = u @ vt
    return float(np.sum((root_a - root_b @ align) ** 2))


def gelbrich_distance(moments_a, moments_b, sqrt_fn=None):
    """Moment distance sqrt(||m_a - m_b||^2 + B^2(Sigma_a, Sigma_b)).

    Depends on the two distributions only through their first two moments; it
    lower-bounds the 2-Wasserstein distance in general and equals it when both
    distributions are Gaussian.
    """
    mean_a, cov_a = _as_moments(moments_a)
    mean_b, cov_b = _as_moments(moments_b)
    b2 = bures_squared(cov_a, cov_b, sqrt_fn)
    return float(np.sqrt(np.sum((mean_a - mean_b) ** 2) + b2))


def _tr_sqrt_and_grad(sqrt_hat, sigma):
    """Tr[(Sh^1/2 Sigma Sh^1/2)^1/2] and its gradient in Sigma.

    The gradient is (1/2) Sh^1/2 H^-1/2 Sh^1/2 with H = Sh^1/2 Sigma Sh^1/2;
    eigenvalues of H at relative zero are excluded (pseudo-inverse), which
    restricts the transport term to the range of Sh for singular nominals.
    """
    h = sym(sqrt_hat @ sigma @ sqrt_hat)
    w, v = np.linalg.eigh(h)
    roots = np.sqrt(np.clip(w, 0.0, None))
    value = float(roots.sum())
    top = roots[-1] if roots.size else 0.0
    cutoff = 1e-12 * top
    inv_half = np.where(roots > cutoff, 0.5 / np.maximum(roots, 1e-300), 0.0)
    grad = sym(sqrt_hat @ ((v * inv_half) @ v.T) @ sqrt_hat)
    return value, grad


def _require_dominance(lam, P, where):
    """Raise assumption 1 unless lam - max eig P > lam/_COND_LIMIT, by one Cholesky
    of (1 - 1/_COND_LIMIT) lam*I - P (the Riccati solve runs it every sweep);
    ``where`` names the stage. For P >= 0 the gap bounds cond(lam*I - P) by
    _COND_LIMIT and every eigenvalue of I + P Phi below by 1/_COND_LIMIT."""
    try:
        np.linalg.cholesky((1.0 - 1.0 / _COND_LIMIT) * lam * np.eye(P.shape[0]) - P)
    except np.linalg.LinAlgError:
        msg = "lam*I - P is not positive definite %s (lam=%.6g, max eig P=%.6g); increase lam"
        raise AssumptionViolated("1 (penalty dominance)", msg % (where, lam, max_eigval(P))) from None


def _filter_fixpoint(A, C, M, sigma, start):
    """Stationary one-step-ahead covariance for process noise sigma, or for each
    noise of a stack, iterated from the matching ``start``.

    Iterates measure-then-propagate until the Frobenius change drops below
    _FILTER_TOL. In a stack each covariance stops on its own change and is
    frozen there, so it gets the iterates it gets alone. Convergence is
    geometric at the squared spectral radius of the filter loop.
    """
    n = A.shape[0]
    out = sym(np.asarray(start, dtype=float)).reshape(-1, n, n)
    sigma = np.reshape(sigma, out.shape)
    live, x_prior = np.arange(len(out)), out
    for _ in range(_FILTER_MAX_ITER):
        x_post = _measurement_update(x_prior, C, M)[0]
        x_next = sym(A @ x_post @ A.T + sigma)
        done = frobenius(x_next - x_prior) < _FILTER_TOL
        if done.any():
            out[live[done]] = x_next[done]
            if done.all():
                return out.reshape(np.shape(start))
            x_next, sigma, live = x_next[~done], sigma[~done], live[~done]
        x_prior = x_next
    raise NoConvergence("filter covariance recursion hit %d iterations" % _FILTER_MAX_ITER)


def _ascend(sigma_hat, P, lam, lane):
    """Shared projected-ascent loop for one lane, as a generator: each coupling
    evaluation is ``yield lane, Sigma``, answered with (Tr[S X], Omega, (X, X_prior))
    for the variant being solved; returns the WorstCaseCovResult. ``_drive`` runs
    many lanes together.

    The stationarity residual is the projected-gradient mapping norm divided
    by max(1, lam): gradient entries are differences of O(lam) terms, so an
    absolute criterion is unreachable in doubles for large penalties.

    At a stationarity fixed-point candidate Sigma+ = lam^2 W^-1 Sh W^-1 the
    transport-term gradient equals W = lam I - P - Omega exactly on the range
    of Sh, so the gradient there is computed as Omega(Sigma+) + pm + R W R
    (R the range projector): a difference of small matrices, free of the
    lam-scale cancellation that limits the generic eigendecomposition form.
    """
    n = P.shape[0]
    eye = np.eye(n)
    pm = sym(P) - lam * eye
    sqrt_hat = psd_sqrt(sigma_hat)
    scale = max(1.0, lam)
    w_hat_eig, v_hat = np.linalg.eigh(sym(np.asarray(sigma_hat, dtype=float)))
    keep = w_hat_eig > 1e-12 * max(w_hat_eig[-1], 0.0)
    range_proj = sym((v_hat[:, keep]) @ (v_hat[:, keep]).T)

    def evaluate(sigma):
        tr_sx, omega, covs = yield lane, sigma
        t_val, t_grad = _tr_sqrt_and_grad(sqrt_hat, sigma)
        f = tr_sx + float(np.sum(pm * sigma)) + 2.0 * lam * t_val
        g = sym(omega + pm + 2.0 * lam * t_grad)
        return f, g, covs, omega

    def mapping_residual(sigma, g):
        return np.linalg.norm(psd_project(sigma + g) - sigma, "fro") / scale

    sigma = psd_project(sigma_hat)
    f, g, covs, omega = yield from evaluate(sigma)
    residual = mapping_residual(sigma, g)
    step = 1.0 / scale
    iterations = 0
    stalled = 0
    for iterations in range(1, _ASCENT_MAX_ITER + 1):
        if residual <= _ASCENT_TOL:
            return WorstCaseCovResult(sigma, *covs, f, residual, iterations)

        new = None
        w_mat = sym(lam * eye - P - omega)
        if min_eigval(w_mat) > 0.0:
            half = np.linalg.solve(w_mat, sigma_hat)
            cand = psd_project(lam * lam * np.linalg.solve(w_mat, half.T))
            tr_sx_c, omega_c, x_c = yield lane, cand
            t_val_c = _tr_sqrt_and_grad(sqrt_hat, cand)[0]
            fc = tr_sx_c + float(np.sum(pm * cand)) + 2.0 * lam * t_val_c
            gc = sym(omega_c + pm + range_proj @ w_mat @ range_proj)
            rc = mapping_residual(cand, gc)
            improved = fc > f + 1e-15 * (1.0 + abs(f))
            within_noise = fc >= f - 1e-9 * (1.0 + abs(f))
            if improved or (within_noise and rc < 0.9 * residual):
                new = (cand, fc, gc, x_c, omega_c, rc)

        if new is None:
            t = step
            while t > 1e-20:
                trial = psd_project(sigma + t * g)
                drift = trial - sigma
                if np.linalg.norm(drift, "fro") <= 1e-15 * (1.0 + np.linalg.norm(sigma, "fro")):
                    break
                ft, gt, xt, ot = yield from evaluate(trial)
                if ft >= f + 1e-4 * float(np.sum(g * drift)):
                    new = (trial, ft, gt, xt, ot, mapping_residual(trial, gt))
                    step = 2.0 * t
                    break
                t *= 0.5

        if new is None:
            break  # no improving step exists at float resolution
        assert new[1] >= f - 1e-9 * (1.0 + abs(f)), "ascent objective must be nondecreasing"
        stalled = stalled + 1 if new[1] <= f + 1e-14 * (1.0 + abs(f)) else 0
        sigma, f, g, covs, omega, residual = new
        if stalled >= 5:
            break  # progress below float resolution several sweeps in a row

    if residual <= _ASCENT_TOL:
        return WorstCaseCovResult(sigma, *covs, f, residual, iterations)
    raise NoConvergence(
        "worst-case covariance ascent stalled at normalized residual %.3e after %d iterations"
        % (residual, iterations)
    )


def _drive(lanes, coupling):
    """Run lane generators together; returns each one's outcome, its return
    value or the exception it raised.

    Each round takes the (lane, Sigma) request of every unfinished generator,
    answers the requests of each plant with one stacked ``coupling(lanes,
    sigmas)`` call, and sends every generator its own reply. The stacked
    kernels give each lane the arithmetic it gets alone, so no outcome depends
    on the other lanes. When a stacked call raises, its lanes are evaluated
    one at a time, and a failed evaluation is raised inside its own generator.
    """
    outcomes = [None] * len(lanes)
    replies = dict.fromkeys(range(len(lanes)), (None, None))
    while replies:
        plants = {}
        for i, (reply, error) in replies.items():
            try:
                lane, sigma = lanes[i].send(reply) if error is None else lanes[i].throw(error)
            except StopIteration as stop:
                outcomes[i] = stop.value
            except Exception as exc:  # the lane's own failure, for its caller to raise or record
                outcomes[i] = exc
            else:
                plants.setdefault(id(lane.system), []).append((i, lane, sigma))
        replies = {}
        for group in plants.values():
            index, group_lanes, sigmas = zip(*group)
            try:
                answers = [(answer, None) for answer in coupling(group_lanes, sigmas)]
            except Exception:
                answers = [_alone(coupling, lane, sigma)
                           for lane, sigma in zip(group_lanes, sigmas)]
            replies.update(zip(index, answers))
    return outcomes


def _alone(coupling, lane, sigma):
    """(reply, None) or (None, exception) of one lane's coupling evaluation."""
    try:
        return coupling([lane], [sigma])[0], None
    except Exception as exc:
        return None, exc


def _unwrap(outcome):
    """A lane's return value, or the exception it raised, raised again."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _steady_coupling(lanes, sigmas):
    """(Tr[S X], Omega, (X, X_prior)) per lane of one plant: X_prior the stationary
    filter fixed point under noise Sigma from the lane's warm start, which then
    moves to it, and Omega = dlyap(A (I - K C), (I - K C)' S (I - K C))."""
    system = lanes[0].system
    A, C, M = system.A, system.C, system.M
    S = np.array([lane.S for lane in lanes])
    x_prior = _filter_fixpoint(A, C, M, np.array(sigmas), np.array([lane.start for lane in lanes]))
    x_post, _, ikc = _measurement_update(x_prior, C, M)
    omega = dlyap(A @ ikc, sym(ikc.swapaxes(-1, -2) @ S @ ikc))
    tr_sx = np.sum(S * x_post, axis=(-2, -1))
    for lane, start in zip(lanes, x_prior):
        lane.start = start
    return [(float(t), o, (xp, xq)) for t, o, xp, xq in zip(tr_sx, omega, x_post, x_prior)]


def _finite_coupling(lanes, sigmas):
    """(Tr[S X], Omega, (X, X_prior)) per lane of one plant with X_prior = the
    lane's propagated belief covariance + Sigma, and Omega = (I - K C)' S (I - K C)."""
    system = lanes[0].system
    S = np.array([lane.S for lane in lanes])
    x_prior = sym(np.array([lane.start for lane in lanes]) + np.array(sigmas))
    x_post, _, ikc = _measurement_update(x_prior, system.C, system.M)
    omega = sym(ikc.swapaxes(-1, -2) @ S @ ikc)
    tr_sx = np.sum(S * x_post, axis=(-2, -1))
    return [(float(t), o, (xp, xq)) for t, o, xp, xq in zip(tr_sx, omega, x_post, x_prior)]


def _steady_lane(system, S_ss, P_ss, sigma_hat, lam):
    """worst_case_cov_steady past assumption 1 as a lane for ``_drive(lanes, _steady_coupling)``."""
    A, C, M = system.A, system.C, system.M
    _check_psd_input(sigma_hat, "sigma_hat")
    if not is_detectable(A, C):  # the filter recursions below could never converge
        raise AssumptionViolated("4 (filter regularity)", "(A, C) is not detectable")
    start = sym(np.asarray(sigma_hat, dtype=float)) + np.eye(system.n_x)
    result = yield from _ascend(sigma_hat, P_ss, lam, _Lane(system, sym(S_ss), start))
    _certified_filter_pair(A, C, M, result.sigma_star, result.x_prior)
    return result


def worst_case_cov_steady(system, S_ss, P_ss, sigma_hat, lam):
    """Stationary worst-case covariance coupled to its own steady filter.

    Raises AssumptionViolated when lam*I - P_ss is not PD (the program is
    unbounded there) or when (A, C) is not detectable, before any filter
    recursion. On success (x_prior, x_cov) is the stationary filter pair at
    sigma_star, certified with solve_filter_are's checks, so the robust design
    needs no filter solve of its own; kkt_residual (projected-gradient norm
    over max(1, lam)) is at most 1e-7. S_ss is nominally PSD but is accepted
    with the O(|P|^2/lam) negative part that partially actuated plants
    produce; the ascent then certifies a stationary point, not a global maximum.
    A design runs this as one lane of a stack (``_steady_lane``).
    """
    _require_dominance(lam, P_ss, "for the covariance program")
    lane = _steady_lane(system, S_ss, P_ss, sigma_hat, lam)
    return _unwrap(_drive([lane], _steady_coupling)[0])


def worst_case_cov_finite(system, S_next, P_next, sigma_hat, lam, x_cov):
    """Single-stage worst-case covariance given the current belief covariance.

    The one-step-ahead covariance is A x_cov A' + Sigma, so the filter part is
    a direct function of Sigma rather than a stationary fixed point. The
    returned x_cov is the belief covariance at the next stage under the
    maximizer, and the objective equals that stage's adversary value.
    """
    A = system.A
    _require_dominance(lam, P_next, "for the covariance program")
    _check_psd_input(sigma_hat, "sigma_hat")
    propagated = sym(A @ sym(np.asarray(x_cov, dtype=float)) @ A.T)
    lane = _ascend(sigma_hat, P_next, lam, _Lane(system, sym(S_next), propagated))
    return _unwrap(_drive([lane], _finite_coupling)[0])


def _certified_filter_pair(A, C, M, sigma, x_prior):
    """solve_filter_are's checks past detectability; ``x_prior`` None iterates from zero."""
    if not is_stabilizable(A, psd_sqrt(psd_project(sigma))):
        raise AssumptionViolated("4 (filter regularity)", "(A, Sigma^1/2) is not stabilizable")
    if x_prior is None:
        x_prior = _filter_fixpoint(A, C, M, sigma, np.zeros_like(sigma))
    x_post = _measurement_update(x_prior, C, M)[0]
    residual = np.linalg.norm(x_prior - sym(A @ x_post @ A.T + sigma), "fro")
    if residual > _FILTER_RESIDUAL_TOL:
        raise NoConvergence("filter stationary-equation residual %.3e above %.1e"
                            % (residual, _FILTER_RESIDUAL_TOL))
    return x_prior, x_post


def solve_filter_are(system, sigma_star):
    """Stationary (one-step-ahead, filtered) covariance pair for noise sigma_star.

    Checks the filter regularity conditions numerically ((A, C) detectable,
    (A, sigma_star^1/2) stabilizable), iterates the covariance recursion from
    zero until the Frobenius change is below 1e-12 (at most 1e5 steps), and
    requires a stationary-equation residual of at most 1e-8.
    """
    A, C = system.A, system.C
    if not is_detectable(A, C):
        raise AssumptionViolated("4 (filter regularity)", "(A, C) is not detectable")
    return _certified_filter_pair(A, C, system.M, sym(np.asarray(sigma_star, dtype=float)), None)
