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

The ascent runs over a stack of lanes of one plant (``_Ascent``): each lane's
iterate, step, stall count, iteration count and phase are arrays. Each round,
every unfinished lane asks for one coupling evaluation (its start, its
fixed-point candidate or its next backtracking trial), one stacked coupling
call answers them all (a masked filter fixed point and a stacked measurement
update), and each lane's decision is a mask over the stack; a lane that stops
is frozen with its result or its exception. Omega (a blocked Kronecker
Lyapunov solve when stationary) is solved only where it is read: at starts,
candidates and accepted trials. Each stacked kernel gives every matrix the
arithmetic it gets alone, so a lane's result, or the exception it raises, does
not depend on what it is stacked with. Every stacked stage calls ``_by_lane``,
which reruns a raising call lane by lane, stores each lane's exception as its
outcome and returns the lanes still standing. A single solve is a stack of one.
"""

from __future__ import annotations

import math
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
from .estimator import _measurement_update, _propagate
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


def _as_moments(m):
    if isinstance(m, NominalMoments):
        return m.w_hat, m.sigma_hat
    mean, cov = m
    return np.asarray(mean, dtype=float).reshape(-1), np.asarray(cov, dtype=float)


def _check_psd_input(cov, name):
    """Raise a ValueError unless ``cov``, or each matrix of a stack of them, is PSD."""
    w = min_eigval(np.asarray(cov, dtype=float))
    if np.any(w < -1e-10):
        raise ValueError("%s must be PSD (min eigenvalue %.3e)" % (name, np.min(w)))


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
    distributions are Gaussian. Raises ValueError, naming the argument, unless
    each mean's size is its covariance's side and both pairs share that dimension.
    """
    mean_a, cov_a = _as_moments(moments_a)
    mean_b, cov_b = _as_moments(moments_b)
    n = mean_a.size
    for name, mean, cov in (("moments_a", mean_a, cov_a), ("moments_b", mean_b, cov_b)):
        if (mean.size,) + cov.shape != (n, n, n):
            raise ValueError("%s: mean of size %d and covariance of shape %s do not match "
                             "dimension %d" % (name, mean.size, cov.shape, n))
    b2 = bures_squared(cov_a, cov_b, sqrt_fn)
    return float(np.sqrt(np.sum((mean_a - mean_b) ** 2) + b2))


def _tr_sqrt_and_grad(sqrt_hat, sigma):
    """Tr[(Sh^1/2 Sigma Sh^1/2)^1/2] and its gradient in Sigma, for one pair or for
    each pair of two stacks.

    The gradient is (1/2) Sh^1/2 H^-1/2 Sh^1/2 with H = Sh^1/2 Sigma Sh^1/2;
    eigenvalues of H at relative zero are excluded (pseudo-inverse), which
    restricts the transport term to the range of Sh for singular nominals.
    """
    h = sym(sqrt_hat @ sigma @ sqrt_hat)
    w, v = np.linalg.eigh(h)
    roots = np.sqrt(np.clip(w, 0.0, None))
    cutoff = 1e-12 * roots[..., -1:]
    inv_half = np.where(roots > cutoff, 0.5 / np.maximum(roots, 1e-300), 0.0)
    grad = sym(sqrt_hat @ ((v * inv_half[..., None, :]) @ v.swapaxes(-1, -2)) @ sqrt_hat)
    return roots.sum(axis=-1), grad


def _require_dominance(lam, P, where):
    """Raise assumption 1 unless lam - max eig P > lam/_COND_LIMIT, by one Cholesky
    of (1 - 1/_COND_LIMIT) lam*I - P (the Riccati solve runs it every sweep), for
    one penalty or for one per matrix of a stack (raising if any lane fails);
    ``where`` names the stage. For P >= 0 the gap bounds cond(lam*I - P) by
    _COND_LIMIT and every eigenvalue of I + P Phi below by 1/_COND_LIMIT."""
    lam = np.asarray(lam, dtype=float)
    try:
        np.linalg.cholesky((1.0 - 1.0 / _COND_LIMIT) * lam[..., None, None] * np.eye(P.shape[-1]) - P)
    except np.linalg.LinAlgError:
        msg = "lam*I - P is not positive definite %s (lam=%.6g, max eig P=%.6g); increase lam"
        raise AssumptionViolated("1 (penalty dominance)", msg % (where, lam.max(), max_eigval(P))) from None


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
        x_next = _propagate(A, x_post, sigma)
        done = frobenius(x_next - x_prior) < _FILTER_TOL
        if done.any():
            out[live[done]] = x_next[done]
            if done.all():
                return out.reshape(np.shape(start))
            x_next, sigma, live = x_next[~done], sigma[~done], live[~done]
        x_prior = x_next
    raise NoConvergence("filter covariance recursion hit %d iterations" % _FILTER_MAX_ITER)


def _by_lane(fn, lanes, outcomes):
    """Run ``fn(lanes)``, one stacked call over an index array of lanes, and return the
    lanes still standing: ``lanes`` itself if it does not raise, else the lanes whose lone
    call ``fn(np.array([lane]))`` did not raise, in order, each other lane's exception
    stored at ``outcomes[lane]``. The stacked kernels give each lane the arithmetic it
    gets alone, so a standing lane ends as it would have in the stacked call. ``fn``
    writes its results only after the last operation that can raise."""
    if not len(lanes):
        return lanes
    try:
        fn(lanes)
    except Exception:
        standing = []
        for lane in lanes:
            try:
                fn(np.array([lane]))
            except Exception as exc:  # the lane's own failure, for its caller to raise or record
                outcomes[lane] = exc
            else:
                standing.append(lane)
        return np.array(standing, dtype=int)
    return lanes


def _total(a):
    """np.sum of each matrix of a stack, in the order np.sum takes for one matrix."""
    return a.reshape(len(a), math.prod(a.shape[1:])).sum(axis=1)


# The phase of an ascent lane: the three that wait for a coupling evaluation come first.
_START, _CANDIDATE, _TRIAL, _SWEEP, _BACKTRACK, _END, _DONE = range(7)


class _Ascent:
    """Projected ascent of a stack of lanes on one plant: S, P, Sh and the coupling
    starts stacked, lam one penalty per lane. ``coupling(system, S, start, Sigma)``
    answers a stack of evaluations with (Tr[S X], X, X_prior, next start, I - K C)
    for the variant being solved, and ``sensitivity(system, S, I - K C)`` gives
    their Omega. ``run()`` returns each lane's WorstCaseCovResult, or the exception
    it raises alone.

    Each lane holds its iterate (Sigma, f, g, Omega and the filter pair), its
    residual, step, Armijo trial step, stall count, iteration count and phase.
    Each round, every lane in one of the first three phases has asked for one
    coupling evaluation at ``ask``: its start, its fixed-point candidate or its
    next backtracking trial. One coupling call answers them all, and the phase
    handlers then move every lane on by masks over the stack until it asks
    again or ends. Omega is solved by the handler that reads it, at a start, a
    candidate or an accepted trial; a rejected trial solves none, so a solve that
    would raise there (an exactly singular Kronecker system) does not end its
    lane. A lane ends in one place, ``_end``: it converged (residual at most
    _ASCENT_TOL), used all _ASCENT_MAX_ITER sweeps, or stalled (no improving step,
    or five sweeps without a gain above float resolution). Only an exception that
    a handler raises ends a lane elsewhere: ``_by_lane`` stores it as the lane's
    outcome, and ``_call`` marks the lane done.

    The stationarity residual is the projected-gradient mapping norm divided
    by max(1, lam): gradient entries are differences of O(lam) terms, so an
    absolute criterion is unreachable in doubles for large penalties.
    """

    def __init__(self, system, S, P, sigma_hat, lam, start, coupling, sensitivity):
        k = len(lam)
        self.system, self.coupling, self.sensitivity = system, coupling, sensitivity
        self.S, self.P, self.sigma_hat, self.lam, self.start = S, P, sigma_hat, lam, start
        self.eye = np.eye(P.shape[-1])
        self.scale = np.maximum(1.0, lam)
        self.outcomes = [None] * k
        self.phase = np.full(k, _START)
        self.iterations, self.stalled = np.zeros(k, dtype=int), np.zeros(k, dtype=int)
        self.f, self.residual, self.step, self.t, self.tr_sx_ask = np.zeros((5, k))
        (self.pm, self.sqrt_hat, self.range_proj, self.ask, self.sigma, self.g,
         self.omega, self.x_cov, self.x_prior, self.ikc_ask, self.x_cov_ask,
         self.x_prior_ask) = np.zeros((12,) + P.shape)

    def run(self):
        handlers = ((_START, self._started), (_CANDIDATE, self._candidate), (_TRIAL, self._tried),
                    (_SWEEP, self._sweep), (_BACKTRACK, self._backtrack), (_END, self._end))
        self._call(self._init, np.arange(len(self.lam)))
        while len(asking := np.flatnonzero(self.phase <= _TRIAL)):
            self._call(self._evaluate, asking)
            for phase, handler in handlers:
                self._call(handler, np.flatnonzero(self.phase == phase))
        return self.outcomes

    def _call(self, handler, lanes):
        """``handler(lanes)`` through ``_by_lane``: a lane that raises ends with its exception."""
        standing = _by_lane(handler, lanes, self.outcomes)
        if len(standing) < len(lanes):
            self.phase[np.setdiff1d(lanes, standing)] = _DONE

    def _lam(self, i):
        return self.lam[i][:, None, None]

    def _init(self, i):
        """Per-lane constants, and the start Sigma = proj_psd(Sh). The gradient at a
        candidate needs the projector onto the range of Sh: its basis is the
        eigenvectors whose eigenvalues pass a relative cutoff, selected per lane
        (lanes with one pattern at once), and multiplied by a separate copy of
        itself (a matrix times its own transpose takes a different BLAS path)."""
        sigma_hat = self.sigma_hat[i]
        pm = sym(self.P[i]) - self._lam(i) * self.eye
        sqrt_hat = psd_sqrt(sigma_hat)
        w, v = np.linalg.eigh(sym(sigma_hat))
        keep = w > 1e-12 * np.maximum(w[:, -1:], 0.0)
        range_proj = np.empty_like(v)
        for pattern in [keep[0]] if (keep == keep[0]).all() else np.unique(keep, axis=0):
            same = (keep == pattern).all(axis=1)
            range_proj[same] = sym(v[same][..., pattern] @ v[same][..., pattern].swapaxes(-1, -2))
        self.ask[i] = psd_project(sigma_hat)
        self.pm[i], self.sqrt_hat[i], self.range_proj[i] = pm, sqrt_hat, range_proj

    def _evaluate(self, i):
        """One coupling call for the lanes ``i`` at their asked Sigma."""
        tr_sx, x_cov, x_prior, start, ikc = self.coupling(self.system, self.S[i], self.start[i],
                                                          self.ask[i])
        self.tr_sx_ask[i], self.start[i], self.ikc_ask[i] = tr_sx, start, ikc
        self.x_cov_ask[i], self.x_prior_ask[i] = x_cov, x_prior

    def _omega(self, i):
        """Omega at the evaluated Sigma of each lane ``i`` (a non-empty stack)."""
        return self.sensitivity(self.system, self.S[i], self.ikc_ask[i])

    def _objective(self, i):
        """The objective at each lane's evaluated Sigma, and the trace root's gradient."""
        t_val, t_grad = _tr_sqrt_and_grad(self.sqrt_hat[i], self.ask[i])
        f = self.tr_sx_ask[i] + _total(self.pm[i] * self.ask[i]) + 2.0 * self.lam[i] * t_val
        return f, t_grad

    def _gradient(self, i, omega, t_grad):
        return sym(omega + self.pm[i] + 2.0 * self._lam(i) * t_grad)

    def _mapping_residual(self, i, sigma, g):
        return frobenius(psd_project(sigma + g) - sigma) / self.scale[i]

    def _w_mat(self, i):
        return sym(self._lam(i) * self.eye - self.P[i] - self.omega[i])

    def _move(self, i, f, g, residual, omega):
        """Make each lane's evaluated Sigma its iterate."""
        self.sigma[i], self.f[i], self.g[i], self.residual[i] = self.ask[i], f, g, residual
        self.omega[i], self.x_cov[i], self.x_prior[i] = omega, self.x_cov_ask[i], self.x_prior_ask[i]

    def _started(self, i):
        f, t_grad = self._objective(i)
        omega = self._omega(i)
        g = self._gradient(i, omega, t_grad)
        residual = self._mapping_residual(i, self.ask[i], g)
        self._move(i, f, g, residual, omega)
        self.step[i] = 1.0 / self.scale[i]
        self.phase[i] = _SWEEP

    def _sweep(self, i):
        """Begin a sweep: stop at the residual tolerance or the iteration cap, else ask
        for the stationarity fixed-point candidate lam^2 W^-1 Sh W^-1 where
        W = lam I - P - Omega is PD, and backtrack from the gradient elsewhere."""
        capped, i = i[self.iterations[i] == _ASCENT_MAX_ITER], i[self.iterations[i] < _ASCENT_MAX_ITER]
        converged, i = i[self.residual[i] <= _ASCENT_TOL], i[self.residual[i] > _ASCENT_TOL]
        w_mat = self._w_mat(i)
        pd = min_eigval(w_mat) > 0.0
        c, w_mat = i[pd], w_mat[pd]
        half = np.linalg.solve(w_mat, self.sigma_hat[c])
        cand = psd_project((self.lam[c] * self.lam[c])[:, None, None]
                           * np.linalg.solve(w_mat, half.swapaxes(-1, -2)))
        self.phase[capped] = _END
        self.iterations[converged] += 1
        self.phase[converged] = _END
        self.iterations[i] += 1
        self.ask[c], self.phase[c] = cand, _CANDIDATE
        self._backtrack_from(i[~pd], self.step[i[~pd]])

    def _backtrack_from(self, i, t):
        self.t[i], self.phase[i] = t, _BACKTRACK

    def _candidate(self, i):
        """Keep a candidate that raises the objective, or that stays within noise of it
        and cuts the residual by 10 %. At a candidate the gradient is taken as
        Omega + P - lam I + R W R (R the range projector of Sh): the transport term's
        gradient equals W there on that range, so this avoids the lam-scale
        cancellation of the eigendecomposition form."""
        f_c = self._objective(i)[0]
        omega, proj = self._omega(i), self.range_proj[i]
        g_c = sym(omega + self.pm[i] + proj @ self._w_mat(i) @ proj)
        r_c = self._mapping_residual(i, self.ask[i], g_c)
        f = self.f[i]
        improved = f_c > f + 1e-15 * (1.0 + abs(f))
        within_noise = f_c >= f - 1e-9 * (1.0 + abs(f))
        take = improved | (within_noise & (r_c < 0.9 * self.residual[i]))
        self._accept(i[take], f_c[take], g_c[take], r_c[take], omega[take])
        self._backtrack_from(i[~take], self.step[i[~take]])

    def _backtrack(self, i):
        """Armijo halving from the iterate along g: ask for the projected trial at step t,
        unless t fell to 1e-20 or the trial moves Sigma by less than float resolution
        (no improving step exists then)."""
        exhausted, i = i[self.t[i] <= 1e-20], i[self.t[i] > 1e-20]
        sigma = self.sigma[i]
        trial = psd_project(sigma + self.t[i][:, None, None] * self.g[i])
        tiny = frobenius(trial - sigma) <= 1e-15 * (1.0 + frobenius(sigma))
        self.phase[exhausted] = _END
        self.phase[i[tiny]] = _END
        self.ask[i[~tiny]], self.phase[i[~tiny]] = trial[~tiny], _TRIAL

    def _tried(self, i):
        """Accept a trial with sufficient increase, doubling the next first step to 2t;
        halve t otherwise. Only an accepted trial's Omega is solved."""
        f_t, t_grad = self._objective(i)
        drift = self.ask[i] - self.sigma[i]
        take = f_t >= self.f[i] + 1e-4 * _total(self.g[i] * drift)
        a = i[take]
        if len(a):
            omega = self._omega(a)
            g_t = self._gradient(a, omega, t_grad[take])
            self._accept(a, f_t[take], g_t, self._mapping_residual(a, self.ask[a], g_t), omega)
            self.step[a] = 2.0 * self.t[a]
        self._backtrack_from(i[~take], 0.5 * self.t[i[~take]])

    def _accept(self, i, f_new, g_new, r_new, omega):
        """Move to the new iterates; a lane that gains less than float resolution five
        sweeps in a row stops."""
        f = self.f[i]
        assert np.all(f_new >= f - 1e-9 * (1.0 + abs(f))), "ascent objective must be nondecreasing"
        stalled = np.where(f_new <= f + 1e-14 * (1.0 + abs(f)), self.stalled[i] + 1, 0)
        self._move(i, f_new, g_new, r_new, omega)
        self.stalled[i] = stalled
        self.phase[i] = np.where(stalled >= 5, _END, _SWEEP)

    def _end(self, i):
        for lane in i:
            residual, iterations = self.residual[lane], int(self.iterations[lane])
            if residual <= _ASCENT_TOL:
                outcome = WorstCaseCovResult(self.sigma[lane].copy(), self.x_cov[lane].copy(),
                                             self.x_prior[lane].copy(), float(self.f[lane]),
                                             residual, iterations)
            elif iterations == _ASCENT_MAX_ITER:
                outcome = NoConvergence("worst-case covariance ascent hit %d iterations at "
                                        "normalized residual %.3e" % (iterations, residual))
            else:
                outcome = NoConvergence(
                    "worst-case covariance ascent stalled at normalized residual %.3e after %d "
                    "iterations" % (residual, iterations))
            self.outcomes[lane] = outcome
        self.phase[i] = _DONE


def _unwrap(outcome):
    """A lane's return value, or the exception it raised, raised again."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _steady_coupling(system, S, start, sigma):
    """(Tr[S X], X, X_prior, next start, I - K C) per lane of one plant: X_prior the
    stationary filter fixed point under noise Sigma from the lane's warm start, which
    then moves to it. Its Omega is ``_steady_sensitivity``'s."""
    A, C, M = system.A, system.C, system.M
    x_prior = _filter_fixpoint(A, C, M, sigma, start)
    x_post, _, ikc = _measurement_update(x_prior, C, M)
    return np.sum(S * x_post, axis=(-2, -1)), x_post, x_prior, x_prior, ikc


def _steady_sensitivity(system, S, ikc):
    """Omega = dlyap(A (I - K C), (I - K C)' S (I - K C)) per lane."""
    return dlyap(system.A @ ikc, _finite_sensitivity(system, S, ikc))


def _finite_coupling(system, S, start, sigma):
    """(Tr[S X], X, X_prior, start, I - K C) per lane of one plant with X_prior = the
    lane's propagated belief covariance + Sigma. Its Omega is ``_finite_sensitivity``'s."""
    x_prior = sym(start + sigma)
    x_post, _, ikc = _measurement_update(x_prior, system.C, system.M)
    return np.sum(S * x_post, axis=(-2, -1)), x_post, x_prior, start, ikc


def _finite_sensitivity(system, S, ikc):
    """Omega = (I - K C)' S (I - K C) per lane."""
    return sym(ikc.swapaxes(-1, -2) @ S @ ikc)


def _steady_lanes(system, S, P, sigma_hat, lam):
    """worst_case_cov_steady past assumption 1 for a stack of lanes of one plant (S, P
    and Sh stacked, one lam per lane): each lane's WorstCaseCovResult, or the exception
    it raises alone. The plant-only detectability test runs once per stack, and a lane
    meets it where a lone solve would, after its own Sh check."""
    A, C, M = system.A, system.C, system.M
    sigma_hat = np.asarray(sigma_hat, dtype=float)
    outcomes = [None] * len(sigma_hat)
    lanes = _by_lane(lambda i: _check_psd_input(sigma_hat[i], "sigma_hat"), np.arange(len(sigma_hat)),
                     outcomes)
    if len(lanes) and not is_detectable(A, C):  # the filter recursions could never converge
        for i in lanes:
            outcomes[i] = AssumptionViolated("4 (filter regularity)", "(A, C) is not detectable")
        return outcomes
    start = sym(sigma_hat[lanes]) + np.eye(system.n_x)
    results = _Ascent(system, sym(S[lanes]), P[lanes], sigma_hat[lanes], lam[lanes], start,
                      _steady_coupling, _steady_sensitivity).run()
    for i, outcome in zip(lanes, results):
        outcomes[i] = outcome
    solved = lanes[[not isinstance(outcome, Exception) for outcome in results]]

    def certify(i):
        _certified_filter_pair(A, C, M, np.array([outcomes[j].sigma_star for j in i]),
                               np.array([outcomes[j].x_prior for j in i]))

    _by_lane(certify, solved, outcomes)
    return outcomes


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
    This is a stack of one lane of ``_steady_lanes``, which designs run.
    """
    _require_dominance(lam, P_ss, "for the covariance program")
    lane = [np.asarray(a, dtype=float)[None] for a in (S_ss, P_ss, sigma_hat, lam)]
    return _unwrap(_steady_lanes(system, *lane)[0])


def worst_case_cov_finite(system, S_next, P_next, sigma_hat, lam, x_cov):
    """Single-stage worst-case covariance given the current belief covariance.

    The one-step-ahead covariance is A x_cov A' + Sigma, so the filter part is
    a direct function of Sigma rather than a stationary fixed point. The
    returned x_cov is the belief covariance at the next stage under the
    maximizer, and the objective equals that stage's adversary value.
    """
    _require_dominance(lam, P_next, "for the covariance program")
    _check_psd_input(sigma_hat, "sigma_hat")
    propagated = _propagate(system.A, sym(np.asarray(x_cov, dtype=float)), 0.0)
    S, P, sigma_hat, lam = [np.asarray(a, dtype=float)[None] for a in (S_next, P_next, sigma_hat, lam)]
    return _unwrap(_Ascent(system, sym(S), P, sigma_hat, lam, propagated[None],
                           _finite_coupling, _finite_sensitivity).run()[0])


def _certified_filter_pair(A, C, M, sigma, x_prior):
    """solve_filter_are's checks past detectability, for one filter pair or for a stack
    of them (raising for the first check any of them fails); ``x_prior`` None iterates
    from zero."""
    if not np.all(is_stabilizable(A, psd_sqrt(psd_project(sigma)))):
        raise AssumptionViolated("4 (filter regularity)", "(A, Sigma^1/2) is not stabilizable")
    if x_prior is None:
        x_prior = _filter_fixpoint(A, C, M, sigma, np.zeros_like(sigma))
    x_post = _measurement_update(x_prior, C, M)[0]
    n = A.shape[0]
    residual = frobenius((x_prior - _propagate(A, x_post, sigma)).reshape(-1, n, n)).max()
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
