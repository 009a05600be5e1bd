"""Closed-loop Monte Carlo execution, cost accounting, and stability diagnostics.

Every run is a deterministic function of (bundle, truth, horizon, seed); a
Monte Carlo summary derives one independent substream per run from the base
seed, so results depend only on the seed, not on execution order or on how
many runs or bundles are stepped together (to the last bit, save a one-run
bundle's: see ``_run_costs``). Draw order inside a run is fixed:
initial state, then all process disturbances, then all measurement noises.
A Monte Carlo call is one ``_simulate`` block when it fits in ``_BLOCK_BYTES``;
a block holds the draws and the costs, and a lone run its whole trace.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ._linalg import spectral_radius
from .ambiguity import bures_squared
from .design import _grid_rows, _tuned, default_lambda_grid
from .exceptions import AssumptionViolated, NoConvergence
from .model import Gaussian, _as_vector, empirical_moments
from .riccati import _stages

__all__ = [
    "SimulationTrace",
    "CostSummary",
    "StabilityReport",
    "MeanStateResult",
    "run_closed_loop",
    "monte_carlo_summary",
    "penalized_average_cost",
    "out_of_sample_curve",
    "stability_report",
    "mean_state_trajectory",
]

# Bytes of draws and costs that one _simulate block holds (see _run_costs), and
# the steps of estimates and inputs it keeps to form their stage costs at once.
_BLOCK_BYTES, _RING = 4 << 20, 16


@dataclass(frozen=True)
class SimulationTrace:
    """Per-step states, estimates, inputs, outputs, and cost accounting."""

    horizon: int
    x: np.ndarray
    x_hat: np.ndarray
    u: np.ndarray
    y: np.ndarray
    stage_cost: np.ndarray
    penalized_stage_cost: np.ndarray
    terminal_cost: float

    def __post_init__(self):
        T = self.horizon
        if not (len(self.x) == len(self.x_hat) == len(self.y) == T + 1
                and len(self.u) == len(self.stage_cost) == T):
            raise ValueError("trace array lengths inconsistent with horizon")
        values = np.concatenate([self.stage_cost, [self.terminal_cost]])
        if not np.all(np.isfinite(values)):
            raise ValueError("trace costs must be finite")

    @property
    def total_cost(self):
        return float(self.stage_cost.sum() + self.terminal_cost)

    @property
    def average_cost(self):
        return float(self.stage_cost.mean())

    @property
    def penalized_average_cost(self):
        return float(self.penalized_stage_cost.mean())


@dataclass(frozen=True)
class CostSummary:
    mean_total_cost: float
    std_total_cost: float
    mean_avg_cost: float
    runs: int
    wall_time: float

    def __post_init__(self):
        if self.std_total_cost < 0:
            raise ValueError("std must be nonnegative")


def _seed_sequence(seed):
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def _spawn(base_seed, runs):
    """One independent seed per run, spawned from the base seed."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    return _seed_sequence(base_seed).spawn(runs)


def _quadratic(x, W):
    """x' W x over the last axis."""
    return np.sum((x @ W) * x, axis=-1)


def _closed_loop(bundle):
    """(K, L, H, G) of the bundle's online loop: the control u = K x_bar + L
    and the disturbance mean H x_bar + G that the estimator's prediction adds.
    LQG predicts with the nominal mean alone, so its H is None and G = w_hat."""
    if bundle.method == "WDRC":
        st = bundle.steady
        return st.K, st.L, st.H, st.G
    return bundle.lqg.K, bundle.lqg.L, None, bundle.nominal.w_hat


def _simulate(bundles, seeds, horizon, truth, x0_model=None, v_model=None,
              worst_case=False):
    """Step every run of every bundle at once, each under its bundle's policy.

    The bundles share one plant and one method; ``seeds`` holds one list of
    run seeds per bundle, all of one length. Each run draws from its own
    generator: initial state from ``x0_model`` (default N(m0, M0)), then
    ``horizon`` disturbances from ``truth``, then ``horizon + 1`` measurement
    noises from ``v_model`` (default N(0, M)). The estimator runs in steady
    mode with the bundle's gain, fed the method's disturbance mean; with
    ``worst_case`` the plant is driven by that mean as well.

    The block holds x and y for every step, time-major (x[t] one contiguous
    (bundle, run, n) block, so the products with the shared A, B and C are
    single gemms); x[t + 1] holds the draw w[t] and y[t] the draw v[t] until
    stepped. x_hat, u and the adversary's mean w_bar are kept in rings of
    ``_RING`` steps, whose stage costs are formed each time a ring fills; a
    lone run (``run_closed_loop``'s) keeps every step. Returns (x, x_hat, u, y,
    stage, penalized, terminal), the costs indexed (bundle, run, t) with each
    run's row contiguous. ``penalized``, formed under ``worst_case`` and for a
    lone run (else None), is the stage cost minus lam times the squared moment
    distance of (w_bar, Sigma*) from the nominal; LQG has no adversary, so its
    penalized cost is its stage cost.
    """
    system, weights = bundles[0].system, bundles[0].weights
    n, ny = system.n_x, system.n_y
    T = int(horizon)
    if T < 1:
        raise ValueError("horizon must be >= 1")
    x0_model = x0_model or Gaussian(system.m0, system.M0)
    v_model = v_model or Gaussian(np.zeros(ny), system.M)

    nb, runs = len(seeds), len(seeds[0])
    lone = nb * runs == 1
    ring = T if lone else min(T, _RING)
    x = np.zeros((T + 1, nb, runs, n))
    y = np.zeros((T + 1, nb, runs, ny))
    for b, run_seeds in enumerate(seeds):
        for r, seed in enumerate(run_seeds):
            rng = np.random.default_rng(_seed_sequence(seed))
            _put(x[0, b, r], x0_model.sample(rng),
                 "initial-state model dimension mismatch with the plant")
            _put(x[1:, b, r], truth.sample(rng, T),
                 "disturbance model dimension mismatch with the plant")
            _put(y[:, b, r], v_model.sample(rng, T + 1),
                 "measurement-noise model dimension mismatch with the plant")
    x_hat, u = np.empty((ring + 1, nb, runs, n)), np.empty((ring, nb, runs, system.n_u))

    K, L, H, G = (None if part[0] is None else np.stack(part)
                  for part in zip(*map(_closed_loop, bundles)))
    Kt, L, G = K.transpose(0, 2, 1), L[:, None], G[:, None]
    Ht = None if H is None else H.transpose(0, 2, 1)
    gain_t = np.stack([b.estimator_gain for b in bundles]).transpose(0, 2, 1)
    At, Bt, Ct = system.A.T, system.B.T, system.C.T
    w_bar = None if Ht is None else np.empty((ring, nb, runs, n))
    stage = np.empty((nb, runs, T))
    penalized = stage if worst_case or lone else None  # LQG's, which has no adversary
    penalize = penalized is not None and Ht is not None
    if penalize:
        penalized = np.empty((nb, runs, T))
        lam = np.array([[b.steady.lam] for b in bundles])
        w_hat = np.stack([b.nominal.w_hat for b in bundles])[:, None]
        pen_cov = np.array([[bures_squared(b.steady.Sigma_star, b.nominal.sigma_hat)]
                            for b in bundles])
    # (time, bundle * run, dim) views of the same memory, for the shared products
    xs, hs, us, ys = (a.reshape(len(a), nb * runs, a.shape[-1]) for a in (x, x_hat, u, y))

    ys[0] += xs[0] @ Ct
    x_hat[0] = system.m0 + (y[0] - system.C @ system.m0) @ gain_t
    for t in range(T):
        h, k = t % (ring + 1), t % ring
        u[k] = x_hat[h] @ Kt + L
        w = G if Ht is None else np.add(x_hat[h] @ Ht, G, out=w_bar[k])
        bu = us[k] @ Bt
        xs[t + 1] += xs[t] @ At + bu
        if worst_case:
            x[t + 1] += w
        ys[t + 1] += xs[t + 1] @ Ct
        x_pred = (hs[h] @ At + bu).reshape(nb, runs, n) + w
        x_hat[(t + 1) % (ring + 1)] = x_pred + (y[t + 1] - x_pred @ Ct) @ gain_t
        if k == ring - 1 or t == T - 1:  # the ring's steps t - k .. t
            cost = _quadratic(x[t - k:t + 1], weights.Q) + _quadratic(u[:k + 1], weights.R)
            stage[..., t - k:t + 1] = np.moveaxis(cost, 0, -1)
            if penalize:
                gap = lam * (np.sum((w_bar[:k + 1] - w_hat) ** 2, axis=-1) + pen_cov)
                penalized[..., t - k:t + 1] = np.moveaxis(cost - gap, 0, -1)

    terminal = _quadratic(x[T], weights.Qf)
    if not (np.all(np.isfinite(stage)) and np.all(np.isfinite(terminal))):
        raise ValueError("trace costs must be finite")
    return x, x_hat, u, y, stage, penalized, terminal


def _put(target, draw, message):
    """Copy one run's draw into its slot of a preallocated array."""
    if np.shape(draw) != target.shape:
        raise ValueError(message)
    target[...] = draw


def _run_costs(bundles, seeds, horizon, truth, **kwargs):
    """(total cost, average cost, penalized average cost) of each run, each
    indexed (bundle, run); the penalized cost, which estimates rho under the
    worst-case pair, only with ``worst_case`` (else None). A block holds the
    whole bundles whose draws and costs fit in ``_BLOCK_BYTES``, or near-equal
    parts of one bundle's runs, two or more even past the budget: numpy rounds a
    one-row product differently, so only a one-run bundle's costs can depend on
    the budget."""
    runs, system, T = len(seeds[0]), bundles[0].system, int(horizon)
    worst_case = kwargs.get("worst_case", False)
    run_bytes = 8 * ((T + 1) * (system.n_x + system.n_y) + T * (1 + worst_case))
    capacity = max(1, _BLOCK_BYTES // run_bytes)
    per_block, parts = max(1, capacity // runs), max(1, min(-(-runs // capacity), runs // 2))
    cuts = [runs * k // parts for k in range(parts + 1)]
    totals, averages = np.empty((len(bundles), runs)), np.empty((len(bundles), runs))
    penalized = np.empty((len(bundles), runs)) if worst_case else None
    for i in range(0, len(bundles), per_block):
        for j, k in zip(cuts, cuts[1:]):
            *_, stage, block_penalized, terminal = _simulate(
                bundles[i:i + per_block], [s[j:k] for s in seeds[i:i + per_block]],
                horizon, truth, **kwargs)
            block = np.s_[i:i + per_block, j:k]
            totals[block] = stage.sum(axis=-1) + terminal
            averages[block] = stage.mean(axis=-1)
            if worst_case:
                penalized[block] = block_penalized.mean(axis=-1)
    return totals, averages, penalized


def run_closed_loop(bundle, truth, horizon, seed, x0_model=None, v_model=None):
    """Simulate the plant under the bundle's policy for ``horizon`` steps.

    Disturbances come from ``truth``; measurement noise defaults to
    N(0, M) and the initial state to N(m0, M0) (override with zero-covariance
    models for deterministic runs). The estimator runs in steady mode with
    the bundle's gain, fed the method's disturbance mean each step.
    """
    x, x_hat, u, y, stage, penalized, terminal = _simulate(
        [bundle], [[seed]], horizon, truth, x0_model=x0_model, v_model=v_model)
    return SimulationTrace(horizon=int(horizon), x=x[:, 0, 0], x_hat=x_hat[:, 0, 0],
                           u=u[:, 0, 0], y=y[:, 0, 0], stage_cost=stage[0, 0],
                           penalized_stage_cost=penalized[0, 0],
                           terminal_cost=float(terminal[0, 0]))


def monte_carlo_summary(bundle, truth, horizon, runs, base_seed,
                        x0_model=None, v_model=None):
    """Cost statistics over independent runs; deterministic given base_seed."""
    children = _spawn(base_seed, runs)
    start = time.perf_counter()
    (totals,), (averages,), _ = _run_costs([bundle], [children], horizon, truth,
                                           x0_model=x0_model, v_model=v_model)
    wall = time.perf_counter() - start
    std = float(totals.std(ddof=1)) if runs > 1 else 0.0
    return CostSummary(mean_total_cost=float(totals.mean()), std_total_cost=std,
                       mean_avg_cost=float(averages.mean()), runs=runs, wall_time=wall)


def penalized_average_cost(bundle, horizon, runs, base_seed, x0_model=None):
    """Monte Carlo estimate of the stationary penalized average cost.

    Simulates under the worst-case policy pair (disturbances Gaussian with
    the adversarial mean and covariance), subtracting the analytic per-stage
    moment-distance penalty; the time-averaged mean over runs estimates the
    design-time value rho.
    """
    if bundle.method != "WDRC":
        raise ValueError("penalized average cost is defined for WDRC bundles")
    noise = Gaussian(np.zeros(bundle.system.n_x), bundle.steady.Sigma_star)
    children = _spawn(base_seed, runs)
    *_, penalized = _run_costs([bundle], [children], horizon, noise,
                               x0_model=x0_model, worst_case=True)
    return float(penalized.mean())


def out_of_sample_curve(system, weights, truth, sample_sizes, thetas, runs,
                        base_seed, dataset_draws=20, horizon=500,
                        lambda_grid=None, jitter=1e-8, x0_model=None):
    """Out-of-sample cost table over (sample size, radius) cells.

    Each cell repeats ``dataset_draws`` times: draw N training samples from
    the truth, build the empirical nominal, tune the penalty for the radius,
    and design. The cell's draws are tuned together: every (draw, grid
    penalty) design is one lane of a single stacked covariance ascent, and
    each lane's result equals its own ``design_wdrc``. The cell's designs are
    then simulated together, each draw's ``runs`` under the truth with its own
    seed stream, so a draw's average cost equals its ``monte_carlo_summary``.
    Reports the mean cost, the mean certified bound, and the fraction of draws
    whose realized cost exceeded their bound. The grid (default:
    ``default_lambda_grid``) is built and staged once per call, its stages
    shared by every cell. Design failures, a failing default grid's included,
    are recorded per draw rather than raised, and not simulated.
    """
    if not all(theta >= 0 for theta in thetas):
        raise ValueError("theta must be nonnegative")
    for name, size in (("runs", runs), ("horizon", horizon), ("dataset_draws", dataset_draws)):
        if size < 1:
            raise ValueError("%s must be >= 1, got %r" % (name, size))
    try:
        staged = _stages(system, weights, (
            default_lambda_grid(system, weights) if lambda_grid is None else lambda_grid))
    except (AssumptionViolated, NoConvergence) as exc:  # from the default grid
        staged = exc
    base = _seed_sequence(base_seed)
    rows = []
    for i, n_samples in enumerate(sample_sizes):
        for j, theta in enumerate(thetas):
            nominals = []
            for d in range(dataset_draws):
                train_seed = np.random.SeedSequence(entropy=base.entropy,
                                                    spawn_key=(i, j, d, 0))
                rng = np.random.default_rng(train_seed)
                samples = np.atleast_2d(truth.sample(rng, int(n_samples)))
                nominals.append(empirical_moments(samples, jitter=jitter))
            if isinstance(staged, Exception):
                tuned = [staged] * dataset_draws
            else:
                tuned = [_tuned(curve, theta)
                         for curve in _grid_rows(system, weights, nominals, theta, staged)]
            bundles, seeds, bounds = [], [], []
            for d, outcome in enumerate(tuned):
                if isinstance(outcome, Exception):  # a recorded failure, not simulated
                    continue
                _, bundle, report = outcome
                eval_seed = np.random.SeedSequence(entropy=base.entropy,
                                                   spawn_key=(i, j, d, 1))
                bundles.append(bundle)
                seeds.append(_spawn(eval_seed, runs))
                bounds.append(report.bound)
            failures = dataset_draws - len(bundles)
            costs = []
            if bundles:
                _, averages, _ = _run_costs(bundles, seeds, horizon, truth,
                                            x0_model=x0_model)
                costs = [float(row.mean()) for row in averages]
            n_ok = len(costs)
            violations = sum(c > b for c, b in zip(costs, bounds))
            rows.append({
                "n_samples": int(n_samples),
                "theta": float(theta),
                "mean_cost": float(np.mean(costs)) if n_ok else None,
                "mean_bound": float(np.mean(bounds)) if n_ok else None,
                "violation_fraction": violations / n_ok if n_ok else None,
                "draws": dataset_draws,
                "failures": failures,
            })
    return rows


@dataclass(frozen=True)
class StabilityReport:
    """Spectral radii of the three closed loops of a WDRC bundle, plus the
    fixed point of its mean-state recursion.

    ``rho_closed_loop`` is the radius of A + B K (the plant under the control
    law), ``rho_penalized_loop`` that of A + B K + H (the mean state under the
    worst-case pair, equal to (I + Phi P)^-1 A), and ``rho_filter_loop`` that
    of (I - Gamma C) A (the estimation error under the steady gain Gamma).
    ``mean_state_limit`` is (I - A - B K - H)^-1 (B L + G).
    """

    rho_closed_loop: float
    rho_penalized_loop: float
    rho_filter_loop: float
    mean_state_limit: np.ndarray


def _mean_loop(bundle):
    """(K, B K + H, B L + G, limit) of a WDRC bundle: its control gain, the
    estimate's coupling and the input of the mean-state recursion, and that
    recursion's fixed point. Raises ValueError for an LQG bundle."""
    K, L, H, G = _closed_loop(bundle)
    if H is None:
        raise ValueError("stability and mean-state diagnostics apply to WDRC bundles")
    A, B = bundle.system.A, bundle.system.B
    coupled, feed = B @ K + H, B @ L + G
    return K, coupled, feed, np.linalg.solve(np.eye(len(A)) - A - coupled, feed)


def stability_report(bundle):
    """Spectral radii of the control, worst-case and filter loops and the
    mean-state fixed point (WDRC only; see ``StabilityReport``)."""
    K, coupled, _, limit = _mean_loop(bundle)
    A, B, C = bundle.system.A, bundle.system.B, bundle.system.C
    filter_loop = (np.eye(len(A)) - bundle.estimator_gain @ C) @ A
    return StabilityReport(rho_closed_loop=spectral_radius(A + B @ K),
                           rho_penalized_loop=spectral_radius(A + coupled),
                           rho_filter_loop=spectral_radius(filter_loop),
                           mean_state_limit=limit)


@dataclass(frozen=True)
class MeanStateResult:
    states: np.ndarray
    estimates: np.ndarray
    limit: np.ndarray
    limit_error: float
    estimation_error: float


def mean_state_trajectory(bundle, x0_mean, horizon, estimate0=None):
    """Deterministic mean-state recursion under the worst-case pair (WDRC only).

    Iterates the expected plant state s and estimate e from ``x0_mean``:
    s' = A s + (B K + H) e + (B L + G), and e' is the steady filter update of
    the same prediction from e against the expected measurement C s'. The
    initial estimate mean defaults to the filter update of m0 against the
    expected first measurement. Returns the trajectory, the recursion's fixed
    point (I - A - B K - H)^-1 (B L + G), and the terminal distances to it
    and between state and estimate means. Raises ValueError unless
    ``x0_mean`` and ``estimate0`` have n_x finite entries.
    """
    _, coupled, feed, limit = _mean_loop(bundle)
    system = bundle.system
    A, C = system.A, system.C
    T = int(horizon)
    if T < 0:
        raise ValueError("horizon must be >= 0")
    gain = bundle.estimator_gain

    x0_mean = _as_vector(x0_mean, "x0_mean", system.n_x)
    states = np.zeros((T + 1, system.n_x))
    estimates = np.zeros((T + 1, system.n_x))
    states[0] = x0_mean
    if estimate0 is None:
        estimates[0] = system.m0 + gain @ (C @ x0_mean - C @ system.m0)
    else:
        estimates[0] = _as_vector(estimate0, "estimate0", system.n_x)

    for t in range(T):
        drive = coupled @ estimates[t]
        states[t + 1] = A @ states[t] + drive + feed
        pred = A @ estimates[t] + drive + feed
        estimates[t + 1] = pred + gain @ (C @ states[t + 1] - C @ pred)

    return MeanStateResult(
        states=states,
        estimates=estimates,
        limit=limit,
        limit_error=float(np.linalg.norm(states[T] - limit)),
        estimation_error=float(np.linalg.norm(states[T] - estimates[T])),
    )
