"""Plants, cost weights, disturbance models, and the builders used by experiments.

Conventions: discrete-time dynamics x+ = A x + B u + w with output
y = C x + v, v ~ N(0, M), and initial state moments (m0, M0). All model
objects are frozen dataclasses whose arrays are marked read-only, so
instances can be shared freely across threads. Anything random takes an
explicitly passed numpy Generator; there is no hidden global RNG state.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass

import numpy as np

from ._linalg import _COND_LIMIT, is_pd, is_psd, psd_sqrt, sym

__all__ = [
    "LinearSystem",
    "CostWeights",
    "NominalMoments",
    "DisturbanceModel",
    "Gaussian",
    "UniformBox",
    "Empirical",
    "build_power_system",
    "ring_chords_laplacian",
    "synthetic_power_grid",
    "zoh_discretize",
    "empirical_moments",
    "perturb_within_gelbrich_ball",
    "distribution_from_json",
    "distribution_to_json",
    "system_from_json",
    "weights_from_json",
]

_SYM_TOL = 1e-9


def _finite(a, name):
    if not np.all(np.isfinite(a)):
        raise ValueError("%s must have finite entries" % name)
    return a

def _as_matrix(value, name, shape=None):
    a = np.array(value, dtype=float)
    if a.ndim != 2:
        raise ValueError("%s must be a matrix, got shape %s" % (name, a.shape))
    if shape is not None and a.shape != shape:
        raise ValueError("%s must have shape %s, got %s" % (name, shape, a.shape))
    return _finite(a, name)

def _as_vector(value, name, size=None):
    a = np.array(value, dtype=float).reshape(-1)
    if size is not None and a.size != size:
        raise ValueError("%s must have %d entries, got %d" % (name, size, a.size))
    return _finite(a, name)

def _check_symmetric(a, name):
    scale = 1.0 + np.abs(a).max() if a.size else 1.0
    if np.abs(a - a.T).max() > _SYM_TOL * scale:
        raise ValueError("%s must be symmetric" % name)
    return sym(a)

def _lock(obj, **arrays):
    for name, a in arrays.items():
        a.setflags(write=False)
        object.__setattr__(obj, name, a)


@dataclass(frozen=True)
class LinearSystem:
    """Linear plant: state map A, input map B, output map C, output-noise
    covariance M (PD), and initial state moments m0, M0 (PSD)."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    M: np.ndarray
    m0: np.ndarray
    M0: np.ndarray

    def __post_init__(self):
        A = _as_matrix(self.A, "A")
        n = A.shape[0]
        if A.shape[1] != n:
            raise ValueError("A must be square")
        B = _as_matrix(self.B, "B")
        if B.shape[0] != n:
            raise ValueError("B must have %d rows" % n)
        C = _as_matrix(self.C, "C")
        if C.shape[1] != n:
            raise ValueError("C must have %d columns" % n)
        ny = C.shape[0]
        M = _check_symmetric(_as_matrix(self.M, "M", (ny, ny)), "M")
        if not is_pd(M):
            raise ValueError("M must be positive definite")
        m0 = _as_vector(self.m0, "m0", n)
        M0 = _check_symmetric(_as_matrix(self.M0, "M0", (n, n)), "M0")
        if not is_psd(M0):
            raise ValueError("M0 must be positive semidefinite")
        _lock(self, A=A, B=B, C=C, M=M, m0=m0, M0=M0)

    @property
    def n_x(self):
        return self.A.shape[0]

    @property
    def n_u(self):
        return self.B.shape[1]

    @property
    def n_y(self):
        return self.C.shape[0]

    def replace(self, **changes):
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class CostWeights:
    """Quadratic stage cost x'Qx + u'Ru with terminal weight Qf. Construction
    warns (RuntimeWarning) when cond(R) exceeds _COND_LIMIT: assumption 1 does
    not condition R, and the solves on R have no check of their own."""

    Q: np.ndarray
    Qf: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        Q = _check_symmetric(_as_matrix(self.Q, "Q"), "Q")
        Qf = _check_symmetric(_as_matrix(self.Qf, "Qf", Q.shape), "Qf")
        R = _check_symmetric(_as_matrix(self.R, "R"), "R")
        if not is_psd(Q):
            raise ValueError("Q must be positive semidefinite")
        if not is_psd(Qf):
            raise ValueError("Qf must be positive semidefinite")
        if not is_pd(R):
            raise ValueError("R must be positive definite")
        cond = np.linalg.cond(R)
        if cond > _COND_LIMIT:
            warnings.warn("R: condition number %.2e exceeds %.0e" % (cond, _COND_LIMIT),
                          RuntimeWarning, stacklevel=3)
        _lock(self, Q=Q, Qf=Qf, R=R)

    def replace(self, **changes):
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class NominalMoments:
    """Stationary mean and covariance of the nominal disturbance distribution."""

    w_hat: np.ndarray
    sigma_hat: np.ndarray

    def __post_init__(self):
        w = _as_vector(self.w_hat, "w_hat")
        s = _check_symmetric(_as_matrix(self.sigma_hat, "sigma_hat", (w.size, w.size)), "sigma_hat")
        if not is_psd(s):
            raise ValueError("sigma_hat must be positive semidefinite")
        _lock(self, w_hat=w, sigma_hat=s)


class DisturbanceModel:
    """Base class for distributions the simulator can sample from."""

    def moments(self):
        """(mean, covariance) of the distribution."""
        raise NotImplementedError

    def sample(self, rng, size=None):
        """One draw (vector) or ``size`` stacked draws (size x n array)."""
        raise NotImplementedError


@dataclass(frozen=True)
class Gaussian(DisturbanceModel):
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = _as_vector(self.mean, "mean")
        cov = _check_symmetric(_as_matrix(self.cov, "cov", (mean.size, mean.size)), "cov")
        if not is_psd(cov):
            raise ValueError("cov must be positive semidefinite")
        # _root is not a field: eq, repr and replace see only mean and cov
        _lock(self, mean=mean, cov=cov, _root=psd_sqrt(cov))

    def moments(self):
        return self.mean, self.cov

    def sample(self, rng, size=None):
        n = self.mean.size
        z = rng.standard_normal(n if size is None else (size, n))
        return self.mean + z @ self._root.T


@dataclass(frozen=True)
class UniformBox(DisturbanceModel):
    """Independent per-coordinate uniform distribution on [lo, hi]."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = _as_vector(self.lo, "lo")
        hi = _as_vector(self.hi, "hi", lo.size)
        if np.any(lo > hi):
            raise ValueError("lo must be <= hi componentwise")
        _lock(self, lo=lo, hi=hi)

    def moments(self):
        mean = 0.5 * (self.lo + self.hi)
        cov = np.diag((self.hi - self.lo) ** 2 / 12.0)
        return mean, cov

    def sample(self, rng, size=None):
        n = self.lo.size
        u = rng.random(n if size is None else (size, n))
        return self.lo + (self.hi - self.lo) * u


@dataclass(frozen=True)
class Empirical(DisturbanceModel):
    """Uniform mixture of point masses at the given sample vectors."""

    samples: np.ndarray

    def __post_init__(self):
        s = np.atleast_2d(np.array(self.samples, dtype=float))
        if s.shape[0] < 1 or s.size == 0:
            raise ValueError("Empirical needs at least one sample")
        _lock(self, samples=_finite(s, "samples"))

    def moments(self):
        m = empirical_moments(self.samples)
        return m.w_hat, m.sigma_hat

    def sample(self, rng, size=None):
        idx = rng.integers(self.samples.shape[0], size=size)
        return self.samples[idx]


def empirical_moments(samples, jitter=0.0):
    """Mean and divide-by-N covariance of a sample set.

    The 1/N normalization makes this the exact second moment of the uniform
    mixture of point masses at the samples. ``jitter`` adds eps*I, which keeps
    downstream matrix square roots well conditioned when N < n_x leaves the
    covariance rank deficient.
    """
    s = np.atleast_2d(np.array(samples, dtype=float))
    if s.shape[0] < 1 or s.size == 0:
        raise ValueError("empirical_moments needs at least one sample")
    mean = s.mean(axis=0)
    d = s - mean
    cov = d.T @ d / s.shape[0]
    if jitter:
        cov = cov + jitter * np.eye(cov.shape[0])
    return NominalMoments(mean, sym(cov))


def perturb_within_gelbrich_ball(nominal, theta, rng):
    """Random Gaussian whose moment distance from ``nominal`` is at most theta.

    The squared budget theta^2 is split randomly between a mean shift and a
    covariance move along a square-root perturbation Sigma = (S + D)(S + D)'
    with ||D||_F inside the remaining budget, so the combined distance never
    exceeds theta by construction.
    """
    if theta < 0:
        raise ValueError("theta must be nonnegative")
    w_hat, sigma_hat = nominal.w_hat, nominal.sigma_hat
    if theta == 0:
        return Gaussian(w_hat, sigma_hat)
    n = w_hat.size
    frac = rng.random()
    scale = rng.random()
    mean_budget = scale * theta * np.sqrt(frac)
    cov_budget = scale * theta * np.sqrt(1.0 - frac)

    direction = rng.standard_normal(n)
    norm = np.linalg.norm(direction)
    if norm == 0.0:
        direction = np.zeros(n)
    else:
        direction = direction / norm
    mean = w_hat + mean_budget * direction

    delta = sym(rng.standard_normal((n, n)))
    fro = np.linalg.norm(delta, "fro")
    if fro > 0.0:
        delta = cov_budget * delta / fro
    else:
        delta = np.zeros((n, n))
    root = psd_sqrt(sigma_hat) + delta
    return Gaussian(mean, sym(root @ root.T))


def zoh_discretize(A_c, B_c, dt):
    """Exact zero-order-hold discretization of dx/dt = A_c x + B_c u.

    Uses the augmented-matrix exponential exp([[A, B], [0, 0]] dt), whose top
    blocks are (A_d, B_d); the exponential itself is computed by Pade
    scaling-and-squaring.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    A_c = _as_matrix(A_c, "A_c")
    n = A_c.shape[0]
    if A_c.shape[1] != n:
        raise ValueError("A_c must be square")
    B_c = _as_matrix(B_c, "B_c")
    if B_c.shape[0] != n:
        raise ValueError("B_c must have %d rows" % n)
    m = B_c.shape[1]
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = A_c
    aug[:n, n:] = B_c
    from scipy.linalg import expm  # here, not at import: only discretization needs scipy
    e = expm(aug * dt)
    return e[:n, :n], e[:n, n:]


def build_power_system(n_gen, inertia, damping, laplacian, observed_gens,
                       measurement_cov=None, m0=None, M0=None):
    """Continuous-time linearized generator-network model.

    States are the n_gen rotor angles followed by the n_gen frequencies, and
    the input is the per-generator power injection:

        A_c = [[0, I], [-Minv L, -Minv D]],   B_c = [[0], [Minv]].

    The output selects the angle and frequency of the first ``observed_gens``
    generators. Returns a LinearSystem holding the continuous-time (A, B)
    plus placeholder cost weights (identity Q, Qf, R); discretize with
    zoh_discretize before using it in the discrete-time pipeline.
    """
    inertia = _as_vector(inertia, "inertia", n_gen)
    damping = _as_vector(damping, "damping", n_gen)
    if np.any(inertia <= 0):
        raise ValueError("inertia must be strictly positive")
    if np.any(damping <= 0):
        raise ValueError("damping must be strictly positive")
    L = _as_matrix(laplacian, "laplacian", (n_gen, n_gen))
    if np.abs(L - L.T).max() > 1e-10 * (1.0 + np.abs(L).max()):
        raise ValueError("laplacian must be symmetric")
    if np.abs(L.sum(axis=1)).max() > 1e-10:
        raise ValueError("laplacian rows must sum to zero")
    if not (1 <= observed_gens <= n_gen):
        raise ValueError("observed_gens must be between 1 and n_gen")

    minv = 1.0 / inertia
    A_c = np.zeros((2 * n_gen, 2 * n_gen))
    A_c[:n_gen, n_gen:] = np.eye(n_gen)
    A_c[n_gen:, :n_gen] = -(minv[:, None] * L)
    A_c[n_gen:, n_gen:] = -np.diag(minv * damping)
    B_c = np.zeros((2 * n_gen, n_gen))
    B_c[n_gen:, :] = np.diag(minv)

    k = observed_gens
    C = np.zeros((2 * k, 2 * n_gen))
    C[:k, :k] = np.eye(k)
    C[k:, n_gen:n_gen + k] = np.eye(k)

    if measurement_cov is None:
        measurement_cov = 0.01 * np.eye(2 * k)
    if m0 is None:
        m0 = np.zeros(2 * n_gen)
        m0[-1] = 1.0
    if M0 is None:
        M0 = 0.01 * np.eye(2 * n_gen)

    system = LinearSystem(A=A_c, B=B_c, C=C, M=measurement_cov, m0=m0, M0=M0)
    n = 2 * n_gen
    weights = CostWeights(Q=np.eye(n), Qf=np.eye(n), R=np.eye(n_gen))
    return system, weights


def ring_chords_laplacian(n_gen, chords=None):
    """Laplacian of a ring with a few extra chords (unit edge weights)."""
    if chords is None:
        chords = tuple((i, (i + n_gen // 2) % n_gen) for i in range(0, n_gen // 2, 2))
    adj = np.zeros((n_gen, n_gen))
    for i in range(n_gen):
        j = (i + 1) % n_gen
        adj[i, j] = adj[j, i] = 1.0
    for i, j in chords:
        if i != j:
            adj[i, j] = adj[j, i] = 1.0
    return np.diag(adj.sum(axis=1)) - adj


def synthetic_power_grid(n_gen=10, observed_gens=6, dt=0.1, measurement_cov=None,
                         m0=None, M0=None):
    """Synthetic benchmark grid: unit inertia/damping, ring-plus-chords network,
    discretized by zero-order hold. Returns (LinearSystem, CostWeights)."""
    system, weights = build_power_system(
        n_gen,
        np.ones(n_gen),
        np.ones(n_gen),
        ring_chords_laplacian(n_gen),
        observed_gens,
        measurement_cov=measurement_cov,
        m0=m0,
        M0=M0,
    )
    A_d, B_d = zoh_discretize(system.A, system.B, dt)
    return system.replace(A=A_d, B=B_d), weights


def distribution_from_json(obj, field="distribution"):
    """Build a disturbance model from a tagged JSON object."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError("%s must be an object with a 'type' tag" % field)
    kind = obj["type"]
    try:
        if kind == "gaussian":
            return Gaussian(mean=obj["mean"], cov=obj["cov"])
        if kind in ("uniform", "uniform_box"):
            return UniformBox(lo=obj["lo"], hi=obj["hi"])
        if kind == "empirical":
            return Empirical(samples=obj["samples"])
    except KeyError as exc:
        raise ValueError("%s: missing key %s for type '%s'" % (field, exc, kind))
    raise ValueError("%s: unknown distribution type '%s'" % (field, kind))


def distribution_to_json(model):
    if isinstance(model, Gaussian):
        return {"type": "gaussian", "mean": model.mean.tolist(), "cov": model.cov.tolist()}
    if isinstance(model, UniformBox):
        return {"type": "uniform", "lo": model.lo.tolist(), "hi": model.hi.tolist()}
    if isinstance(model, Empirical):
        return {"type": "empirical", "samples": model.samples.tolist()}
    raise TypeError("not a disturbance model: %r" % (model,))


def system_from_json(obj):
    """LinearSystem from a JSON object with keys A, B, C, M, m0, M0
    (matrices as row-major nested arrays)."""
    return LinearSystem(A=obj["A"], B=obj["B"], C=obj["C"], M=obj["M"],
                        m0=obj["m0"], M0=obj["M0"])


def weights_from_json(obj):
    q = obj["Q"]
    return CostWeights(Q=q, Qf=obj.get("Qf", q), R=obj["R"])
