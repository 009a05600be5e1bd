"""Kalman filtering under a supplied disturbance mean and covariance.

The filter is the standard predict/correct pair; what changes relative to
textbook usage is that the prediction consumes whatever disturbance mean the
caller supplies (the adversarial mean H x_bar + G for the robust controller,
the nominal mean for the baseline) and the covariance recursion is driven by
the worst-case covariance rather than a ground-truth one. The covariance
update uses the Joseph form internally for numerical robustness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import sym
from .exceptions import WdrcError

__all__ = ["BeliefState", "filter_step", "covariance_recursion", "steady_gain"]

# Largest entrywise gap allowed between the two forms of the steady gain.
_GAIN_CHECK_TOL = 1e-9


@dataclass(frozen=True)
class BeliefState:
    """Conditional mean and covariance of the state given the data so far."""

    x_bar: np.ndarray
    x_cov: np.ndarray

    def __post_init__(self):
        x = np.array(self.x_bar, dtype=float).reshape(-1)
        c = sym(np.array(self.x_cov, dtype=float))
        x.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "x_bar", x)
        object.__setattr__(self, "x_cov", c)


def _measurement_update(x_prior, C, M):
    """Posterior covariance, gain, and (I - gain C) for a prior covariance, or for
    each prior in a stack (every matrix gets the arithmetic it gets alone)."""
    innov = sym(C @ x_prior @ C.T + M)
    try:
        np.linalg.cholesky(innov)
    except np.linalg.LinAlgError:
        raise WdrcError("innovation covariance C X C' + M is not positive definite")
    gain = np.linalg.solve(innov, C @ x_prior).swapaxes(-1, -2)
    ikc = np.eye(x_prior.shape[-1]) - gain @ C
    x_post = sym(ikc @ x_prior @ ikc.swapaxes(-1, -2) + gain @ M @ gain.swapaxes(-1, -2))
    return x_post, gain, ikc


def _propagate(A, x_cov, sigma):
    """One-step-ahead covariance sym(A X A' + sigma) of a covariance, or of each of a stack."""
    return sym(A @ x_cov @ A.T + sigma)


def covariance_recursion(x_cov, sigma, system):
    """One covariance step: propagate through A with noise sigma, then measure."""
    return _measurement_update(_propagate(system.A, x_cov, sigma), system.C, system.M)[0]


def filter_step(belief, u, w_bar, y_next, system, x_cov_ss=None, sigma=None, gain=None):
    """One predict/correct step of the state estimator.

    Exactly one of ``x_cov_ss`` (steady mode: fixed posterior covariance, gain
    X_ss C' M^-1) or ``sigma`` (time-varying mode: propagate the belief
    covariance with process noise ``sigma``) must be given. ``gain`` may carry
    a precomputed steady gain to avoid re-solving against M every step.
    """
    if (x_cov_ss is None) == (sigma is None):
        raise ValueError("pass exactly one of x_cov_ss or sigma")
    A, B, C, M = system.A, system.B, system.C, system.M
    x_pred = A @ belief.x_bar + B @ np.asarray(u, dtype=float).reshape(-1) + w_bar

    if x_cov_ss is not None:
        if gain is None:
            gain = steady_gain(x_cov_ss, system)
        x_new = x_pred + gain @ (y_next - C @ x_pred)
        return BeliefState(x_new, x_cov_ss)

    x_post, gain, _ = _measurement_update(_propagate(A, belief.x_cov, sigma), C, M)
    x_new = x_pred + gain @ (y_next - C @ x_pred)
    return BeliefState(x_new, x_post)


def steady_gain(x_cov_ss, system, x_cov_prior=None):
    """Steady estimator gain X_ss C' M^-1, of one covariance or of each of a stack.

    When the matching one-step-ahead covariance is supplied, the equivalent
    innovation form X_prior C'(C X_prior C' + M)^-1 is checked against it to
    1e-9 in every entry; a mismatch (inconsistent covariances) raises ValueError.
    """
    return _steady_gain(x_cov_ss, system, x_cov_prior, ValueError)


def _steady_gain(x_cov_ss, system, x_cov_prior, error):
    """steady_gain whose identity check raises ``error`` (a design's: NoConvergence)."""
    C, M = system.C, system.M
    gain = np.linalg.solve(M, C @ sym(np.asarray(x_cov_ss, dtype=float))).swapaxes(-1, -2)
    if x_cov_prior is not None:
        innov = sym(C @ x_cov_prior @ C.T + M)
        alt = np.linalg.solve(innov, C @ x_cov_prior).swapaxes(-1, -2)
        deviation = np.abs(gain - alt).max()
        if deviation > _GAIN_CHECK_TOL:
            raise error(
                "steady gain identity violated (max deviation %.3e); "
                "posterior and prior covariances are inconsistent" % deviation
            )
    return gain
