"""Shared fixtures-in-spirit: reference instances, random admissible systems,
and independent oracle implementations used by the tests."""

import dataclasses

import numpy as np
import scipy.linalg

import wdrc
from wdrc._linalg import max_eigval, psd_sqrt, sym
from wdrc.ambiguity import bures_squared


def scalar_system(a=1.0, b=1.0, c=1.0, m=1.0, m0=0.0, m0_cov=1.0):
    return wdrc.LinearSystem(A=[[a]], B=[[b]], C=[[c]], M=[[m]],
                             m0=[m0], M0=[[m0_cov]])


def scalar_weights(q=1.0, qf=None, r=1.0):
    qf = q if qf is None else qf
    return wdrc.CostWeights(Q=[[q]], Qf=[[qf]], R=[[r]])


def scalar_nominal(w=0.0, s=1.0):
    return wdrc.NominalMoments(w_hat=[w], sigma_hat=[[s]])


# canonical instances exercised throughout the spec examples
REF = dict(system=scalar_system(), weights=scalar_weights(), nominal=scalar_nominal(),
           lam=10.0)  # P=5/3, K=-2/3, S=1, H=1/15

ZERO_A = dict(system=scalar_system(a=0.0, m0_cov=0.0), weights=scalar_weights(),
              nominal=scalar_nominal(), lam=2.0)  # Sigma*=4, X-=4, X=0.8, rho=2


def assert_same_design(got, alone):
    """Two WDRC bundles agree in every field of the steady solution and in the
    estimator gain, bit for bit."""
    for field in dataclasses.fields(got.steady):
        a, b = getattr(got.steady, field.name), getattr(alone.steady, field.name)
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, field.name
    assert np.array_equal(got.estimator_gain, alone.estimator_gain)


def random_psd(rng, n, scale=1.0):
    m = rng.standard_normal((n, n))
    return sym(m @ m.T) * scale / n


def random_system(rng, n_x, n_u=None, n_y=None, rho_target=None,
                  meas_scale=0.5, sigma_scale=0.5):
    """Random plant that is observable through Q = I and detectable.

    Dimensions default to full actuation/observation; the spectral radius of
    A is drawn in [0.3, 1.05] unless pinned by rho_target.
    """
    n_u = n_x if n_u is None else n_u
    n_y = n_x if n_y is None else n_y
    A = rng.standard_normal((n_x, n_x))
    radius = max(np.abs(np.linalg.eigvals(A)))
    target = rng.uniform(0.3, 1.05) if rho_target is None else rho_target
    A *= target / radius
    B = rng.standard_normal((n_x, n_u))
    C = rng.standard_normal((n_y, n_x))
    M = random_psd(rng, n_y, meas_scale) + meas_scale * np.eye(n_y)
    system = wdrc.LinearSystem(A=A, B=B, C=C, M=M,
                               m0=np.zeros(n_x), M0=0.1 * np.eye(n_x))
    weights = wdrc.CostWeights(Q=np.eye(n_x), Qf=np.eye(n_x),
                               R=np.eye(n_u))
    nominal = wdrc.NominalMoments(
        w_hat=0.1 * rng.standard_normal(n_x),
        sigma_hat=random_psd(rng, n_x, sigma_scale) + 0.05 * np.eye(n_x))
    return system, weights, nominal


def admissible_lambda(system, weights, factor=4.0):
    """A penalty comfortably above the admissibility floor for this plant."""
    p_inf = wdrc.solve_are(system, weights, 1e9)
    floor = max_eigval(p_inf)
    lam = max(factor * floor, 1.0)
    for _ in range(60):
        try:
            p = wdrc.solve_are(system, weights, lam)
            if wdrc.check_lambda(lam, p, margin=0.05).passed:
                return lam
        except wdrc.WdrcError:
            pass
        lam *= 2.0
    raise RuntimeError("no admissible penalty found")


def random_admissible(rng, n_x, **kwargs):
    """Random plant plus an admissible penalty (retries until design works)."""
    for _ in range(50):
        system, weights, nominal = random_system(rng, n_x, **kwargs)
        try:
            lam = admissible_lambda(system, weights)
            bundle = wdrc.design_wdrc(system, weights, nominal, lam)
            return system, weights, nominal, lam, bundle
        except (wdrc.WdrcError, RuntimeError):
            continue
    raise RuntimeError("could not draw an admissible random system")


def dare_fixed_point(A, B, Q, R, tol=1e-13, max_iter=200_000):
    """Certainty-equivalent Riccati solution by value iteration from Q.

    Independent of the Schur-pencil solver behind ``design_lqg``, and valid
    for degenerate input maps such as B = 0 on a stable plant.
    """
    P = sym(np.array(Q, dtype=float))
    for _ in range(max_iter):
        BtP = B.T @ P
        gain = np.linalg.solve(R + BtP @ B, BtP @ A)
        P_next = sym(Q + A.T @ P @ A - A.T @ P @ B @ gain)
        delta = np.linalg.norm(P_next - P, "fro")
        P = P_next
        if delta < tol:
            return P
    raise RuntimeError("Riccati value iteration hit %d iterations" % max_iter)


def newton_sqrt(a, iters=100, tol=1e-14):
    """Denman-Beavers iteration for the PSD matrix square root.

    Independent of the eigendecomposition route used by the package; valid
    for PD inputs (tests use well-conditioned covariances).
    """
    a = np.asarray(a, dtype=float)
    y = a.copy()
    z = np.eye(a.shape[0])
    for _ in range(iters):
        y_next = 0.5 * (y + np.linalg.inv(z))
        z_next = 0.5 * (z + np.linalg.inv(y))
        if np.linalg.norm(y_next - y, "fro") < tol * max(1.0, np.linalg.norm(y, "fro")):
            y = y_next
            break
        y, z = y_next, z_next
    return sym(y)


def taylor_expm(a, terms=30):
    """Truncated-series matrix exponential used as a discretization oracle."""
    a = np.asarray(a, dtype=float)
    acc = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, terms + 1):
        term = term @ a / k
        acc = acc + term
    return acc


def penalized_average_cost_loop(bundle, horizon, runs, base_seed, x0_model=None):
    """Per-run, per-step reference for ``wdrc.penalized_average_cost``.

    Draws each run from its own spawned child in the order x0, disturbance
    normals, measurement normals, and steps the worst-case closed loop one
    run and one step at a time.
    """
    system, weights, st = bundle.system, bundle.weights, bundle.steady
    A, B, C = system.A, system.B, system.C
    n, ny = system.n_x, system.n_y
    T = int(horizon)
    lam, w_hat = st.lam, bundle.nominal.w_hat
    pen_cov = bures_squared(st.Sigma_star, bundle.nominal.sigma_hat)
    noise_root = psd_sqrt(st.Sigma_star)
    gain = bundle.estimator_gain
    x0_model = x0_model or wdrc.Gaussian(system.m0, system.M0)

    values = np.zeros(runs)
    for i, child in enumerate(np.random.SeedSequence(base_seed).spawn(runs)):
        rng = np.random.default_rng(child)
        x = x0_model.sample(rng)
        z = rng.standard_normal((T, n))
        v = rng.standard_normal((T + 1, ny)) @ psd_sqrt(system.M).T
        y0 = C @ x + v[0]
        x_hat = system.m0 + gain @ (y0 - C @ system.m0)
        acc = 0.0
        for t in range(T):
            u = st.K @ x_hat + st.L
            w_bar = st.H @ x_hat + st.G
            acc += x @ weights.Q @ x + u @ weights.R @ u
            acc -= lam * (float(np.sum((w_bar - w_hat) ** 2)) + pen_cov)
            x = A @ x + B @ u + w_bar + noise_root @ z[t]
            y = C @ x + v[t + 1]
            x_pred = A @ x_hat + B @ u + w_bar
            x_hat = x_pred + gain @ (y - C @ x_pred)
        values[i] = acc / T
    return float(values.mean())


def _policy(bundle):
    """(K, L, H, G) of a bundle's online loop, read without ``wdrc.sim``: the
    control K x_hat + L and the mean H x_hat + G the estimator predicts with
    (the nominal mean alone for LQG)."""
    if bundle.method == "WDRC":
        st = bundle.steady
        return st.K, st.L, st.H, st.G
    n = bundle.system.n_x
    return bundle.lqg.K, bundle.lqg.L, np.zeros((n, n)), bundle.nominal.w_hat


def _augmented(bundle, H_p, G_p):
    """(F, c, E_w, E_v) of z = (x, x_hat) under the bundle's policy, with the
    plant driven by the mean H_p x_hat + G_p plus a zero-mean disturbance w:
    z' = F z + c + E_w w + E_v v, v the measurement noise."""
    system = bundle.system
    A, B, C, n = system.A, system.B, system.C, system.n_x
    K, L, H, G = _policy(bundle)
    gain = bundle.estimator_gain
    drive, feed = B @ K + H_p, B @ L + G_p
    keep = np.eye(n) - gain @ C
    F = np.block([[A, drive], [gain @ C @ A, keep @ (A + B @ K + H) + gain @ C @ drive]])
    c = np.concatenate([feed, keep @ (B @ L + G) + gain @ C @ feed])
    E_w, E_v = np.vstack([np.eye(n), gain @ C]), np.vstack([np.zeros((n, system.n_y)), gain])
    return F, c, E_w, E_v


def _quad(W, m, S):
    """E[y'Wy] for y with mean m and covariance S."""
    return float(m @ W @ m + np.sum(W * S))


def exact_rho(bundle):
    """Stationary penalized average cost of a WDRC bundle under its worst-case
    pair, in closed form: the state and estimate z = (x, x_hat) follow the
    linear Gaussian recursion z' = F z + c + E_w w + E_v v, w ~ N(0, Sigma*),
    v ~ N(0, M), whose stationary moments are (I - F)^-1 c and the solution of
    a discrete Lyapunov equation (scipy's, independent of ``wdrc._linalg``).
    """
    system, weights, st = bundle.system, bundle.weights, bundle.steady
    n = system.n_x
    F, c, E_w, E_v = _augmented(bundle, st.H, st.G)
    mean = np.linalg.solve(np.eye(2 * n) - F, c)
    cov = scipy.linalg.solve_discrete_lyapunov(F, E_w @ st.Sigma_star @ E_w.T + E_v @ system.M @ E_v.T)
    mx, mh, cxx, chh = mean[:n], mean[n:], cov[:n, :n], cov[n:, n:]
    u_mean, w_off = st.K @ mh + st.L, st.H @ mh + st.G - bundle.nominal.w_hat
    cost = _quad(weights.Q, mx, cxx) + _quad(weights.R, u_mean, st.K @ chh @ st.K.T)
    penalty = _quad(np.eye(n), w_off, st.H @ chh @ st.H.T)
    return cost - st.lam * (penalty + bures_squared(st.Sigma_star, bundle.nominal.sigma_hat))


def exact_total_cost(bundle, mean, cov, T):
    """Expected T-step total cost (stage costs plus the terminal Qf term) of
    either method's bundle when the disturbances have this mean and
    covariance, from the simulator's start: x0 ~ N(m0, M0) and x_hat0 the
    filter update of m0 against y0 = C x0 + v0.

    The plant is driven by the disturbance alone (mean ``mean``), so a linear
    policy's cost depends on its first two moments only. Written in
    stationary-plus-transient form, m_t = m_inf + F^t (m_0 - m_inf) and
    S_t = S_inf + F^t (S_0 - S_inf) F^t', with S_inf from scipy's Lyapunov solver.
    """
    system, weights = bundle.system, bundle.weights
    n = system.n_x
    K, L, _, _ = _policy(bundle)
    F, c, E_w, E_v = _augmented(bundle, np.zeros((n, n)), np.asarray(mean, dtype=float))
    noise = E_v @ system.M @ E_v.T
    m_inf = np.linalg.solve(np.eye(2 * n) - F, c)
    S_inf = scipy.linalg.solve_discrete_lyapunov(F, E_w @ np.asarray(cov, dtype=float) @ E_w.T + noise)
    m_0 = np.concatenate([system.m0, system.m0])
    S_0 = E_w @ system.M0 @ E_w.T + noise  # x0 enters x_hat0 as it enters z through w
    total, power = 0.0, np.eye(2 * n)
    for t in range(T + 1):
        m = m_inf + power @ (m_0 - m_inf)
        S = S_inf + power @ (S_0 - S_inf) @ power.T
        if t == T:
            return total + _quad(weights.Qf, m[:n], S[:n, :n])
        total += _quad(weights.Q, m[:n], S[:n, :n]) + _quad(weights.R, K @ m[n:] + L, K @ S[n:, n:] @ K.T)
        power = F @ power
