"""Dense linear-algebra helpers shared by the solvers."""

import numpy as np

_COND_LIMIT = 1e12  # bound on cond(lam*I - P) certified by assumption 1, and on cond(R)


def sym(a):
    """Symmetric part (X + X')/2; applied after every update that should stay symmetric."""
    return 0.5 * (a + a.T)


def spectral_radius(a):
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def min_eigval(a):
    return float(np.linalg.eigvalsh(sym(a))[0])


def max_eigval(a):
    return float(np.linalg.eigvalsh(sym(a))[-1])


def is_psd(a, tol=1e-10):
    return min_eigval(a) >= -tol


def is_pd(a, tol=0.0):
    return min_eigval(a) > tol


def psd_sqrt(a):
    """Symmetric PSD square root via eigendecomposition, eigenvalues clamped at zero."""
    w, v = np.linalg.eigh(sym(np.asarray(a, dtype=float)))
    return sym((v * np.sqrt(np.clip(w, 0.0, None))) @ v.T)


def psd_project(a):
    """Nearest PSD matrix in Frobenius norm (negative eigenvalues clamped)."""
    a = sym(np.asarray(a, dtype=float))
    w, v = np.linalg.eigh(a)
    if w[0] >= 0.0:
        return a
    return sym((v * np.clip(w, 0.0, None)) @ v.T)


def dlyap(g, w):
    """Solve X = G' X G + W by Kronecker vectorization (small dense systems only)."""
    n = g.shape[0]
    lhs = np.eye(n * n) - np.kron(g.T, g.T)
    x = np.linalg.solve(lhs, sym(w).reshape(-1))
    return sym(x.reshape(n, n))


def _unstable_eigvals(a, tol=1e-9):
    return [z for z in np.linalg.eigvals(a) if abs(z) >= 1.0 - tol]


def is_stabilizable(a, b, tol=1e-9):
    """PBH test: rank [A - zI, B] = n at every eigenvalue z of A with |z| >= 1."""
    n = a.shape[0]
    eye = np.eye(n)
    for z in _unstable_eigvals(a, tol):
        m = np.hstack([a - z * eye, b])
        if np.linalg.matrix_rank(m) < n:
            return False
    return True


def is_detectable(a, c, tol=1e-9):
    return is_stabilizable(a.T, c.T, tol)


def is_observable(a, c):
    """PBH test at every eigenvalue of A."""
    n = a.shape[0]
    eye = np.eye(n)
    for z in np.linalg.eigvals(a):
        m = np.vstack([a - z * eye, c])
        if np.linalg.matrix_rank(m) < n:
            return False
    return True
