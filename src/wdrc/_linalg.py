"""Dense linear-algebra helpers shared by the solvers."""

import math

import numpy as np

_COND_LIMIT = 1e12  # bound on cond(lam*I - P) certified by assumption 1, and on cond(R)
# Doubles of Kronecker factor that dlyap holds at once: one n = 20 factor (n^4).
_KRON_DOUBLES = 20 ** 4


def sym(a):
    """Symmetric part (X + X')/2 of a matrix or of each matrix in a stack (``.T``
    would reverse every axis); applied after every update that should stay symmetric."""
    return 0.5 * (a + a.swapaxes(-1, -2))


def frobenius(a):
    """Frobenius norm of each matrix of a stack, as np.linalg.norm(x, "fro") takes
    it for one matrix: the square root of one dot product of the flattened entries
    (np.linalg.norm over two axes can differ from it in the last bit)."""
    flat = a.reshape(len(a), 1, math.prod(a.shape[1:]))
    return np.sqrt((flat @ flat.swapaxes(1, 2)).ravel())


def matvec(a, x):
    """a @ x for a matrix and a vector, or for each pair of a stack ((k, n) vectors)."""
    return (a @ x[..., None])[..., 0]


def solve_vec(a, b):
    """np.linalg.solve(a, b) for a vector b, or for each pair of a stack."""
    return np.linalg.solve(a, b[..., None])[..., 0]


def dot(x, y):
    """x @ y for two vectors, or for each pair of two stacks of vectors."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def spectral_radius(a):
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def min_eigval(a):
    """Smallest eigenvalue of the symmetric part of a matrix (a float), or of each
    matrix of a stack (an array)."""
    w = np.linalg.eigvalsh(sym(a))[..., 0]
    return float(w) if w.ndim == 0 else w


def max_eigval(a):
    """Largest eigenvalue of the symmetric part of a matrix, or the largest over a stack."""
    return float(np.linalg.eigvalsh(sym(a))[..., -1].max())


def is_psd(a, tol=1e-10):
    return min_eigval(a) >= -tol


def is_pd(a, tol=0.0):
    return min_eigval(a) > tol


def _recompose(v, w):
    """V diag(w) V' for an eigenbasis V and its eigenvalues w, or for each of a stack."""
    return sym((v * w[..., None, :]) @ v.swapaxes(-1, -2))


def psd_sqrt(a):
    """Symmetric PSD square root via eigendecomposition, eigenvalues clamped at zero,
    of a matrix or of each matrix of a stack."""
    w, v = np.linalg.eigh(sym(np.asarray(a, dtype=float)))
    return _recompose(v, np.sqrt(np.clip(w, 0.0, None)))


def psd_project(a):
    """Nearest PSD matrix in Frobenius norm (negative eigenvalues clamped), of a matrix
    or of each matrix of a stack; a matrix that is already PSD is returned as it is."""
    a = sym(np.asarray(a, dtype=float))
    w, v = np.linalg.eigh(a)
    psd = w[..., :1, None] >= 0.0
    return a if psd.all() else np.where(psd, a, _recompose(v, np.clip(w, 0.0, None)))


def dlyap(g, w):
    """Solve X = G' X G + W by Kronecker vectorization (small dense systems only),
    for one matrix pair or for each pair of two stacks. The stack is solved in
    blocks of at most _KRON_DOUBLES factor entries; each matrix gets the same
    arithmetic as when solved alone."""
    n = g.shape[-1]
    gt = g.reshape(-1, n, n).swapaxes(-1, -2)
    rhs = sym(w).reshape(-1, n * n, 1)
    x = np.empty_like(rhs)
    width = max(1, _KRON_DOUBLES // n ** 4)
    for i in range(0, len(gt), width):
        block = gt[i:i + width]
        kron = np.einsum("kab,kcd->kacbd", block, block).reshape(-1, n * n, n * n)
        x[i:i + width] = np.linalg.solve(np.eye(n * n) - kron, rhs[i:i + width])
    return sym(x.reshape(np.shape(w)))


def is_stabilizable(a, b, tol=1e-9):
    """PBH test: rank [A - zI, B] = n at every eigenvalue z of A with |z| >= 1 - tol
    (at every eigenvalue for an infinite tol); for a stack of B, one answer per
    matrix of the stack."""
    n = a.shape[0]
    eye = np.eye(n)
    stable = np.ones(b.shape[:-2], dtype=bool)
    for z in (z for z in np.linalg.eigvals(a) if abs(z) >= 1.0 - tol):
        shift = np.broadcast_to(a - z * eye, b.shape[:-2] + (n, n))
        stable &= np.linalg.matrix_rank(np.concatenate([shift, b], axis=-1)) >= n
    return stable


def is_detectable(a, c, tol=1e-9):
    return is_stabilizable(a.T, c.T, tol)


def is_observable(a, c):
    """PBH test at every eigenvalue of A."""
    return bool(is_stabilizable(a.T, c.T, math.inf))
