"""Dense complex linear algebra kernel used by every other module.

Matrices are plain numpy arrays of complex128 in row-major (C) order. The
problem sizes in this package (at most a few hundred rows) never justify
sparse storage, so everything below is a thin, well-tested layer over
numpy/LAPACK with the package-wide tolerances pinned in one place.
"""
from __future__ import annotations

import numpy as np

#: tolerance for structural predicates (hermiticity, positivity)
STRUCTURAL_TOL = 1e-10


def _as_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {m.shape}")
    return m


def is_hermitian(m, tol: float = STRUCTURAL_TOL) -> bool:
    m = _as_matrix(m)
    return m.shape[0] == m.shape[1] and np.abs(m - m.conj().T).max() <= tol


def is_density(m, tol: float = STRUCTURAL_TOL) -> bool:
    """Hermitian, unit trace and eigenvalues >= -tol.

    The eigenvalue bound is tested as a Cholesky factorization of
    m + tol * I, which exists exactly when every eigenvalue exceeds -tol
    (the boundary itself is decided by rounding); it costs about a quarter
    of a full eigenvalue computation.
    """
    m = _as_matrix(m)
    if not is_hermitian(m, tol):
        return False
    if abs(np.trace(m) - 1.0) > tol:
        return False
    shifted = m.copy()
    shifted.flat[::m.shape[0] + 1] += tol
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def eig_hermitian(m, tol: float = STRUCTURAL_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` ascending and unitary ``v``
    whose columns are eigenvectors, so ``m = v @ diag(w) @ v.conj().T``.
    Raises ValueError on non-Hermitian input.
    """
    m = _as_matrix(m)
    if not is_hermitian(m, tol):
        raise ValueError("eig_hermitian requires a Hermitian matrix")
    w, v = np.linalg.eigh(m)
    return w, v


def singular_values(m) -> np.ndarray:
    """Singular values of ``m``, descending and non-negative."""
    return np.linalg.svd(_as_matrix(m), compute_uv=False)
