"""Dense complex linear algebra kernel used by every other module.

Matrices are plain numpy arrays of complex128 in row-major (C) order. The
problem sizes in this package (at most a few hundred rows) never justify
sparse storage, so everything below is a thin, well-tested layer over
numpy/LAPACK with the package-wide tolerances pinned in one place.
"""
from __future__ import annotations

import numpy as np

#: tolerance for structural predicates (hermiticity, unitarity, positivity)
STRUCTURAL_TOL = 1e-10
#: tolerance for reconstruction-style residuals (eigendecomposition round trips)
RECONSTRUCTION_TOL = 1e-9


def _as_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {m.shape}")
    return m


def kron(a, b) -> np.ndarray:
    """Kronecker product: (a (x) b)[i*rb+k, j*cb+l] = a[i,j] * b[k,l]."""
    return np.kron(_as_matrix(a), _as_matrix(b))


def partial_trace(m, dims, keep: int) -> np.ndarray:
    """Trace out all tensor factors of ``m`` except ``dims[keep]``.

    ``dims`` lists the subsystem dimensions whose product must equal the
    matrix size. The result is the reduced matrix on the kept factor; the
    trace is preserved.
    """
    m = _as_matrix(m)
    dims = [int(d) for d in dims]
    total = int(np.prod(dims))
    if m.shape != (total, total):
        raise ValueError(
            f"matrix of shape {m.shape} does not match subsystem dims {dims}")
    if not 0 <= keep < len(dims):
        raise ValueError(f"keep index {keep} out of range for {len(dims)} factors")
    t = m.reshape(dims + dims)
    # trace highest-index factors first so lower axes keep their positions
    for i in sorted((i for i in range(len(dims)) if i != keep), reverse=True):
        half = t.ndim // 2
        t = np.trace(t, axis1=i, axis2=i + half)
    return t


def is_hermitian(m, tol: float = STRUCTURAL_TOL) -> bool:
    m = _as_matrix(m)
    return m.shape[0] == m.shape[1] and np.abs(m - m.conj().T).max() <= tol


def is_unitary(m, tol: float = STRUCTURAL_TOL) -> bool:
    m = _as_matrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    eye = np.eye(m.shape[0])
    return (np.abs(m @ m.conj().T - eye).max() <= tol
            and np.abs(m.conj().T @ m - eye).max() <= tol)


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
