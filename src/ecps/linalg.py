"""Dense complex linear algebra kernel used by every other module.

Matrices are plain numpy arrays of complex128 in row-major (C) order. The
problem sizes in this package (at most a few hundred rows) never justify
sparse storage, so everything below is a thin, well-tested layer over
numpy/LAPACK. Its structural predicates take no tolerance: each judges a
matrix against its own scale, so no verdict depends on the matrix's units.
"""
from __future__ import annotations

import numpy as np

#: structural tolerance, relative to the scale of the matrix judged: its
#: largest entry modulus for Hermiticity, the unit trace of a density matrix
STRUCTURAL_TOL = 1e-10


def _as_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {m.shape}")
    return m


def is_hermitian(m) -> bool:
    """Square and max|m - m^dagger| <= STRUCTURAL_TOL * max|m|."""
    m = _as_matrix(m)
    return m.shape[0] == m.shape[1] and \
        np.abs(m - m.conj().T).max() <= STRUCTURAL_TOL * np.abs(m).max()


def is_density(m) -> bool:
    """Hermitian, unit trace and eigenvalues >= -STRUCTURAL_TOL (the trace
    sets a density matrix's scale)."""
    m = _as_matrix(m)
    if not is_hermitian(m):
        return False
    if abs(np.trace(m) - 1.0) > STRUCTURAL_TOL:
        return False
    return np.linalg.eigvalsh(m)[0] >= -STRUCTURAL_TOL


def eig_hermitian(m):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` ascending and unitary ``v``
    whose columns are eigenvectors, so ``m = v @ diag(w) @ v.conj().T``.
    Raises ValueError on input that ``is_hermitian`` refuses.
    """
    m = _as_matrix(m)
    if not is_hermitian(m):
        raise ValueError("eig_hermitian requires a Hermitian matrix")
    return np.linalg.eigh(m)


def singular_values(m) -> np.ndarray:
    """Singular values of a matrix, or of each matrix in a (..., M, N) stack,
    descending and non-negative; a ValueError below two dimensions."""
    return np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)
