"""Superoperators on the effective four-dimensional (system (x) sector) space.

Effective states live on C^2 (x) C^2 with the system factor first and the
sector factor in the unrotated branch labeling (sector index 0 = branch 1,
1 = branch 2); see :mod:`ecps.exact` for how composite states map onto this
space. Superoperators are stored as 16 x 16 matrices acting on
column-stacked vectorizations. The projectors and generators built here are
Hermitian as such matrices.

Vectorization convention (column stacking):

    vec([[a, b],    = (a, c, b, d)^T, and vec(A X B) = (B^T (x) A) vec(X).
         [c, d]])

Worked 2x2 example: A = [[0, 1], [0, 0]], X = [[1, 0], [0, 0]].
A X A^dag = [[0, 0], [0, 0]] + |0><1| X |1><0| picks the (1,1) entry of X:
(A^dag^T (x) A) vec(X) = vec(A X A^dag) maps (1,0,0,0) -> (0,0,0,0) and
vec([[0,0],[0,1]]) = (0,0,0,1) -> (1,0,0,0), i.e. population transfer 1 <- 0.

Choi matrix convention: for a map S on 4x4 matrices, C = sum_{ab} S(E_ab)
(x) E_ab over the matrix units E_ab (a = row, b = column), a 16 x 16 matrix
linear in S. The identity map gives 4x the maximally entangled projector,
with singular values (4, 0, ..., 0). Singular values are basis-independent;
round-trip reconstruction of S from C is convention-dependent and follows
this ordering.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SIGMA_PLUS, SIGMA_PLUS_X, branch_rotation
from .linalg import singular_values

EFF_DIM = 4

#: sector ladder of the branch channel: |branch 1><branch 2|
SECTOR_LOWER = np.array([[0, 1], [0, 0]], dtype=complex)
_PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2.0)
_MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2.0)
#: sector ladder of the rotated channel: |+><-| in branch labels
SECTOR_LOWER_X = np.outer(_PLUS, _MINUS.conj())

#: jump operator of the branch channel: system up, sector 2 -> 1
JUMP_BRANCH = np.kron(SIGMA_PLUS, SECTOR_LOWER)
#: jump operator of the rotated channel: system |+> -> |->, sector - -> +
JUMP_ROTATED = np.kron(SIGMA_PLUS_X, SECTOR_LOWER_X)


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(m, dtype=complex).T.reshape(-1)


def unvec(v: np.ndarray, dim: int = EFF_DIM) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape(dim, dim).T


def spre(a: np.ndarray) -> np.ndarray:
    """rho -> a rho."""
    a = np.asarray(a, dtype=complex)
    return np.kron(np.eye(a.shape[0]), a)


def spost(b: np.ndarray) -> np.ndarray:
    """rho -> rho b."""
    b = np.asarray(b, dtype=complex)
    return np.kron(b.T, np.eye(b.shape[0]))


def skron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """rho -> a rho b."""
    return np.kron(np.asarray(b, complex).T, np.asarray(a, complex))


def apply_superop(s: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return unvec(s @ vec(rho))


def projector_superop(theta: float) -> np.ndarray:
    """Sector dephasing in the theta-rotated branch basis (identity on the
    system factor): rotate the sector, zero its off-diagonal blocks, rotate
    back. Idempotent, trace preserving and Hermiticity preserving; as a
    16 x 16 matrix it is Hermitian (an orthogonal projector)."""
    u = branch_rotation(theta)
    p = np.zeros((16, 16), dtype=complex)
    for i in range(2):
        pi = np.kron(np.eye(2), np.outer(u[:, i], u[:, i].conj()))
        p += skron(pi, pi)
    return p


def _dissipator_pair(a: np.ndarray) -> np.ndarray:
    """D_A + D_Adag with D_X(rho) = X rho X^dag - {X^dag X, rho}/2."""
    ad = a.conj().T
    h = ad @ a + a @ ad
    return skron(a, ad) + skron(ad, a) - 0.5 * (spre(h) + spost(h))


def effective_generator_full(xi: float, lam: float) -> np.ndarray:
    """Ensemble-averaged second-order generator on the effective space, before
    any projection.

    Each channel contributes a symmetric pair of dissipators around its jump
    operator: weight lam*(1-xi)^2 for the branch channel (JUMP_BRANCH) and
    lam*xi^2 for the rotated channel (JUMP_ROTATED). The overall scale is
    fixed so that the branch channel exchanges its two coupled populations at
    total rate 2*lam at xi = 0, matching the closed-form relaxation rates of
    the model (and the golden-rule rate lam = alpha^2 * gamma * N).

    Trace annihilating and Hermiticity preserving for any (xi, lam). As a
    16 x 16 matrix it is Hermitian: each pair of dissipators is.
    """
    if lam < 0:
        raise ValueError("lam must be >= 0")
    if not 0.0 <= xi <= 1.0:
        raise ValueError("xi must lie in [0, 1]")
    return lam * ((1.0 - xi) ** 2 * _dissipator_pair(JUMP_BRANCH)
                  + xi ** 2 * _dissipator_pair(JUMP_ROTATED))


def tcl_generator(theta: float, xi: float, lam: float) -> np.ndarray:
    """Projected generator P_theta o G o P_theta driving the homogeneous
    second-order master equation for the theta projector family.

    Hermitian as a 16 x 16 matrix (up to rounding), since P_theta and G are;
    :func:`ecps.tcl.steady_state` relies on this."""
    p = projector_superop(theta)
    return p @ effective_generator_full(xi, lam) @ p


def delta_superop(theta: float, xi: float, lam: float) -> np.ndarray:
    """Difference between the once-projected and twice-projected generators,
    P_theta o G - K2(theta) = P_theta o G o (I - P_theta).

    Annihilates every relevant state (Delta o P_theta = 0); it is nonzero
    exactly when the projector family cannot capture the full generator.
    """
    p = projector_superop(theta)
    g = effective_generator_full(xi, lam)
    return p @ g @ (np.eye(16) - p)


def choi_matrix(s: np.ndarray) -> np.ndarray:
    """Choi matrix C = sum_ab S(E_ab) (x) E_ab over the 4x4 matrix units.

    An index permutation of S: C[(i, a), (j, b)] = S(E_ab)[i, j] is the
    column-stacked entry S[4j + i, 4b + a]."""
    s = np.asarray(s, dtype=complex).reshape(EFF_DIM, EFF_DIM, EFF_DIM, EFF_DIM)
    return s.transpose(1, 3, 0, 2).reshape(EFF_DIM ** 2, EFF_DIM ** 2)


@dataclass
class DeltaScan:
    """Result of a (xi, theta) scan of the Choi singular values of Delta.

    rows: one entry per grid point, (xi, theta, descending 16-vector of
    singular values). summary: per xi, (xi, minimizing theta, max singular
    value at the minimizer).
    """

    rows: list
    summary: list


def scan_delta(xi_list, theta_grid, lam: float = 1.0) -> DeltaScan:
    """Singular values of Choi(Delta) over a parameter grid, plus the per-xi
    minimizer of the largest singular value."""
    xi_list = list(xi_list)
    theta_grid = list(theta_grid)
    if not xi_list:
        raise ValueError("xi_list must not be empty")
    if not theta_grid:
        raise ValueError("theta_grid must not be empty")
    rows = []
    summary = []
    for xi in xi_list:
        best_theta, best_max = None, np.inf
        for theta in theta_grid:
            sv = singular_values(choi_matrix(delta_superop(theta, xi, lam)))
            rows.append((float(xi), float(theta), sv))
            if sv[0] < best_max:
                best_max, best_theta = float(sv[0]), float(theta)
        summary.append((float(xi), best_theta, best_max))
    return DeltaScan(rows=rows, summary=summary)
