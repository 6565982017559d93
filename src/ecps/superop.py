"""Superoperators on the effective four-dimensional (system (x) sector) space.

Effective states live on C^2 (x) C^2 with the system factor first and the
sector factor in the unrotated branch labeling (sector index 0 = branch 1,
1 = branch 2); see :mod:`ecps.exact` for how composite states map onto this
space. Superoperators are stored as 16 x 16 matrices acting on
column-stacked vectorizations. The projectors and generators built here are
Hermitian as such matrices. The jump operators and weights of the two
channels are ``model.channels``, which the composite Hamiltonian also reads.

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

import numpy as np

from .model import branch_rotation, channels
from .linalg import singular_values

EFF_DIM = 4


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(m, dtype=complex).T.reshape(-1)


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of ``vec``, of one 16-vector or of each row of a (..., 16) stack."""
    v = np.asarray(v, dtype=complex)
    return v.reshape(v.shape[:-1] + (EFF_DIM, EFF_DIM)).swapaxes(-1, -2)


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
    h, one = ad @ a + a @ ad, np.eye(EFF_DIM)
    return skron(a, ad) + skron(ad, a) - 0.5 * (skron(h, one) + skron(one, h))


def effective_generator_full(xi: float, lam: float) -> np.ndarray:
    """Ensemble-averaged second-order generator on the effective space, before
    any projection.

    Each channel (w, J) of ``model.channels`` contributes the symmetric pair
    of dissipators around J with weight lam * w^2, so the branch channel
    exchanges its two coupled populations at total rate 2*lam at xi = 0, as
    the closed-form rates of the model and the golden-rule rate
    lam = alpha^2 * gamma * N say.

    Trace annihilating and Hermiticity preserving for any (xi, lam). As a
    16 x 16 matrix it is Hermitian: each pair of dissipators is.
    """
    if lam < 0:
        raise ValueError("lam must be >= 0")
    if not 0.0 <= xi <= 1.0:
        raise ValueError("xi must lie in [0, 1]")
    return lam * sum(w ** 2 * _dissipator_pair(jump) for w, jump in channels(xi))


def tcl_generator(theta: float, xi: float, lam: float) -> np.ndarray:
    """Projected generator P_theta o G o P_theta driving the homogeneous
    second-order master equation for the theta projector family.

    Hermitian as a 16 x 16 matrix (up to rounding), since P_theta and G are;
    :func:`ecps.tcl.steady_state` relies on this."""
    p = projector_superop(theta)
    return p @ effective_generator_full(xi, lam) @ p


def delta_superop(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """What the projector P cannot capture of the generator G: Delta =
    P o G - P o G o P = P o G o (I - P), for 16 x 16 superoperators or
    broadcasting (..., 16, 16) stacks (P = projector_superop(theta),
    G = effective_generator_full(xi, lam)). Delta o P = 0, and Delta
    vanishes exactly when the projector captures the full generator."""
    return p @ g @ (np.eye(16) - p)


def choi_matrix(s: np.ndarray) -> np.ndarray:
    """Choi matrix C = sum_ab S(E_ab) (x) E_ab over the 4x4 matrix units, of a
    superoperator or of each one in a (..., 16, 16) stack.

    An index permutation of S: C[(i, a), (j, b)] = S(E_ab)[i, j] is the
    column-stacked entry S[4j + i, 4b + a]."""
    s = np.asarray(s, dtype=complex)
    t = s.reshape(s.shape[:-2] + (EFF_DIM,) * 4)
    return np.einsum('...jiba->...iajb', t).reshape(s.shape)


def scan_delta(xi_list, theta_grid, lam: float = 1.0) -> np.ndarray:
    """Singular values of Choi(Delta) over a (xi, theta) grid.

    Returns sv of shape (len(xi_list), len(theta_grid), 16): sv[i, k] holds
    the singular values, descending, at xi_list[i] and theta_grid[k]. The
    projectors are built once as a stack, the generator once per xi."""
    xi_list, theta_grid = list(xi_list), list(theta_grid)
    if not xi_list:
        raise ValueError("xi_list must not be empty")
    if not theta_grid:
        raise ValueError("theta_grid must not be empty")
    p = np.array([projector_superop(theta) for theta in theta_grid])
    return np.array([singular_values(choi_matrix(delta_superop(
        p, effective_generator_full(xi, lam)))) for xi in xi_list])
