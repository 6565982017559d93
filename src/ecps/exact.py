"""Exact propagation of the composite system and extraction of reduced and
sector-resolved observables.

Propagation uses one eigendecomposition H = V diag(w) V^dagger of the
(time-independent) Hamiltonian, reused for every requested time, so there is
no time-step error. Because the free Hamiltonian acts only on the environment
level index and the two system states are degenerate, both the reduced system
state and the sector variables are identical in the Schroedinger and
interaction pictures; trajectories can therefore be compared directly with the
master-equation solutions, which are derived in the interaction picture.

Sector variables: for a branch basis rotated by theta, the effective state is
the 4x4 matrix of level-summed ("collective") matrix elements

    eff[(l, j), (m, k)] = Tr(rho * |m><l| (x) sum_n |n,k,theta><n,j,theta|)

indexed system-major (row = 2l + j, column = 2m + k with j, k = 0, 1 for the
two rotated branches). It is Hermitian whenever rho is, carries the full
trace, and reduces to the system state via rho_A[l, m] = sum_j eff[(l,j),(m,j)].

Readout in the eigenbasis: the composite index of |l, n, j> is l*2N + 2n + j,
so the N rows of V for the system/branch pair r = 2l + j form an N x 4N block
A_r. With rho_e = V^dagger rho0 V and phases ph_a(t) = exp(-i w_a t), the
theta = 0 entries at every time are

    eff[r, c](t) = sum_ab ph_a(t) M_rc[a, b] conj(ph_b(t)),
    M_rc = (A_r^T conj(A_c)) * rho_e      (elementwise product),

so rho(t) itself is never formed. Hermiticity (M_cr = M_rc^dagger) leaves
only the 10 entries with r <= c to compute. Rotated bases follow from the
theta = 0 stack by one 4x4 rotation.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import STRUCTURAL_TOL, eig_hermitian, is_density
from .model import ModelParams, branch_rotation

SECTOR_THETAS = (0.0, np.pi / 4)


@dataclass
class Trajectory:
    """Time series of reduced and sector-resolved states.

    system_states has shape (T, 2, 2); sector_states maps each requested
    theta to an array of shape (T, 4, 4). meta records parameters and seeds.
    """

    times: np.ndarray
    system_states: np.ndarray
    sector_states: dict
    meta: dict = field(default_factory=dict)


def sector_variables(rho: np.ndarray, theta: float,
                     params: ModelParams | None = None) -> np.ndarray:
    """Effective 4x4 state of a 4N x 4N composite matrix in the theta-rotated
    branch basis (see module docstring for the index convention)."""
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0]
    if rho.shape != (dim, dim) or dim % 4:
        raise ValueError(f"expected a 4N x 4N matrix, got shape {rho.shape}")
    n = dim // 4
    if params is not None and params.n_levels != n:
        raise ValueError("params.n_levels inconsistent with matrix size")
    t = rho.reshape(2, n, 2, 2, n, 2)
    eff0 = np.einsum('lnjmnk->ljmk', t).reshape(4, 4)
    if theta == 0.0:
        return eff0
    u = np.kron(np.eye(2), branch_rotation(theta))
    return u.conj().T @ eff0 @ u


def reduced_from_sector(eff: np.ndarray) -> np.ndarray:
    """System 2x2 state from an effective state: rho_A[l,m] = sum_j eff[(l,j),(m,j)]."""
    e = np.asarray(eff, dtype=complex).reshape(2, 2, 2, 2)
    return np.einsum('ljmj->lm', e)


def evolve_exact(h: np.ndarray, rho0: np.ndarray, times,
                 theta_bases=SECTOR_THETAS, meta: dict | None = None) -> Trajectory:
    """Evolve rho(t) = exp(-iHt) rho0 exp(+iHt) on the given time grid.

    ``h`` must be Hermitian and ``rho0`` a density matrix (both within the
    structural tolerance); ``times`` must increase from 0. Reduced and
    sector-resolved variables are read out of the eigenbasis of ``h`` for all
    times at once: each of the 10 independent theta = 0 sector entries (r, c)
    is eff[r, c](t) = sum_b (Ph M_rc)[t, b] conj(Ph)[t, b] with the T x 4N
    phase matrix Ph[t, a] = exp(-i w_a t) and M_rc = (A_r^T conj(A_c)) * rho_e
    (see the module docstring); the lower triangle follows by Hermiticity. The
    cost is about 10 (4N)^2 multiply-adds per time instead of the 2 (4N)^3 of
    rebuilding rho(t), exact at any spectrum, degenerate ones included.
    """
    h = np.asarray(h, dtype=complex)
    rho0 = np.asarray(rho0, dtype=complex)
    times = np.asarray(times, dtype=float)
    if not is_density(rho0, STRUCTURAL_TOL):
        raise ValueError("initial state must be a density matrix")
    if times.ndim != 1 or times.size == 0 or abs(times[0]) > 1e-12 \
            or np.any(np.diff(times) <= 0):
        raise ValueError("times must increase from 0")

    w, v = eig_hermitian(h)
    rho_e = v.conj().T @ rho0 @ v

    n2 = v.shape[0] // 2
    rows = [v[l * n2 + j:(l + 1) * n2:2] for l in (0, 1) for j in (0, 1)]
    ph = np.empty((times.size, w.size), dtype=complex)
    np.multiply(np.outer(times, w), -1j, out=ph)
    np.exp(ph, out=ph)
    # M_rc and Ph M_rc reuse one buffer each, so at most one D x D and one
    # T x D temporary are alive at a time
    m = np.empty_like(rho_e)
    phm = np.empty_like(ph)
    eff0 = np.empty((times.size, 4, 4), dtype=complex)
    for r in range(4):
        for c in range(r, 4):
            np.matmul(rows[r].T, rows[c].conj(), out=m)
            m *= rho_e
            np.matmul(ph, m, out=phm)
            np.conjugate(phm, out=phm)
            # conj(eff[r, c]) = sum_b conj(Ph M)[t, b] Ph[t, b]
            entry = np.einsum('tb,tb->t', phm, ph)
            eff0[:, c, r] = entry.real if r == c else entry
            eff0[:, r, c] = eff0[:, c, r].conj()

    system_states = np.einsum('tljmj->tlm', eff0.reshape(-1, 2, 2, 2, 2))
    sector_states = {}
    for th in theta_bases:
        if th == 0.0:
            sector_states[th] = eff0
        else:
            u = np.kron(np.eye(2), branch_rotation(th))
            sector_states[th] = u.conj().T @ eff0 @ u
    return Trajectory(times=times, system_states=system_states,
                      sector_states=sector_states, meta=dict(meta or {}))


def realization_seeds(base_seed: int, n_realizations: int) -> list[int]:
    """Seed for realization k is base_seed + k (mod 2^64); distinct Philox keys
    give independent streams while keeping provenance obvious."""
    return [(int(base_seed) + k) % 2 ** 64 for k in range(n_realizations)]


def ensemble_average(params: ModelParams, n_realizations: int, run_one) -> Trajectory:
    """Pointwise mean of trajectories over coupling realizations.

    ``run_one(params_k)`` must return a Trajectory on a fixed time grid;
    realization k runs with the k-th derived seed (realization 0 reuses the
    base seed, so n_realizations=1 reproduces a single run exactly). Per-seed
    provenance is recorded in the result's meta.
    """
    if n_realizations < 1:
        raise ValueError("n_realizations must be >= 1")
    seeds = realization_seeds(params.seed, n_realizations)
    trajs = [run_one(params.with_seed(s)) for s in seeds]
    times = trajs[0].times
    for t in trajs[1:]:
        if not np.array_equal(t.times, times):
            raise ValueError("realizations must share one time grid")
    system = np.mean([t.system_states for t in trajs], axis=0)
    sector = {th: np.mean([t.sector_states[th] for t in trajs], axis=0)
              for th in trajs[0].sector_states}
    meta = dict(trajs[0].meta)
    meta.update(base_seed=params.seed, realization_seeds=seeds,
                n_realizations=n_realizations)
    return Trajectory(times=times, system_states=system,
                      sector_states=sector, meta=meta)
