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

Blocks: H splits into the connected components of its nonzero pattern, and
V is the direct sum of the components' eigenvectors, so each component with
more than one index gets its own (smaller) eigendecomposition and a 1 x 1
component is its own eigenpair. For the spin-band model the branch channel
conserves system inversion plus branch parity (``model.conserved_charge``):
at xi = 0 the pattern has one 2N block {|0,n,2>, |1,n',1>} and 2N
singletons |0,n,1>, |1,n,2> that see only H0; at 0 < xi < 1 it is one 4N
block. At xi = 1 the same split appears in the x frame
W = Had (x) I_N (x) Had (Hadamard on the system and on each level's branch
pair), which leaves H0 unchanged. Sector variables are covariant under W:
with U4 = Had (x) Had, eff(rho) = U4 eff(W rho W) U4. Propagation therefore
runs in the x frame when H is one block in the plain frame but splits in the
x frame, and in the plain frame otherwise. The frame transform rounds (at
xi = 1 the diagonal blocks hold fl(e_n + alpha v), whose rounding does not
cancel), so entries of at most 4 eps max|H| count as zero; that is below the
backward error of ``eigh`` on H itself.

Readout in the eigenbasis: the composite index of |l, n, j> is l*2N + 2n + j,
so the N rows of V for the system/branch pair r = 2l + j form an N x 4N block
A_r. With rho_e = V^dagger rho0 V and phases ph_a(t) = exp(-i w_a t), the
theta = 0 entries at every time are

    eff[r, c](t) = sum_ab ph_a(t) M_rc[a, b] conj(ph_b(t)),
    M_rc = (A_r^T conj(A_c)) * rho_e      (elementwise product),

so rho(t) itself is never formed. Hermiticity (M_cr = M_rc^dagger) leaves
only the 10 entries with r <= c to compute. The eigen-columns are ordered
component by component, grouped by the pairs r their support touches, so
each A_r is nonzero only on one contiguous range of columns (at xi = 0: N
singletons for r = 0, the 2N block for r = 1, 2, N singletons for r = 3),
and M_rc and the phases are restricted to the ranges of r and c. Rotated
bases follow from the theta = 0 stack by one 4x4 rotation.
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


#: U4 = Had (x) Had, which takes a 4x4 effective state out of the x frame
_U4 = np.kron([[1.0, 1.0], [1.0, -1.0]], [[1.0, 1.0], [1.0, -1.0]]) / 2.0


def _x_frame(m: np.ndarray) -> np.ndarray:
    """W m W for W = Had (x) I_N (x) Had (real, symmetric, its own inverse).

    Unscaled butterflies (a + b, a - b) over the system and branch index of
    rows and columns, then one exact division by 4, so entries that cancel
    exactly come out as exact zeros."""
    d = m.shape[0]
    src = m.reshape(2, d // 4, 2, 2, d // 4, 2)
    bufs = (np.empty_like(src), np.empty_like(src))
    for k, axis in enumerate((0, 2, 3, 5)):
        out = bufs[k % 2]
        first = (slice(None),) * axis + (0,)
        second = (slice(None),) * axis + (1,)
        np.add(src[first], src[second], out=out[first])
        np.subtract(src[first], src[second], out=out[second])
        src = out
    src *= 0.25
    return src.reshape(d, d)


def _components(adj: np.ndarray) -> np.ndarray:
    """Component label (its smallest index) of every index of the boolean
    pattern ``adj`` made symmetric, by breadth-first search; ``adj`` is
    overwritten."""
    adj |= adj.T
    np.fill_diagonal(adj, False)
    label = np.arange(adj.shape[0])
    for i in np.flatnonzero(adj.any(axis=1)):
        if label[i] != i:
            continue
        comp = adj[i].copy()
        comp[i] = True
        front = adj[i]
        while front.any():
            front = adj[front].any(axis=0) & ~comp
            comp |= front
        label[comp] = i
    return label


def _split(h: np.ndarray, rho0: np.ndarray):
    """(h, rho0, component labels, x frame?) in the frame propagation runs in:
    the x frame when it splits an h that the plain frame leaves whole."""
    mag = np.abs(h)
    tiny = 4 * np.finfo(float).eps * mag.max()
    if h.shape != rho0.shape or not np.isfinite(tiny):
        raise ValueError("h must be a finite matrix of the shape of rho0")
    label = _components(mag > tiny)
    if label.any():
        return h, rho0, label, False
    h_x = _x_frame(h)
    label_x = _components(np.abs(h_x) > tiny)
    if label_x.any():
        return h_x, _x_frame(rho0), label_x, True
    return h, rho0, label, False


def _support(idx: np.ndarray):
    """``idx`` (ascending) as a slice when it is a contiguous range, so that
    indexing with it gives a view instead of a copy."""
    return slice(idx[0], idx[-1] + 1) if idx[-1] - idx[0] == idx.size - 1 else idx


def _block_eigen(h: np.ndarray, rho0: np.ndarray, label: np.ndarray):
    """Eigenpairs of h component by component and rho_e = V^dagger rho0 V.

    Returns (w, v, rho_e, spans). The eigen-columns are ordered component by
    component, sorted by the set of pairs r = 2l + j (a bit mask) that the
    component's support touches, and spans[r] is the range of columns where
    the rows of pair r can be nonzero.
    """
    d = h.shape[0]
    n2 = d // 2
    index = np.arange(d)
    pairs = np.zeros(d, dtype=int)
    np.bitwise_or.at(pairs, label, 1 << (2 * (index // n2) + index % 2))
    cols = np.lexsort((index, label, pairs[label]))
    pairs, label = pairs[label[cols]], label[cols]
    starts = np.flatnonzero(np.r_[True, label[1:] != label[:-1]])
    ends = np.r_[starts[1:], d]

    w = np.empty(d)
    v = np.zeros((d, d), dtype=complex)
    single = starts[ends - starts == 1]
    one = cols[single]
    diag = h[one, one]
    # |h_ii - conj(h_ii)| = 2 |Im h_ii|, the measure of is_hermitian
    if not np.all(np.abs(diag.imag) <= STRUCTURAL_TOL / 2):
        raise ValueError("evolve_exact requires a Hermitian matrix")
    w[single] = diag.real
    v[one, single] = 1.0
    blocks = [(_support(cols[a:b]), slice(a, b))
              for a, b in zip(starts, ends) if b - a > 1]
    for sup, s in blocks:
        w[s], v[sup, s] = eig_hermitian(h[sup][:, sup])

    x = np.empty_like(rho0)             # rho0 V
    x[:, single] = rho0[:, one]
    for sup, s in blocks:
        x[:, s] = rho0[:, sup] @ v[sup, s]
    rho_e = np.empty_like(rho0)
    rho_e[single] = x[one]
    for sup, s in blocks:
        rho_e[s] = v[sup, s].conj().T @ x[sup]

    spans = []
    for r in range(4):
        touched = np.flatnonzero(pairs & (1 << r))
        spans.append(slice(touched[0], touched[-1] + 1))
    return w, v, rho_e, spans


def evolve_exact(h: np.ndarray, rho0: np.ndarray, times,
                 theta_bases=SECTOR_THETAS, meta: dict | None = None) -> Trajectory:
    """Evolve rho(t) = exp(-iHt) rho0 exp(+iHt) on the given time grid.

    ``h`` must be Hermitian and ``rho0`` a density matrix (both within the
    structural tolerance); ``times`` must increase from 0. ``h`` is split into
    the connected components of its nonzero pattern, in the x frame when that
    splits an ``h`` the plain frame leaves whole (see the module docstring),
    and each component of more than one index is diagonalized on its own.
    Reduced and sector-resolved variables are read out of the eigenbasis for
    all times at once: each of the 10 independent theta = 0 sector entries
    (r, c) is eff[r, c](t) = sum_b (Ph M_rc)[t, b] conj(Ph)[t, b] with the
    phase matrix Ph[t, a] = exp(-i w_a t) and M_rc = (A_r^T conj(A_c)) * rho_e,
    both restricted to the eigen-columns that pairs r and c touch. This is
    exact at any spectrum, degenerate ones included. Hermiticity of ``h`` is
    checked block by block (``eig_hermitian``) and on the diagonal of the
    1 x 1 blocks; the pattern is symmetrized, so a one-sided entry joins its
    two blocks and fails the block's check.
    """
    h = np.asarray(h, dtype=complex)
    rho0 = np.asarray(rho0, dtype=complex)
    times = np.asarray(times, dtype=float)
    if not is_density(rho0, STRUCTURAL_TOL):
        raise ValueError("initial state must be a density matrix")
    if times.ndim != 1 or times.size == 0 or abs(times[0]) > 1e-12 \
            or np.any(np.diff(times) <= 0):
        raise ValueError("times must increase from 0")

    h, rho0, label, x_frame = _split(h, rho0)
    w, v, rho_e, spans = _block_eigen(h, rho0, label)

    n2 = v.shape[0] // 2
    rows = [v[l * n2 + j:(l + 1) * n2:2] for l in (0, 1) for j in (0, 1)]
    ph = np.empty((times.size, w.size), dtype=complex)
    np.multiply(np.outer(times, w), -1j, out=ph)
    np.exp(ph, out=ph)
    # M_rc and Ph M_rc reuse one buffer each, so at most one width^2 and one
    # T x width temporary are alive at a time
    width = max(s.stop - s.start for s in spans)
    m_buf = np.empty(width * width, dtype=complex)
    phm_buf = np.empty(times.size * width, dtype=complex)
    eff0 = np.empty((times.size, 4, 4), dtype=complex)
    for r in range(4):
        for c in range(r, 4):
            a, b = spans[r], spans[c]
            m = m_buf[:(a.stop - a.start) * (b.stop - b.start)]
            m = m.reshape(a.stop - a.start, b.stop - b.start)
            np.matmul(rows[r][:, a].T, rows[c][:, b].conj(), out=m)
            m *= rho_e[a, b]
            phm = phm_buf[:times.size * m.shape[1]].reshape(times.size, -1)
            np.matmul(ph[:, a], m, out=phm)
            np.conjugate(phm, out=phm)
            # conj(eff[r, c]) = sum_b conj(Ph M)[t, b] Ph[t, b]
            entry = np.einsum('tb,tb->t', phm, ph[:, b])
            eff0[:, c, r] = entry.real if r == c else entry
            eff0[:, r, c] = eff0[:, c, r].conj()
    if x_frame:
        eff0 = _U4 @ eff0 @ _U4

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
