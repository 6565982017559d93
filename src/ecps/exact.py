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
The code computes theta = 0 only; a rotated basis follows by the 4x4
rotation u^dagger eff u with u = I (x) ``model.branch_rotation(theta)``.

Blocks: H splits into the connected components of its nonzero pattern, and
V is the direct sum of the components' eigenvectors, so each component with
more than one index gets its own (smaller) eigendecomposition and a 1 x 1
component is its own eigenpair. At xi = 0 the branch channel conserves
system inversion plus branch parity, and the pattern has one 2N block
{|0,n,2>, |1,n',1>} and 2N singletons |0,n,1>, |1,n,2> that see only H0.
When the plain pattern is one block (xi > 0), propagation runs in the Bell
frame W = U4 (x) I_N, where U4 (real, symmetric, its own inverse) has the
columns Phi+, Psi+, Psi-, Phi- over the pairs r = 2l + j. For every xi,
Phi+ (x) C^N is invariant under H and sees only H0, so the Bell frame has
one 3N block and N singletons at 0 < xi < 1, and one 2N block and 2N
singletons at xi = 1. Every entry that W should cancel is a difference of
two bit-identical numbers (see ``model.build_v``), and W is applied as
unscaled butterflies and one exact halving, so the pattern is read off
exact zeros; an h that the Bell frame does not split is propagated as one
block. Sector variables are covariant under W: eff(rho) = U4 eff(W rho W) U4.

Initial state: the experiments start from states in the range of the
correlated projection, rho0 = sum_i rho_i (x) Pi_i / N_i, which are uniform
over the levels: rho0 = eff0 (x) I_N / N, i.e. rho0[(l,n,j),(m,n',k)] =
eff0[2l + j, 2m + k] delta_nn' / N. So eff0 fixes rho0, and ``evolve_exact``
takes eff0 (U4 eff0 U4 in the Bell frame).

Readout in the eigenbasis: the composite index of |l, n, j> is l*2N + 2n + j,
so the N rows of V for the pair r = 2l + j form an N x 4N block A_r. With the
Gram blocks K_rc = A_r^T conj(A_c) (K_cr = K_rc^dagger) and the phases
ph_a(t) = exp(-i w_a t), the theta = 0 entries at every time are

    eff[r, c](t) = sum_ab ph_a(t) M_rc[a, b] conj(ph_b(t)),
    M_rc = K_rc * rho_e      (elementwise product),
    rho_e = V^dagger rho0 V = (1/N) sum_rc eff0[r, c] conj(K_rc),

so neither rho0, nor rho_e by a matrix product, nor rho(t) is ever formed.
Hermiticity (M_cr = M_rc^dagger) leaves the 10 entries with r <= c. The
eigen-columns are ordered component by component, grouped by the pairs r
their support touches, so each A_r is nonzero on one contiguous range of
columns (at xi = 0: N singletons for r = 0, the 2N block for r = 1, 2, N
singletons for r = 3), and K_rc, rho_e and the phases are needed only on the
ranges of r and c.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import STRUCTURAL_TOL, eig_hermitian, is_density
from .model import ModelParams


@dataclass
class Trajectory:
    """Time series of effective and reduced states, exact or projected.

    states has shape (T, 4, 4): the effective state in the unrotated branch
    basis (theta = 0). system_states has shape (T, 2, 2). meta records
    provenance such as seeds.
    """

    times: np.ndarray
    states: np.ndarray
    system_states: np.ndarray
    meta: dict = field(default_factory=dict)


def sector_variables(rho: np.ndarray) -> np.ndarray:
    """Effective 4x4 state of a 4N x 4N composite matrix in the unrotated
    branch basis (see module docstring for the index convention)."""
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0]
    if rho.shape != (dim, dim) or dim % 4:
        raise ValueError(f"expected a 4N x 4N matrix, got shape {rho.shape}")
    n = dim // 4
    t = rho.reshape(2, n, 2, 2, n, 2)
    return np.einsum('lnjmnk->ljmk', t).reshape(4, 4)


def reduced_from_sector(eff: np.ndarray) -> np.ndarray:
    """System 2x2 state from an effective state, or (..., 2, 2) from a stack
    (..., 4, 4): rho_A[l,m] = sum_j eff[(l,j),(m,j)]."""
    e = np.asarray(eff, dtype=complex)
    return np.einsum('...ljmj->...lm', e.reshape(e.shape[:-2] + (2, 2, 2, 2)))


#: sqrt(2) U4, whose columns are Phi+, Psi+, Psi-, Phi- over the pairs
#: r = 2l + j
_BELL = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0],
                  [0.0, 1.0, -1.0, 0.0], [1.0, 0.0, 0.0, -1.0]])


def _bell_frame(m: np.ndarray) -> np.ndarray:
    """W m W for W = U4 (x) I_N (real, symmetric, its own inverse).

    Unscaled butterflies over the pair r = 2l + j of the rows and then of the
    columns: pair (0, j) meets pair (1, 1 - j), the sum goes to (0, j) and the
    difference to (1, 1 - j). One exact halving follows, so entries that
    cancel exactly come out as exact zeros. The column pass runs in the
    buffer of the row pass, with a copy of one half of it."""
    d = m.shape[0]
    src = m.reshape(2, d // 4, 2, 2, d // 4, 2)
    out = np.empty_like(src)
    np.add(src[0], src[1, :, ::-1], out=out[0])
    np.subtract(src[0], src[1, :, ::-1], out=out[1, :, ::-1])
    first, second = out[:, :, :, 0], out[:, :, :, 1, :, ::-1]
    saved = first.copy()
    first += second
    np.subtract(saved, second, out=second)
    out *= 0.5
    return out.reshape(d, d)


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


def _split(h: np.ndarray):
    """(h, component labels, Bell frame?) in the frame propagation runs in:
    the Bell frame when the plain frame leaves h as one block."""
    d = h.shape[0] if h.ndim == 2 else 0
    if h.shape != (d, d) or d == 0 or d % 4 or not np.isfinite(h).all():
        raise ValueError("h must be a finite 4N x 4N matrix")
    label = _components(h != 0)
    if label.any():
        return h, label, False
    h = _bell_frame(h)
    return h, _components(h != 0), True


def _block_eigen(h: np.ndarray, label: np.ndarray):
    """Eigenpairs of h component by component.

    Returns (w, v, spans). The eigen-columns are ordered component by
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
    blocks = [(cols[a:b], slice(a, b)) for a, b in zip(starts, ends) if b - a > 1]
    for sup, s in blocks:
        w[s], v[sup, s] = eig_hermitian(h[sup][:, sup])
    touched = [np.flatnonzero(pairs & (1 << r)) for r in range(4)]
    return w, v, [slice(t[0], t[-1] + 1) for t in touched]


def evolve_exact(h: np.ndarray, eff0: np.ndarray, times) -> Trajectory:
    """Evolve the level-uniform state rho0 = eff0 (x) I_N / N under ``h``,
    rho(t) = exp(-iHt) rho0 exp(+iHt), on the given time grid.

    ``eff0`` is the 4 x 4 effective initial state and must be a density
    matrix, ``h`` a Hermitian 4N x 4N matrix (both within the structural
    tolerance); ``times`` must be finite and increase from 0. ``h`` is split
    into the connected components of its nonzero pattern, in the Bell frame
    when the plain frame leaves it as one block; each component of more than
    one index is diagonalized on its own, and the sector variables are read
    out of the eigenbasis for all times at once (see the module docstring),
    exactly at any spectrum, degenerate ones included. Hermiticity of ``h``
    is checked block by block (``eig_hermitian``) and on the diagonal of the
    1 x 1 blocks; the pattern is symmetrized, so a one-sided entry joins its
    two blocks and fails the block's check.
    """
    h = np.asarray(h, dtype=complex)
    eff0 = np.asarray(eff0, dtype=complex)
    times = np.asarray(times, dtype=float)
    if eff0.shape != (4, 4) or not is_density(eff0, STRUCTURAL_TOL):
        raise ValueError("initial state must be a 4 x 4 density matrix")
    if times.ndim != 1 or times.size == 0 or not abs(times[0]) <= 1e-12 \
            or not np.all(np.diff(times) > 0) or not np.isfinite(times).all():
        raise ValueError("times must be finite and increase from 0")

    h, label, bell_frame = _split(h)
    if bell_frame:
        eff0 = _BELL @ eff0 @ _BELL / 2
    w, v, spans = _block_eigen(h, label)
    del h
    n2 = v.shape[0] // 2
    rows = [v[l * n2 + j:(l + 1) * n2:2] for l in (0, 1) for j in (0, 1)]
    pairs = [(r, c) for r in range(4) for c in range(r, 4)]
    gram = [rows[r][:, spans[r]].T @ rows[c][:, spans[c]].conj()
            for r, c in pairs]
    del v, rows     # freed, like the Bell-frame h, before rho_e: lower peak RSS
    # rho_e on the span rectangles, from K_rc and K_cr = K_rc^dagger
    coef = eff0 / (n2 // 2)
    rho_e = np.zeros((2 * n2, 2 * n2), dtype=complex)
    for (r, c), k in zip(pairs, gram):
        rho_e[spans[r], spans[c]] += coef[r, c] * k.conj()
        if r != c:
            rho_e[spans[c], spans[r]] += coef[c, r] * k.T
    for (r, c), k in zip(pairs, gram):
        k *= rho_e[spans[r], spans[c]]      # K_rc becomes M_rc
    del rho_e

    ph = np.empty((times.size, w.size), dtype=complex)
    np.multiply(np.outer(times, w), -1j, out=ph)
    np.exp(ph, out=ph)
    # Ph M_rc reuses one buffer, so one T x width temporary is alive at a time
    width = max(s.stop - s.start for s in spans)
    phm_buf = np.empty(times.size * width, dtype=complex)
    eff = np.empty((times.size, 4, 4), dtype=complex)
    for (r, c), m in zip(pairs, gram):
        phm = phm_buf[:times.size * m.shape[1]].reshape(times.size, -1)
        np.matmul(ph[:, spans[r]], m, out=phm)
        np.conjugate(phm, out=phm)
        # conj(eff[r, c]) = sum_b conj(Ph M)[t, b] Ph[t, b]
        entry = np.einsum('tb,tb->t', phm, ph[:, spans[c]])
        eff[:, c, r] = entry.real if r == c else entry
        eff[:, r, c] = eff[:, c, r].conj()
    if bell_frame:
        eff = _BELL @ eff @ _BELL / 2
    return Trajectory(times=times, states=eff,
                      system_states=reduced_from_sector(eff))


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
    return Trajectory(
        times=times,
        states=np.mean([t.states for t in trajs], axis=0),
        system_states=np.mean([t.system_states for t in trajs], axis=0),
        meta=dict(base_seed=params.seed, realization_seeds=seeds,
                  n_realizations=n_realizations))
