"""Exact propagation of the composite system and extraction of reduced and
sector-resolved observables.

Propagation uses one eigendecomposition H = V diag(w) V^dagger of the
(time-independent) Hamiltonian, reused for every requested time, so there is
no time-step error. Because the free Hamiltonian acts only on the environment
level index and the two system states are degenerate, both the reduced system
state and the sector variables are identical in the Schroedinger and
interaction pictures; trajectories can therefore be compared directly with the
master-equation solutions, which are derived in the interaction picture.

Return values are plain arrays: ``evolve_exact`` and ``ensemble_average``
return the (T, 4, 4) effective states (theta = 0) at the T requested times,
and ``reduced_from_sector`` maps them to the (T, 2, 2) system states.

Sector variables: for a branch basis rotated by theta, the effective state is
the 4x4 matrix of level-summed ("collective") matrix elements

    eff[(l, j), (m, k)] = Tr(rho * |m><l| (x) sum_n |n,k,theta><n,j,theta|)

indexed system-major (row = 2l + j, column = 2m + k with j, k = 0, 1 for the
two rotated branches). It is Hermitian whenever rho is, carries the full
trace, and reduces to the system state via rho_A[l, m] = sum_j eff[(l,j),(m,j)].
The code computes theta = 0 only; a rotated basis follows by the 4x4
rotation u^dagger eff u with u = I (x) ``model.branch_rotation(theta)``.

Blocks: two of the (system state, branch) pairs r = 2l + j are linked when
their N x N slice of H (``model.pair_slices``) has a nonzero entry, and a
pair is linked to itself when its own slice has one off the diagonal. Each
connected set of pairs is a block with its own (smaller) eigendecomposition;
a pair linked to nothing is its own eigenbasis, with the diagonal of H as its
eigenvalues. At xi = 0 the branch channel links only r = 1, 2, the 2N block
{|0,n,2>, |1,n',1>}, and r = 0 (|0,n,1>) and r = 3 (|1,n,2>) see only H0.
When the plain frame links all four pairs (xi > 0), propagation runs in the
Bell frame W = U4 (x) I_N, where U4 (real, symmetric, its own inverse) has
the columns Phi+, Psi+, Psi-, Phi- over the pairs. For every xi, Phi+ (x) C^N
is invariant under H and sees only H0, so the Bell frame has the 3N block
{Psi+, Psi-, Phi-} at 0 < xi < 1 and the 2N block {Psi-, Phi-} at xi = 1,
where Psi+ is also on its own. W is applied as sums and differences of slices
and one exact halving. All it needs from h is that negating a jump entry
negates its slices exactly (see ``model.build_hamiltonian``): every entry
that W should cancel is then a difference of two bit-identical numbers, and
the links are read off exact zeros. An h that the Bell frame does not split
is one block. Sector variables are covariant under W:
eff(rho) = U4 eff(W rho W) U4. Blocks are ordered by their first pair.

Initial state: the experiments start from states in the range of the
correlated projection, rho0 = sum_i rho_i (x) Pi_i / N_i, which are uniform
over the levels: rho0 = eff0 (x) I_N / N, whose (r, c) slice is
eff0[r, c] I_N / N. So eff0 fixes rho0, and ``evolve_exact`` takes eff0
(U4 eff0 U4 in the Bell frame).

Readout in the eigenbasis: the N rows of V for the pair r = 2l + j, A_r,
are nonzero only on the eigenvector columns of the block of r, where they
are N rows of the block's eigenvectors. For a block pair (B, B'), B not after
B', with the Gram blocks K_rc = A_r^T conj(A_c) for r in B and c in B' and
the phases ph_a(t) = exp(-i w_a t), the theta = 0 entries are

    eff[r, c](t) = sum_ab ph_a(t) M_rc[a, b] conj(ph_b(t))   (a in B, b in B'),
    M_rc = K_rc * rho_e      (elementwise product),
    rho_e = (1/N) sum_{r in B, c in B'} eff0[r, c] conj(K_rc),

with rho_e the B x B' block of V^dagger rho0 V, so neither the whole V, nor
rho0, nor rho_e by a matrix product, nor rho(t) is ever formed. Hermiticity
(M_cr = M_rc^dagger) leaves 10 entries, one per pair {r, c}: within one block
r <= c, and across two blocks every r in B and c in B'. Within one block,
conj(K_cr) = K_rc^T and eff0 is Hermitian, so rho_e = X + X^dagger, X the terms
r < c and half those r = c. A pair on its own has identity rows, never formed:
its Gram blocks are conj(A_c), A_r^T or I. A K_rc costs N multiply-adds an
entry and its readout T, so at T < N a block pair's K_rc are formed once and
held, and at T >= N each is formed again after rho_e, so that one is alive at a
time. Either way each K_rc becomes M_rc in place just before its readout, done
in chunks of 2**14 // |B'| times, so that no readout buffer grows with T.
"""
from __future__ import annotations

import numpy as np

from .linalg import eig_hermitian, is_density, is_hermitian
from .model import ModelParams, pair_slices


def sector_variables(rho: np.ndarray) -> np.ndarray:
    """Effective 4x4 state of a 4N x 4N composite matrix in the unrotated
    branch basis (see module docstring for the index convention)."""
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0]
    if rho.shape != (dim, dim) or dim % 4:
        raise ValueError(f"expected a 4N x 4N matrix, got shape {rho.shape}")
    s = pair_slices(rho)
    return np.array([[np.einsum('ii->', x) for x in row] for row in s])


def reduced_from_sector(eff: np.ndarray) -> np.ndarray:
    """System 2x2 state from an effective state, or (..., 2, 2) from a stack
    (..., 4, 4): rho_A[l,m] = sum_j eff[(l,j),(m,j)]."""
    e = np.asarray(eff, dtype=complex)
    return np.einsum('...ljmj->...lm', e.reshape(e.shape[:-2] + (2, 2, 2, 2)))


#: complex entries of the readout buffer (256 KiB): 2**14 // w_j times a chunk
_CHUNK = 2 ** 14
#: sqrt(2) U4: its columns are Phi+, Psi+, Psi-, Phi- over the pairs r = 2l + j
_BELL = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0],
                  [0.0, 1.0, -1.0, 0.0], [1.0, 0.0, 0.0, -1.0]])
#: row (= column) r of _BELL as (p, q, op): its pairs p < q, added or subtracted
_BELL_PAIRS = [(p, q, np.add if row[q] > 0 else np.subtract)
               for row in _BELL for p, q in [np.flatnonzero(row)]]


def _bell_frame(m: np.ndarray) -> np.ndarray:
    """W m W for W = U4 (x) I_N in one new array: each output slice in one pass
    over the Bell pairs of its row and its column, unscaled, then one exact
    halving, so entries that cancel exactly come out as exact zeros."""
    out = np.empty_like(m)
    s, o = pair_slices(m), pair_slices(out)
    for r, (pr, qr, op_r) in enumerate(_BELL_PAIRS):
        for c, (pc, qc, op_c) in enumerate(_BELL_PAIRS):
            op_c(op_r(s[pr][pc], s[qr][pc]), op_r(s[pr][qc], s[qr][qc]), out=o[r][c])
    out *= 0.5
    return out


def _pair_links(h: np.ndarray):
    """4 x 4 (links, reach): links[r, c] if h has a nonzero off-diagonal entry
    between pairs r and c (r = c too), symmetrized; reach[r, c] if connected."""
    nonzero = h != 0
    np.fill_diagonal(nonzero, False)
    links = np.array([[x.any() for x in row] for row in pair_slices(nonzero)])
    links |= links.T
    reach = links | np.eye(4, dtype=bool)
    for _ in range(2):      # paths of up to 4 > 3 links
        reach = (reach[:, :, None] & reach[None]).any(axis=1)
    return links, reach


def _blocks(h: np.ndarray):
    """(blocks, bell_frame): the blocks of h in the frame propagation runs in,
    the Bell frame when the plain frame links all four pairs r = 2l + j.

    The blocks are the connected sets of pairs, ordered by their first pair,
    each as (pairs, m): its pairs in increasing order and a copy of its
    matrix, or for a pair linked to nothing, its own eigenbasis, the real
    diagonal (its eigenvalues)."""
    d = h.shape[0] if h.ndim == 2 else 0
    if h.shape != (d, d) or d == 0 or d % 4 or not np.isfinite(h).all():
        raise ValueError("h must be a finite 4N x 4N matrix")
    links, reach = _pair_links(h)
    bell_frame = bool(reach.all())
    if bell_frame:
        h = _bell_frame(h)
        links, reach = _pair_links(h)
    s = pair_slices(h)
    blocks = []
    for pairs in dict.fromkeys(tuple(np.flatnonzero(row)) for row in reach):
        m = np.block([[s[r][c] for c in pairs] for r in pairs])
        if len(pairs) == 1 and not links[pairs[0], pairs[0]]:
            if not is_hermitian(m):
                raise ValueError("evolve_exact requires a Hermitian matrix")
            m = np.diagonal(m).real.copy()
        blocks.append((pairs, m))
    return blocks, bell_frame


def _gram(a_r, a_c, n: int) -> np.ndarray:
    """A new K_rc = A_r^T conj(A_c); None stands for a lone pair's identity rows."""
    if a_r is None:
        return np.eye(n, dtype=complex) if a_c is None else a_c.conj()
    return a_r.T.copy() if a_c is None else a_r.T @ a_c.conj()


def evolve_exact(h: np.ndarray, eff0: np.ndarray, times) -> np.ndarray:
    """Evolve the level-uniform state rho0 = eff0 (x) I_N / N under ``h``,
    rho(t) = exp(-iHt) rho0 exp(+iHt), on the given time grid, and return
    its (T, 4, 4) effective states (theta = 0).

    ``eff0`` is the 4 x 4 effective initial state and must be a density
    matrix and ``h`` a Hermitian 4N x 4N matrix, each judged against its own
    scale; ``times`` must be finite and increase from exactly 0, with finite
    phases w t_max for the eigenvalues w of ``h``. ``h`` is split into blocks,
    and the sector variables are read out of their eigenbases for all times
    at once, exactly at any spectrum (see the module docstring).
    Hermiticity of ``h`` is checked per block (``eig_hermitian``) and on the
    slice of each unlinked pair (``is_hermitian``); the links are symmetrized,
    so a one-sided entry joins its two pairs and fails the block's check.
    """
    h = np.asarray(h, dtype=complex)
    eff0 = np.asarray(eff0, dtype=complex)
    times = np.asarray(times, dtype=float)
    if eff0.shape != (4, 4) or not is_density(eff0):
        raise ValueError("initial state must be a 4 x 4 density matrix")
    if times.ndim != 1 or times.size == 0 or times[0] != 0 \
            or not np.all(np.diff(times) > 0) or not np.isfinite(times).all():
        raise ValueError("times must be finite and increase from 0")

    blocks, bell_frame = _blocks(h)
    n = h.shape[0] // 4
    del h       # the blocks are copies: a caller's temporary h goes before eigh
    pairs, w, rows = zip(*((p, m, [None]) if m.ndim == 1 else (p, *eig_hermitian(m))
                           for p, m in blocks))
    del blocks
    if max(float(np.abs(e).max()) for e in w) * float(times[-1]) == np.inf:
        raise ValueError("phases overflow: max|w| * t_max is not finite")
    rows = [r if r[0] is None else r.reshape(len(p), n, -1) for p, r in zip(pairs, rows)]
    coef = (_BELL @ eff0 @ _BELL / 2 if bell_frame else eff0) / n
    ph = [np.exp(p, out=p) for p in (np.multiply.outer(times, -1j * e) for e in w)]
    hold = times.size < n   # forming a K again costs N per entry, its readout T
    eff = np.empty((times.size, 4, 4), dtype=complex)
    for i in range(len(w)):
        for j in range(i, len(w)):
            # the entries of this block pair, within one block r <= c
            ents = [(r, c, rows[i][x], rows[j][y]) for x, r in enumerate(pairs[i])
                    for y, c in enumerate(pairs[j]) if i < j or x <= y]
            ks = [_gram(a, b, n) for _, _, a, b in ents] if hold else None
            # rho_e = X + X^dagger within one block, as coef is Hermitian, with X
            # from r < c and half of r = c; across two blocks rho_e = X
            rho_e = np.zeros((w[i].size, w[j].size), dtype=complex)
            buf = np.empty_like(rho_e) if hold else None    # a held K must survive
            for q, (r, c, a, b) in enumerate(ents):
                k = ks[q] if hold else _gram(a, b, n)
                x = np.conjugate(k, out=buf if hold else k)
                rho_e += np.multiply(coef[r, c] / 2 if r == c else coef[r, c], x, out=x)
                del k, x    # so that a re-formed K is the only one alive
            del buf
            if i == j:
                rho_e += rho_e.conj().T
            step = max(1, _CHUNK // w[j].size)
            chunks = [slice(t, t + step) for t in range(0, times.size, step)]
            phm = np.empty((min(step, times.size), w[j].size), dtype=complex)
            for q, (r, c, a, b) in enumerate(ents):
                m = ks[q] if hold else _gram(a, b, n)
                m *= rho_e      # M_rc in place
                for s in chunks:
                    pm = phm[:times[s].size]
                    np.matmul(ph[i][s], m, out=pm)
                    np.conjugate(pm, out=pm)
                    # conj(eff[r, c]) = sum_b conj(Ph M)[t, b] Ph[t, b]
                    entry = np.einsum('tb,tb->t', pm, ph[j][s])
                    eff[s, c, r] = entry.real if r == c else entry
                eff[:, r, c] = eff[:, c, r].conj()
                del m
            del ents, ks, phm, pm, rho_e    # this pair's arrays, freed before the next pair's
        ph[i] = rows[i] = None      # no later pair reads block i
    if bell_frame:
        eff = _BELL @ eff @ _BELL / 2
    return eff


def realization_seeds(base_seed: int, n_realizations: int) -> list[int]:
    """Seed for realization k is base_seed + k (mod 2^64); distinct Philox keys
    give independent streams while keeping provenance obvious."""
    return [(int(base_seed) + k) % 2 ** 64 for k in range(n_realizations)]


def ensemble_average(params: ModelParams, n_realizations: int, run_one) -> np.ndarray:
    """Pointwise mean of the effective states over coupling realizations.

    ``run_one(params_k)`` must return (T, 4, 4) effective states of one T;
    realization k runs with the k-th derived seed (realization 0 reuses the
    base seed, so n_realizations=1 reproduces a single run exactly).
    """
    if n_realizations < 1:
        raise ValueError("n_realizations must be >= 1")
    seeds = realization_seeds(params.seed, n_realizations)
    return np.mean([run_one(params.with_seed(s)) for s in seeds], axis=0)
