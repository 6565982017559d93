"""Exact propagation of the composite system and extraction of reduced and
sector-resolved observables.

Propagation uses one eigendecomposition H = V diag(w) V^dagger of the
(time-independent) Hamiltonian, reused for every requested time, so there is
no time-step error. Because the free Hamiltonian acts only on the environment
level index and the two system states are degenerate, both the reduced system
state and the sector variables are identical in the Schroedinger and
interaction pictures; trajectories can therefore be compared directly with the
master-equation solutions, which are derived in the interaction picture.

Return values are plain arrays: ``evolve_exact`` returns the (T, F) values
Tr(O_f eff(t)) of F Hermitian effective-space observables at the T requested
times (``SYSTEM_OBSERVABLES``: the system state), ``ensemble_average``
averages such arrays, and ``reduced_from_sector`` maps (T, 4, 4) effective
states to the (T, 2, 2) system states.

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
rho0, nor rho_e by a matrix product, nor rho(t) is ever formed.

Observables: Tr(O eff) = sum_rc O[c, r] eff[r, c] is linear in the entries,
so the part of a block pair is one readout sum_ab ph_a (G * rho_e)[a, b]
conj(ph_b) of one Gram block G = sum_rc y[r, c] K_rc. A block pair's
readouts are its jobs (y, u): each takes one T x |B| x |B'| product and adds
Re(u_f e(t)) to observable f, e(t) the readout's complex conjugate. Within
one block the part of each observable is real, as O and eff are Hermitian,
so at every T the observables are packed two to a job, X = O_a - i O_b and
y = X^T: e = v_a + i v_b, u = (1, -i). Across two blocks there is one job
per entry (r, c) that some observable weighs: y = 1 at (r, c),
e = conj(eff[r, c]), u_f = 2 O_f[r, c], as
O[c, r] eff[r, c] + O[r, c] eff[c, r] = 2 Re(O[c, r] eff[r, c]).
A block pair is skipped when no observable weighs it or when eff0 is zero on
it (rho_e = 0). Two pairs each on its own have identity rows and rho_e a
multiple of I, so their readout is sum_a ph_a conj(ph'_a), O(T N).

Gram blocks: rho_e and each job's G are one fused product each,
A_B^T (y (x) I_N) conj(A_B'), N multiply-adds an entry for each pair of B
it runs over, so no K_rc is formed. Within one block the eigenvectors are
unitary, so sum_{r in B} K_rr = I: a diagonal entry s of y goes out as s I
when that shortens the contiguous range of pairs whose rows of y - s I are
nonzero, the range the product runs over. So the packed rho00/rho11 job of
the 2N block at xi = 0 takes N rows, not 2N, and y = s I takes none.
(y (x) I_N) conj(A_B') is formed a panel of columns at a time in one buffer.
A pair on its own has identity rows, never formed: its Gram blocks are
conj(A_c) or A_r^T. Each G becomes G * rho_e in place just before its
readout, done in chunks of the buffer's rows, |buffer| // |B'| times, so
that no readout buffer grows with T. The buffer holds 2**14 entries
(256 KiB), or one row of the widest block if that is wider, but never more
than max(T, width) rows of that block: all that a panel or a chunk of times
can fill.
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


#: the system state as effective-space observables, in steady.csv's order:
#: rho00, rho11, Re rho01 and Im rho01, from rho_A[l, m] = Tr(|m><l| (x) I_2 eff)
SYSTEM_OBSERVABLES = np.kron([np.diag([1.0, 0.0]), np.diag([0.0, 1.0]),
                              [[0.0, 0.5], [0.5, 0.0]], [[0.0, 0.5j], [-0.5j, 0.0]]],
                             np.eye(2))
SYSTEM_OBSERVABLES.flags.writeable = False
#: the names of ``SYSTEM_OBSERVABLES``, in its order
SYSTEM_NAMES = ("rho00", "rho11", "rho01_re", "rho01_im")
#: complex entries of the buffer for panels and readout chunks (256 KiB),
#: unless one row of the widest block is longer
_CHUNK = 2 ** 14
#: sqrt(2) U4: its columns are Phi+, Psi+, Psi-, Phi- over the pairs r = 2l + j
_BELL = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0],
                  [0.0, 1.0, -1.0, 0.0], [1.0, 0.0, 0.0, -1.0]])
#: row (= column) r of _BELL as (p, q, op): its pairs p < q, added or subtracted
_BELL_PAIRS = [(p, q, np.add if row[q] > 0 else np.subtract)
               for row in _BELL for p, q in [np.flatnonzero(row)]]


def system_values(states: np.ndarray) -> np.ndarray:
    """(..., 4) values of ``SYSTEM_OBSERVABLES`` (``SYSTEM_NAMES``) of
    (..., 4, 4) effective states, read off ``reduced_from_sector``."""
    s = reduced_from_sector(states)
    return np.stack([s[..., 0, 0].real, s[..., 1, 1].real,
                     s[..., 0, 1].real, s[..., 0, 1].imag], axis=-1)


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


def evolve_exact(h: np.ndarray, eff0: np.ndarray, times, observables) -> np.ndarray:
    """Evolve the level-uniform state rho0 = eff0 (x) I_N / N under ``h``,
    rho(t) = exp(-iHt) rho0 exp(+iHt), on the given time grid, and return the
    (T, F) expectation values Re Tr(O_f eff(t)) of the effective states
    (theta = 0) for the (F, 4, 4) stack of Hermitian ``observables``
    (``SYSTEM_OBSERVABLES`` gives the system state).

    ``eff0`` is the 4 x 4 effective initial state and must be a density
    matrix, ``h`` a Hermitian 4N x 4N matrix and each observable Hermitian,
    each judged against its own scale; ``times`` must be finite and increase
    from exactly 0, with finite phases w t_max for the eigenvalues w of ``h``.
    ``h`` is split into blocks, and the values are read out of their
    eigenbases for all times at once, exactly at any spectrum (see the
    module docstring). Hermiticity of ``h`` is checked per block
    (``eig_hermitian``) and on the slice of each unlinked pair
    (``is_hermitian``); the links are symmetrized, so a one-sided entry joins
    its two pairs and fails the block's check.
    """
    h = np.asarray(h, dtype=complex)
    eff0 = np.asarray(eff0, dtype=complex)
    times = np.asarray(times, dtype=float)
    obs = np.asarray(observables, dtype=complex)
    if eff0.shape != (4, 4) or not is_density(eff0):
        raise ValueError("initial state must be a 4 x 4 density matrix")
    if times.ndim != 1 or times.size == 0 or times[0] != 0 \
            or not np.all(np.diff(times) > 0) or not np.isfinite(times).all():
        raise ValueError("times must be finite and increase from 0")
    if obs.ndim != 3 or obs.shape[1:] != (4, 4) or not all(map(is_hermitian, obs)):
        raise ValueError("observables must be a (F, 4, 4) stack of Hermitian matrices")

    blocks, bell_frame = _blocks(h)
    n = h.shape[0] // 4
    del h       # the blocks are copies: a caller's temporary h goes before eigh
    pairs, w, rows = zip(*((p, m, None) if m.ndim == 1 else (p, *eig_hermitian(m))
                           for p, m in blocks))
    del blocks
    if max(float(np.abs(e).max()) for e in w) * float(times[-1]) == np.inf:
        raise ValueError("phases overflow: max|w| * t_max is not finite")
    rows = [r if r is None else r.reshape(len(p), n, -1) for p, r in zip(pairs, rows)]
    coef = (_BELL @ eff0 @ _BELL / 2 if bell_frame else eff0) / n
    obs = (obs + obs.conj().transpose(0, 2, 1)) / 2     # exactly Hermitian
    if bell_frame:
        obs = _BELL @ obs @ _BELL / 2
    ph = [np.exp(p, out=p) for p in (np.multiply.outer(times, -1j * e) for e in w)]
    vals = np.zeros((times.size, len(obs)))
    widest = max(e.size for e in w)
    # the panels and readout chunks: 2**14 entries, or one row of the widest
    # block if wider, but no more than max(T, its width) rows of it
    buf = np.empty(widest * min(max(1, _CHUNK // widest), max(times.size, widest)),
                   dtype=complex)
    for i in range(len(w)):
        for j in range(i, len(w)):
            c_ij = coef[np.ix_(pairs[i], pairs[j])]
            jobs = _jobs(obs[:, pairs[i]][:, :, pairs[j]], i == j)
            if not jobs or not c_ij.any():
                continue
            a, b = rows[i], rows[j]
            if a is None and b is None:     # lone pairs: rho_e = c I, each K is I
                for y, u in jobs:
                    _readout(ph[i], None, ph[j], np.conj(c_ij[0, 0] * y[0, 0]) * u, vals, buf)
                continue
            # rho_e = V_i^dagger rho0 V_j = conj(sum_rc conj(coef[r, c]) K_rc)
            rho_e = _fused(c_ij.conj(), a, b, buf)
            np.conjugate(rho_e, out=rho_e)
            for y, u in jobs:
                m = _fused(y, a, b, buf)
                m *= rho_e
                _readout(ph[i], m, ph[j], u, vals, buf)
                del m
            del rho_e       # this pair's arrays, freed before the next pair's
        ph[i] = rows[i] = None      # no later pair reads block i
    return vals


def _span(y) -> slice:
    """The contiguous range of pairs whose rows of y are nonzero."""
    nonzero = np.flatnonzero(y.any(axis=1))
    return slice(nonzero[0], nonzero[-1] + 1) if nonzero.size else slice(0, 0)


def _fused(y, a_i, a_j, buf) -> np.ndarray:
    """A new sum_rc y[r, c] K_rc = A_i^T (y (x) I_N) conj(A_j) for the stacked
    rows A_i (k, N, w_i) and A_j of a block pair, None for a lone pair's
    identity rows (not both): one product over a view of the pairs whose rows
    of y are nonzero, with (y (x) I_N) conj(A_j) formed a panel of columns at
    a time in ``buf``. Within one block (A_i is A_j) sum_r K_rr = I, so a
    diagonal entry s of y goes out as s I when that shortens the range."""
    if a_j is None:
        return np.tensordot(y[:, 0], a_i, axes=1).T
    if a_i is None:
        out = np.tensordot(y[0].conj(), a_j, axes=1)
        return np.conjugate(out, out=out)
    shift, rows = 0, _span(y)
    if a_i is a_j:
        for s in np.diagonal(y):
            span = _span(y - s * np.eye(len(y)))
            if span.stop - span.start < rows.stop - rows.start:
                shift, rows = s, span
    y, a = (y - shift * np.eye(len(y)))[rows], a_i[rows]
    k, n, w_i = a.shape
    w_j = a_j.shape[2]
    out = np.empty((w_j, w_i), dtype=complex).T     # each panel's columns contiguous
    step = max(1, buf.size // (len(a_i) * n))   # einsum buffers an N x step slice
    for c in range(0, w_j, step):
        cols = slice(c, min(c + step, w_j))
        width = cols.stop - c
        panel = buf[:k * n * width].reshape(k, n, width)
        np.einsum('rc,cnb->rnb', y.conj(), a_j[:, :, cols], out=panel)
        # a sum over no pairs (y = s I, k = 0) writes zeros
        np.matmul(a.reshape(k * n, w_i).T, np.conjugate(panel, out=panel).reshape(k * n, width),
                  out=out[:, cols])
    if shift:
        np.einsum('ii->i', out)[...] += shift
    return out


def _readout(ph_i, m, ph_j, u, vals, buf):
    """vals += Re(u_f e(t)) for every observable f, with e(t) = sum_ab
    conj(ph_i[t, a] m[a, b]) ph_j[t, b] (m None: the identity), a chunk of
    |buf| // w_j times at a time through ``buf``."""
    step = max(1, buf.size // ph_j.shape[1])
    for t in range(0, len(vals), step):
        s = slice(t, t + step)
        pm = buf[:ph_j[s].size].reshape(ph_j[s].shape)
        if m is None:
            np.conjugate(ph_i[s], out=pm)
        else:
            np.conjugate(np.matmul(ph_i[s], m, out=pm), out=pm)
        vals[s] += np.multiply.outer(np.einsum('tb,tb->t', pm, ph_j[s]), u).real


def _jobs(o, same: bool):
    """The readouts of one block pair, each as (y, u): its Gram block is
    sum_rc y[r, c] K_rc, and its readout e(t) adds Re(u_f e(t)) to observable
    f. ``o`` holds the observables' (B, B') entries, (F, |B|, |B'|).

    Within one block each observable's readout is real, so the observables
    that weigh the block go two to a readout, X = O_a - i O_b, y = X^T:
    e = v_a + i v_b. Across two blocks there is one readout per entry (r, c)
    that some observable weighs, y = 1 there: e = conj(eff[r, c]), and v_f
    gains 2 Re(O_f[r, c] e), the entry and its conjugate (c, r)."""
    jobs = []
    if same:
        weighed = [f for f in range(len(o)) if o[f].any()]
        for two in (weighed[q:q + 2] for q in range(0, len(weighed), 2)):
            u = np.zeros(len(o), dtype=complex)
            u[two] = [1, -1j][:len(two)]
            jobs.append((np.einsum('f,fcr->rc', u[two], o[two]), u))     # X^T
    else:
        for r, c in np.argwhere(o.any(axis=0)):
            y = np.zeros(o.shape[1:])
            y[r, c] = 1.0
            jobs.append((y, 2 * o[:, r, c]))
    return jobs


def realization_seeds(base_seed: int, n_realizations: int) -> list[int]:
    """Seed for realization k is base_seed + k (mod 2^64); distinct Philox keys
    give independent streams while keeping provenance obvious."""
    return [(int(base_seed) + k) % 2 ** 64 for k in range(n_realizations)]


def ensemble_average(params: ModelParams, n_realizations: int, run_one) -> np.ndarray:
    """Pointwise mean of one realization's arrays over coupling realizations.

    ``run_one(params_k)`` must return arrays of one shape, such as the (T, F)
    values of ``evolve_exact`` or (T, 4, 4) effective states;
    realization k runs with the k-th derived seed (realization 0 reuses the
    base seed, so n_realizations=1 reproduces a single run exactly).
    """
    if n_realizations < 1:
        raise ValueError("n_realizations must be >= 1")
    seeds = realization_seeds(params.seed, n_realizations)
    return np.mean([run_one(params.with_seed(s)) for s in seeds], axis=0)
