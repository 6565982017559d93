"""Independent oracles used by the test suite.

Everything here is deliberately written without reusing the package's
superoperator machinery so that comparisons are genuine cross-checks:
column-stacking and basis conventions are re-stated locally.
"""
from __future__ import annotations

import numpy as np

# effective-space conventions (restated): basis index 2*m + s with system
# m in {0,1} and sector s in {0,1} for the two branches; vec by column
# stacking, so entry (r, c) sits at vec index 4*c + r.


#: the two reference angles of the projector family: the branch basis and
#: the (+, -) pair
SECTOR_THETAS = (0.0, np.pi / 4)


def rotate_sector(states: np.ndarray, theta: float) -> np.ndarray:
    """Effective state(s) (..., 4, 4) from the unrotated branch basis into the
    theta-rotated one, |1,theta> = cos|1> + sin|2>, |2,theta> = -sin|1> +
    cos|2>, on the sector factor (system index first)."""
    c, s = np.cos(theta), np.sin(theta)
    u = np.kron(np.eye(2), np.array([[c, -s], [s, c]]))
    return u.T @ states @ u


def partial_trace(m: np.ndarray, dims, keep: int) -> np.ndarray:
    """Trace out all tensor factors of ``m`` except ``dims[keep]``.

    ``dims`` lists the subsystem dimensions whose product must equal the
    matrix size; the trace is preserved.
    """
    m = np.asarray(m, dtype=complex)
    dims = [int(d) for d in dims]
    total = int(np.prod(dims))
    if m.shape != (total, total):
        raise ValueError(
            f"matrix of shape {m.shape} does not match subsystem dims {dims}")
    t = m.reshape(dims + dims)
    # trace highest-index factors first so lower axes keep their positions
    for i in sorted((i for i in range(len(dims)) if i != keep), reverse=True):
        t = np.trace(t, axis1=i, axis2=i + t.ndim // 2)
    return t


def rk4_von_neumann(h: np.ndarray, rho0: np.ndarray, t_final: float,
                    dt: float) -> np.ndarray:
    """Fixed-step 4th-order Runge-Kutta integration of d rho/dt = -i [H, rho]."""
    def f(r):
        return -1j * (h @ r - r @ h)

    steps = int(round(t_final / dt))
    rho = rho0.astype(complex).copy()
    for _ in range(steps):
        k1 = f(rho)
        k2 = f(rho + 0.5 * dt * k1)
        k3 = f(rho + 0.5 * dt * k2)
        k4 = f(rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return rho


def evolve_exact_dense(h: np.ndarray, rho0: np.ndarray, times, thetas):
    """Exact sector readout by rebuilding the full 4N x 4N rho(t) per time.

    rho(t) = V (ph ph^dagger * rho_e) V^dagger with rho_e = V^dagger rho0 V,
    then the level sum eff[(l,j),(m,k)] = sum_n rho[(l,n,j),(m,n,k)] (composite
    index l*2N + 2n + j) and, per theta, the rotation of both branch indices to
    |1,theta> = cos|1> + sin|2>, |2,theta> = -sin|1> + cos|2>. Returns the
    (T, 2, 2) system states and a dict theta -> (T, 4, 4) sector states.
    """
    w, v = np.linalg.eigh(h)
    rho_e = v.conj().T @ rho0 @ v
    n = h.shape[0] // 4
    system, sectors = [], {th: [] for th in thetas}
    for t in np.asarray(times, dtype=float):
        ph = np.exp(-1j * w * t)
        rho_t = v @ (np.outer(ph, ph.conj()) * rho_e) @ v.conj().T
        eff = np.zeros((4, 4), dtype=complex)
        for l in range(2):
            for j in range(2):
                for m in range(2):
                    for k in range(2):
                        eff[2 * l + j, 2 * m + k] = sum(
                            rho_t[l * 2 * n + 2 * lvl + j, m * 2 * n + 2 * lvl + k]
                            for lvl in range(n))
        system.append(np.array([[eff[0, 0] + eff[1, 1], eff[0, 2] + eff[1, 3]],
                                [eff[2, 0] + eff[3, 1], eff[2, 2] + eff[3, 3]]]))
        for th in thetas:
            sectors[th].append(rotate_sector(eff, th))
    return np.array(system), {th: np.array(x) for th, x in sectors.items()}


def _superop(fn) -> np.ndarray:
    """16 x 16 matrix of the linear map ``fn`` on 4 x 4 matrices."""
    k = np.zeros((16, 16), dtype=complex)
    for col in range(16):
        e = np.zeros(16, dtype=complex)
        e[col] = 1.0
        k[:, col] = fn(e.reshape(4, 4).T).T.reshape(-1)   # unvec, map, vec
    return k


def _hermitian_2x2(d0: float, d1: float, off: complex) -> np.ndarray:
    return np.array([[d0, off], [np.conj(off), d1]], dtype=complex)


def sector_projector(theta: float) -> np.ndarray:
    """Relevant-part projector P_theta: keeps the sector-diagonal blocks of an
    effective state in the branch basis rotated by theta,
    |1,theta> = cos|1> + sin|2> and |2,theta> = -sin|1> + cos|2>."""
    c, s = np.cos(theta), np.sin(theta)
    pis = [np.kron(np.eye(2), np.outer(ket, ket))
           for ket in (np.array([c, s]), np.array([-s, c]))]
    return _superop(lambda x: sum(pi @ x @ pi for pi in pis))


def choi_oracle(s: np.ndarray) -> np.ndarray:
    """Choi matrix sum_ab S(E_ab) (x) E_ab of a 16 x 16 superoperator."""
    c = np.zeros((16, 16), dtype=complex)
    for a in range(4):
        for b in range(4):
            e = np.zeros((4, 4), dtype=complex)
            e[a, b] = 1.0
            c += np.kron((s @ e.T.reshape(-1)).reshape(4, 4).T, e)
    return c


# ---------------------------------------------------------------------------
# exact coupling average of the second-order TCL generator
#
# composite conventions (restated): basis index m * 2N + n * 2 + i for system
# m, level n = 0..N-1 with energy delta_eps * (n + 1) / N, and branch i; the
# sector trace sums the level index and keeps system and branch indices.

_SIGMA_UP = np.array([[0, 0], [1, 0]], dtype=complex)        # |0> -> |1>
_PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)
_MINUS = np.array([1.0, -1.0]) / np.sqrt(2.0)
_SIGMA_UP_X = -1j * np.outer(_MINUS, _PLUS)                  # |+> -> -i|->
_LADDER_BRANCH = np.array([[0, 1], [0, 0]], dtype=complex)   # |1><2|
_LADDER_ROTATED = np.outer(_PLUS, _MINUS).astype(complex)    # |+><-|


def build_v_kron(n_levels: int, xi: float, c: np.ndarray,
                 c_prime: np.ndarray):
    """Interaction terms (v1, v2) built as Kronecker products of the system
    ladders with dense environment ladders: B = U c D^dagger with U, D the
    2N x N isometries onto |n,1>, |n,2> (branch channel) or |n,+>, |n,->
    (rotated channel); v1 = (1-xi)(sigma+ (x) B + h.c.) with sigma+ = |1><0|,
    v2 = xi(sigma+_x (x) B' + h.c.) with sigma+_x |+> = -i|->, using the
    system ladders and branch kets of ``tcl2_wick_generator``."""
    eye = np.eye(n_levels)
    up, dn = np.zeros((2 * n_levels, n_levels)), np.zeros((2 * n_levels, n_levels))
    up[0::2], dn[1::2] = eye, eye
    b1 = up @ c @ dn.T
    up_x, dn_x = np.kron(eye, _PLUS[:, None]), np.kron(eye, _MINUS[:, None])
    b2 = up_x @ c_prime @ dn_x.T
    v1 = np.kron(_SIGMA_UP, b1)
    v2 = np.kron(_SIGMA_UP_X, b2)
    return (1.0 - xi) * (v1 + v1.conj().T), xi * (v2 + v2.conj().T)


def _band_integrals(n_levels: int, delta_eps: float, t: float) -> np.ndarray:
    """f[a, b] = int_0^t exp(i w tau) dtau with w = eps_a - eps_b, exactly:
    t exp(i w t/2) sinc(w t / 2 pi), which is t at w = 0."""
    eps = delta_eps * np.arange(1, n_levels + 1) / n_levels
    w = eps[:, None] - eps[None, :]
    return t * np.exp(0.5j * w * t) * np.sinc(w * t / (2.0 * np.pi))


def wick_scalar(n_levels: int, delta_eps: float, t: float,
                alpha: float) -> complex:
    """g(t) = (2 alpha^2 / N) sum_ab int_0^t exp(i (eps_a - eps_b) tau) dtau.

    The scalar every contraction of the uniformly embedded state carries, so
    that K2(t) = g(t) * (the lam = 1 generator). It is real up to rounding:
    f_ba = conj(f_ab), so the imaginary parts (the Lamb shift) cancel under
    a <-> b. At times past the band's correlation time and before its
    recurrence it approaches the golden-rule rate alpha^2 (2 pi / delta_eps) N.
    """
    f = _band_integrals(n_levels, delta_eps, t)
    return 2.0 * alpha ** 2 / n_levels * f.sum()


def tcl2_wick_generator(xi: float, n_levels: int, delta_eps: float, t: float,
                        alpha: float) -> np.ndarray:
    """Coupling-averaged second-order TCL generator K2(t) on the effective
    space (16 x 16, unprojected), at finite N and finite t:

        K2(t) x = -alpha^2 int_0^t ds Tr_sec E[V(t), [V(s), rho(x)]]

    with rho(x) = x (x) sum_n |n,j><n,k| / N (x embedded uniformly over the
    levels) and V(t) in the interaction picture of the level energies. Each
    channel is V = sum_ab (c_ab X_ab + c.c.) with X_ab = (1 - xi) sigma+ (x)
    |a,1><b,2| (branch) or xi sigma+_x (x) |a,+><b,-| (rotated). The couplings
    are contracted by Isserlis' theorem, E[c_ab c*_cd] = delta_ac delta_bd,
    E[c c] = 0, channels independent, so the average is a sum over (a, b) of
    f_ab [X_ab, [X_ab^dag, rho]] + conj(f_ab) [X_ab^dag, [X_ab, rho]] with the
    exact time integral f_ab of :func:`_band_integrals`.
    """
    n = int(n_levels)
    f = _band_integrals(n, delta_eps, t)
    terms = []
    for weight, sys_op, ladder in ((1.0 - xi, _SIGMA_UP, _LADDER_BRANCH),
                                   (xi, _SIGMA_UP_X, _LADDER_ROTATED)):
        for a in range(n):
            for b in range(n):
                level = np.zeros((n, n))
                level[a, b] = 1.0
                x_ab = weight * np.kron(sys_op, np.kron(level, ladder))
                terms.append((x_ab, x_ab.conj().T, f[a, b]))

    def comm(a, b):
        return a @ b - b @ a

    def k2(x):
        rho = np.einsum('ljmk,np->lnjmpk', x.reshape(2, 2, 2, 2),
                        np.eye(n) / n).reshape(4 * n, 4 * n)
        acc = sum(f_ab * comm(x_ab, comm(x_dag, rho))
                  + np.conj(f_ab) * comm(x_dag, comm(x_ab, rho))
                  for x_ab, x_dag, f_ab in terms)
        traced = np.einsum('lnjmnk->ljmk', acc.reshape(2, n, 2, 2, n, 2))
        return -alpha ** 2 * traced.reshape(4, 4)

    return _superop(k2)


# ---------------------------------------------------------------------------
# closed-form rate tables of the projected generator


def rate_table_generator(theta: float, xi: float, lam: float = 1.0) -> np.ndarray:
    """Projected generator assembled from the model's closed-form relaxation
    rate tables for the two reference projectors (theta = 0 and pi/4).

    Each table lists the time derivatives of a complete set of real variables
    of a Hermitian relevant state. Hermitian matrices span all 4x4 matrices
    over C, so the lines fix the full 16x16 matrix by complex linearity; the
    generator vanishes on the irrelevant part by construction. Every line
    equals the one read off P_theta K2(t) P_theta / g(t) from
    :func:`tcl2_wick_generator` (see ``tests/test_oracles.py``).
    """
    if np.isclose(theta, 0.0):
        lines = _table_theta0(xi, lam)
    elif np.isclose(theta, np.pi / 4):
        lines = _table_pi4(xi, lam)
    else:
        raise ValueError("rate tables exist only for theta = 0 and pi/4")

    def extended(m):
        return lines((m + m.conj().T) / 2) + 1j * lines((m - m.conj().T) / 2j)

    return _superop(extended)


def _table_theta0(xi: float, lam: float):
    """theta = 0 table on Hermitian states x1 (x) |1><1| + x2 (x) |2><2|.
    Population pairs (p0 = (sys0, sec1), p3 = (sys1, sec2)) and
    (p1 = (sys0, sec2), p2 = (sys1, sec1)):

        d(p3 + p0) = lam xi^2/4              * [(p1 + p2) - (p3 + p0)]
        d(p3 - p0) = -lam xi^2/2             * (p3 - p0)
        d(p1 - p2) = lam (-2 + 4 xi - 5 xi^2/2) * (p1 - p2)
        trace conserved  (hence d(p1 + p2) = -d(p3 + p0))

    The first line vanishes only at xi = 0, where the system inversion plus
    branch parity is conserved. In-sector 0->1 coherences
    c1 = eff[(0,sec1),(1,sec1)], c2 = (sec2 case):

        d(c2 - c1)    = lam (-1/2 + xi - xi^2)     * (c2 - c1)
        d Re(c2 + c1) = lam (-1/2 + xi - 3 xi^2/2) * Re(c2 + c1)
        d Im(c2 + c1) = lam (-1/2 + xi - xi^2)     * Im(c2 + c1)

    and the (1,0) entries are their conjugates. The rotated channel couples
    each coherence to the conjugates, so the real and imaginary parts of
    c2 + c1 relax at different rates.
    """
    r_outer = lam * xi ** 2 / 4.0
    r_a = -lam * xi ** 2 / 2.0
    r_b = lam * (-2.0 + 4.0 * xi - 2.5 * xi ** 2)
    r_diff = lam * (-0.5 + xi - xi ** 2)        # c2 - c1, and Im(c2 + c1)
    r_re = lam * (-0.5 + xi - 1.5 * xi ** 2)    # Re(c2 + c1)

    def lines(h):
        p = np.diag(h).real
        d_outer = r_outer * ((p[1] + p[2]) - (p[3] + p[0]))
        d_a = r_a * (p[3] - p[0])
        d_b = r_b * (p[1] - p[2])
        s, d = h[1, 3] + h[0, 2], h[1, 3] - h[0, 2]
        ds = r_re * s.real + 1j * r_diff * s.imag
        dd = r_diff * d
        out = np.diag([d_outer - d_a, -d_outer + d_b,
                       -d_outer - d_b, d_outer + d_a]).astype(complex) / 2
        out[0, 2] = (ds - dd) / 2
        out[1, 3] = (ds + dd) / 2
        out[2, 0] = np.conj(out[0, 2])
        out[3, 1] = np.conj(out[1, 3])
        return out

    return lines


def _table_pi4(xi: float, lam: float):
    """theta = pi/4 table, stated in the unrotated branch labels.

    A Hermitian relevant state is x (x) |+><+| + y (x) |-><-|; with S = x + y
    and D = x - y the tabulated equations read

        d Tr S = 0
        d(S00 - S11)      = lam (-3 xi^2/2 + 2 xi - 1) * (S00 - S11)
        d(TrD/2 + Re S01) = -lam (xi - 1)^2 / 2        * (TrD/2 + Re S01)
        d(TrD/2 - Re S01) = lam (-5 xi^2/2 + xi - 1/2) * (TrD/2 - Re S01)
        d(D00 - D11)      = lam (-xi^2 + xi - 1/2)     * (D00 - D11)
        d Re D01          = -lam (xi - 1)^2 / 2        * Re D01
        d Im S01          = lam (-xi^2 + xi - 1/2)     * Im S01
        d Im D01          = lam (-xi^2 + xi - 1/2)     * Im D01

    and the (1,0) entries are the conjugates. Re D01 decays even at xi = 0,
    because the branch ladder |1><2| is not diagonal in the (+, -) pair.
    """
    rz = lam * (-1.5 * xi ** 2 + 2.0 * xi - 1.0)
    rp = -lam * (xi - 1.0) ** 2 / 2.0
    rm = lam * (-2.5 * xi ** 2 + xi - 0.5)
    rd = lam * (-xi ** 2 + xi - 0.5)
    fp = np.outer(_PLUS, _PLUS)
    fm = np.outer(_MINUS, _MINUS)

    def lines(h):
        t = h.reshape(2, 2, 2, 2)                 # [l, j, m, kk]
        x = np.einsum('j,ljmk,k->lm', _PLUS, t, _PLUS)
        y = np.einsum('j,ljmk,k->lm', _MINUS, t, _MINUS)
        s, d = x + y, x - y
        tr_d = d.trace().real
        du = rp * (tr_d / 2 + s[0, 1].real)
        dv = rm * (tr_d / 2 - s[0, 1].real)
        dz_s = rz * (s[0, 0] - s[1, 1]).real
        dz_d = rd * (d[0, 0] - d[1, 1]).real
        ds = _hermitian_2x2(dz_s / 2, -dz_s / 2,
                            (du - dv) / 2 + 1j * rd * s[0, 1].imag)
        dd = _hermitian_2x2((du + dv + dz_d) / 2, (du + dv - dz_d) / 2,
                            rp * d[0, 1].real + 1j * rd * d[0, 1].imag)
        return np.kron((ds + dd) / 2, fp) + np.kron((ds - dd) / 2, fm)

    return lines
