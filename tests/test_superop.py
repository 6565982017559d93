import numpy as np
import pytest

from ecps import (apply_superop, choi_matrix, delta_superop,
                  effective_generator_full, projector_superop, scan_delta,
                  singular_values, tcl_generator, unvec, vec)

PI4 = np.pi / 4
EYE16 = np.eye(16)


def random_eff(rng, hermitian=False):
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return (m + m.conj().T) / 2 if hermitian else m


def delta(theta, xi, lam=1.0):
    """Delta at one grid point, built from P_theta and G(xi, lam)."""
    return delta_superop(projector_superop(theta), effective_generator_full(xi, lam))


def basis_units():
    for a in range(4):
        for b in range(4):
            e = np.zeros((4, 4), dtype=complex)
            e[a, b] = 1.0
            yield e


class TestVectorization:
    def test_column_stacking(self):
        m = np.array([[1, 2], [3, 4]], dtype=complex)
        assert np.array_equal(np.asarray([1, 3, 2, 4], dtype=complex), vec(m))

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        m = random_eff(rng)
        assert np.array_equal(unvec(vec(m)), m)

    def test_unvec_of_a_stack_is_unvec_of_each_row(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal((3, 5, 16)) + 1j * rng.standard_normal((3, 5, 16))
        stack = unvec(v)
        assert stack.shape == (3, 5, 4, 4)
        for i, j in np.ndindex(3, 5):
            assert np.array_equal(stack[i, j], unvec(v[i, j]))


class TestProjectorSuperop:
    @pytest.mark.parametrize("theta", [0.0, np.pi / 8, PI4])
    def test_idempotent(self, theta):
        p = projector_superop(theta)
        assert np.abs(p @ p - p).max() <= 1e-12

    def test_identity_on_relevant(self):
        rng = np.random.default_rng(1)
        sysm = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        x = np.kron(sysm + sysm.conj().T, np.diag([0.3, 0.7])).astype(complex)
        out = apply_superop(projector_superop(0.0), x)
        assert np.abs(out - x).max() <= 1e-12

    def test_kills_sector_coherence(self):
        sector_coherence = np.kron(np.eye(2), np.array([[0, 1], [1, 0]])) / 2
        out = apply_superop(projector_superop(0.0), sector_coherence.astype(complex))
        assert np.abs(out).max() <= 1e-12

    def test_trace_and_hermiticity_preserving(self):
        rng = np.random.default_rng(2)
        for theta in (0.0, 0.37, PI4):
            p = projector_superop(theta)
            x = random_eff(rng, hermitian=True)
            out = apply_superop(p, x)
            assert abs(np.trace(out) - np.trace(x)) <= 1e-12
            assert np.abs(out - out.conj().T).max() <= 1e-12


class TestEffectiveGenerator:
    def test_zero_rate_gives_zero_map(self):
        assert np.abs(effective_generator_full(0.3, 0.0)).max() == 0.0

    @pytest.mark.parametrize("xi", [0.0, 0.25, 0.5, 1.0])
    def test_trace_annihilating(self, xi):
        g = effective_generator_full(xi, 1.0)
        for e in basis_units():
            assert abs(np.trace(apply_superop(g, e))) <= 1e-12

    def test_hermiticity_preserving(self):
        rng = np.random.default_rng(3)
        g = effective_generator_full(0.6, 2.0)
        for _ in range(5):
            x = random_eff(rng, hermitian=True)
            out = apply_superop(g, x)
            assert np.abs(out - out.conj().T).max() <= 1e-12

    def test_branch_population_exchange_rate(self):
        # at xi=0 the coupled pair (sys0,sec2)/(sys1,sec1) relaxes its
        # difference at rate 2*lam and nothing else moves
        lam = 1.7
        g = effective_generator_full(0.0, lam)
        x = np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex)
        out = apply_superop(g, x)
        expected = np.diag([0.0, -lam, lam, 0.0])
        assert np.abs(out - expected).max() <= 1e-12

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            effective_generator_full(1.2, 1.0)
        with pytest.raises(ValueError):
            effective_generator_full(0.5, -1.0)


class TestTclGenerator:
    def test_coherence_rates_at_base_point(self):
        # theta=0, xi=0: both in-sector coherences decay at lam/2
        lam = 1.0
        k = tcl_generator(0.0, 0.0, lam)
        for (r, c) in (((0, 0), (1, 0)), ((0, 1), (1, 1))):
            x = np.zeros((4, 4), dtype=complex)
            x[2 * r[0] + r[1], 2 * c[0] + c[1]] = 1.0
            out = apply_superop(k, x)
            assert np.abs(out - (-lam / 2) * x).max() <= 1e-12

    @pytest.mark.parametrize("theta", [0.0, 0.3, PI4])
    @pytest.mark.parametrize("xi", [0.0, 0.5, 1.0])
    def test_relevant_space_closure(self, theta, xi):
        p = projector_superop(theta)
        k = tcl_generator(theta, xi, 1.0)
        assert np.abs(p @ k - k).max() <= 1e-12
        assert np.abs(k @ p - k).max() <= 1e-12

    def test_trace_annihilating(self):
        k = tcl_generator(0.2, 0.7, 1.3)
        for e in basis_units():
            assert abs(np.trace(apply_superop(k, e))) <= 1e-12

    def test_spectrum_is_stable(self):
        # no growing modes anywhere on the parameter square
        worst = -np.inf
        for xi in np.linspace(0, 1, 9):
            for theta in np.linspace(0, PI4, 7):
                ev = np.linalg.eigvals(tcl_generator(theta, xi, 1.0))
                worst = max(worst, ev.real.max())
        assert worst <= 1e-12


class TestHermitian:
    """As 16 x 16 matrices the projectors and generators are Hermitian;
    ecps.tcl.steady_state relies on it."""

    @staticmethod
    def asymmetry(m):
        return np.abs(m - m.conj().T).max() / np.abs(m).max()

    @pytest.mark.parametrize("lam", [1.0, 1e-12])
    def test_projectors_and_generators(self, lam):
        worst = 0.0
        for xi in np.linspace(0, 1, 11):
            worst = max(worst, self.asymmetry(effective_generator_full(xi, lam)))
            for theta in np.linspace(0, np.pi / 2, 17):
                worst = max(worst, self.asymmetry(projector_superop(theta)),
                            self.asymmetry(tcl_generator(theta, xi, lam)))
        assert worst <= 1e-14


class TestDeltaSuperop:
    @pytest.mark.parametrize("xi,theta", [(0.0, 0.0), (1.0, PI4)])
    def test_matched_cases_vanish(self, xi, theta):
        assert np.abs(delta(theta, xi)).max() <= 1e-12

    @pytest.mark.parametrize("xi,theta", [(0.3, 0.0), (0.5, 0.2), (0.9, PI4)])
    def test_annihilates_relevant_states(self, xi, theta):
        d = delta(theta, xi)
        p = projector_superop(theta)
        assert np.abs(d @ p).max() <= 1e-12


class TestChoiMatrix:
    def test_identity_map(self):
        sv = singular_values(choi_matrix(EYE16))
        assert abs(sv[0] - 4.0) <= 1e-12
        assert np.abs(sv[1:]).max() <= 1e-12

    def test_zero_map(self):
        assert np.abs(choi_matrix(np.zeros((16, 16)))).max() == 0.0

    def test_stack_matches_per_matrix(self):
        rng = np.random.default_rng(5)
        shape = (2, 3, 16, 16)
        stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        c = choi_matrix(stack)
        assert c.shape == (2, 3, 16, 16)
        for idx in np.ndindex(2, 3):
            assert np.array_equal(c[idx], choi_matrix(stack[idx]))

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        s = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        c = choi_matrix(s)
        # reconstruct the action on random matrices from the Choi blocks:
        # S(X) = sum_ab X[a,b] * C_block[a,b]
        blocks = c.reshape(4, 4, 4, 4)  # [row_out, row_unit, col_out, col_unit]
        for _ in range(5):
            x = random_eff(rng)
            recon = np.einsum('ab,iajb->ij', x, blocks)
            assert np.abs(recon - apply_superop(s, x)).max() <= 1e-12


class TestScanDelta:
    def test_matched_minima(self):
        grid = np.linspace(0, PI4, 16)
        max_sv = scan_delta([0.0, 1.0], grid, 1.0)[:, :, 0]
        (th0, th1), (sv0, sv1) = grid[max_sv.argmin(axis=1)], max_sv.min(axis=1)
        assert sv0 <= 1e-10 and np.isclose(th0, 0.0)
        assert sv1 <= 1e-10 and np.isclose(th1, PI4)

    def test_mixed_interaction_floor(self):
        grid = np.linspace(0, PI4, 64)
        sv = scan_delta([0.5], grid, 1.0)[0]
        assert sv[:, 0].min() > 1e-6
        # the nonzero singular values collapse onto few distinct levels
        for row in sv:
            nz = row[row > 1e-10]
            levels = []
            for v in nz:
                if not levels or abs(levels[-1] - v) > 1e-9:
                    levels.append(v)
            assert len(levels) <= 3

    def test_matches_per_point_calls(self):
        # the 11 x 256 grid of the benchmark's choi-fine workload
        xis = [i / 10 for i in range(11)]
        grid = np.linspace(0.0, PI4, 256)
        sv = scan_delta(xis, grid, 1.0)
        assert sv.shape == (11, 256, 16)
        assert np.all(np.diff(sv, axis=-1) <= 0.0)
        for i, xi in enumerate(xis):
            for k in range(0, 256, 16):
                assert np.array_equal(sv[i, k], singular_values(choi_matrix(
                    delta(grid[k], xi))))

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            scan_delta([], [0.0])
        with pytest.raises(ValueError):
            scan_delta([0.5], [])
