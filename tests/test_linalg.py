import numpy as np
import pytest

from ecps import (STRUCTURAL_TOL, eig_hermitian, is_density, is_hermitian,
                  singular_values)
from oracles import partial_trace


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng, n):
    m = random_complex(rng, (n, n))
    return (m + m.conj().T) / 2


def random_density(rng, n):
    m = random_complex(rng, (n, n))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


class TestPartialTrace:
    """The partial trace the tests take as the reference system reduction."""

    def test_product_state(self):
        rng = np.random.default_rng(3)
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 10)
        out = partial_trace(np.kron(rho_a, rho_b), [2, 10], keep=0)
        assert np.abs(out - rho_a).max() <= 1e-12

    def test_maximally_entangled(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1 / np.sqrt(2)
        out = partial_trace(np.outer(psi, psi.conj()), [2, 2], keep=0)
        assert np.abs(out - np.eye(2) / 2).max() <= 1e-12

    def test_trace_preserved(self):
        rng = np.random.default_rng(4)
        rho = random_density(rng, 4 * 7)
        out = partial_trace(rho, [2, 14], keep=1)
        assert abs(np.trace(out) - 1.0) <= 1e-12

    def test_kron_contraction_identity(self):
        rng = np.random.default_rng(5)
        a = random_complex(rng, (3, 3))
        b = random_complex(rng, (4, 4))
        out = partial_trace(np.kron(a, b), [3, 4], keep=0)
        assert np.abs(out - a * np.trace(b)).max() <= 1e-12

    def test_three_factor(self):
        rng = np.random.default_rng(6)
        a, b, c = (random_density(rng, d) for d in (2, 3, 2))
        out = partial_trace(np.kron(np.kron(a, b), c), [2, 3, 2], keep=1)
        assert np.abs(out - b).max() <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(6), [2, 2], keep=0)


class TestEigHermitian:
    def test_diagonal(self):
        w, v = eig_hermitian(np.diag([1.0, 2.0, 3.0]))
        assert np.allclose(w, [1, 2, 3])
        assert np.abs(np.abs(v) - np.eye(3)).max() <= 1e-12

    def test_sigma_x(self):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        w, _ = eig_hermitian(sx)
        assert np.allclose(w, [-1.0, 1.0])

    def test_reconstruction_dim_240(self):
        rng = np.random.default_rng(7)
        m = random_hermitian(rng, 240)
        w, v = eig_hermitian(m)
        assert np.all(np.diff(w) >= 0)
        assert np.abs(v @ v.conj().T - np.eye(240)).max() <= 1e-10
        assert np.abs((v * w) @ v.conj().T - m).max() <= 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


class TestSingularValues:
    def test_identity(self):
        assert np.allclose(singular_values(np.eye(16)), np.ones(16))

    def test_zero(self):
        assert np.allclose(singular_values(np.zeros((5, 5))), 0.0)

    def test_matches_eig_oracle(self):
        rng = np.random.default_rng(8)
        m = random_complex(rng, (9, 9))
        sv = singular_values(m)
        oracle = np.sqrt(np.sort(np.linalg.eigvalsh(m.conj().T @ m))[::-1])
        assert np.all(np.diff(sv) <= 1e-12)
        assert np.abs(sv - oracle).max() <= 1e-10

    def test_stack_matches_per_matrix(self):
        rng = np.random.default_rng(9)
        stack = random_complex(rng, (2, 3, 16, 16))
        sv = singular_values(stack)
        assert sv.shape == (2, 3, 16)
        for idx in np.ndindex(2, 3):
            assert np.array_equal(sv[idx], singular_values(stack[idx]))

    def test_rejects_vector(self):
        with pytest.raises(ValueError):
            singular_values(np.ones(16))


class TestPredicates:
    def test_structural(self):
        rng = np.random.default_rng(9)
        h = random_hermitian(rng, 5)
        assert is_hermitian(h, STRUCTURAL_TOL)
        assert not is_hermitian(h + 1e-6 * 1j * np.eye(5))
        _, v = eig_hermitian(h)
        assert np.abs(v @ v.conj().T - np.eye(5)).max() <= STRUCTURAL_TOL
        assert np.abs(v.conj().T @ v - np.eye(5)).max() <= STRUCTURAL_TOL
        assert is_density(random_density(rng, 6))
        assert not is_density(2 * random_density(rng, 6))
        assert not is_density(np.diag([1.5, -0.5]).astype(complex))


class TestIsDensityPositivity:
    """The Cholesky test of is_density decides like min eigvalsh >= -tol."""

    @staticmethod
    def _with_min_eigenvalue(lam_min, d, seed):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(random_complex(rng, (d, d)))
        lam = rng.uniform(0.5, 1.5, d)
        lam[1:] *= (1.0 - lam_min) / lam[1:].sum()
        lam[0] = lam_min
        m = (q * lam) @ q.conj().T
        return (m + m.conj().T) / 2

    @pytest.mark.parametrize("d", [2, 8, 480])
    @pytest.mark.parametrize("lam_min", [-1e-9, -2e-10, -5e-11, 0.0, 1e-12])
    def test_agrees_with_eigenvalue_predicate(self, lam_min, d):
        m = self._with_min_eigenvalue(lam_min, d, seed=d)
        tol = STRUCTURAL_TOL
        assert abs(np.trace(m) - 1.0) <= 1e-12
        by_eigvalsh = np.linalg.eigvalsh(m).min() >= -tol
        assert by_eigvalsh == (lam_min >= -tol)
        assert is_density(m, tol) == by_eigvalsh
