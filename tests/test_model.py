import numpy as np
import pytest

from ecps import (ModelParams, build_h0, build_hamiltonian, build_projector,
                  build_v, conserved_charge, initial_state, is_density,
                  is_hermitian, sample_couplings)
from ecps.model import PAULI_Z
from oracles import build_v_kron


def params(**kw):
    base = dict(n_levels=8, delta_eps=0.5, alpha=0.01, xi=0.5, seed=123)
    base.update(kw)
    return ModelParams(**base)


class TestParams:
    def test_derived_rates(self):
        p = params(n_levels=60, delta_eps=0.5, alpha=5e-3)
        assert np.isclose(p.gamma, 2 * np.pi / 0.5)
        assert np.isclose(p.relaxation_rate, 5e-3 ** 2 * p.gamma * 60)

    @pytest.mark.parametrize("bad", [
        dict(n_levels=0), dict(delta_eps=0.0), dict(xi=1.5),
        dict(xi=-0.1), dict(alpha=-1.0),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            params(**bad)


class TestCouplings:
    def test_deterministic(self):
        p = params()
        a = sample_couplings(p)
        b = sample_couplings(p)
        assert np.array_equal(a.c, b.c)
        assert np.array_equal(a.c_prime, b.c_prime)
        c = sample_couplings(p.with_seed(124))
        assert not np.array_equal(a.c, c.c)

    def test_moments(self):
        # 1e5 entries across seeds: unit magnitude variance, vanishing
        # pseudo-variance, independent channels
        p = params(n_levels=100)
        cs, cps = [], []
        for s in range(10):
            draw = sample_couplings(p.with_seed(5000 + s))
            cs.append(draw.c.ravel())
            cps.append(draw.c_prime.ravel())
        c = np.concatenate(cs)
        cp = np.concatenate(cps)
        assert abs(np.mean(np.abs(c) ** 2) - 1.0) <= 0.02
        assert abs(np.mean(c * c)) <= 0.02
        assert abs(np.mean(np.abs(cp) ** 2) - 1.0) <= 0.02
        assert abs(np.mean(cp * cp)) <= 0.02
        assert abs(np.mean(c * np.conj(cp))) <= 0.02
        assert abs(np.mean(c)) <= 0.02


class TestHamiltonians:
    def test_h0_single_level(self):
        p = params(n_levels=1)
        h0 = build_h0(p)
        assert np.allclose(np.diag(h0), p.delta_eps)

    def test_h0_two_levels(self):
        p = params(n_levels=2, delta_eps=0.5)
        energies = np.diag(build_h0(p)).real
        assert sorted(set(np.round(energies, 12))) == [0.25, 0.5]
        assert np.sum(np.isclose(energies, 0.25)) == 4
        assert np.sum(np.isclose(energies, 0.5)) == 4

    def test_h0_commutes_with_system(self):
        p = params()
        h0 = build_h0(p)
        sz = np.kron(PAULI_Z, np.eye(2 * p.n_levels))
        assert np.abs(h0 @ sz - sz @ h0).max() == 0.0

    def test_prefactors(self):
        p1 = params(xi=1.0)
        v1, _ = build_v(p1, sample_couplings(p1))
        assert np.abs(v1).max() == 0.0
        p0 = params(xi=0.0)
        _, v2 = build_v(p0, sample_couplings(p0))
        assert np.abs(v2).max() == 0.0

    def test_hermitian(self):
        p = params()
        cpl = sample_couplings(p)
        v1, v2 = build_v(p, cpl)
        assert is_hermitian(v1, 1e-12)
        assert is_hermitian(v2, 1e-12)
        assert is_hermitian(v1 + v2, 1e-12)
        assert is_hermitian(build_hamiltonian(p, cpl), 1e-12)

    @pytest.mark.parametrize("xi", [0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("n_levels", [1, 4, 60])
    def test_matches_kron_construction(self, n_levels, xi):
        p = params(n_levels=n_levels, xi=xi, seed=31 + n_levels)
        cpl = sample_couplings(p)
        v1, v2 = build_v(p, cpl)
        o1, o2 = build_v_kron(n_levels, xi, cpl.c, cpl.c_prime)
        assert np.abs(v1 - o1).max() <= 1e-15
        assert np.abs(v2 - o2).max() <= 1e-15

    def test_branch_channel_conserves_charge(self):
        p = params(xi=0.0)
        v1, _ = build_v(p, sample_couplings(p))
        charge = conserved_charge(p)
        assert np.abs(v1 @ charge - charge @ v1).max() <= 1e-12
        h = build_hamiltonian(p, sample_couplings(p))
        assert np.abs(h @ charge - charge @ h).max() <= 1e-12

    def test_channel_commutator_vanishes_on_average(self):
        p = params(n_levels=10, xi=0.5, alpha=1.0)
        comms = []
        for s in range(200):
            v1, v2 = build_v(p.with_seed(7000 + s), sample_couplings(p.with_seed(7000 + s)))
            comms.append(v1 @ v2 - v2 @ v1)
        comms = np.array(comms)
        mean = comms.mean(axis=0)
        per_draw_sq = np.linalg.norm(comms - mean, axis=(1, 2)) ** 2
        se = np.sqrt(per_draw_sq.mean() / len(comms))
        assert np.linalg.norm(mean) <= 5.0 * se


class TestProjectors:
    def test_theta_zero_is_branch_one(self):
        p = params(n_levels=3)
        proj = build_projector(0.0, 1, p)
        expected = np.kron(np.eye(3), np.diag([1.0, 0.0]))
        assert np.abs(proj - expected).max() <= 1e-15

    def test_quarter_turn_is_plus_projector(self):
        p = params(n_levels=3)
        proj = build_projector(np.pi / 4, 1, p)
        plus = np.kron(np.eye(3), 0.5 * np.ones((2, 2)))
        assert np.abs(proj - plus).max() <= 1e-12

    @pytest.mark.parametrize("theta", [0.0, 0.3, np.pi / 8, np.pi / 4])
    def test_idempotent_complete(self, theta):
        p = params(n_levels=4)
        p1 = build_projector(theta, 1, p)
        p2 = build_projector(theta, 2, p)
        assert np.abs(p1 @ p1 - p1).max() <= 1e-12
        assert np.abs(p2 @ p2 - p2).max() <= 1e-12
        assert np.abs(p1 @ p2).max() <= 1e-12
        assert np.abs(p1 + p2 - np.eye(2 * p.n_levels)).max() <= 1e-12


class TestInitialState:
    def test_branch_projector_case(self):
        p = params(n_levels=5)
        theta = np.arcsin(0.6)
        rho = initial_state(np.diag([1.0, 0.0]).astype(complex),
                            ("branch_projector", theta, 1), p)
        assert is_density(rho)
        env = rho[:2 * p.n_levels, :2 * p.n_levels]  # system |0><0| block
        proj = build_projector(theta, 1, p) / p.n_levels
        assert np.abs(env - proj).max() <= 1e-12

    def test_superposition_ket(self):
        p = params(n_levels=4)
        psi = np.array([0.6, 0.8])
        rho = initial_state(np.outer(psi, psi).astype(complex),
                            ("branch_projector", 0.0, 1), p)
        assert is_density(rho)

    @pytest.mark.parametrize("env", ["maximally_mixed", "plus_projector",
                                     ("branch_projector", 0.7, 2)])
    def test_density_for_every_spec(self, env):
        p = params(n_levels=4)
        rho = initial_state(np.diag([0.3, 0.7]).astype(complex), env, p)
        assert is_density(rho, 1e-10)
        assert abs(np.trace(rho) - 1.0) <= 1e-12

    def test_rejects_non_density(self):
        p = params()
        with pytest.raises(ValueError):
            initial_state(np.diag([1.0, 1.0]).astype(complex), "maximally_mixed", p)
        with pytest.raises(ValueError):
            initial_state(np.diag([1.0, 0.0]).astype(complex), "bogus", p)
