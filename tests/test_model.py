from dataclasses import replace

import numpy as np
import pytest

from ecps import (ModelParams, build_hamiltonian, initial_state, is_density,
                  sample_couplings, sector_variables)
from ecps.config import environment_state
import ecps.model
import ecps.superop
from ecps.model import PAULI_Z, branch_rotation, pair_slices
from oracles import (build_v_kron, conserved_charge, embed_level_uniform,
                     phi_plus_projector)


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
        a_c, a_c_prime = sample_couplings(p)
        b_c, b_c_prime = sample_couplings(p)
        assert np.array_equal(a_c, b_c)
        assert np.array_equal(a_c_prime, b_c_prime)
        c_c, _ = sample_couplings(p.with_seed(124))
        assert not np.array_equal(a_c, c_c)

    def test_moments(self):
        # 1e5 entries across seeds: unit magnitude variance, vanishing
        # pseudo-variance, independent channels
        p = params(n_levels=100)
        cs, cps = [], []
        for s in range(10):
            c, c_prime = sample_couplings(p.with_seed(5000 + s))
            cs.append(c.ravel())
            cps.append(c_prime.ravel())
        c = np.concatenate(cs)
        cp = np.concatenate(cps)
        assert abs(np.mean(np.abs(c) ** 2) - 1.0) <= 0.02
        assert abs(np.mean(c * c)) <= 0.02
        assert abs(np.mean(np.abs(cp) ** 2) - 1.0) <= 0.02
        assert abs(np.mean(cp * cp)) <= 0.02
        assert abs(np.mean(c * np.conj(cp))) <= 0.02
        assert abs(np.mean(c)) <= 0.02


def build_h0(p):
    """The free Hamiltonian: build_hamiltonian with the coupling switched off."""
    p0 = replace(p, alpha=0.0)
    return build_hamiltonian(p0, sample_couplings(p0))


def channel_terms(p, couplings):
    """(v1, v2): the branch and the rotated channel of build_hamiltonian at
    alpha = 1, each read off with the other channel's couplings set to 0."""
    p1 = replace(p, alpha=1.0)
    c, c_prime = couplings
    zero, h0 = np.zeros_like(c), build_h0(p1)
    return (build_hamiltonian(p1, (c, zero)) - h0,
            build_hamiltonian(p1, (zero, c_prime)) - h0)


class TestJumpOperators:
    """The exact and the projected dynamics read one pair of jump operators,
    written with exact entries."""

    def test_entries_are_exact(self):
        assert set(ecps.model.JUMP_BRANCH.flat) <= {0, 1}
        rotated = ecps.model.JUMP_ROTATED[ecps.model.JUMP_ROTATED != 0]
        assert rotated.size == 16
        assert np.all(np.abs(rotated) == 0.25)
        assert np.all(rotated.real == 0)

    def test_superop_uses_the_model_operators(self):
        assert ecps.superop.channels is ecps.model.channels
        (w1, j1), (w2, j2) = ecps.model.channels(0.3)
        assert (w1, w2) == (1.0 - 0.3, 0.3)
        assert j1 is ecps.model.JUMP_BRANCH and j2 is ecps.model.JUMP_ROTATED
        for name in ("JUMP_BRANCH", "JUMP_ROTATED", "SECTOR_LOWER", "SECTOR_LOWER_X"):
            assert not hasattr(ecps.superop, name)

    @pytest.mark.parametrize("xi", [0.0, 0.3, 1.0])
    def test_hamiltonian_slices_are_the_jump_entries(self, xi):
        # the (r, c) level block of each channel is w (J[r, c] B + conj(J[c, r]) B^dagger)
        p = params(n_levels=5, xi=xi)
        couplings = sample_couplings(p)
        for (w, jump), b, v in zip(ecps.model.channels(xi), couplings,
                                   channel_terms(p, couplings)):
            blocks = v.reshape(2, 5, 2, 2, 5, 2).transpose(0, 2, 3, 5, 1, 4)
            for r, c in np.ndindex(4, 4):
                want = w * (jump[r, c] * b + np.conj(jump[c, r]) * b.conj().T)
                assert np.abs(blocks[r // 2, r % 2, c // 2, c % 2] - want).max() <= 1e-15


class TestPairSlices:
    @pytest.mark.parametrize("n", [1, 3])
    def test_views_in_the_documented_index_order(self, n):
        # slice [r][c] at (n1, n2) is entry (l 2N + 2 n1 + j, m 2N + 2 n2 + k)
        m = np.zeros((4 * n, 4 * n), dtype=complex)
        want = np.zeros_like(m)
        slices = pair_slices(m)
        for value, (r, c, n1, n2) in enumerate(np.ndindex(4, 4, n, n), start=1):
            (l, j), (mm, k) = divmod(r, 2), divmod(c, 2)
            slices[r][c][n1, n2] = value
            want[l * 2 * n + 2 * n1 + j, mm * 2 * n + 2 * n2 + k] = value
        assert np.count_nonzero(m) == m.size
        assert np.array_equal(m, want)


class TestHamiltonians:
    def test_h0_single_level(self):
        p = params(n_levels=1)
        h0 = build_h0(p)
        assert np.allclose(h0, p.delta_eps * np.eye(4))

    def test_h0_two_levels(self):
        p = params(n_levels=2, delta_eps=0.5)
        h0 = build_h0(p)
        assert np.abs(h0 - np.diag(np.diag(h0))).max() == 0.0
        energies = np.diag(h0).real
        assert sorted(set(np.round(energies, 12))) == [0.25, 0.5]
        assert np.sum(np.isclose(energies, 0.25)) == 4
        assert np.sum(np.isclose(energies, 0.5)) == 4

    def test_h0_commutes_with_system(self):
        p = params()
        h0 = build_h0(p)
        sz = np.kron(PAULI_Z, np.eye(2 * p.n_levels))
        assert np.abs(h0 @ sz - sz @ h0).max() == 0.0

    def test_prefactors(self):
        # a channel of weight 0 adds nothing: h does not see its couplings
        p1 = params(xi=1.0)
        v1, _ = channel_terms(p1, sample_couplings(p1))
        assert np.abs(v1).max() == 0.0
        p0 = params(xi=0.0)
        _, v2 = channel_terms(p0, sample_couplings(p0))
        assert np.abs(v2).max() == 0.0

    def test_hermitian(self):
        p = params()
        cpl = sample_couplings(p)
        v1, v2 = channel_terms(p, cpl)
        for h in (v1, v2, v1 + v2, build_hamiltonian(p, cpl)):
            assert np.abs(h - h.conj().T).max() <= 1e-12

    @pytest.mark.parametrize("xi", [0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("n_levels", [1, 4, 60])
    def test_matches_kron_construction(self, n_levels, xi):
        p = params(n_levels=n_levels, xi=xi, seed=31 + n_levels)
        cpl = sample_couplings(p)
        v1, v2 = channel_terms(p, cpl)
        o1, o2 = build_v_kron(n_levels, xi, *cpl)
        assert np.abs(v1 - o1).max() <= 1e-15
        assert np.abs(v2 - o2).max() <= 1e-15

    def test_branch_channel_conserves_charge(self):
        p = params(xi=0.0)
        v1, _ = channel_terms(p, sample_couplings(p))
        charge = conserved_charge(p.n_levels)
        assert np.abs(v1 @ charge - charge @ v1).max() <= 1e-12
        h = build_hamiltonian(p, sample_couplings(p))
        assert np.abs(h @ charge - charge @ h).max() <= 1e-12

    @pytest.mark.parametrize("xi", [0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("n_levels", [1, 3, 60])
    def test_phi_plus_subspace_is_invariant(self, n_levels, xi):
        p = params(n_levels=n_levels, xi=xi, alpha=0.3)
        h = build_hamiltonian(p, sample_couplings(p))
        proj = phi_plus_projector(n_levels)
        assert np.abs(h @ proj - proj @ h).max() <= 1e-15

    def test_channel_commutator_vanishes_on_average(self):
        p = params(n_levels=10, xi=0.5, alpha=1.0)
        comms = []
        for s in range(200):
            v1, v2 = channel_terms(p.with_seed(7000 + s),
                                   sample_couplings(p.with_seed(7000 + s)))
            comms.append(v1 @ v2 - v2 @ v1)
        comms = np.array(comms)
        mean = comms.mean(axis=0)
        per_draw_sq = np.linalg.norm(comms - mean, axis=(1, 2)) ** 2
        se = np.sqrt(per_draw_sq.mean() / len(comms))
        assert np.linalg.norm(mean) <= 5.0 * se


def build_projector(theta, branch, p):
    """Rank-N environment projector sum_n |n,branch,theta><n,branch,theta|,
    the 2N x 2N form in which initial states used to be built."""
    col = branch_rotation(theta)[:, branch - 1]
    return np.kron(np.eye(p.n_levels), np.outer(col, col.conj()))


def env_state(spec):
    """2 x 2 branch state of a config environment kind, or of a
    ("branch_projector", theta, branch) triple."""
    if isinstance(spec, str):
        return environment_state({"kind": spec})
    kind, theta, branch = spec
    return environment_state({"kind": kind, "theta": theta, "branch": branch})


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
                            env_state(("branch_projector", theta, 1)), p)
        assert is_density(rho)
        env = rho[:2 * p.n_levels, :2 * p.n_levels]  # system |0><0| block
        proj = build_projector(theta, 1, p) / p.n_levels
        assert np.abs(env - proj).max() <= 1e-12

    def test_superposition_ket(self):
        p = params(n_levels=4)
        psi = np.array([0.6, 0.8])
        rho = initial_state(np.outer(psi, psi).astype(complex),
                            env_state(("branch_projector", 0.0, 1)), p)
        assert is_density(rho)

    @pytest.mark.parametrize("env", ["maximally_mixed", "plus_projector",
                                     ("branch_projector", 0.7, 2)])
    def test_density_for_every_spec(self, env):
        p = params(n_levels=4)
        rho = initial_state(np.diag([0.3, 0.7]).astype(complex), env_state(env), p)
        assert is_density(rho)
        assert abs(np.trace(rho) - 1.0) <= 1e-12

    @pytest.mark.parametrize("env", ["maximally_mixed", "plus_projector",
                                     ("branch_projector", 0.0, 1),
                                     ("branch_projector", 0.7, 2)])
    @pytest.mark.parametrize("n_levels", [1, 3, 8])
    def test_is_level_uniform(self, n_levels, env):
        # every initial state is eff0 (x) I_N / N, so its 4 x 4 effective
        # state fixes it: what evolve_exact takes as its initial state
        p = params(n_levels=n_levels)
        systems = [np.diag([1.0, 0.0]), np.diag([0.3, 0.7]),
                   np.array([[0.36, 0.48], [0.48, 0.64]]),
                   np.array([[0.5, 0.2 - 0.4j], [0.2 + 0.4j, 0.5]])]
        for sys in systems:
            rho = initial_state(sys.astype(complex), env_state(env), p)
            embedded = embed_level_uniform(sector_variables(rho), n_levels)
            assert np.abs(rho - embedded).max() <= 1e-15

    SPECS = [{"kind": "maximally_mixed"}, {"kind": "plus_projector"},
             {"kind": "branch_projector", "theta": 0.0},
             {"kind": "branch_projector", "theta": np.arcsin(0.6), "branch": 1},
             {"kind": "branch_projector", "theta": 0.7, "branch": 2}]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: "-".join(map(str, s.values())))
    @pytest.mark.parametrize("n_levels", [1, 2, 7, 60])
    def test_matches_projector_construction(self, n_levels, spec):
        # the 2 x 2 branch state gives bit for bit the composite state that
        # was built from the 2N x 2N environment projector; its effective
        # state sums N entries of 1/N, within N rounding steps of kron
        p = params(n_levels=n_levels)
        if spec["kind"] == "maximally_mixed":
            env_2n = np.eye(2 * n_levels, dtype=complex) / (2 * n_levels)
        else:
            theta, branch = (np.pi / 4, 1) if spec["kind"] == "plus_projector" \
                else (spec["theta"], spec.get("branch", 1))
            env_2n = build_projector(theta, branch, p) / n_levels
        env = environment_state(spec)
        for sys in (np.diag([1.0, 0.0]), np.array([[0.36, 0.48], [0.48, 0.64]]),
                    np.array([[0.5, 0.2 - 0.4j], [0.2 + 0.4j, 0.5]])):
            sys = sys.astype(complex)
            rho = initial_state(sys, env, p)
            assert np.array_equal(rho, np.kron(sys, env_2n))
            assert np.abs(sector_variables(rho) - np.kron(sys, env)).max() \
                <= n_levels * np.finfo(float).eps

    def test_rejects_non_density(self):
        p = params()
        mixed = environment_state({"kind": "maximally_mixed"})
        pure = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="system part"):
            initial_state(np.diag([1.0, 1.0]).astype(complex), mixed, p)
        for env in (np.diag([1.0, 1.0]), np.diag([1.5, -0.5]),
                    np.array([[0.5, 0.5], [0.0, 0.5]]), np.eye(4) / 4,
                    build_projector(0.0, 1, p) / p.n_levels):
            with pytest.raises(ValueError, match="environment part"):
                initial_state(pure, env, p)
