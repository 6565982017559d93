import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import ecps.exact
from ecps import (ModelParams, build_hamiltonian, eig_hermitian,
                  ensemble_average, evolve_exact, initial_state,
                  realization_seeds, reduced_from_sector, sample_couplings,
                  sector_variables)
from oracles import (PHI_PLUS, SECTOR_THETAS, conserved_charge,
                     embed_level_uniform, evolve_exact_dense, index_blocks,
                     partial_trace, phi_plus_projector, rk4_von_neumann,
                     rotate_sector)
from test_model import env_state

PI4 = np.pi / 4


def params(**kw):
    base = dict(n_levels=4, delta_eps=0.5, alpha=0.05, xi=0.3, seed=77)
    base.update(kw)
    return ModelParams(**base)


def setup(p, sys=None, env=("branch_projector", 0.0, 1)):
    cpl = sample_couplings(p)
    h = build_hamiltonian(p, cpl)
    if sys is None:
        sys = np.diag([1.0, 0.0]).astype(complex)
    rho0 = initial_state(sys, env_state(env), p)
    return h, rho0


class TestSectorVariables:
    def test_aligned_projector_gives_pure_sector(self):
        p = params(n_levels=6)
        theta = 0.42
        rho = initial_state(np.diag([1.0, 0.0]).astype(complex),
                            env_state(("branch_projector", theta, 1)), p)
        eff = rotate_sector(sector_variables(rho), theta)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0  # (system 0, first rotated branch)
        assert np.abs(eff - expected).max() <= 1e-12

    @pytest.mark.parametrize("theta", [0.0, 0.3, PI4])
    def test_mixed_environment_is_rotation_invariant(self, theta):
        p = params(n_levels=6)
        rho = initial_state(np.diag([1.0, 0.0]).astype(complex),
                            env_state("maximally_mixed"), p)
        eff = rotate_sector(sector_variables(rho), theta)
        expected = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        assert np.abs(eff - expected).max() <= 1e-12

    def test_trace_and_hermiticity(self):
        rng = np.random.default_rng(11)
        n = 5
        m = rng.standard_normal((4 * n, 4 * n)) + 1j * rng.standard_normal((4 * n, 4 * n))
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        for theta in (0.0, 0.2, PI4):
            eff = rotate_sector(sector_variables(rho), theta)
            assert abs(np.trace(eff) - np.trace(rho)) <= 1e-12
            assert np.abs(eff - eff.conj().T).max() <= 1e-12

    def test_reduction_matches_partial_trace(self):
        p = params(n_levels=5)
        h, rho0 = setup(p)
        eff = rotate_sector(sector_variables(rho0), 0.27)
        direct = partial_trace(rho0, [2, 2 * p.n_levels], keep=0)
        assert np.abs(reduced_from_sector(eff) - direct).max() <= 1e-12


class TestEvolveExact:
    def test_initial_time_reduction(self):
        p = params()
        h, rho0 = setup(p)
        states = evolve_exact(h, sector_variables(rho0), np.linspace(0, 5, 7))
        direct = partial_trace(rho0, [2, 2 * p.n_levels], keep=0)
        assert np.abs(reduced_from_sector(states)[0] - direct).max() <= 1e-12

    def test_decoupled_limit_is_constant(self):
        p = params(alpha=0.0)
        h, rho0 = setup(p, sys=np.array([[0.5, 0.2], [0.2, 0.5]], dtype=complex))
        states = evolve_exact(h, sector_variables(rho0), np.linspace(0, 50, 9))
        system = reduced_from_sector(states)
        spread = np.abs(system - system[0]).max()
        assert spread <= 1e-12

    def test_matches_rk4(self):
        p = params(n_levels=2, alpha=0.2, seed=5)
        h, rho0 = setup(p)
        t_final = 2.0
        states = evolve_exact(h, sector_variables(rho0), np.array([0.0, t_final]))
        rho_rk4 = rk4_von_neumann(h, rho0, t_final, dt=1e-3)
        eff = sector_variables(rho_rk4)
        assert np.abs(states[-1] - eff).max() <= 1e-6
        assert np.abs(reduced_from_sector(states[-1])
                      - reduced_from_sector(eff)).max() <= 1e-6

    def test_conservation_laws(self):
        p = params(n_levels=4, xi=0.0, alpha=0.1)
        h, rho0 = setup(p, env=("branch_projector", 0.4, 1))
        charge = conserved_charge(p.n_levels)
        w, v = eig_hermitian(h)
        rho_e = v.conj().T @ rho0 @ v
        times = np.linspace(0, 40, 9)
        states = evolve_exact(h, sector_variables(rho0), times)
        energy0 = np.trace(h @ rho0).real
        purity0 = np.trace(rho0 @ rho0).real
        charge0 = np.trace(charge @ rho0).real
        for k, t in enumerate(times):
            phase = np.exp(-1j * w * t)
            rho_t = v @ (np.outer(phase, phase.conj()) * rho_e) @ v.conj().T
            assert abs(np.trace(rho_t) - 1.0) <= 1e-9
            assert np.abs(rho_t - rho_t.conj().T).max() <= 1e-9
            assert np.linalg.eigvalsh(rho_t).min() >= -1e-9
            assert abs(np.trace(h @ rho_t).real - energy0) <= 1e-9
            assert abs(np.trace(rho_t @ rho_t).real - purity0) <= 1e-9
            assert abs(np.trace(charge @ rho_t).real - charge0) <= 1e-9
            # trajectory extraction agrees with the direct propagation
            sys_t = partial_trace(rho_t, [2, 2 * p.n_levels], keep=0)
            assert np.abs(reduced_from_sector(states)[k] - sys_t).max() <= 1e-10

    @pytest.mark.parametrize("xi", [0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("n_levels", [1, 3, 60])
    def test_conserves_phi_plus_population(self, n_levels, xi):
        # Phi+ (x) C^N is invariant under H at every xi (the subspace the
        # Bell frame splits off), so <Phi+|eff|Phi+> is constant
        p = params(n_levels=n_levels, xi=xi, alpha=0.3)
        h, rho0 = setup(p, sys=np.array([[0.6, 0.2 + 0.3j], [0.2 - 0.3j, 0.4]]),
                        env="plus_projector")
        states = evolve_exact(h, sector_variables(rho0), np.linspace(0, 40, 9))
        pop = np.einsum('i,tij,j->t', PHI_PLUS, states, PHI_PLUS)
        expected = np.trace(phi_plus_projector(n_levels) @ rho0)
        assert abs(expected - 0.35) <= 1e-12
        assert np.abs(pop - expected).max() <= 1e-12

    def test_reduced_states_stay_physical(self):
        p = params(alpha=0.08)
        h, rho0 = setup(p)
        states = evolve_exact(h, sector_variables(rho0), np.linspace(0, 60, 25))
        for rho_a in reduced_from_sector(states):
            assert abs(np.trace(rho_a) - 1.0) <= 1e-9
            assert np.abs(rho_a - rho_a.conj().T).max() <= 1e-9
            assert np.linalg.eigvalsh(rho_a).min() >= -1e-9

    def test_validates_inputs(self):
        p = params()
        h, rho0 = setup(p, sys=np.array([[0.6, 0.2], [0.2, 0.4]]))
        eff0 = sector_variables(rho0)
        with pytest.raises(ValueError):
            evolve_exact(h + 1j * np.eye(h.shape[0]), eff0, [0.0, 1.0])
        non_hermitian = eff0.copy()
        non_hermitian[0, 2] += 1e-3
        # trace 2, not Hermitian, and the (valid) composite state itself
        for bad in (eff0 * 2, non_hermitian, rho0):
            with pytest.raises(ValueError):
                evolve_exact(h, bad, [0.0, 1.0])
        for times in ([1.0, 2.0], [1e-13, 1.0], [-1e-300, 1.0]):
            with pytest.raises(ValueError):
                evolve_exact(h, eff0, times)
        with pytest.raises(ValueError):
            evolve_exact(h, eff0, [0.0, 2.0, 1.0])
        for times in ([0.0, np.nan], [np.nan], [np.nan, 1.0],
                      [0.0, np.inf], [0.0, 1.0, np.inf]):
            with pytest.raises(ValueError):
                evolve_exact(h, eff0, times)
        for bad_h in (h[:-1, :-1], h[:, :-4], h[0], np.zeros((0, 0))):
            with pytest.raises(ValueError):
                evolve_exact(bad_h, eff0, [0.0, 1.0])
        for bad in (h[:-1, :-1], h[:, :-4], h[0]):
            with pytest.raises(ValueError, match="4N x 4N"):
                sector_variables(bad)
        for bad in (np.nan, np.inf):
            h_bad = h.copy()
            h_bad[0, 1] = h_bad[1, 0] = bad
            with pytest.raises(ValueError):
                evolve_exact(h_bad, eff0, [0.0, 1.0])
        # max|w| t_max = inf: the phases would be NaN
        with pytest.raises(ValueError, match="phases overflow"):
            evolve_exact(1e10 * h, eff0, [0.0, 1e300])

    @pytest.mark.parametrize("xi", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("scale", [1e-100, 1e8, 1e100])
    def test_scale_covariant(self, xi, scale):
        # s h on times t / s is h on times t; a Hermiticity defect is judged
        # against the scale of h, at unlinked pairs (xi = 0) and in blocks
        h, rho0 = setup(params(n_levels=6, xi=xi))
        eff0, times = sector_variables(rho0), np.linspace(0, 60, 25)
        ref = evolve_exact(h, eff0, times)
        assert np.abs(evolve_exact(scale * h, eff0, times / scale) - ref).max() <= 1e-12
        with pytest.raises(ValueError):
            evolve_exact(scale * (h + 1e-6j * np.eye(h.shape[0])), eff0, times)

    def test_checks_only_the_effective_state(self, monkeypatch):
        shapes = []
        original = ecps.exact.is_density

        def recording(m, *args):
            shapes.append(np.shape(m))
            return original(m, *args)

        monkeypatch.setattr(ecps.exact, "is_density", recording)
        for xi in (0.0, 0.5, 1.0):
            h, rho0 = setup(params(n_levels=5, xi=xi))
            evolve_exact(h, sector_variables(rho0), [0.0, 1.0])
        assert shapes == [(4, 4)] * 3

    @pytest.mark.parametrize("alpha", [0.0, 0.02])
    @pytest.mark.parametrize("xi", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("points, grams", [(11, 10), (12, 20), (13, 20)])
    def test_forms_each_gram_block_once_below_n_times(self, monkeypatch, points,
                                                       grams, xi, alpha):
        # one Gram block per pair {r, c}, r <= c: at T < N it is held from
        # rho_e to its readout, from T = N on it is formed again for it
        calls = []
        original = ecps.exact._gram
        monkeypatch.setattr(ecps.exact, "_gram",
                            lambda *args: calls.append(1) or original(*args))
        h, rho0 = setup(params(n_levels=12, xi=xi, alpha=alpha))
        evolve_exact(h, sector_variables(rho0), np.linspace(0.0, 10.0, points))
        assert len(calls) == grams


class TestEigenbasisReadout:
    """evolve_exact against the per-time dense reconstruction of rho(t)."""

    THETAS = (0.0, 0.3, PI4)
    ENVS = [("branch_projector", 0.4, 1), "plus_projector", "maximally_mixed"]
    SYS = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])

    def _check(self, p, env, times):
        h, rho0 = setup(p, sys=self.SYS, env=env)
        states = evolve_exact(h, sector_variables(rho0), times)
        system, sectors = evolve_exact_dense(h, rho0, times, self.THETAS)
        assert reduced_from_sector(states).shape == (len(times), 2, 2)
        assert states.shape == (len(times), 4, 4)
        assert np.abs(reduced_from_sector(states) - system).max() <= 1e-12
        for th in self.THETAS:
            assert np.abs(rotate_sector(states, th) - sectors[th]).max() <= 1e-12

    @pytest.mark.parametrize("env", ENVS)
    @pytest.mark.parametrize("xi", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("n_levels", [1, 3, 6, 12])
    def test_matches_dense_reference(self, n_levels, xi, env):
        p = params(n_levels=n_levels, xi=xi, alpha=0.3)
        self._check(p, env, np.array([0.0, 0.1, 0.35, 2.0, 7.5, 40.0]))

    @pytest.mark.parametrize("xi", [0.0, 0.5, 1.0])
    def test_grid_longer_than_one_chunk(self, xi):
        # the 2N and 3N blocks (24 and 36 wide) read out in chunks of 682
        # and 455 times, so 1001 times take more than one, the last partial
        times = np.linspace(0.0, 40.0, 1001)
        assert all(times.size > ecps.exact._CHUNK // w and times.size % (ecps.exact._CHUNK // w)
                   for w in (24, 36))
        self._check(params(n_levels=12, xi=xi, alpha=0.3), self.ENVS[0], times)

    @pytest.mark.parametrize("env", ENVS)
    def test_degenerate_spectrum(self, env):
        self._check(params(n_levels=3, alpha=0.0), env, np.linspace(0, 30, 7))

    @pytest.mark.parametrize("env", ENVS)
    def test_one_point_grid(self, env):
        self._check(params(n_levels=3), env, np.array([0.0]))

    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    @pytest.mark.parametrize("xi", [0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("n_levels", [1, 3, 6])
    def test_any_effective_initial_state(self, n_levels, xi, alpha):
        # evolve_exact propagates eff0 (x) I_N / N for any 4 x 4 density
        # eff0, inter-sector coherences and pure states included
        p = params(n_levels=n_levels, xi=xi, alpha=alpha, seed=19)
        h = build_hamiltonian(p, sample_couplings(p))
        times = np.array([0.0, 0.1, 0.35, 2.0, 7.5, 40.0])
        rng = np.random.default_rng(n_levels)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        for x in (m @ m.conj().T, np.outer(psi, psi.conj())):
            eff0 = x / np.trace(x).real
            states = evolve_exact(h, eff0, times)
            system, sectors = evolve_exact_dense(
                h, embed_level_uniform(eff0, n_levels), times, self.THETAS)
            assert np.abs(states[0] - eff0).max() <= 1e-12
            assert np.abs(reduced_from_sector(states) - system).max() <= 1e-12
            for th in self.THETAS:
                assert np.abs(rotate_sector(states, th)
                              - sectors[th]).max() <= 1e-12

    # (system (x) branch) couplings whose pair blocks are not consecutive in
    # the pair order r = 2l + j, so that a block pair holds pairs r > c:
    # sigma_x (x) I gives {0, 2}, {1, 3}; sigma_x (x) sigma_x gives {0, 3}, {1, 2};
    # pairs 0-3 only give {0, 3}, {1}, {2}, and pairs 1-3 only {0}, {1, 3}, {2};
    # each with the number of its 2N blocks
    PAIR_COUPLINGS = {"sx_id": (np.kron([[0, 1], [1, 0]], np.eye(2)), 2),
                      "sx_sx": (np.kron([[0, 1], [1, 0]], [[0, 1], [1, 0]]), 2),
                      "pairs_0_3": (np.fliplr(np.diag([1, 0, 0, 1])), 1),
                      "pairs_1_3": (np.kron([[0, 1], [1, 0]], np.diag([0, 1])), 1)}

    @pytest.mark.parametrize("coupling", PAIR_COUPLINGS)
    @pytest.mark.parametrize("n_levels", [1, 3])
    def test_interleaved_pair_blocks(self, monkeypatch, n_levels, coupling):
        # h = sigma (x) B + H0 for a random Hermitian level operator B, from
        # an eff0 with every inter-pair coherence, against the dense reference
        rng = np.random.default_rng(n_levels)
        b = rng.standard_normal((n_levels, n_levels)) \
            + 1j * rng.standard_normal((n_levels, n_levels))
        levels = np.diag(np.linspace(-0.25, 0.25, n_levels)) + 0.1 * (b + b.conj().T)
        sys_branch, n_blocks = self.PAIR_COUPLINGS[coupling]
        h = np.einsum('ljmk,nq->lnjmqk', sys_branch.reshape(2, 2, 2, 2),
                      levels).reshape(4 * n_levels, 4 * n_levels) \
            + np.kron(np.eye(2), np.kron(np.diag(np.arange(n_levels) * 0.5),
                                         np.eye(2)))
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        eff0 = m @ m.conj().T
        eff0 /= np.trace(eff0).real
        times = np.array([0.0, 0.1, 0.35, 2.0, 7.5])
        sizes, states = TestBlocks._block_sizes(
            monkeypatch, h, embed_level_uniform(eff0, n_levels), times)
        assert sizes == [2 * n_levels] * n_blocks     # the plain frame
        system, sectors = evolve_exact_dense(
            h, embed_level_uniform(eff0, n_levels), times, self.THETAS)
        assert np.abs(reduced_from_sector(states) - system).max() <= 1e-12
        for th in self.THETAS:
            assert np.abs(rotate_sector(states, th) - sectors[th]).max() <= 1e-12


class TestBlocks:
    """evolve_exact diagonalizes each connected block of h on its own."""

    STEADY_SYS = (np.diag([0.9, 0.1]), np.array([[0.5, 0.4], [0.4, 0.5]]))

    @staticmethod
    def _block_sizes(monkeypatch, h, rho0, times=(0.0, 1.0)):
        sizes = []
        original = ecps.exact.eig_hermitian

        def recording(m, *args):
            sizes.append(m.shape[0])
            return original(m, *args)

        monkeypatch.setattr(ecps.exact, "eig_hermitian", recording)
        states = evolve_exact(h, sector_variables(rho0), np.asarray(times))
        return sizes, states

    def _steady_rho0(self, p):
        # the steady-state experiment's mixture: coherences between the
        # blocks (system 0-1 and branch 1-2) are all present
        mixed, coherent = self.STEADY_SYS
        return (0.5 * initial_state(mixed, env_state("maximally_mixed"), p)
                + 0.5 * initial_state(coherent, env_state("plus_projector"), p))

    # blocks of h in units of N: at xi = 0 in the plain frame, otherwise in
    # the Bell frame, where Phi+ (x) C^N splits off as N singletons
    BLOCKS = [(0.0, [2]), (1.0, [2]), (0.5, [3]), (0.3, [3]), (0.9, [3])]

    @pytest.mark.parametrize("n_levels, seed", [(1, 0), (1, 10), (2, 1), (3, 5),
                                                (7, 6), (30, 0)])
    @pytest.mark.parametrize("xi, blocks", BLOCKS)
    def test_block_sizes(self, monkeypatch, n_levels, seed, xi, blocks):
        p = params(n_levels=n_levels, xi=xi, alpha=0.3, seed=seed)
        h, rho0 = setup(p)
        sizes, _ = self._block_sizes(monkeypatch, h, rho0)
        assert sizes == [b * n_levels for b in blocks]

    @pytest.mark.parametrize("xi, blocks", BLOCKS)
    def test_block_sizes_weak_coupling(self, monkeypatch, xi, blocks):
        # the shipped coupling strength: the same pattern, read off exact
        # zeros however small alpha * v is against H0
        p = params(n_levels=60, xi=xi, alpha=0.005, seed=3)
        h, rho0 = setup(p)
        sizes, _ = self._block_sizes(monkeypatch, h, rho0)
        assert sizes == [b * 60 for b in blocks]

    @pytest.mark.parametrize("xi", [0.0, 0.3, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("n_levels", [1, 2, 3, 7, 60])
    def test_blocks_match_index_level_oracle(self, monkeypatch, n_levels, xi):
        # the blocks read off the four pairs r = 2l + j are the index-level
        # components of h, found by a generic graph search (in a dense Bell
        # frame when the plain frame is one component)
        for alpha in (0.0, 0.005, 0.3, 2.0):
            for seed in range(3):
                p = params(n_levels=n_levels, xi=xi, alpha=alpha, seed=seed)
                h, rho0 = setup(p)
                sizes, _ = self._block_sizes(monkeypatch, h, rho0)
                monkeypatch.undo()
                expected = [b.size for b in index_blocks(h) if b.size > 1]
                assert sorted(sizes) == sorted(expected), (alpha, seed)

    @pytest.mark.parametrize("xi", [0.0, 0.5, 1.0])
    def test_decoupled_needs_no_eigh(self, monkeypatch, xi):
        p = params(n_levels=5, xi=xi, alpha=0.0)
        h, rho0 = setup(p, env="plus_projector")
        sizes, states = self._block_sizes(monkeypatch, h, rho0, np.linspace(0, 9, 4))
        assert sizes == []
        system = reduced_from_sector(states)
        assert np.abs(system - system[0]).max() <= 1e-15

    @pytest.mark.parametrize("xi", [0.0, 1.0, 0.5])
    def test_large_band_matches_dense_reference(self, monkeypatch, xi):
        p = ModelParams(n_levels=120, delta_eps=0.5, alpha=0.005, xi=xi, seed=4242)
        h = build_hamiltonian(p, sample_couplings(p))
        rho0 = self._steady_rho0(p)
        times = np.array([0.0, 50.0 / p.relaxation_rate])
        sizes, states = self._block_sizes(monkeypatch, h, rho0, times)
        assert sizes == [360 if 0 < xi < 1 else 240]
        system, sectors = evolve_exact_dense(h, rho0, times, SECTOR_THETAS)
        assert np.abs(reduced_from_sector(states) - system).max() <= 1e-12
        for th in SECTOR_THETAS:
            assert np.abs(rotate_sector(states, th) - sectors[th]).max() <= 1e-12

    @pytest.mark.parametrize("xi, on_phi_plus", [(0.0, False), (1.0, False),
                                                 (0.5, True), (1.0, True)],
                             ids=["0.0", "1.0", "0.5-phi_plus", "1.0-phi_plus"])
    def test_rejects_non_hermitian_singleton(self, xi, on_phi_plus):
        # at xi = 0 index 0 is |0,1,1>, which sees only H0; at xi = 1 the
        # perturbation lands on Phi+ and Phi- of level 1 in the Bell frame.
        # i 1e-3 |Phi+, 1><Phi+, 1| lands only on the Bell-frame diagonal of
        # Phi+, a pair linked to nothing, so no eig_hermitian sees it
        p = params(n_levels=3, xi=xi)
        h, rho0 = setup(p)
        if on_phi_plus:
            phi = np.zeros(h.shape[0])
            phi[0] = phi[2 * p.n_levels + 1] = 1.0 / np.sqrt(2.0)  # |0,1,1>, |1,1,2>
            h += 1e-3j * np.outer(phi, phi)
        else:
            h[0, 0] += 1e-3j
        match = "evolve_exact requires" if on_phi_plus else None
        with pytest.raises(ValueError, match=match):
            evolve_exact(h, sector_variables(rho0), [0.0, 1.0])

    @pytest.mark.parametrize("i, j", [(0, 1), (1, 0), (0, 2), (2, 4)])
    def test_rejects_one_sided_off_block_entry(self, i, j):
        # at xi = 0 and N = 3, indices 0, 2, 4 are the singletons |0,n,1>
        # (n = 1, 2, 3) and 1 = |0,1,2> lies in the 2N block
        p = params(n_levels=3, xi=0.0)
        h, rho0 = setup(p)
        assert h[i, j] == 0 and h[j, i] == 0
        h[i, j] = 1e-3
        with pytest.raises(ValueError):
            evolve_exact(h, sector_variables(rho0), [0.0, 1.0])

    def test_rejects_slightly_negative_initial_state(self):
        p = params(n_levels=3)
        h, _ = setup(p)
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4))
                            + 1j * rng.standard_normal((4, 4)))
        lam = np.full(4, (1.0 + 1e-3) / 3)
        lam[0] = -1e-3
        eff0 = (q * lam) @ q.conj().T
        eff0 = (eff0 + eff0.conj().T) / 2
        assert abs(np.trace(eff0) - 1.0) <= 1e-12
        assert abs(np.linalg.eigvalsh(eff0)[0] + 1e-3) <= 1e-12
        with pytest.raises(ValueError):
            evolve_exact(h, eff0, [0.0, 1.0])


class TestMemory:
    """The traced peak of evolve_exact, in units of h.nbytes. With T >= N
    times each Gram block K_rc is formed twice, for rho_e and for its readout,
    so one is alive at a time; with T < N one block pair's K_rc are held.
    Times are read out in fixed-size chunks and rho_e = X + X^dagger needs no
    scratch block, so only a block's phases and the output grow with T. A
    block's phases and rows go after its last block pair, the Bell frame
    W h W is built in one array, and a temporary h is freed before the
    eigendecompositions. Cases: N = 120 at xi = 0, 1 and 0.5 with two times
    (the hold path), and N = 60, xi = 0.5 with 400 times (the re-form path)."""

    P = ModelParams(n_levels=120, delta_eps=0.5, alpha=0.005, xi=0.0, seed=3)
    EFF0 = np.diag([0.4, 0.1, 0.3, 0.2]).astype(complex)
    TIMES = np.array([0.0, 50.0 / P.relaxation_rate])

    def _peak(self, monkeypatch, p, held, times=TIMES):
        cpl = sample_couplings(p)
        h = build_hamiltonian(p, cpl)
        calls = []
        original = ecps.exact.eig_hermitian
        monkeypatch.setattr(ecps.exact, "eig_hermitian",
                            lambda m: calls.append(m.shape[0]) or original(m))
        tracemalloc.start()
        try:
            if held:
                states = evolve_exact(h, self.EFF0, times)
            else:   # as the CLI passes it, the build counted in the peak
                states = evolve_exact(build_hamiltonian(p, cpl), self.EFF0, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / h.nbytes, calls, states

    # the one block that needs eigh: 2N at xi = 0 and 1, the 3N Bell-frame
    # block at 0 < xi < 1
    @pytest.mark.parametrize("n_levels, xi, points, held, bound, block", [
        (120, 0.0, 2, True, 1.8, 240), (120, 0.0, 2, False, 2.0, 240),
        (120, 1.0, 2, True, 1.8, 240), (120, 1.0, 2, False, 2.7, 240),
        (120, 0.5, 2, True, 5.3, 360), (120, 0.5, 2, False, 5.3, 360),
        (60, 0.5, 400, True, 3.9, 180), (60, 0.5, 400, False, 3.9, 180)],
        ids=["held", "temporary", "n120-xi1-held", "n120-xi1-temporary",
             "n120-xi0.5-held", "n120-xi0.5-temporary",
             "n60-xi0.5-held", "n60-xi0.5-temporary"])
    def test_peak(self, monkeypatch, n_levels, xi, points, held, bound, block):
        p = replace(self.P, n_levels=n_levels, xi=xi)
        times = np.linspace(0.0, self.TIMES[-1], points)
        peak, calls, _ = self._peak(monkeypatch, p, held, times)
        assert calls == [block]
        assert peak <= bound

    def test_readout_does_not_grow_with_times(self, monkeypatch):
        # 400 more times may add the 3N block's phases and the (T, 4, 4)
        # output, (3N + 16) * 16 B a time: 1.36 h.nbytes at N = 60
        p = replace(self.P, n_levels=60, xi=0.5)
        short, long = (self._peak(monkeypatch, p, True, np.linspace(0.0, self.TIMES[-1], t))[0]
                       for t in (400, 800))
        assert long - short <= 1.45

    @pytest.mark.parametrize("held, bound", [(True, 0.5), (False, 1.5)],
                             ids=["held", "temporary"])
    def test_decoupled_pairs_take_no_eigh(self, monkeypatch, held, bound):
        # at alpha = 0 every pair is on its own, so each Gram block is an
        # N x N identity, and the level-uniform state does not move
        peak, calls, states = self._peak(monkeypatch, replace(self.P, alpha=0.0), held)
        assert calls == []
        assert peak <= bound
        assert np.abs(states - self.EFF0).max() <= 1e-15


class TestEnsembleAverage:
    @staticmethod
    def _runner(env=("branch_projector", 0.0, 1), times=np.linspace(0, 10, 5)):
        def run_one(p):
            h, rho0 = setup(p, env=env)
            return evolve_exact(h, sector_variables(rho0), times)
        return run_one

    def test_single_realization_identity(self):
        p = params()
        run_one = self._runner()
        avg = ensemble_average(p, 1, run_one)
        single = run_one(p)
        assert np.abs(reduced_from_sector(avg) - reduced_from_sector(single)).max() == 0.0
        assert realization_seeds(p.seed, 1) == [p.seed]

    def test_identical_seed_copies(self):
        p = params()
        run_one = self._runner()
        single = run_one(p)
        avg = ensemble_average(p, 3, lambda q: run_one(q.with_seed(p.seed)))
        assert np.abs(reduced_from_sector(avg)
                      - reduced_from_sector(single)).max() <= 1e-15

    def test_pointwise_means(self):
        p = params()
        run_one = self._runner(env="plus_projector")
        avg = ensemble_average(p, 3, run_one)
        runs = [run_one(p.with_seed(s)) for s in (p.seed, p.seed + 1, p.seed + 2)]
        assert np.abs(runs[0] - runs[1]).max() > 1e-3
        mean = np.mean(runs, axis=0)
        assert np.abs(avg - mean).max() == 0.0
        # the reduction is linear, so reducing the mean states matches the
        # mean of the reduced states up to rounding
        mean = np.mean([reduced_from_sector(r) for r in runs], axis=0)
        assert np.abs(reduced_from_sector(avg) - mean).max() <= 1e-15

    def test_rejects_realizations_of_different_lengths(self):
        p = params()
        short, long = self._runner(times=np.linspace(0, 10, 4)), self._runner()
        with pytest.raises(ValueError):
            ensemble_average(p, 2, lambda q: (short if q.seed == p.seed else long)(q))
        with pytest.raises(ValueError, match="n_realizations"):
            ensemble_average(p, 0, long)

    def test_self_averaging_spread(self):
        # large-band instance: per-seed scatter of the final population is small
        p = ModelParams(n_levels=60, delta_eps=0.5, alpha=5e-3, xi=0.0, seed=1000)
        theta0 = np.arcsin(0.6)
        t_final = 5.0 / p.relaxation_rate
        finals = []
        for k in range(8):
            q = p.with_seed(1000 + k)
            h, rho0 = setup(q, env=("branch_projector", theta0, 1))
            states = evolve_exact(h, sector_variables(rho0), np.array([0.0, t_final]))
            finals.append(reduced_from_sector(states)[-1, 0, 0].real)
        assert np.std(finals, ddof=1) <= 0.03
