import numpy as np
import pytest

import ecps.exact
from ecps import (ModelParams, build_hamiltonian, conserved_charge,
                  eig_hermitian, ensemble_average, evolve_exact, initial_state,
                  reduced_from_sector, sample_couplings, sector_variables)
from oracles import (SECTOR_THETAS, evolve_exact_dense, partial_trace,
                     rk4_von_neumann, rotate_sector)

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
    rho0 = initial_state(sys, env, p)
    return h, rho0


class TestSectorVariables:
    def test_aligned_projector_gives_pure_sector(self):
        p = params(n_levels=6)
        theta = 0.42
        rho = initial_state(np.diag([1.0, 0.0]).astype(complex),
                            ("branch_projector", theta, 1), p)
        eff = sector_variables(rho, theta)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0  # (system 0, first rotated branch)
        assert np.abs(eff - expected).max() <= 1e-12

    @pytest.mark.parametrize("theta", [0.0, 0.3, PI4])
    def test_mixed_environment_is_rotation_invariant(self, theta):
        p = params(n_levels=6)
        rho = initial_state(np.diag([1.0, 0.0]).astype(complex),
                            "maximally_mixed", p)
        eff = sector_variables(rho, theta)
        expected = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        assert np.abs(eff - expected).max() <= 1e-12

    def test_trace_and_hermiticity(self):
        rng = np.random.default_rng(11)
        n = 5
        m = rng.standard_normal((4 * n, 4 * n)) + 1j * rng.standard_normal((4 * n, 4 * n))
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        for theta in (0.0, 0.2, PI4):
            eff = sector_variables(rho, theta)
            assert abs(np.trace(eff) - np.trace(rho)) <= 1e-12
            assert np.abs(eff - eff.conj().T).max() <= 1e-12

    def test_reduction_matches_partial_trace(self):
        p = params(n_levels=5)
        h, rho0 = setup(p)
        eff = sector_variables(rho0, 0.27)
        direct = partial_trace(rho0, [2, 2 * p.n_levels], keep=0)
        assert np.abs(reduced_from_sector(eff) - direct).max() <= 1e-12


class TestEvolveExact:
    def test_initial_time_reduction(self):
        p = params()
        h, rho0 = setup(p)
        traj = evolve_exact(h, rho0, np.linspace(0, 5, 7))
        direct = partial_trace(rho0, [2, 2 * p.n_levels], keep=0)
        assert np.abs(traj.system_states[0] - direct).max() <= 1e-12

    def test_decoupled_limit_is_constant(self):
        p = params(alpha=0.0)
        h, rho0 = setup(p, sys=np.array([[0.5, 0.2], [0.2, 0.5]], dtype=complex))
        traj = evolve_exact(h, rho0, np.linspace(0, 50, 9))
        spread = np.abs(traj.system_states - traj.system_states[0]).max()
        assert spread <= 1e-12

    def test_matches_rk4(self):
        p = params(n_levels=2, alpha=0.2, seed=5)
        h, rho0 = setup(p)
        t_final = 2.0
        traj = evolve_exact(h, rho0, np.array([0.0, t_final]))
        rho_rk4 = rk4_von_neumann(h, rho0, t_final, dt=1e-3)
        eff = sector_variables(rho_rk4, 0.0)
        assert np.abs(traj.states[-1] - eff).max() <= 1e-6
        assert np.abs(traj.system_states[-1] - reduced_from_sector(eff)).max() <= 1e-6

    def test_conservation_laws(self):
        p = params(n_levels=4, xi=0.0, alpha=0.1)
        h, rho0 = setup(p, env=("branch_projector", 0.4, 1))
        charge = conserved_charge(p)
        w, v = eig_hermitian(h)
        rho_e = v.conj().T @ rho0 @ v
        times = np.linspace(0, 40, 9)
        traj = evolve_exact(h, rho0, times)
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
            assert np.abs(traj.system_states[k] - sys_t).max() <= 1e-10

    def test_reduced_states_stay_physical(self):
        p = params(alpha=0.08)
        h, rho0 = setup(p)
        traj = evolve_exact(h, rho0, np.linspace(0, 60, 25))
        for rho_a in traj.system_states:
            assert abs(np.trace(rho_a) - 1.0) <= 1e-9
            assert np.abs(rho_a - rho_a.conj().T).max() <= 1e-9
            assert np.linalg.eigvalsh(rho_a).min() >= -1e-9

    def test_validates_inputs(self):
        p = params()
        h, rho0 = setup(p)
        with pytest.raises(ValueError):
            evolve_exact(h + 1j * np.eye(h.shape[0]), rho0, [0.0, 1.0])
        with pytest.raises(ValueError):
            evolve_exact(h, rho0 * 2, [0.0, 1.0])
        with pytest.raises(ValueError):
            evolve_exact(h, rho0, [1.0, 2.0])
        with pytest.raises(ValueError):
            evolve_exact(h, rho0, [0.0, 2.0, 1.0])
        with pytest.raises(ValueError):
            evolve_exact(h[:-4, :-4], rho0, [0.0, 1.0])
        for bad in (np.nan, np.inf):
            h_bad = h.copy()
            h_bad[0, 1] = h_bad[1, 0] = bad
            with pytest.raises(ValueError):
                evolve_exact(h_bad, rho0, [0.0, 1.0])


class TestEigenbasisReadout:
    """evolve_exact against the per-time dense reconstruction of rho(t)."""

    THETAS = (0.0, 0.3, PI4)
    ENVS = [("branch_projector", 0.4, 1), "plus_projector", "maximally_mixed"]
    SYS = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])

    def _check(self, p, env, times):
        h, rho0 = setup(p, sys=self.SYS, env=env)
        traj = evolve_exact(h, rho0, times)
        system, sectors = evolve_exact_dense(h, rho0, times, self.THETAS)
        assert traj.system_states.shape == (len(times), 2, 2)
        assert traj.states.shape == (len(times), 4, 4)
        assert np.abs(traj.system_states - system).max() <= 1e-12
        for th in self.THETAS:
            assert np.abs(rotate_sector(traj.states, th) - sectors[th]).max() <= 1e-12

    @pytest.mark.parametrize("env", ENVS)
    @pytest.mark.parametrize("xi", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("n_levels", [1, 3, 6])
    def test_matches_dense_reference(self, n_levels, xi, env):
        p = params(n_levels=n_levels, xi=xi, alpha=0.3)
        self._check(p, env, np.array([0.0, 0.1, 0.35, 2.0, 7.5, 40.0]))

    @pytest.mark.parametrize("env", ENVS)
    def test_degenerate_spectrum(self, env):
        self._check(params(n_levels=3, alpha=0.0), env, np.linspace(0, 30, 7))

    @pytest.mark.parametrize("env", ENVS)
    def test_one_point_grid(self, env):
        self._check(params(n_levels=3), env, np.array([0.0]))


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
        traj = evolve_exact(h, rho0, np.asarray(times))
        return sizes, traj

    def _steady_rho0(self, p):
        # the steady-state experiment's mixture: coherences between the
        # blocks (system 0-1 and branch 1-2) are all present
        mixed, coherent = self.STEADY_SYS
        return (0.5 * initial_state(mixed, "maximally_mixed", p)
                + 0.5 * initial_state(coherent, "plus_projector", p))

    # at xi = 1 every draw but (1, 0) leaves 2-14 entries of rounding residue
    # (below 4 eps max|h|) where the x frame of h has exact zeros
    @pytest.mark.parametrize("n_levels, seed", [(1, 0), (1, 10), (2, 1), (3, 5),
                                                (7, 6), (30, 0)])
    @pytest.mark.parametrize("xi, blocks", [(0.0, [2]), (1.0, [2]), (0.5, [4])])
    def test_block_sizes(self, monkeypatch, n_levels, seed, xi, blocks):
        p = params(n_levels=n_levels, xi=xi, alpha=0.3, seed=seed)
        h, rho0 = setup(p)
        sizes, _ = self._block_sizes(monkeypatch, h, rho0)
        assert sizes == [b * n_levels for b in blocks]

    @pytest.mark.parametrize("xi", [0.0, 0.5, 1.0])
    def test_decoupled_needs_no_eigh(self, monkeypatch, xi):
        p = params(n_levels=5, xi=xi, alpha=0.0)
        h, rho0 = setup(p, env="plus_projector")
        sizes, traj = self._block_sizes(monkeypatch, h, rho0, np.linspace(0, 9, 4))
        assert sizes == []
        assert np.abs(traj.system_states - traj.system_states[0]).max() <= 1e-15

    @pytest.mark.parametrize("xi", [0.0, 1.0])
    def test_large_band_matches_dense_reference(self, monkeypatch, xi):
        p = ModelParams(n_levels=120, delta_eps=0.5, alpha=0.005, xi=xi, seed=4242)
        h = build_hamiltonian(p, sample_couplings(p))
        rho0 = self._steady_rho0(p)
        times = np.array([0.0, 50.0 / p.relaxation_rate])
        sizes, traj = self._block_sizes(monkeypatch, h, rho0, times)
        assert sizes == [240]
        system, sectors = evolve_exact_dense(h, rho0, times, SECTOR_THETAS)
        assert np.abs(traj.system_states - system).max() <= 1e-12
        for th in SECTOR_THETAS:
            assert np.abs(rotate_sector(traj.states, th) - sectors[th]).max() <= 1e-12

    @pytest.mark.parametrize("xi", [0.0, 1.0])
    def test_rejects_non_hermitian_singleton(self, xi):
        # at xi = 0 index 0 is |0,1,1>, which sees only H0; at xi = 1 the
        # perturbation lands on the x-frame singletons and the block alike
        p = params(n_levels=3, xi=xi)
        h, rho0 = setup(p)
        h[0, 0] += 1e-3j
        with pytest.raises(ValueError):
            evolve_exact(h, rho0, [0.0, 1.0])

    @pytest.mark.parametrize("i, j", [(0, 1), (1, 0), (0, 2), (2, 4)])
    def test_rejects_one_sided_off_block_entry(self, i, j):
        # at xi = 0 and N = 3, indices 0, 2, 4 are the singletons |0,n,1>
        # (n = 1, 2, 3) and 1 = |0,1,2> lies in the 2N block
        p = params(n_levels=3, xi=0.0)
        h, rho0 = setup(p)
        assert h[i, j] == 0 and h[j, i] == 0
        h[i, j] = 1e-3
        with pytest.raises(ValueError):
            evolve_exact(h, rho0, [0.0, 1.0])

    def test_rejects_slightly_negative_initial_state(self):
        p = params(n_levels=3)
        h, _ = setup(p)
        d = h.shape[0]
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((d, d))
                            + 1j * rng.standard_normal((d, d)))
        lam = np.full(d, (1.0 + 1e-3) / (d - 1))
        lam[0] = -1e-3
        rho0 = (q * lam) @ q.conj().T
        rho0 = (rho0 + rho0.conj().T) / 2
        assert abs(np.trace(rho0) - 1.0) <= 1e-12
        with pytest.raises(ValueError):
            evolve_exact(h, rho0, [0.0, 1.0])


class TestEnsembleAverage:
    @staticmethod
    def _runner(env=("branch_projector", 0.0, 1), times=np.linspace(0, 10, 5)):
        def run_one(p):
            h, rho0 = setup(p, env=env)
            return evolve_exact(h, rho0, times)
        return run_one

    def test_single_realization_identity(self):
        p = params()
        run_one = self._runner()
        avg = ensemble_average(p, 1, run_one)
        single = run_one(p)
        assert np.abs(avg.system_states - single.system_states).max() == 0.0
        assert avg.meta["realization_seeds"] == [p.seed]

    def test_identical_seed_copies(self):
        p = params()
        run_one = self._runner()
        single = run_one(p)
        avg = ensemble_average(p, 3, lambda q: run_one(q.with_seed(p.seed)))
        assert np.abs(avg.system_states - single.system_states).max() <= 1e-15

    def test_pointwise_means(self):
        p = params()
        run_one = self._runner(env="plus_projector")
        avg = ensemble_average(p, 3, run_one)
        runs = [run_one(p.with_seed(s)) for s in (p.seed, p.seed + 1, p.seed + 2)]
        assert np.abs(runs[0].states - runs[1].states).max() > 1e-3
        for field in ("states", "system_states"):
            mean = np.mean([getattr(r, field) for r in runs], axis=0)
            assert np.abs(getattr(avg, field) - mean).max() == 0.0

    def test_self_averaging_spread(self):
        # large-band instance: per-seed scatter of the final population is small
        p = ModelParams(n_levels=60, delta_eps=0.5, alpha=5e-3, xi=0.0, seed=1000)
        theta0 = np.arcsin(0.6)
        t_final = 5.0 / p.relaxation_rate
        finals = []
        for k in range(8):
            q = p.with_seed(1000 + k)
            h, rho0 = setup(q, env=("branch_projector", theta0, 1))
            traj = evolve_exact(h, rho0, np.array([0.0, t_final]))
            finals.append(traj.system_states[-1, 0, 0].real)
        assert np.std(finals, ddof=1) <= 0.03
