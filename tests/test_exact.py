import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import ecps.exact
from ecps.exact import SYSTEM_OBSERVABLES
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


def _hermitian_basis():
    """16 Hermitian 4 x 4 observables whose values are eff[r, r] and, for
    r < c, Re eff[r, c] and Im eff[r, c]."""
    basis = []
    for r, c in zip(*np.triu_indices(4)):
        re = np.zeros((4, 4), dtype=complex)
        re[r, c] = re[c, r] = 1.0 if r == c else 0.5
        basis.append(re)
        if r < c:
            im = np.zeros((4, 4), dtype=complex)
            im[r, c], im[c, r] = 0.5j, -0.5j
            basis.append(im)
    return np.array(basis)


HERMITIAN_BASIS = _hermitian_basis()


def exact_states(h, eff0, times):
    """The (T, 4, 4) effective states, rebuilt from evolve_exact's values of
    ``HERMITIAN_BASIS``."""
    vals = evolve_exact(h, eff0, times, HERMITIAN_BASIS)
    states = np.empty((len(vals), 4, 4), dtype=complex)
    k = 0
    for r, c in zip(*np.triu_indices(4)):
        if r == c:
            states[:, r, r] = vals[:, k]
            k += 1
        else:
            states[:, r, c] = vals[:, k] + 1j * vals[:, k + 1]
            states[:, c, r] = vals[:, k] - 1j * vals[:, k + 1]
            k += 2
    return states


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
        states = exact_states(h, sector_variables(rho0), np.linspace(0, 5, 7))
        direct = partial_trace(rho0, [2, 2 * p.n_levels], keep=0)
        assert np.abs(reduced_from_sector(states)[0] - direct).max() <= 1e-12

    def test_decoupled_limit_is_constant(self):
        p = params(alpha=0.0)
        h, rho0 = setup(p, sys=np.array([[0.5, 0.2], [0.2, 0.5]], dtype=complex))
        states = exact_states(h, sector_variables(rho0), np.linspace(0, 50, 9))
        system = reduced_from_sector(states)
        spread = np.abs(system - system[0]).max()
        assert spread <= 1e-12

    def test_matches_rk4(self):
        p = params(n_levels=2, alpha=0.2, seed=5)
        h, rho0 = setup(p)
        t_final = 2.0
        states = exact_states(h, sector_variables(rho0), np.array([0.0, t_final]))
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
        states = exact_states(h, sector_variables(rho0), times)
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
        pop = evolve_exact(h, sector_variables(rho0), np.linspace(0, 40, 9),
                           [np.outer(PHI_PLUS, PHI_PLUS)])
        assert pop.shape == (9, 1)
        expected = np.trace(phi_plus_projector(n_levels) @ rho0)
        assert abs(expected - 0.35) <= 1e-12
        assert np.abs(pop - expected).max() <= 1e-12

    def test_reduced_states_stay_physical(self):
        p = params(alpha=0.08)
        h, rho0 = setup(p)
        states = exact_states(h, sector_variables(rho0), np.linspace(0, 60, 25))
        for rho_a in reduced_from_sector(states):
            assert abs(np.trace(rho_a) - 1.0) <= 1e-9
            assert np.abs(rho_a - rho_a.conj().T).max() <= 1e-9
            assert np.linalg.eigvalsh(rho_a).min() >= -1e-9

    def test_validates_inputs(self):
        p = params()
        h, rho0 = setup(p, sys=np.array([[0.6, 0.2], [0.2, 0.4]]))
        eff0 = sector_variables(rho0)
        with pytest.raises(ValueError):
            exact_states(h + 1j * np.eye(h.shape[0]), eff0, [0.0, 1.0])
        non_hermitian = eff0.copy()
        non_hermitian[0, 2] += 1e-3
        # trace 2, not Hermitian, and the (valid) composite state itself
        for bad in (eff0 * 2, non_hermitian, rho0):
            with pytest.raises(ValueError):
                exact_states(h, bad, [0.0, 1.0])
        for times in ([1.0, 2.0], [1e-13, 1.0], [-1e-300, 1.0]):
            with pytest.raises(ValueError):
                exact_states(h, eff0, times)
        with pytest.raises(ValueError):
            exact_states(h, eff0, [0.0, 2.0, 1.0])
        for times in ([0.0, np.nan], [np.nan], [np.nan, 1.0],
                      [0.0, np.inf], [0.0, 1.0, np.inf]):
            with pytest.raises(ValueError):
                exact_states(h, eff0, times)
        for bad_h in (h[:-1, :-1], h[:, :-4], h[0], np.zeros((0, 0))):
            with pytest.raises(ValueError):
                exact_states(bad_h, eff0, [0.0, 1.0])
        for bad in (h[:-1, :-1], h[:, :-4], h[0]):
            with pytest.raises(ValueError, match="4N x 4N"):
                sector_variables(bad)
        for bad in (np.nan, np.inf):
            h_bad = h.copy()
            h_bad[0, 1] = h_bad[1, 0] = bad
            with pytest.raises(ValueError):
                exact_states(h_bad, eff0, [0.0, 1.0])
        # max|w| t_max = inf: the phases would be NaN
        with pytest.raises(ValueError, match="phases overflow"):
            exact_states(1e10 * h, eff0, [0.0, 1e300])
        non_hermitian = SYSTEM_OBSERVABLES.copy()
        non_hermitian[3, 0, 2] += 1e-3
        nan = SYSTEM_OBSERVABLES.copy()
        nan[0, 1, 1] = np.nan
        for bad in (SYSTEM_OBSERVABLES[0], SYSTEM_OBSERVABLES[None], non_hermitian, nan,
                    np.zeros((2, 4, 3)), np.zeros((2, 3, 3)), np.eye(4)[None, None]):
            with pytest.raises(ValueError, match="observables"):
                evolve_exact(h, eff0, [0.0, 1.0], bad)

    @pytest.mark.parametrize("xi", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("scale", [1e-100, 1e8, 1e100])
    def test_scale_covariant(self, xi, scale):
        # s h on times t / s is h on times t; a Hermiticity defect is judged
        # against the scale of h, at unlinked pairs (xi = 0) and in blocks
        h, rho0 = setup(params(n_levels=6, xi=xi))
        eff0, times = sector_variables(rho0), np.linspace(0, 60, 25)
        ref = exact_states(h, eff0, times)
        assert np.abs(exact_states(scale * h, eff0, times / scale) - ref).max() <= 1e-12
        with pytest.raises(ValueError):
            exact_states(scale * (h + 1e-6j * np.eye(h.shape[0])), eff0, times)

    def test_checks_only_the_effective_state(self, monkeypatch):
        shapes = []
        original = ecps.exact.is_density

        def recording(m, *args):
            shapes.append(np.shape(m))
            return original(m, *args)

        monkeypatch.setattr(ecps.exact, "is_density", recording)
        for xi in (0.0, 0.5, 1.0):
            h, rho0 = setup(params(n_levels=5, xi=xi))
            exact_states(h, sector_variables(rho0), [0.0, 1.0])
        assert shapes == [(4, 4)] * 3

    @staticmethod
    def _record(monkeypatch):
        """The engine's fused products ("F") and readouts ("R"), each with its
        arguments, in call order."""
        events = []
        for name, tag in (("_fused", "F"), ("_readout", "R")):
            original = getattr(ecps.exact, name)

            def recording(*args, _tag=tag, _original=original, **kwargs):
                events.append((_tag, args))
                return _original(*args, **kwargs)

            monkeypatch.setattr(ecps.exact, name, recording)
        return events

    # (fused products, readouts) of the system observables from an eff0 with
    # no zero coefficient block, N = 12, at every T
    PLAN = {(0.0, 0.0): (0, 6),     # four lone pairs: O(T N) diagonals
            (0.3, 0.0): (0, 6), (1.0, 0.0): (0, 6),
            (0.0, 0.02): (6, 5),    # {0}, {1, 2}, {3}
            (0.3, 0.02): (7, 6),    # Bell frame {Phi+}, {Psi+, Psi-, Phi-}
            (1.0, 0.02): (9, 9)}    # Bell frame {Phi+}, {Psi+}, {Psi-, Phi-}

    @pytest.mark.parametrize("alpha", [0.0, 0.02])
    @pytest.mark.parametrize("xi", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("points", [11, 12, 13])
    def test_gram_blocks_and_readouts_per_block_pair(self, monkeypatch, points, xi, alpha):
        # on either side of T = N a block pair takes one fused product for
        # rho_e and one for each readout, and a pair of lone pairs takes none
        events = self._record(monkeypatch)
        p = params(n_levels=12, xi=xi, alpha=alpha)
        h = build_hamiltonian(p, sample_couplings(p))
        eff0 = np.full((4, 4), 0.02) + np.diag([0.2, 0.3, 0.1, 0.32])
        evolve_exact(h, eff0, np.linspace(0.0, 10.0, points), SYSTEM_OBSERVABLES)
        tags = "".join(tag for tag, _ in events)
        fused, readouts = self.PLAN[xi, alpha]
        # per block pair: rho_e, then a Gram block and its readout per job
        assert tags.count("R") == readouts
        assert tags.count("F") == fused and re.fullmatch(r"(R|F(FR)+)*", tags)

    @pytest.mark.parametrize("across", [False, True], ids=["within", "across"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("shape", ["full", "lone", "lone-zero", "diagonal", "identity",
                                       "entry"])
    def test_fused_matches_explicit_gram_blocks(self, k, shape, across):
        # sum_rc y[r, c] K_rc against the explicit K_rc = A_r^T conj(A_c):
        # within one block a diagonal entry whose row and column are
        # otherwise zero goes out as s I (sum_r K_rr = I), and y = s I takes
        # no product; across two blocks of k pairs nothing may go out
        rng = np.random.default_rng(k)
        n = 5

        def block_rows():
            m = rng.standard_normal((k * n, k * n)) + 1j * rng.standard_normal((k * n, k * n))
            return eig_hermitian(m + m.conj().T)[1].reshape(k, n, k * n)

        a = block_rows()
        b = block_rows() if across else a
        y = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        if shape in ("lone", "lone-zero"):
            y[k - 1, :k - 1] = y[:k - 1, k - 1] = 0     # the last pair's entry alone
            y[k - 1, k - 1] *= shape == "lone"
        elif shape == "diagonal":
            y = np.diag(np.arange(1.0, k + 1))
        elif shape == "identity":
            y = (0.3 - 0.7j) * np.eye(k)
        elif shape == "entry":
            y = np.zeros((k, k))
            y[k // 2, (k - 1) // 2] = 1.0
        expected = sum(y[r, c] * a[r].T @ b[c].conj() for r in range(k) for c in range(k))
        got = ecps.exact._fused(y, a, b, np.empty(2 ** 6, dtype=complex))
        assert np.abs(got - expected).max() <= 1e-13

    @pytest.mark.parametrize("points", [5, 40])
    @pytest.mark.parametrize("xi, eff0", [(0.0, np.diag([1.0, 0.0, 0.0, 0.0])),
                                          (0.5, np.outer(PHI_PLUS, PHI_PLUS))],
                             ids=["plain", "bell"])
    def test_skips_block_pairs_eff0_does_not_reach(self, monkeypatch, xi, eff0, points):
        # eff0 lies on one lone pair ({0}, or Phi+ in the Bell frame): every
        # other block pair has a zero coefficient block, so only the lone
        # pair's own diagonal is read out, and the state does not move
        events = self._record(monkeypatch)
        p = params(n_levels=12, xi=xi, alpha=0.3)
        vals = evolve_exact(build_hamiltonian(p, sample_couplings(p)), eff0,
                            np.linspace(0.0, 40.0, points), SYSTEM_OBSERVABLES)
        assert [(tag, args[1]) for tag, args in events] == [("R", None)]
        assert np.abs(vals - np.einsum('fcr,rc->f', SYSTEM_OBSERVABLES, eff0).real).max() \
            <= 1e-15


class TestObservables:
    """``SYSTEM_OBSERVABLES`` and other stacks read out against the states
    rebuilt from ``HERMITIAN_BASIS``, which ``TestEigenbasisReadout`` checks
    against the dense oracle: wrong packing of two observables to a readout,
    or a wrongly skipped block pair, shows as a wrong value."""

    RNG = np.random.default_rng(2024)
    _M = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
    # a full-rank state; one on the plain pairs 0 and 3, zero on the coefficient
    # blocks of {1, 2} at xi = 0; and 0.6 Phi+ + 0.4 Psi-, zero on the blocks of
    # Psi+ and Phi- in the Bell frame
    EFF0 = {"full": _M @ _M.conj().T / np.trace(_M @ _M.conj().T).real,
            "plain-zero": np.array([[0.7, 0, 0, 0.2 - 0.3j], [0, 0, 0, 0], [0, 0, 0, 0],
                                    [0.2 + 0.3j, 0, 0, 0.3]]),
            "bell-zero": 0.6 * np.outer(PHI_PLUS, PHI_PLUS)
            + 0.4 * np.outer([0, 1, -1, 0], [0, 1, -1, 0]) / 2}

    @staticmethod
    def _system(s):
        """rho00, rho11, Re rho01, Im rho01 of (T, 2, 2) system states."""
        return np.stack([s[:, 0, 0].real, s[:, 1, 1].real, s[:, 0, 1].real,
                         s[:, 0, 1].imag], axis=-1)

    @pytest.mark.parametrize("eff0", ["full", "plain-zero", "bell-zero"])
    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    @pytest.mark.parametrize("points", [2, 11, 2000])
    @pytest.mark.parametrize("xi", [0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("n_levels", [1, 3, 12])
    def test_system_observables_match_rebuilt_states(self, n_levels, xi, points,
                                                     alpha, eff0):
        # points on both sides of N (N = 1 is always T >= N), and at 2000 over
        # several readout chunks of 2**14 // w times for every w = 2N, 3N at
        # N = 12; alpha = 0 leaves only pairs on their own
        p = params(n_levels=n_levels, xi=xi, alpha=alpha, delta_eps=2.0)
        h = build_hamiltonian(p, sample_couplings(p))
        times = np.linspace(0.0, 30.0, points)
        vals = evolve_exact(h, self.EFF0[eff0], times, SYSTEM_OBSERVABLES)
        expected = self._system(reduced_from_sector(exact_states(h, self.EFF0[eff0], times)))
        assert vals.shape == (points, 4)
        assert np.abs(vals - expected).max() <= 1e-13

    @pytest.mark.parametrize("eff0", ["full", "plain-zero", "bell-zero"])
    @pytest.mark.parametrize("points", [2, 40])
    @pytest.mark.parametrize("xi", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("n_levels", [1, 3, 12])
    def test_system_observables_match_dense_reference(self, monkeypatch, n_levels, xi,
                                                      points, eff0):
        # the same values from the per-time dense rho(t); with a 2**7-entry
        # buffer each fused product and readout takes several panels
        monkeypatch.setattr(ecps.exact, "_CHUNK", 2 ** 7)
        p = params(n_levels=n_levels, xi=xi, alpha=0.3, delta_eps=2.0)
        h = build_hamiltonian(p, sample_couplings(p))
        times = np.linspace(0.0, 30.0, points)
        vals = evolve_exact(h, self.EFF0[eff0], times, SYSTEM_OBSERVABLES)
        s, _ = evolve_exact_dense(h, embed_level_uniform(self.EFF0[eff0], n_levels), times, ())
        assert np.abs(vals - self._system(s)).max() <= 1e-12

    @pytest.mark.parametrize("eff0", ["full", "bell-zero"])
    @pytest.mark.parametrize("points", [5, 40])
    @pytest.mark.parametrize("xi", [0.0, 0.5, 1.0])
    def test_blocks_wider_than_the_buffer_bound(self, monkeypatch, xi, points, eff0):
        # with a 2**3-entry bound every block at N = 12 (N, 2N and 3N wide)
        # is wider than it: the buffer still holds one row of the widest
        monkeypatch.setattr(ecps.exact, "_CHUNK", 2 ** 3)
        p = params(n_levels=12, xi=xi, alpha=0.3, delta_eps=2.0)
        h = build_hamiltonian(p, sample_couplings(p))
        times = np.linspace(0.0, 30.0, points)
        vals = evolve_exact(h, self.EFF0[eff0], times, SYSTEM_OBSERVABLES)
        s, _ = evolve_exact_dense(h, embed_level_uniform(self.EFF0[eff0], 12), times, ())
        assert np.abs(vals - self._system(s)).max() <= 1e-12

    @pytest.mark.parametrize("points", [5, 40])
    @pytest.mark.parametrize("xi", [0.0, 0.5, 1.0])
    def test_odd_number_of_observables(self, xi, points):
        # with F odd the last observable weighing a block has its own readout
        p = params(n_levels=12, xi=xi, alpha=0.3)
        h = build_hamiltonian(p, sample_couplings(p))
        eff0, times = self.EFF0["full"], np.linspace(0.0, 30.0, points)
        states = exact_states(h, eff0, times)
        five = np.concatenate([SYSTEM_OBSERVABLES, [np.outer(PHI_PLUS, PHI_PLUS)]])
        for obs in (five[:1], five[1:2], five[:3], five[2:], five):
            vals = evolve_exact(h, eff0, times, obs)
            assert vals.shape == (points, len(obs))
            assert np.abs(vals - np.einsum('fcr,trc->tf', obs, states).real).max() <= 1e-13


class TestEigenbasisReadout:
    """evolve_exact against the per-time dense reconstruction of rho(t)."""

    THETAS = (0.0, 0.3, PI4)
    ENVS = [("branch_projector", 0.4, 1), "plus_projector", "maximally_mixed"]
    SYS = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])

    def _check(self, p, env, times):
        h, rho0 = setup(p, sys=self.SYS, env=env)
        states = exact_states(h, sector_variables(rho0), times)
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
            states = exact_states(h, eff0, times)
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
        states = exact_states(h, sector_variables(rho0), np.asarray(times))
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
            exact_states(h, sector_variables(rho0), [0.0, 1.0])

    @pytest.mark.parametrize("i, j", [(0, 1), (1, 0), (0, 2), (2, 4)])
    def test_rejects_one_sided_off_block_entry(self, i, j):
        # at xi = 0 and N = 3, indices 0, 2, 4 are the singletons |0,n,1>
        # (n = 1, 2, 3) and 1 = |0,1,2> lies in the 2N block
        p = params(n_levels=3, xi=0.0)
        h, rho0 = setup(p)
        assert h[i, j] == 0 and h[j, i] == 0
        h[i, j] = 1e-3
        with pytest.raises(ValueError):
            exact_states(h, sector_variables(rho0), [0.0, 1.0])

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
            exact_states(h, eff0, [0.0, 1.0])


class TestMemory:
    """The traced peak of evolve_exact with ``SYSTEM_OBSERVABLES``, the CLI's
    call, in units of h.nbytes. At every T, rho_e and each readout's Gram
    block are one fused product each, formed a panel of columns at a time,
    so no K_rc is formed and a block pair holds rho_e and one Gram block.
    Times are read out in fixed-size chunks, so only a block's phases and the
    (T, F) output grow with T. A block's phases and rows go after its last
    block pair, the Bell frame W h W is built in one array, and a temporary h
    is freed before the eigendecompositions. Cases: N = 120 at xi = 0, 1 and
    0.5 with two times (T < N), and N = 60 at xi = 0.5, 0 and 1 with 400
    times (T >= N), across two blocks and within one."""

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
                vals = evolve_exact(h, self.EFF0, times, SYSTEM_OBSERVABLES)
            else:   # as the CLI passes it, the build counted in the peak
                vals = evolve_exact(build_hamiltonian(p, cpl), self.EFF0, times,
                                    SYSTEM_OBSERVABLES)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / h.nbytes, calls, vals

    # the one block that needs eigh: 2N at xi = 0 and 1, the 3N Bell-frame
    # block at 0 < xi < 1
    @pytest.mark.parametrize("n_levels, xi, points, held, bound, block", [
        (120, 0.0, 2, True, 1.8, 240), (120, 0.0, 2, False, 2.0, 240),
        (120, 1.0, 2, True, 1.8, 240), (120, 1.0, 2, False, 2.7, 240),
        (120, 0.5, 2, True, 2.3, 360), (120, 0.5, 2, False, 3.3, 360),
        (60, 0.5, 400, True, 3.9, 180), (60, 0.5, 400, False, 3.9, 180),
        (60, 0.0, 400, True, 2.8, 120), (60, 0.0, 400, False, 2.8, 120),
        (60, 1.0, 400, True, 2.8, 120), (60, 1.0, 400, False, 2.8, 120)],
        ids=["held", "temporary", "n120-xi1-held", "n120-xi1-temporary",
             "n120-xi0.5-held", "n120-xi0.5-temporary",
             "n60-xi0.5-held", "n60-xi0.5-temporary",
             "n60-xi0-held", "n60-xi0-temporary",
             "n60-xi1-held", "n60-xi1-temporary"])
    def test_peak(self, monkeypatch, n_levels, xi, points, held, bound, block):
        p = replace(self.P, n_levels=n_levels, xi=xi)
        times = np.linspace(0.0, self.TIMES[-1], points)
        peak, calls, _ = self._peak(monkeypatch, p, held, times)
        assert calls == [block]
        assert peak <= bound

    def test_readout_does_not_grow_with_times(self, monkeypatch):
        # 400 more times may add the 3N block's phases and the (T, 4) output,
        # (3N * 16 + 4 * 8) B a time: 1.25 h.nbytes at N = 60
        p = replace(self.P, n_levels=60, xi=0.5)
        short, long = (self._peak(monkeypatch, p, True, np.linspace(0.0, self.TIMES[-1], t))[0]
                       for t in (400, 800))
        assert long - short <= 1.45

    @pytest.mark.parametrize("held, bound", [(True, 0.5), (False, 1.5)],
                             ids=["held", "temporary"])
    def test_decoupled_pairs_take_no_eigh(self, monkeypatch, held, bound):
        # at alpha = 0 every pair is on its own, so each Gram block is an
        # N x N identity, and the level-uniform state does not move
        peak, calls, vals = self._peak(monkeypatch, replace(self.P, alpha=0.0), held)
        assert calls == []
        assert peak <= bound
        expected = np.einsum('fcr,rc->f', SYSTEM_OBSERVABLES, self.EFF0).real
        assert np.abs(vals - expected).max() <= 1e-15


class TestEnsembleAverage:
    @staticmethod
    def _runner(env=("branch_projector", 0.0, 1), times=np.linspace(0, 10, 5)):
        def run_one(p):
            h, rho0 = setup(p, env=env)
            return exact_states(h, sector_variables(rho0), times)
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
            states = exact_states(h, sector_variables(rho0), np.array([0.0, t_final]))
            finals.append(reduced_from_sector(states)[-1, 0, 0].real)
        assert np.std(finals, ddof=1) <= 0.03
