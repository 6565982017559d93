import numpy as np
import pytest
from scipy.integrate import solve_ivp

from ecps import (DivergenceError, HomogeneityError, apply_superop,
                  ecps_evolve, projector_superop, solve_tcl, steady_state,
                  tcl_generator, vec)
from ecps.exact import reduced_from_sector

PI4 = np.pi / 4


def project(state, theta):
    return apply_superop(projector_superop(theta), state)


def sector_unit(m, s):
    x = np.zeros((4, 4), dtype=complex)
    x[2 * m + s, 2 * m + s] = 1.0
    return x


class TestSolveTcl:
    def test_zero_generator_constant(self):
        rho0 = np.diag([0.2, 0.3, 0.4, 0.1]).astype(complex)
        sol = solve_tcl(np.zeros((16, 16)), rho0, np.linspace(0, 3, 5), theta=0.0)
        assert np.abs(sol - rho0).max() <= 1e-14

    def test_rejects_unprojected_state(self):
        rho0 = np.kron(np.diag([1.0, 0.0]), np.ones((2, 2)) / 2).astype(complex)
        k = tcl_generator(0.0, 0.0, 1.0)
        with pytest.raises(HomogeneityError):
            solve_tcl(k, rho0, np.linspace(0, 1, 3), theta=0.0)

    def test_branch_channel_conserved_combos(self):
        # theta=0, xi=0, start in (sys0, sec1): coherences stay zero and the
        # (sys1,sec2)+(sys0,sec1) population pair is frozen
        lam = 1.0
        k = tcl_generator(0.0, 0.0, lam)
        rho0 = sector_unit(0, 0)
        sol = solve_tcl(k, rho0, np.linspace(0, 6, 13), theta=0.0)
        offdiag = sol - np.einsum(
            'tij,ij->tij', sol, np.eye(4))
        assert np.abs(offdiag).max() <= 1e-12
        pair = sol[:, 0, 0] + sol[:, 3, 3]
        assert np.abs(pair - pair[0]).max() <= 1e-12
        assert np.abs(np.einsum('tii->t', sol) - 1.0).max() <= 1e-12

    def test_matches_adaptive_integrator(self):
        lam = 0.9
        k = tcl_generator(0.3, 0.6, lam)
        coherent = np.array([[0.4, 0.0, 0.05 + 0.04j, 0.0],
                             [0.0, 0.1, 0.0, 0.02 - 0.03j],
                             [0.05 - 0.04j, 0.0, 0.2, 0.0],
                             [0.0, 0.02 + 0.03j, 0.0, 0.3]])
        times = np.linspace(0, 8, 9)
        # a complex state tells each state from its transpose
        for state in (np.diag([0.4, 0.1, 0.2, 0.3]), coherent):
            rho0 = project(state.astype(complex), 0.3)
            sol = solve_tcl(k, rho0, times, theta=0.3)
            ivp = solve_ivp(lambda t, y: k @ y, (0, times[-1]), vec(rho0),
                            t_eval=times, rtol=1e-11, atol=1e-13)
            assert ivp.success
            for i in range(len(times)):
                assert np.abs(vec(sol[i]) - ivp.y[:, i]).max() <= 1e-8

    @pytest.mark.parametrize("times", [[0.0, 0.1, 0.5, 2.0], [0.5, 1.0, 1.5],
                                       [0.0, -1.0, -2.0], [0.0, 0.0, 0.0], [],
                                       [[0.0, 1.0]], [0.0, np.inf],
                                       [0.0, 1.0, np.inf]])
    def test_rejects_other_than_uniform_grid_from_zero(self, times):
        k = tcl_generator(0.0, 0.2, 1.0)
        rho0 = project(np.diag([0.4, 0.1, 0.2, 0.3]).astype(complex), 0.0)
        with pytest.raises(ValueError, match="uniform grid"):
            solve_tcl(k, rho0, times, theta=0.0)

    @pytest.mark.parametrize("times", [np.linspace(0, 265.25823848649225, 8000),
                                       np.linspace(0, 10.0, 100000)])
    def test_accepts_fine_linspace_grids(self, times):
        # linspace steps vary by about eps * span, more than 1e-12 of one step
        rho0 = project(np.diag([0.4, 0.1, 0.2, 0.3]).astype(complex), 0.0)
        sol = solve_tcl(tcl_generator(0.0, 0.2, 1.0), rho0, times, theta=0.0)
        assert sol.shape == (times.size, 4, 4)
        assert abs(np.trace(sol[-1]) - 1.0) <= 1e-9

    def test_single_time(self):
        rho0 = project(np.diag([0.4, 0.1, 0.2, 0.3]).astype(complex), 0.0)
        sol = solve_tcl(tcl_generator(0.0, 0.2, 1.0), rho0, [0.0], theta=0.0)
        assert sol.shape == (1, 4, 4)
        assert np.abs(sol[0] - rho0).max() == 0.0

    def test_trace_and_hermiticity_along_solution(self):
        rng = np.random.default_rng(12)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho0 = project((m @ m.conj().T) / np.trace(m @ m.conj().T), PI4)
        k = tcl_generator(PI4, 0.4, 1.0)
        sol = solve_tcl(k, rho0, np.linspace(0, 10, 11), theta=PI4)
        for s in sol:
            assert abs(np.trace(s) - np.trace(rho0)) <= 1e-12
            assert np.abs(s - s.conj().T).max() <= 1e-12


class TestEcpsEvolve:
    def test_single_component_matches_solve_tcl(self):
        lam = 1.0
        rho0 = sector_unit(0, 0)
        combined = ecps_evolve([(1.0, rho0, 0.0)], 0.0, lam, np.linspace(0, 4, 5))
        k = tcl_generator(0.0, 0.0, lam)
        direct = solve_tcl(k, rho0, np.linspace(0, 4, 5), theta=0.0)
        assert np.abs(combined - direct).max() <= 1e-14

    def test_equal_split_merges(self):
        rho0 = sector_unit(0, 0)
        times = np.linspace(0, 4, 5)
        split = ecps_evolve([(0.5, rho0, 0.0), (0.5, rho0, 0.0)], 0.0, 1.0, times)
        merged = ecps_evolve([(1.0, rho0, 0.0)], 0.0, 1.0, times)
        assert np.abs(split - merged).max() <= 1e-14

    def test_linearity_in_components(self):
        times = np.linspace(0, 5, 6)
        a = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)       # sys0 x mixed sector
        b = project(np.kron(np.eye(2) / 2, np.ones((2, 2)) / 2).astype(complex), PI4)
        mix = ecps_evolve([(0.3, a, 0.0), (0.7, b, PI4)], 0.5, 1.0, times)
        sol_a = ecps_evolve([(1.0, a, 0.0)], 0.5, 1.0, times)
        sol_b = ecps_evolve([(1.0, b, PI4)], 0.5, 1.0, times)
        lin = 0.3 * reduced_from_sector(sol_a) + 0.7 * reduced_from_sector(sol_b)
        assert np.abs(reduced_from_sector(mix) - lin).max() <= 1e-12

    def test_mixed_decomposition_runs(self):
        # population component under theta=0, coherent component under pi/4
        p_weight, p_exc = 0.5, 0.9
        comp1 = (p_weight,
                 np.kron(np.diag([p_exc, 1 - p_exc]), np.eye(2) / 2).astype(complex), 0.0)
        plus = np.ones((2, 2)) / 2
        comp2 = (1 - p_weight,
                 np.kron(0.5 * np.array([[1, 0.8], [0.8, 1]]), plus).astype(complex), PI4)
        sol = ecps_evolve([comp1, comp2], 0.0, 1.0, np.linspace(0, 60, 7))
        assert abs(np.trace(sol[-1]) - 1.0) <= 1e-12
        pops = np.diag(reduced_from_sector(sol[-1])).real
        assert np.allclose(pops, [0.6, 0.4], atol=1e-6)

    def test_names_offending_component(self):
        good = (0.5, sector_unit(0, 0), 0.0)
        bad_state = np.kron(np.eye(2) / 2, np.array([[0.5, 0.5], [0.5, 0.5]])).astype(complex)
        bad = (0.5, bad_state, 0.0)     # plus-sector state, wrong theta
        with pytest.raises(HomogeneityError, match="component 1"):
            ecps_evolve([good, bad], 0.0, 1.0, np.linspace(0, 1, 3))

    def test_validates_weights(self):
        comp = (0.6, sector_unit(0, 0), 0.0)
        with pytest.raises(ValueError):
            ecps_evolve([comp], 0.0, 1.0, np.linspace(0, 1, 3))
        with pytest.raises(ValueError):
            ecps_evolve([(-0.2, sector_unit(0, 0), 0.0), (1.2, sector_unit(0, 0), 0.0)],
                        0.0, 1.0, np.linspace(0, 1, 3))


class TestSteadyState:
    def test_population_component(self):
        # theta=0, xi=0: diag(P, 1-P) x I/2 settles to (1+2P, 3-2P)/4
        for p_exc in (0.9, 0.6, 0.5):
            rho0 = np.kron(np.diag([p_exc, 1 - p_exc]), np.eye(2) / 2).astype(complex)
            k = tcl_generator(0.0, 0.0, 1.0)
            ss = steady_state(k, rho0, theta=0.0)
            reduced = reduced_from_sector(ss)
            expected = np.diag([(1 + 2 * p_exc) / 4, (3 - 2 * p_exc) / 4])
            assert np.abs(reduced - expected).max() <= 1e-12

    def test_rotated_channel_flattens_populations(self):
        rng = np.random.default_rng(13)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho0 = project((m @ m.conj().T) / np.trace(m @ m.conj().T), PI4)
        k = tcl_generator(PI4, 1.0, 1.0)
        reduced = reduced_from_sector(steady_state(k, rho0, theta=PI4))
        assert np.allclose(np.diag(reduced).real, [0.5, 0.5], atol=1e-10)

    def test_zero_generator(self):
        rho0 = sector_unit(1, 0)
        ss = steady_state(np.zeros((16, 16)), rho0, theta=0.0)
        assert np.abs(ss - rho0).max() <= 1e-12

    @pytest.mark.parametrize("theta,xi", [(0.0, 0.0), (PI4, 1.0)])
    def test_agrees_with_long_time_solution(self, theta, xi):
        lam = 1.0
        k = tcl_generator(theta, xi, lam)
        rho0 = project(np.diag([0.4, 0.1, 0.3, 0.2]).astype(complex), theta)
        ss = steady_state(k, rho0, theta=theta)
        sol = solve_tcl(k, rho0, np.array([0.0, 50.0 / lam]), theta=theta)
        assert np.abs(sol[-1] - ss).max() <= 1e-6

    def test_agrees_with_long_time_solution_mixed(self):
        # mixed interactions have modes decaying as slowly as lam*xi^2/2, so
        # the comparison horizon follows the actual spectral gap
        lam, xi, theta = 1.0, 0.35, 0.0
        k = tcl_generator(theta, xi, lam)
        ev = np.linalg.eigvals(k)
        gap = -max(ev.real[np.abs(ev) > 1e-9])
        rho0 = project(np.diag([0.4, 0.1, 0.3, 0.2]).astype(complex), theta)
        ss = steady_state(k, rho0, theta=theta)
        sol = solve_tcl(k, rho0, np.array([0.0, 40.0 / gap]), theta=theta)
        assert np.abs(sol[-1] - ss).max() <= 1e-6

    def test_flags_divergence(self):
        k = 0.1 * np.eye(16)
        with pytest.raises(DivergenceError):
            steady_state(k, sector_unit(0, 0), theta=0.0)

    def test_independent_of_rate_scale(self):
        # every eigenvalue of K scales with lam, so the kernel must too
        rho0 = np.diag([0.45, 0.45, 0.05, 0.05]).astype(complex)
        expected = steady_state(tcl_generator(0.0, 0.5, 1.0), rho0, theta=0.0)
        assert abs(reduced_from_sector(expected)[0, 0] - 0.5) <= 1e-12
        for lam in (1e-3, 1e-8, 1e-10, 1e-12):
            ss = steady_state(tcl_generator(0.0, 0.5, lam), rho0, theta=0.0)
            assert np.abs(ss - expected).max() <= 1e-12

    @pytest.mark.parametrize("lam", [1.0, 1e-12])
    def test_rejects_non_hermitian_generator(self, lam):
        # a one-sided rate: not a projected generator, and its eigenvectors
        # are not orthonormal
        k = tcl_generator(0.0, 0.5, lam)
        k[0, 15] += 1e-3 * lam
        with pytest.raises(ValueError):
            steady_state(k, sector_unit(0, 0), theta=0.0)

    def test_flags_divergence_at_tiny_rates(self):
        lam = 1e-12
        k = tcl_generator(0.0, 0.5, lam) + lam * 1e-3 * np.eye(16)
        with pytest.raises(DivergenceError):
            steady_state(k, sector_unit(0, 0), theta=0.0)
