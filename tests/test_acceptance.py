"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest -s tests/test_acceptance.py`` to see them).

Criteria 3-6 validate the solvers against exact composite dynamics and
closed-form limits; criterion 7 checks the paper's ECPS claim against the
best single projector. Criteria 1 and 2c check the projected generator and its
remainder Delta against independent oracles: criterion 1 against the
closed-form rate tables, criterion 2c against the Choi spectrum of Delta built
from the exact coupling average of the second-order TCL generator
(``oracles.tcl2_wick_generator``, Isserlis/Wick contraction at finite N and t).
The tables were corrected against that oracle: two tabulated lines
(d(p3 + p0) at theta = 0, d D01 at pi/4) and the extension to complex states
were wrong, and the generator was right.
"""
import time

import numpy as np
import pytest

from ecps import (ModelParams, apply_superop, build_hamiltonian, choi_matrix,
                  delta_superop, ecps_evolve, effective_generator_full,
                  ensemble_average, evolve_exact, initial_state,
                  projector_superop, sample_couplings, scan_delta,
                  sector_variables, singular_values, solve_tcl, steady_state,
                  tcl_generator, reduced_from_sector)
from ecps.config import environment_state
from oracles import (choi_oracle, conserved_charge, rate_table_generator,
                     rk4_von_neumann, sector_projector, tcl2_wick_generator,
                     wick_scalar)

PI4 = np.pi / 4


def delta(theta, xi, lam=1.0):
    """Delta at one grid point, built from P_theta and G(xi, lam)."""
    return delta_superop(projector_superop(theta), effective_generator_full(xi, lam))


def report(criterion, ok, detail=""):
    print(f"\nACCEPTANCE criterion {criterion}: {'PASS' if ok else 'FAIL'}"
          + (f" -- {detail}" if detail else ""))


def test_criterion_1_rate_table_equality():
    start = time.time()
    failures = []
    for theta in (0.0, PI4):
        for xi in (0.0, 0.25, 0.5, 0.75, 1.0):
            dev = np.abs(tcl_generator(theta, xi, 1.0)
                         - rate_table_generator(theta, xi, 1.0)).max()
            if dev > 1e-12:
                failures.append((theta, xi, dev))
    elapsed = time.time() - start
    detail = f"runtime {elapsed:.2f}s; " + (
        "all 10 grid points match" if not failures else
        f"{len(failures)}/10 grid points deviate, e.g. " + ", ".join(
            f"(theta={th:.3f}, xi={xi:.2f}): {d:.3e}" for th, xi, d in failures[:4]))
    report(1, not failures and elapsed < 1.0, detail)
    assert elapsed < 1.0
    assert not failures, (
        "projected generator deviates from the tabulated rates at:\n" + "\n".join(
            f"  theta={th:.4f} xi={xi:.2f}: max|diff| = {d:.6e}"
            for th, xi, d in failures))


def test_criterion_2_projector_quality_scan():
    start = time.time()
    grid = np.linspace(0.0, PI4, 64)
    # (a) matched pairs give an exactly capturable generator
    sv_a0 = singular_values(choi_matrix(delta(0.0, 0.0)))
    sv_a1 = singular_values(choi_matrix(delta(PI4, 1.0)))
    clause_a = sv_a0.max() <= 1e-10 and sv_a1.max() <= 1e-10
    # (b) mixed interaction: no projector captures the generator
    floor = scan_delta([0.5], grid, 1.0)[0, :, 0].min()
    clause_b = floor > 1e-3
    # (c) Choi spectrum of Delta at the reference angles equals that of
    # P K2(t) (I - P) / g(t) from the exact Wick-contraction oracle
    g = wick_scalar(3, 2.0, 3.7, 0.1).real
    k2 = tcl2_wick_generator(0.5, 3, 2.0, 3.7, 0.1) / g
    counts, sv_dev = {}, {}
    for theta in (0.0, PI4):
        sv = singular_values(choi_matrix(delta(theta, 0.5)))
        p = sector_projector(theta)
        sv_ref = np.linalg.svd(choi_oracle(p @ k2 @ (np.eye(16) - p)),
                               compute_uv=False)
        counts[theta] = (int((sv > 1e-10).sum()), int((sv_ref > 1e-10).sum()))
        sv_dev[theta] = float(np.abs(sv - sv_ref).max())
    clause_c = (all(c == r for c, r in counts.values())
                and max(sv_dev.values()) <= 1e-12)
    elapsed = time.time() - start
    report(2, clause_a and clause_b and clause_c and elapsed < 5.0,
           f"runtime {elapsed:.2f}s; matched-zero max sv = "
           f"{max(sv_a0.max(), sv_a1.max()):.2e}; xi=0.5 floor = {floor:.3e}; "
           f"sv counts > 1e-10 (code, oracle) at (0, pi/4): {counts[0.0]}, "
           f"{counts[PI4]}; max sv deviation {max(sv_dev.values()):.1e}")
    assert elapsed < 5.0
    assert clause_a, "matched projector/interaction pairs must give Delta = 0"
    assert clause_b, f"xi=0.5 floor {floor:.3e} should exceed 1e-3"
    assert clause_c, (
        f"Choi spectrum of Delta differs from the Wick oracle's at the "
        f"reference angles: counts (code, oracle) = {counts}, "
        f"max singular-value deviation = {sv_dev}")


def _compare_run(params, sys0, env, thetas):
    lam = params.relaxation_rate
    times = np.linspace(0.0, 5.0 / lam, 400)
    h = build_hamiltonian(params, sample_couplings(params))
    eff0 = sector_variables(initial_state(sys0, environment_state(env), params))
    exact = evolve_exact(h, eff0, times)
    sols = {}
    for th in thetas:
        k = tcl_generator(th, params.xi, lam)
        projected = apply_superop(projector_superop(th), eff0)
        sols[th] = solve_tcl(k, projected, times, th)
    return exact, sols


def test_criterion_3_matched_projector_dynamics():
    # population discriminates at xi=0 with a tilted initial sector
    start = time.time()
    p = ModelParams(n_levels=60, delta_eps=0.5, alpha=5e-3, xi=0.0, seed=20260809)
    exact, sols = _compare_run(p, np.diag([1.0, 0.0]).astype(complex),
                               {"kind": "branch_projector",
                                "theta": float(np.arcsin(0.6)), "branch": 1},
                               (0.0, PI4))
    pop_exact = reduced_from_sector(exact)[:, 0, 0].real
    dev_matched = np.abs(reduced_from_sector(sols[0.0])[:, 0, 0].real - pop_exact).max()
    err_mismatched = abs(reduced_from_sector(sols[PI4])[-1, 0, 0].real - pop_exact[-1])
    elapsed_a = time.time() - start

    # coherence discriminates at xi=1 with a superposition initial state
    start_b = time.time()
    p1 = ModelParams(n_levels=60, delta_eps=0.5, alpha=5e-3, xi=1.0, seed=20260810)
    psi = np.array([0.6, 0.8])
    exact1, sols1 = _compare_run(p1, np.outer(psi, psi).astype(complex),
                                 {"kind": "branch_projector", "theta": 0.0, "branch": 1},
                                 (0.0, PI4))
    coh_exact = np.abs(reduced_from_sector(exact1)[:, 0, 1])
    dev_matched_1 = np.abs(np.abs(reduced_from_sector(sols1[PI4])[:, 0, 1])
                           - coh_exact).max()
    err_mismatched_1 = abs(abs(reduced_from_sector(sols1[0.0])[-1, 0, 1]) - coh_exact[-1])
    elapsed_b = time.time() - start_b

    ok = (dev_matched <= 0.05 and err_mismatched >= 0.1
          and dev_matched_1 <= 0.05 and err_mismatched_1 >= 0.1
          and elapsed_a < 60.0 and elapsed_b < 60.0)
    report(3, ok,
           f"runtimes {elapsed_a:.1f}s/{elapsed_b:.1f}s; population case: "
           f"matched dev {dev_matched:.3f} (<=0.05), mismatched steady err "
           f"{err_mismatched:.3f} (>=0.1); coherence case: matched dev "
           f"{dev_matched_1:.3f}, mismatched err {err_mismatched_1:.3f}")
    assert elapsed_a < 60.0 and elapsed_b < 60.0
    assert dev_matched <= 0.05
    assert err_mismatched >= 0.1
    assert dev_matched_1 <= 0.05
    assert err_mismatched_1 >= 0.1


def test_criterion_4_steady_state_experiment():
    start = time.time()
    p1_weight, p_exc, coh = 0.5, 0.9, 0.8
    params = ModelParams(n_levels=60, delta_eps=0.5, alpha=5e-3, xi=0.0, seed=4242)
    lam = params.relaxation_rate
    t_inf = 50.0 / lam
    rho_pop = np.diag([p_exc, 1 - p_exc]).astype(complex)
    rho_coh = 0.5 * np.array([[1.0, coh], [coh, 1.0]], dtype=complex)
    mixed = environment_state({"kind": "maximally_mixed"})
    plus = environment_state({"kind": "plus_projector"})

    def run_component1(p):
        h = build_hamiltonian(p, sample_couplings(p))
        eff0 = sector_variables(initial_state(rho_pop, mixed, p))
        return evolve_exact(h, eff0, np.array([0.0, t_inf]))

    exact_c1 = ensemble_average(params, 4, run_component1)
    pops_c1 = np.diag(reduced_from_sector(exact_c1[-1])).real
    closed_form = np.array([(1 + 2 * p_exc) / 4, (3 - 2 * p_exc) / 4])
    dev_c1 = np.abs(pops_c1 - closed_form).max()

    def run_mixture(p):
        h = build_hamiltonian(p, sample_couplings(p))
        rho0 = (p1_weight * initial_state(rho_pop, mixed, p)
                + (1 - p1_weight) * initial_state(rho_coh, plus, p))
        return evolve_exact(h, sector_variables(rho0), np.array([0.0, t_inf]))

    exact_mix = ensemble_average(params, 4, run_mixture)
    pops_exact = np.diag(reduced_from_sector(exact_mix[-1])).real

    eff_pop = sector_variables(initial_state(rho_pop, mixed, params))
    eff_coh = sector_variables(initial_state(rho_coh, plus, params))
    k4 = tcl_generator(PI4, 0.0, lam)
    full = p1_weight * eff_pop + (1 - p1_weight) * eff_coh
    cps = reduced_from_sector(
        steady_state(k4, apply_superop(projector_superop(PI4), full), PI4))
    ecps_sol = ecps_evolve([(p1_weight, eff_pop, 0.0), (1 - p1_weight, eff_coh, PI4)],
                           0.0, lam, np.array([0.0, t_inf]))
    ecps_pops = np.diag(reduced_from_sector(ecps_sol[-1])).real

    err_cps = np.abs(np.diag(cps).real - pops_exact).max()
    err_ecps = np.abs(ecps_pops - pops_exact).max()
    elapsed = time.time() - start
    ok = dev_c1 <= 0.05 and err_ecps <= err_cps / 3.0 and elapsed < 120.0
    report(4, ok,
           f"runtime {elapsed:.1f}s; component-1 exact populations "
           f"{np.round(pops_c1, 4)} vs (0.7, 0.3), dev {dev_c1:.4f} (<=0.05); "
           f"mixture: ECPS err {err_ecps:.4f} vs CPS err {err_cps:.4f}")
    assert elapsed < 120.0
    assert dev_c1 <= 0.05
    assert err_cps >= 0.1 - 1e-9  # the single-projector prediction is off
    assert err_ecps <= err_cps / 3.0


def test_criterion_5_property_suites():
    start = time.time()
    rng = np.random.default_rng(99)
    checks = {}

    # projector family: idempotent, trace and hermiticity preserving
    ok = True
    for theta in (0.0, np.pi / 8, PI4):
        p = projector_superop(theta)
        ok &= np.abs(p @ p - p).max() <= 1e-12
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = m + m.conj().T
        out = apply_superop(p, m)
        ok &= abs(np.trace(out) - np.trace(m)) <= 1e-12
        ok &= np.abs(out - out.conj().T).max() <= 1e-12
    checks["projector family"] = ok

    # generators: trace annihilation, hermiticity preservation, stable spectra,
    # and Delta annihilates every relevant state
    ok = True
    for xi in (0.0, 0.5, 1.0):
        g = effective_generator_full(xi, 1.0)
        for a in range(4):
            for b in range(4):
                e = np.zeros((4, 4), complex)
                e[a, b] = 1.0
                ok &= abs(np.trace(apply_superop(g, e))) <= 1e-12
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = m + m.conj().T
        out = apply_superop(g, m)
        ok &= np.abs(out - out.conj().T).max() <= 1e-12
        for theta in (0.0, 0.3, PI4):
            k = tcl_generator(theta, xi, 1.0)
            ok &= np.linalg.eigvals(k).real.max() <= 1e-12
            ok &= np.abs(delta_superop(projector_superop(theta), g)
                         @ projector_superop(theta)).max() <= 1e-12
    checks["generator properties"] = ok

    # exact-evolution conservation laws at small size
    p = ModelParams(n_levels=4, delta_eps=0.5, alpha=0.1, xi=0.0, seed=7)
    h = build_hamiltonian(p, sample_couplings(p))
    rho0 = initial_state(np.diag([1.0, 0.0]).astype(complex),
                         environment_state({"kind": "branch_projector", "theta": 0.4}), p)
    charge = conserved_charge(p.n_levels)
    from ecps import eig_hermitian
    w, v = eig_hermitian(h)
    rho_e = v.conj().T @ rho0 @ v
    ok = True
    for t in np.linspace(0, 40, 9):
        ph = np.exp(-1j * w * t)
        rho_t = v @ (np.outer(ph, ph.conj()) * rho_e) @ v.conj().T
        ok &= abs(np.trace(rho_t) - 1.0) <= 1e-9
        ok &= abs(np.trace(rho_t @ rho_t).real - np.trace(rho0 @ rho0).real) <= 1e-9
        ok &= abs(np.trace(h @ rho_t).real - np.trace(h @ rho0).real) <= 1e-9
        ok &= abs(np.trace(charge @ rho_t).real
                  - np.trace(charge @ rho0).real) <= 1e-9
    checks["exact conservation laws"] = ok

    # integrator cross-check at N=2
    p2 = ModelParams(n_levels=2, delta_eps=0.5, alpha=0.2, xi=0.3, seed=5)
    h2 = build_hamiltonian(p2, sample_couplings(p2))
    branch_1 = environment_state({"kind": "branch_projector", "theta": 0.0})
    rho2 = initial_state(np.diag([1.0, 0.0]).astype(complex), branch_1, p2)
    states = evolve_exact(h2, sector_variables(rho2), np.array([0.0, 2.0]))
    rho_rk4 = rk4_von_neumann(h2, rho2, 2.0, 1e-3)
    checks["rk4 equivalence"] = np.abs(
        states[-1] - sector_variables(rho_rk4)).max() <= 1e-6

    # choi round trip
    s = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    c = choi_matrix(s).reshape(4, 4, 4, 4)
    ok = True
    for _ in range(3):
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        ok &= np.abs(np.einsum('ab,iajb->ij', x, c)
                     - apply_superop(s, x)).max() <= 1e-12
    checks["choi round trip"] = ok

    # coupling moments
    pm = ModelParams(n_levels=100, delta_eps=0.5, alpha=1.0, xi=0.5, seed=0)
    entries = np.concatenate([sample_couplings(pm.with_seed(5000 + s))[0].ravel()
                              for s in range(10)])
    checks["coupling moments"] = (abs(np.mean(np.abs(entries) ** 2) - 1.0) <= 0.02
                                  and abs(np.mean(entries * entries)) <= 0.02)

    elapsed = time.time() - start
    ok_all = all(checks.values())
    report(5, ok_all, f"runtime {elapsed:.1f}s; " + ", ".join(
        f"{name}: {'ok' if good else 'FAIL'}" for name, good in checks.items()))
    assert ok_all, checks


def test_criterion_6_effective_space_faithfulness():
    start = time.time()
    params = ModelParams(n_levels=6, delta_eps=2.0, alpha=0.02, xi=0.5, seed=31415)
    rng = np.random.default_rng(8)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    x = m @ m.conj().T
    x /= np.trace(x).real

    predicted = apply_superop(
        effective_generator_full(params.xi, params.relaxation_rate), x)

    t1, t2 = 4.0, 8.0
    draws = 300
    estimates = np.empty((draws, 4, 4), dtype=complex)
    for s in range(draws):
        p = params.with_seed(100000 + s)
        h = build_hamiltonian(p, sample_couplings(p))
        # x is propagated as the level-uniform state x (x) I_N / N
        states = evolve_exact(h, x, np.array([0.0, t1, t2]))
        estimates[s] = (states[2] - states[1]) / (t2 - t1)
    mean = estimates.mean(axis=0)
    se = estimates.std(axis=0, ddof=1) / np.sqrt(draws)
    dev = np.abs(mean - predicted)
    n_se = dev / np.maximum(se, 1e-300)
    elapsed = time.time() - start
    ok = n_se.max() <= 3.0 and elapsed < 120.0
    report(6, ok,
           f"runtime {elapsed:.1f}s; {draws} draws; max component deviation "
           f"= {n_se.max():.2f} standard errors (<= 3); "
           f"scale check <pred, mean>/<pred, pred> = "
           f"{np.vdot(predicted, mean).real / np.vdot(predicted, predicted).real:.3f}")
    assert elapsed < 120.0
    assert n_se.max() <= 3.0, (
        f"component deviations in SE units:\n{np.round(n_se, 2)}")


def test_criterion_7_ecps_tracks_what_each_single_projector_misses():
    # compare_population's settings at xi = 0.5 and R = 16 realizations, with
    # steady_state.yaml's half/half decomposition: diag(0.9, 0.1) (x) I/2
    # under theta = 0 and the coherent state (x) plus projector under pi/4.
    # Measured: ECPS 0.0057 (rho00) and 0.0056 (|rho01|); theta = 0 misses
    # |rho01| by 0.0865; theta = pi/4 misses rho00 at t_max by 0.0250.
    start = time.time()
    params = ModelParams(n_levels=60, delta_eps=0.5, alpha=5e-3, xi=0.5, seed=20260809)
    lam = params.relaxation_rate
    times = np.linspace(0.0, 5.0 / lam, 400)
    pieces = [(0.5, np.diag([0.9, 0.1]).astype(complex), "maximally_mixed", 0.0),
              (0.5, 0.5 * np.array([[1.0, 0.8], [0.8, 1.0]], dtype=complex),
               "plus_projector", PI4)]
    effs = [(w, sector_variables(initial_state(s, environment_state({"kind": env}),
                                               params)), th)
            for w, s, env, th in pieces]
    eff0 = sum(w * eff for w, eff, _ in effs)

    def run_one(p):
        return evolve_exact(build_hamiltonian(p, sample_couplings(p)), eff0, times)

    exact = reduced_from_sector(ensemble_average(params, 16, run_one))
    curves = {th: reduced_from_sector(solve_tcl(
        tcl_generator(th, params.xi, lam), apply_superop(projector_superop(th), eff0),
        times, th)) for th in (0.0, PI4)}
    curves["ecps"] = reduced_from_sector(ecps_evolve(effs, params.xi, lam, times))

    def misses(s):
        """|delta rho00| and |delta |rho01|| against the exact curve, per time."""
        return (np.abs(s[:, 0, 0].real - exact[:, 0, 0].real),
                np.abs(np.abs(s[:, 0, 1]) - np.abs(exact[:, 0, 1])))

    ecps_pop, ecps_coh = (d.max() for d in misses(curves["ecps"]))
    zero_coh = misses(curves[0.0])[1].max()
    pi4_pop_end = misses(curves[PI4])[0][-1]
    elapsed = time.time() - start
    ok = (ecps_pop <= 0.012 and ecps_coh <= 0.012 and zero_coh > 0.04
          and pi4_pop_end > 0.012 and elapsed < 60.0)
    report(7, ok,
           f"runtime {elapsed:.1f}s; ECPS max dev rho00 {ecps_pop:.4f}, |rho01| "
           f"{ecps_coh:.4f} (<= 0.012); theta=0 misses |rho01| by {zero_coh:.4f} "
           f"(> 0.04); theta=pi/4 misses rho00(t_max) by {pi4_pop_end:.4f} (> 0.012)")
    assert elapsed < 60.0
    assert ecps_pop <= 0.012 and ecps_coh <= 0.012
    assert zero_coh > 0.04
    assert pi4_pop_end > 0.012
