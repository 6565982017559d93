"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest -s tests/test_acceptance.py`` to see them).

Criteria 3-6 validate the solvers against exact composite dynamics and
closed-form limits; criterion 7 checks the paper's ECPS claim against the
best single projector, and criterion 8 checks that the Choi-scan diagnostic
predicts which single projector is the better one. Criterion 9 pins exp(G t)
of the unprojected generator as the theta-free reference: on the system
state, the theta = 0 curve gives its rho00, the pi/4 curve its rho01, and
ECPS with the shipped assignment all of it. Criteria 1 and 2c check
the projected generator and its remainder Delta against independent oracles:
criterion 1 against the closed-form rate tables, criterion 2c against the
Choi spectrum of Delta built from the exact coupling average of the
second-order TCL generator (``oracles.tcl2_wick_generator``, Isserlis/Wick
contraction at finite N and t).
The tables were corrected against that oracle: two tabulated lines
(d(p3 + p0) at theta = 0, d D01 at pi/4) and the extension to complex states
were wrong, and the generator was right.
"""
import time

import numpy as np
import pytest

from ecps import (STRUCTURAL_TOL, ModelParams, apply_superop, build_hamiltonian,
                  choi_matrix, delta_superop, ecps_evolve, effective_generator_full,
                  eig_hermitian, ensemble_average, initial_state,
                  projector_superop, sample_couplings, scan_delta,
                  sector_variables, singular_values, solve_tcl, steady_state,
                  tcl_generator, reduced_from_sector, unvec, vec)
from ecps.config import environment_state
from oracles import (choi_oracle, conserved_charge, rate_table_generator,
                     rk4_von_neumann, sector_projector, tcl2_wick_generator,
                     wick_scalar)
from test_exact import exact_states

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
    exact = exact_states(h, eff0, times)
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
        return exact_states(h, eff0, np.array([0.0, t_inf]))

    exact_c1 = ensemble_average(params, 4, run_component1)
    pops_c1 = np.diag(reduced_from_sector(exact_c1[-1])).real
    closed_form = np.array([(1 + 2 * p_exc) / 4, (3 - 2 * p_exc) / 4])
    dev_c1 = np.abs(pops_c1 - closed_form).max()

    def run_mixture(p):
        h = build_hamiltonian(p, sample_couplings(p))
        rho0 = (p1_weight * initial_state(rho_pop, mixed, p)
                + (1 - p1_weight) * initial_state(rho_coh, plus, p))
        return exact_states(h, sector_variables(rho0), np.array([0.0, t_inf]))

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
    states = exact_states(h2, sector_variables(rho2), np.array([0.0, 2.0]))
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
        states = exact_states(h, x, np.array([0.0, t1, t2]))
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


def _half_half_run(xi, n_realizations, points):
    """Criterion 7's setting at one xi: compare_population's model (N = 60,
    alpha = 0.005, seed 20260809) and steady_state.yaml's half/half
    decomposition, diag(0.9, 0.1) (x) I/2 under theta = 0 and the coherent
    state (x) plus projector under pi/4, on ``points`` times over 5/lambda.
    Returns the per-time misses (|delta rho00|, |delta |rho01||) of the
    theta = 0, theta = pi/4 and ECPS curves against the exact average."""
    params = ModelParams(n_levels=60, delta_eps=0.5, alpha=5e-3, xi=xi, seed=20260809)
    lam = params.relaxation_rate
    times = np.linspace(0.0, 5.0 / lam, points)
    pieces = [(0.5, np.diag([0.9, 0.1]).astype(complex), "maximally_mixed", 0.0),
              (0.5, 0.5 * np.array([[1.0, 0.8], [0.8, 1.0]], dtype=complex),
               "plus_projector", PI4)]
    effs = [(w, sector_variables(initial_state(s, environment_state({"kind": env}),
                                               params)), th)
            for w, s, env, th in pieces]
    eff0 = sum(w * eff for w, eff, _ in effs)

    def run_one(p):
        return exact_states(build_hamiltonian(p, sample_couplings(p)), eff0, times)

    exact = reduced_from_sector(ensemble_average(params, n_realizations, run_one))
    curves = {th: reduced_from_sector(solve_tcl(
        tcl_generator(th, xi, lam), apply_superop(projector_superop(th), eff0),
        times, th)) for th in (0.0, PI4)}
    curves["ecps"] = reduced_from_sector(ecps_evolve(effs, xi, lam, times))
    return {name: (np.abs(s[:, 0, 0].real - exact[:, 0, 0].real),
                   np.abs(np.abs(s[:, 0, 1]) - np.abs(exact[:, 0, 1])))
            for name, s in curves.items()}


def test_criterion_7_ecps_tracks_what_each_single_projector_misses():
    # xi = 0.5 and R = 16 realizations in _half_half_run's setting.
    # Measured: ECPS 0.0057 (rho00) and 0.0056 (|rho01|); theta = 0 misses
    # |rho01| by 0.0865; theta = pi/4 misses rho00 at t_max by 0.0250.
    start = time.time()
    misses = _half_half_run(0.5, 16, 400)
    ecps_pop, ecps_coh = (d.max() for d in misses["ecps"])
    zero_coh = misses[0.0][1].max()
    pi4_pop_end = misses[PI4][0][-1]
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


def test_criterion_8_choi_scan_predicts_the_better_projector():
    # _half_half_run at R = 8 and 200 times over seven xi; the bounds below
    # were fixed from this table before the test (max |delta rho00| /
    # max |delta |rho01||, sv1 of Choi(P_theta G (1 - P_theta)) at lambda = 1):
    #   xi    sv1(0)  sv1(pi/4)  theta = 0        theta = pi/4     ECPS
    #   0     0       0.5        0.0107 / 0.0160  0.0977 / 0.0160  0.0107 / 0.0160
    #   0.1   0.005   0.405      0.0091 / 0.0142  0.0930 / 0.0161  0.0091 / 0.0161
    #   0.25  0.031   0.281      0.0071 / 0.0160  0.0744 / 0.0154  0.0071 / 0.0154
    #   0.5   0.125   0.125      0.0052 / 0.0868  0.0239 / 0.0053  0.0052 / 0.0053
    #   0.75  0.281   0.031      0.0106 / 0.1829  0.0089 / 0.0013  0.0106 / 0.0013
    #   0.9   0.405   0.005      0.0121 / 0.2164  0.0120 / 0.0023  0.0121 / 0.0023
    #   1     0.5     0          0.0112 / 0.2238  0.0112 / 0.0028  0.0112 / 0.0028
    # Rule 1: where the two projectors' errors on an observable differ by more
    # than 3x and their sv1 differ (beyond rounding: at xi = 0.5 both are
    # 0.125), the smaller sv1 has the smaller error. Rule 2: ECPS is within
    # 0.002 of the better projector on both observables (the largest gaps:
    # 0.0019 on |rho01| at xi = 0.1, 0.0018 on rho00 at xi = 0.75).
    start = time.time()
    xis = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
    sv1 = scan_delta(xis, [0.0, PI4], 1.0)[:, :, 0]
    wrong, judged, ecps_gap = [], 0, 0.0
    for xi, (sv_zero, sv_pi4) in zip(xis, sv1):
        misses = _half_half_run(xi, 8, 200)
        for obs, name in enumerate(("rho00", "|rho01|")):
            zero, pi4, ecps = (misses[key][obs].max() for key in (0.0, PI4, "ecps"))
            ecps_gap = max(ecps_gap, ecps - min(zero, pi4))
            if max(zero, pi4) > 3 * min(zero, pi4) \
                    and abs(sv_zero - sv_pi4) > STRUCTURAL_TOL * max(sv_zero, sv_pi4):
                judged += 1
                if (sv_zero < sv_pi4) != (zero < pi4):
                    wrong.append(f"xi = {xi} {name}: sv1 {sv_zero:.3f} / {sv_pi4:.3f}, "
                                 f"errors {zero:.4f} / {pi4:.4f}")
    elapsed = time.time() - start
    ok = judged and not wrong and ecps_gap <= 0.002 and elapsed < 60.0
    report(8, ok,
           f"runtime {elapsed:.1f}s; of {judged} points where sv1 decides, the "
           f"smaller sv1 mispredicts the better projector at {wrong or 'none'}; "
           f"ECPS at most {ecps_gap:.4f} (<= 0.002) above the better projector")
    assert elapsed < 60.0
    assert judged > 0 and wrong == []
    assert ecps_gap <= 0.002


def _exp_g(xi, rho0, times):
    """(T, 4, 4) states exp(G t) rho0 of the unprojected generator
    G = effective_generator_full(xi, 1), from the eigendecomposition of the
    Hermitian G, its rates clipped at 0 (a rounding-positive rate)."""
    w, v = eig_hermitian(effective_generator_full(xi, 1.0))
    decay = np.exp(np.multiply.outer(times, np.minimum(w, 0.0)))
    return unvec((v[None] * decay[:, None, :]) @ (v.conj().T @ vec(rho0)))


def test_criterion_9_exp_gt_is_the_theta_free_reference():
    # exp(G t), G unprojected, against the projected curves at lambda = 1 over
    # 5/lambda. Measured before the bounds were fixed (seed 9 below):
    #   theta = 0 curve vs exp(G t) rho00, 20 states x 5 xi x 100 times: 2.8e-15
    #   pi/4 curve vs its rho01: 5.6e-16; the theta = 0 curve misses rho01 by
    #   up to 0.151 (0 at xi = 0, 0.026 / 0.073 / 0.135 / 0.151 at 0.3 ... 1)
    #   ECPS with criterion 8's shipped assignment vs exp(G t), 200 times:
    #   <= 1.8e-15 at every xi; with A at pi/4: 0.0987, 0.0942, 0.0756,
    #   0.0272, 1.77e-3, 3.14e-5 at xi = 0 ... 0.9, and 8.9e-16 at xi = 1
    #   kernel of G: rho00 0.6 at xi = 0, 0.5 at 1e-2, 0.5, 1 (1.9e-13 off at
    #   1e-2, whose rate is xi^2 / 2); |rho01| 0.225 at xi = 1; ECPS's
    #   steady_state pair within 4.9e-13 of it
    # The identities hold to rounding: bound 1e-14. The steady values get
    # 1e-11, the rounding of G's kernel vectors, eps |G| / gap, at xi = 1e-2.
    # xi <= 1e-4 is left out, where steady_state's kernel tolerance counts the
    # xi channel as conserved.
    start = time.time()
    rng = np.random.default_rng(9)
    times = np.linspace(0.0, 5.0, 100)
    pop_err = coh_err = coh_miss = 0.0
    for _ in range(20):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho0 = m @ m.conj().T / np.trace(m @ m.conj().T).real
        for xi in (0.0, 0.3, 0.5, 0.8, 1.0):
            ref = reduced_from_sector(_exp_g(xi, rho0, times))
            zero, pi4 = (reduced_from_sector(solve_tcl(
                tcl_generator(th, xi, 1.0), apply_superop(projector_superop(th), rho0),
                times, th)) for th in (0.0, PI4))
            pop_err = max(pop_err, np.abs(zero[:, 0, 0] - ref[:, 0, 0]).max())
            coh_err = max(coh_err, np.abs(pi4[:, 0, 1] - ref[:, 0, 1]).max())
            coh_miss = max(coh_miss, np.abs(zero[:, 0, 1] - ref[:, 0, 1]).max())

    # criterion 8's pieces: the effective state of sys (x) I_N (x) env / N
    # is sys (x) env
    a = np.kron(np.diag([0.9, 0.1]), environment_state({"kind": "maximally_mixed"}))
    b = np.kron(0.5 * np.array([[1.0, 0.8], [0.8, 1.0]]),
                environment_state({"kind": "plus_projector"}))
    xis = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
    times = np.linspace(0.0, 5.0, 200)
    shipped, a_at_pi4 = [], []
    for xi in xis:
        ref = reduced_from_sector(_exp_g(xi, (a + b) / 2, times))
        for gaps, theta_a in ((shipped, 0.0), (a_at_pi4, PI4)):
            ecps = ecps_evolve([(0.5, a, theta_a), (0.5, b, PI4)], xi, 1.0, times)
            gaps.append(np.abs(reduced_from_sector(ecps) - ref).max())

    steady = {}
    for xi in (0.0, 1e-2, 0.5, 1.0):
        w, v = eig_hermitian(effective_generator_full(xi, 1.0))
        kernel = v[:, np.abs(w) <= 1e-9 * np.abs(w).max()]
        ker = reduced_from_sector(unvec(kernel @ (kernel.conj().T @ vec((a + b) / 2))))
        pair = reduced_from_sector(sum(0.5 * steady_state(tcl_generator(th, xi, 1.0), e, th)
                                       for e, th in ((a, 0.0), (b, PI4))))
        steady[xi] = (ker[0, 0].real, abs(ker[0, 1]), np.abs(pair - ker).max())
    elapsed = time.time() - start
    expected_gaps = [0.0987, 0.0942, 0.0756, 0.0272, 1.77e-3, 3.14e-5]
    steady_ok = all(abs(p - (0.6 if xi == 0 else 0.5)) <= 1e-11
                    and abs(c - (0.225 if xi == 1 else 0.0)) <= 1e-11 and d <= 1e-11
                    for xi, (p, c, d) in steady.items())
    ok = (pop_err <= 1e-14 and coh_err <= 1e-14 and 0.14 <= coh_miss <= 0.16
          and max(shipped) <= 1e-14 and np.allclose(a_at_pi4[:-1], expected_gaps, rtol=1e-2)
          and a_at_pi4[-1] <= 1e-14 and steady_ok and elapsed < 1.0)
    report(9, ok,
           f"runtime {elapsed:.2f}s; exp(G t) vs theta = 0 rho00 {pop_err:.1e}, vs pi/4 "
           f"rho01 {coh_err:.1e} (<= 1e-14), theta = 0 misses rho01 by {coh_miss:.3f}; "
           f"ECPS {max(shipped):.1e} (<= 1e-14), A at pi/4 "
           f"{' '.join(f'{g:.3g}' for g in a_at_pi4)}; steady rho00 / |rho01| / pair gap "
           + ", ".join(f"xi {xi:g}: {p:.6f} / {c:.4f} / {d:.1e}"
                       for xi, (p, c, d) in steady.items()))
    assert elapsed < 1.0
    assert pop_err <= 1e-14 and coh_err <= 1e-14
    assert 0.14 <= coh_miss <= 0.16
    assert max(shipped) <= 1e-14
    assert np.allclose(a_at_pi4[:-1], expected_gaps, rtol=1e-2) and a_at_pi4[-1] <= 1e-14
    assert steady_ok
