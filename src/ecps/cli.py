"""Reproducible experiment runner.

Subcommands: ``compare`` (exact vs projected master-equation dynamics),
``choi-scan`` (projector-quality diagnostic over a (xi, theta) grid),
``steady-state`` (long-time comparison for the mixed decomposition),
``validate`` (schema check only) and ``seed-report`` (resolved RNG
provenance).

All numeric output is CSV (RFC-4180-style, header row, UTF-8, floats with 17
significant digits) and is byte-identical for identical config + seed. Every
output directory gets a metadata.json sufficient to re-run the experiment.
Plot rendering is delegated to an emitted script so the core has no plotting
dependency.

Exit codes: 0 success, 2 config error, 3 numerical-precondition failure.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import (ConfigError, SCHEMA_VERSION, environment_spec,
                     load_config, model_params, system_matrix, time_grid)
from .exact import (ensemble_average, evolve_exact, realization_seeds,
                    reduced_from_sector, sector_variables)
from .model import build_hamiltonian, initial_state, sample_couplings
from .superop import apply_superop, projector_superop, scan_delta, tcl_generator
from .tcl import (DivergenceError, EcpsComponent, HomogeneityError, ecps_evolve,
                  solve_tcl, steady_state)

RNG_ALGORITHM = "numpy Philox4x64-10 (counter-based), keyed via SeedSequence"


def _fmt(x) -> str:
    return "%.17g" % float(x)


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_metadata(out_dir: Path, cfg: dict, params, extra: dict):
    meta = {
        "schema_version": SCHEMA_VERSION,
        "library_version": __version__,
        "rng": RNG_ALGORITHM,
        "config": cfg,
        "resolved": {
            "n_levels": params.n_levels,
            "delta_eps": params.delta_eps,
            "alpha": params.alpha,
            "xi": params.xi,
            "base_seed": params.seed,
            "gamma": params.gamma,
            "relaxation_rate": params.relaxation_rate,
        },
    }
    meta["resolved"].update(extra)
    with open(out_dir / "metadata.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _theta_tag(theta: float) -> str:
    return f"{theta / np.pi:.4f}".replace(".", "p").replace("-", "m") + "pi"


def _initial_pieces(cfg: dict):
    """List of (weight, system 2x2, env spec, theta-or-None) for the initial
    state; single-state configs give one entry with weight 1. The config
    check has already vetted weights and states."""
    if "ecps" in cfg:
        return [(float(c["weight"]), system_matrix(c["system"]),
                 environment_spec(c["environment"]), float(c["theta"]))
                for c in cfg["ecps"]]
    init = cfg["initial_state"]
    return [(1.0, system_matrix(init["system"]),
             environment_spec(init["environment"]), None)]


def _initial_states(pieces, params):
    """Composite initial state and the effective 4x4 state of each piece:
    (rho0, [(weight, effective state, theta-or-None), ...]). Both depend on
    the model only through N, so one call serves every realization."""
    states = [(w, initial_state(sysm, env, params), th)
              for w, sysm, env, th in pieces]
    rho0 = sum(w * state for w, state, _ in states)
    return rho0, [(w, sector_variables(state, 0.0), th) for w, state, th in states]


def run_compare(cfg: dict, out_dir: Path, realizations: int | None = None) -> list[Path]:
    params = model_params(cfg)
    n_real = int(realizations if realizations is not None else cfg.get("realizations", 1))
    times = time_grid(cfg, params)
    rho0, effs = _initial_states(_initial_pieces(cfg), params)
    lam = params.relaxation_rate

    def run_one(p):
        return evolve_exact(build_hamiltonian(p, sample_couplings(p)), rho0, times)

    exact = ensemble_average(params, n_real, run_one)

    rho0_eff = sum(w * eff for w, eff, _ in effs)
    thetas = [float(t) for t in cfg.get("projectors", [0.0, np.pi / 4])]
    tcl_curves = {}
    for th in thetas:
        k = tcl_generator(th, params.xi, lam)
        projected = apply_superop(projector_superop(th), rho0_eff)
        tcl_curves[th] = solve_tcl(k, projected, times, th)

    ecps_curve = None
    if "ecps" in cfg:
        comps = [EcpsComponent(w, eff, th) for w, eff, th in effs]
        ecps_curve = ecps_evolve(comps, params.xi, lam, times)

    header = ["t", "exact_rho00", "exact_rho01_re", "exact_rho01_im"]
    columns = [times,
               exact.system_states[:, 0, 0].real,
               exact.system_states[:, 0, 1].real,
               exact.system_states[:, 0, 1].imag]
    column_map = {}
    for th in thetas:
        tag = _theta_tag(th)
        column_map[f"tcl_{tag}"] = th
        sol = tcl_curves[th]
        header += [f"tcl_{tag}_rho00", f"tcl_{tag}_rho01_re", f"tcl_{tag}_rho01_im"]
        columns += [sol.system_states[:, 0, 0].real,
                    sol.system_states[:, 0, 1].real,
                    sol.system_states[:, 0, 1].imag]
    if ecps_curve is not None:
        header += ["ecps_rho00", "ecps_rho01_re", "ecps_rho01_im"]
        columns += [ecps_curve.system_states[:, 0, 0].real,
                    ecps_curve.system_states[:, 0, 1].real,
                    ecps_curve.system_states[:, 0, 1].imag]

    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "compare.csv"
    _write_csv(csv_path, header, zip(*columns))
    _write_metadata(out_dir, cfg, params, {
        "n_realizations": n_real,
        "realization_seeds": realization_seeds(params.seed, n_real),
        "projector_thetas": thetas,
        "tcl_column_thetas": column_map,
        "time_points": len(times),
        "t_max": float(times[-1]),
    })
    plot_path = out_dir / "plot.py"
    plot_path.write_text(_COMPARE_PLOT_SCRIPT)
    return [csv_path, out_dir / "metadata.json", plot_path]


def run_choi_scan(cfg: dict, out_dir: Path, realizations=None) -> list[Path]:
    params = model_params(cfg)
    section = cfg["choi_scan"]
    xi_values = [float(x) for x in section["xi_values"]]
    n_theta = int(section.get("theta_points", 64))
    theta_max = float(section.get("theta_max", np.pi / 4))
    lam = float(section.get("lam", 1.0))
    grid = np.linspace(0.0, theta_max, n_theta)
    scan = scan_delta(xi_values, grid, lam)

    out_dir.mkdir(parents=True, exist_ok=True)
    scan_path = out_dir / "scan.csv"
    _write_csv(scan_path,
               ["xi", "theta"] + [f"sv{i + 1}" for i in range(16)],
               [(xi, th, *sv) for xi, th, sv in scan.rows])
    summary_path = out_dir / "summary.csv"
    _write_csv(summary_path, ["xi", "argmin_theta", "min_max_sv"], scan.summary)
    _write_metadata(out_dir, cfg, params, {
        "lam": lam, "theta_points": n_theta, "theta_max": theta_max,
        "xi_values": xi_values,
    })
    return [scan_path, summary_path, out_dir / "metadata.json"]


def run_steady_state(cfg: dict, out_dir: Path, realizations: int | None = None) -> list[Path]:
    params = model_params(cfg)
    section = cfg["steady_state"]
    p1 = float(section["p1"])
    p_exc = float(section["p_excited"])
    coh = float(section["coherence"])
    t_inf = float(section.get("t_infinity_over_relaxation", 50.0)) / params.relaxation_rate
    n_real = int(realizations if realizations is not None else cfg.get("realizations", 4))
    lam = params.relaxation_rate
    pi4 = np.pi / 4

    rho_pop = np.diag([p_exc, 1.0 - p_exc]).astype(complex)
    rho_coh = 0.5 * np.array([[1.0, coh], [np.conj(coh), 1.0]], dtype=complex)
    rho0, effs = _initial_states([(p1, rho_pop, "maximally_mixed", 0.0),
                                  (1.0 - p1, rho_coh, "plus_projector", pi4)],
                                 params)

    def run_one(p):
        return evolve_exact(build_hamiltonian(p, sample_couplings(p)), rho0,
                            np.array([0.0, t_inf]))

    exact = ensemble_average(params, n_real, run_one).system_states[-1]

    eff0 = sum(w * eff for w, eff, _ in effs)
    k4 = tcl_generator(pi4, params.xi, lam)
    cps = steady_state(k4, apply_superop(projector_superop(pi4), eff0), pi4)
    cps_sys = reduced_from_sector(cps)

    comps = [EcpsComponent(w, eff, th) for w, eff, th in effs if w > 0]
    ecps_eff = sum(c.weight * steady_state(tcl_generator(c.theta, params.xi, lam),
                                           c.state, c.theta) for c in comps)
    ecps_sys = reduced_from_sector(ecps_eff)

    labels = ["rho00", "rho11", "rho01_re", "rho01_im"]

    def parts(m):
        return [m[0, 0].real, m[1, 1].real, m[0, 1].real, m[0, 1].imag]

    ex, cp, ec = parts(exact), parts(cps_sys), parts(ecps_sys)
    out_dir.mkdir(parents=True, exist_ok=True)
    steady_path = out_dir / "steady.csv"
    with open(steady_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["quantity", "exact", "cps_pi4", "ecps",
                         "cps_abs_err", "ecps_abs_err"])
        for i, label in enumerate(labels):
            writer.writerow([label] + [_fmt(v) for v in
                                       (ex[i], cp[i], ec[i],
                                        abs(cp[i] - ex[i]), abs(ec[i] - ex[i]))])
    _write_metadata(out_dir, cfg, params, {
        "n_realizations": n_real,
        "realization_seeds": realization_seeds(params.seed, n_real),
        "t_infinity": t_inf,
        "p1": p1, "p_excited": p_exc, "coherence": coh,
    })
    return [steady_path, out_dir / "metadata.json"]


_RUNNERS = {
    "compare": run_compare,
    "choi-scan": run_choi_scan,
    "steady-state": run_steady_state,
}

_COMPARE_PLOT_SCRIPT = '''\
"""Render population and coherence panels from compare.csv (same directory)."""
import csv
from pathlib import Path

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

here = Path(__file__).resolve().parent
with open(here / "compare.csv", newline="") as fh:
    reader = csv.reader(fh)
    header = next(reader)
    data = {name: [] for name in header}
    for row in reader:
        for name, val in zip(header, row):
            data[name].append(float(val))

t = data["t"]
fig, (ax_pop, ax_coh) = plt.subplots(2, 1, figsize=(7, 8), sharex=True)
ax_pop.plot(t, data["exact_rho00"], "k-", lw=2, label="exact")
for name in header:
    if name.endswith("_rho00") and name != "exact_rho00":
        ax_pop.plot(t, data[name], "--", label=name[:-7])
ax_pop.set_ylabel("rho00")
ax_pop.legend()
coh = [(re ** 2 + im ** 2) ** 0.5
       for re, im in zip(data["exact_rho01_re"], data["exact_rho01_im"])]
ax_coh.plot(t, coh, "k-", lw=2, label="exact")
for name in header:
    if name.endswith("_rho01_re") and not name.startswith("exact"):
        stem = name[:-9]
        mag = [(re ** 2 + im ** 2) ** 0.5
               for re, im in zip(data[name], data[stem + "_rho01_im"])]
        ax_coh.plot(t, mag, "--", label=stem)
ax_coh.set_xlabel("t")
ax_coh.set_ylabel("|rho01|")
ax_coh.legend()
fig.tight_layout()
fig.savefig(here / "compare.png", dpi=150)
print(here / "compare.png")
'''


def _seed_report(cfg: dict, seed_override, realizations) -> str:
    params = model_params(cfg, seed_override)
    n_real = int(realizations if realizations is not None else cfg.get("realizations", 1))
    lines = [
        f"algorithm: {RNG_ALGORITHM}",
        f"base seed: {params.seed}",
        f"realizations: {n_real}",
        "realization seeds: " + ", ".join(str(s) for s in
                                          realization_seeds(params.seed, n_real)),
    ]
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecps",
        description="Exact vs projected master-equation experiments for the "
                    "two-branch band model")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("compare", "choi-scan", "steady-state"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--realizations", type=int, default=None)
    v = sub.add_parser("validate")
    v.add_argument("--config", required=True)
    s = sub.add_parser("seed-report")
    s.add_argument("--config", required=True)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--realizations", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print("config ok")
        return 0
    if args.command == "seed-report":
        print(_seed_report(cfg, args.seed, args.realizations))
        return 0

    if cfg["experiment"] != args.command:
        print(f"config error: config declares experiment "
              f"{cfg['experiment']!r} but subcommand is {args.command!r}",
              file=sys.stderr)
        return 2
    if args.seed is not None:
        cfg = dict(cfg)
        cfg["model"] = dict(cfg["model"], seed=int(args.seed))
    try:
        files = _RUNNERS[args.command](cfg, Path(args.out), args.realizations)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (HomogeneityError, DivergenceError) as exc:
        print(f"numerical precondition failed: {exc}", file=sys.stderr)
        return 3
    for f in files:
        print(f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
