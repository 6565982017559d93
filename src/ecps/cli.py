"""Reproducible experiment runner.

Subcommands: ``compare`` (exact vs projected master-equation dynamics),
``choi-scan`` (projector-quality diagnostic over a (xi, theta) grid),
``steady-state`` (long-time comparison for the mixed decomposition),
``validate`` (the runners' config check) and ``seed-report`` (resolved RNG
provenance).

All numeric output is CSV (RFC-4180-style, header row, UTF-8, floats with 17
significant digits) and is byte-identical for identical config + seed. Every
output directory gets a metadata.json sufficient to re-run the experiment.
Plot rendering is delegated to an emitted script so the core has no plotting
dependency.

Output columns. A ``*_rho00`` column is the system population rho[0, 0], and
``*_rho01_re`` / ``*_rho01_im`` are the real and imaginary parts of rho[0, 1].

- ``compare.csv``, one row per time: ``t``; ``exact_*``, the exact dynamics
  averaged over the realizations; ``tcl_<tag>_*``, the second-order master
  equation under the projector of each configured angle theta, with the tag
  theta / pi to 4 decimals, "p" for the point and "m" for a minus (pi/4 gives
  ``0p2500pi``; metadata ``tcl_column_thetas`` maps tags to angles); and
  ``ecps_*``, the ECPS sum, when the config has an ``ecps`` section.
- ``steady.csv``, one row per quantity ``rho00``, ``rho11``, ``rho01_re``,
  ``rho01_im`` of the long-time system state: ``exact`` (at the configured
  late time), ``cps_pi4`` (the single projector at theta = pi/4), ``ecps``, and
  ``cps_abs_err`` / ``ecps_abs_err``, their distances from ``exact``.
- ``scan.csv``, one row per (xi, theta) point: ``xi``, ``theta``, and ``sv1``
  to ``sv16``, the singular values, descending, of the Choi matrix of
  Delta = P G (1 - P), the part of the generator G the projector P misses.
- ``summary.csv``, one row per xi: ``xi``, ``argmin_theta`` (the first theta
  where ``sv1`` is smallest) and ``min_max_sv`` (that smallest ``sv1``).

Exit codes: 0 success; 2 usage or config error, or an output directory that
cannot be created, before anything is computed; 3 numerical-precondition
failure: any ValueError a runner raises after the config check, such as a
state that is not homogeneous under its projector, overflowing phases of the
exact propagation or non-finite TCL states. A coding error that raises
ValueError reads the same way.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import (_SECTIONS, ConfigError, SCHEMA_VERSION, end_time,
                     initial_pieces, load_config, model_params, n_realizations,
                     projector_thetas, theta_tag, time_grid)
from .exact import (SYSTEM_NAMES, SYSTEM_OBSERVABLES, ensemble_average, evolve_exact,
                    realization_seeds, sector_variables, system_values)
from .model import build_hamiltonian, initial_state, sample_couplings
from .superop import apply_superop, projector_superop, scan_delta, tcl_generator
from .tcl import ecps_evolve, solve_tcl, steady_state

RNG_ALGORITHM = "numpy Philox4x64-10 (counter-based), keyed via SeedSequence"


def _write_csv(path: Path, header, rows):
    """Rows by one % operation each: %s per label, %.17g per number."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        fmt = None
        for row in rows:
            fmt = fmt or ",".join("%s" if isinstance(x, str) else "%.17g"
                                  for x in row) + "\r\n"
            fh.write(fmt % tuple(row))


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


def _exact_run(cfg: dict, params, times):
    """The exact system state at ``times`` averaged over the realizations,
    (T, 4) values of ``SYSTEM_OBSERVABLES`` (rho00, rho11, Re rho01,
    Im rho01), the effective initial state eff0, and each piece of the
    initial state as (weight, effective state, theta-or-None). Every piece is
    level-uniform, so eff0 fixes the composite initial state eff0 (x) I_N / N
    that ``evolve_exact`` propagates; one build of each piece serves every
    realization."""
    pieces = [(w, sector_variables(initial_state(sysm, env, params)), th)
              for w, sysm, env, th in initial_pieces(cfg)]
    eff0 = sum(w * eff for w, eff, _ in pieces)
    exact = ensemble_average(params, n_realizations(cfg), lambda p: evolve_exact(
        build_hamiltonian(p, sample_couplings(p)), eff0, times, SYSTEM_OBSERVABLES))
    return exact, eff0, pieces


def _realizations(cfg: dict, params) -> dict:
    """How many coupling realizations a run draws, and the seed of each."""
    n_real = n_realizations(cfg)
    return {"n_realizations": n_real,
            "realization_seeds": realization_seeds(params.seed, n_real)}


def run_compare(cfg: dict, out_dir: Path) -> list[Path]:
    params = model_params(cfg)
    times = time_grid(cfg, params)
    lam = params.relaxation_rate
    exact, eff0, pieces = _exact_run(cfg, params, times)
    thetas = projector_thetas(cfg)
    tcl_thetas = {f"tcl_{theta_tag(th)}": th for th in thetas}
    curves = {"exact": exact}
    for name, th in tcl_thetas.items():
        curves[name] = system_values(solve_tcl(
            tcl_generator(th, params.xi, lam),
            apply_superop(projector_superop(th), eff0), times, th))
    if "ecps" in cfg:
        curves["ecps"] = system_values(ecps_evolve(pieces, params.xi, lam, times))

    header, columns = ["t"], [times]
    for name, v in curves.items():
        v = dict(zip(SYSTEM_NAMES, v.T))
        for q in ("rho00", "rho01_re", "rho01_im"):
            header.append(f"{name}_{q}")
            columns.append(v[q])
    csv_path = out_dir / "compare.csv"
    _write_csv(csv_path, header, zip(*columns))
    _write_metadata(out_dir, cfg, params, {
        **_realizations(cfg, params),
        "projector_thetas": thetas,
        "tcl_column_thetas": tcl_thetas,
        "time_points": len(times),
        "t_max": float(times[-1]),
    })
    plot_path = out_dir / "plot.py"
    plot_path.write_text(_COMPARE_PLOT_SCRIPT)
    return [csv_path, out_dir / "metadata.json", plot_path]


def run_choi_scan(cfg: dict, out_dir: Path) -> list[Path]:
    params = model_params(cfg)
    section = cfg["choi_scan"]
    xi_values = [float(x) for x in section["xi_values"]]
    n_theta = int(section.get("theta_points", 64))
    theta_max = float(section.get("theta_max", np.pi / 4))
    lam = float(section.get("lam", 1.0))
    grid = np.linspace(0.0, theta_max, n_theta)
    sv = scan_delta(xi_values, grid, lam)
    max_sv = sv[:, :, 0]

    scan_path = out_dir / "scan.csv"
    _write_csv(scan_path,
               ["xi", "theta"] + [f"sv{i + 1}" for i in range(16)],
               np.column_stack([np.repeat(xi_values, n_theta),
                                np.tile(grid, len(xi_values)), sv.reshape(-1, 16)]))
    summary_path = out_dir / "summary.csv"
    _write_csv(summary_path, ["xi", "argmin_theta", "min_max_sv"],
               zip(xi_values, grid[max_sv.argmin(axis=1)], max_sv.min(axis=1)))
    _write_metadata(out_dir, cfg, params, {
        "lam": lam, "theta_points": n_theta, "theta_max": theta_max,
        "xi_values": xi_values,
    })
    return [scan_path, summary_path, out_dir / "metadata.json"]


def run_steady_state(cfg: dict, out_dir: Path) -> list[Path]:
    params = model_params(cfg)
    t_inf = end_time(cfg, params)
    lam = params.relaxation_rate
    pi4 = np.pi / 4
    exact, eff0, pieces = _exact_run(cfg, params, np.array([0.0, t_inf]))
    curves = {
        "exact": exact[-1],
        "cps_pi4": system_values(steady_state(
            tcl_generator(pi4, params.xi, lam),
            apply_superop(projector_superop(pi4), eff0), pi4)),
        "ecps": system_values(sum(
            w * steady_state(tcl_generator(th, params.xi, lam), eff, th)
            for w, eff, th in pieces if w > 0)),
    }
    quantities = dict(zip(SYSTEM_NAMES,
                          np.transpose(list(curves.values()))))
    errors = [f"{n.removesuffix('_pi4')}_abs_err" for n in curves][1:]  # cps, ecps
    steady_path = out_dir / "steady.csv"
    _write_csv(steady_path, ["quantity", *curves, *errors],
               [(q, *v, *np.abs(v[1:] - v[0])) for q, v in quantities.items()])
    _write_metadata(out_dir, cfg, params, {
        **_realizations(cfg, params),
        "t_infinity": t_inf,
        **{key: float(cfg["steady_state"][key])
           for key in ("p1", "p_excited", "coherence")},
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
    header, *rows = csv.reader(fh)
data = {name: [float(row[i]) for row in rows] for i, name in enumerate(header)}

t = data["t"]
fig, (ax_pop, ax_coh) = plt.subplots(2, 1, figsize=(7, 8), sharex=True)
for stem in [name[:-6] for name in header if name.endswith("_rho00")]:
    style = {"color": "k", "lw": 2} if stem == "exact" else {"ls": "--"}
    coh = [(re ** 2 + im ** 2) ** 0.5
           for re, im in zip(data[stem + "_rho01_re"], data[stem + "_rho01_im"])]
    ax_pop.plot(t, data[stem + "_rho00"], label=stem, **style)
    ax_coh.plot(t, coh, label=stem, **style)
ax_coh.set_xlabel("t")
for ax, label in ((ax_pop, "rho00"), (ax_coh, "|rho01|")):
    ax.set_ylabel(label)
    ax.legend()
fig.tight_layout()
fig.savefig(here / "compare.png", dpi=150)
print(here / "compare.png")
'''


def _seed_report(cfg: dict) -> str:
    params = model_params(cfg)
    lines = [f"algorithm: {RNG_ALGORITHM}", f"base seed: {params.seed}"]
    if "realizations" in _SECTIONS[cfg["experiment"]]:
        drawn = _realizations(cfg, params)
        lines += [f"realizations: {drawn['n_realizations']}", "realization seeds: "
                  + ", ".join(str(s) for s in drawn["realization_seeds"])]
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecps",
        description="Exact vs projected master-equation experiments for the "
                    "two-branch band model")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, sections in _SECTIONS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None)
        if "realizations" in sections:  # the Choi scan draws none
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
        cfg = load_config(args.config, getattr(args, "seed", None),
                          getattr(args, "realizations", None))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print("config ok")
        return 0
    if args.command == "seed-report":
        print(_seed_report(cfg))
        return 0

    if cfg["experiment"] != args.command:
        print(f"config error: config declares experiment "
              f"{cfg['experiment']!r} but subcommand is {args.command!r}",
              file=sys.stderr)
        return 2
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory {args.out}: {exc}", file=sys.stderr)
        return 2
    try:
        files = _RUNNERS[args.command](cfg, Path(args.out))
    except ValueError as exc:
        print(f"numerical precondition failed: {exc}", file=sys.stderr)
        return 3
    for f in files:
        print(f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
