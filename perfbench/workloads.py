"""The benchmark's workloads: the ecps experiment configs each one runs.

The configs are copies of the shipped ones under ``configs/`` (as they were
when the benchmark was defined), so a later change to a shipped config does
not silently change what the benchmark measures. The workload seed is an
offset added to every config's model seed; seed 0 runs the shipped seeds, and
only seed 0 has recorded reference outputs for every column.

Configs are written as JSON, which is valid YAML, so the benchmark itself
needs no YAML library.
"""
from __future__ import annotations

import copy
import json
import math
from pathlib import Path

DEFAULT_SEED = 0
PI4 = 0.7853981633974483
_ARCSIN_3_5 = 0.6435011087932844


def _compare(n_levels, alpha, xi, seed, amplitudes, env_theta):
    return {
        "schema_version": 1,
        "experiment": "compare",
        "model": {"n_levels": n_levels, "delta_eps": 0.5, "alpha": alpha,
                  "xi": xi, "seed": seed},
        "realizations": 1,
        "initial_state": {
            "system": {"kind": "ket", "amplitudes": amplitudes},
            "environment": {"kind": "branch_projector", "theta": env_theta,
                            "branch": 1},
        },
        "projectors": [0.0, PI4],
        "time_grid": {"t_max_over_relaxation": 5.0, "points": 400},
    }


# name -> list of (config name, config); order is the order of invocation
WORKLOADS = {
    # The traffic users run: the four shipped compare configs as shipped.
    # Exact propagation dominates; xi in {0, 1} twice and xi = 0.5 twice.
    "compare-n60": [
        ("compare_population",
         _compare(60, 0.005, 0.0, 20260809, [1.0, 0.0], _ARCSIN_3_5)),
        ("compare_coherence",
         _compare(60, 0.005, 1.0, 20260810, [0.6, 0.8], 0.0)),
        ("compare_mixed_population",
         _compare(60, 0.01, 0.5, 20260811, [1.0, 0.0], _ARCSIN_3_5)),
        ("compare_mixed_coherence",
         _compare(60, 0.01, 0.5, 20260812, [0.6, 0.8], 0.0)),
    ],
    # The Choi scan on an 11 x 256 grid: superop and singular values only,
    # never the model or exact layers, and the largest CSV.
    "choi-fine": [
        ("choi_scan", {
            "schema_version": 1,
            "experiment": "choi-scan",
            "model": {"n_levels": 60, "delta_eps": 0.5, "alpha": 0.005,
                      "xi": 0.0, "seed": 1},
            "choi_scan": {"xi_values": [i / 10 for i in range(11)],
                          "theta_points": 256, "theta_max": PI4, "lam": 1.0},
        }),
    ],
    # The shipped steady-state config at N = 120 with 16 realizations of two
    # time points: many large eigendecompositions, almost no time points.
    "steady-n120": [
        ("steady_state", {
            "schema_version": 1,
            "experiment": "steady-state",
            "model": {"n_levels": 120, "delta_eps": 0.5, "alpha": 0.005,
                      "xi": 0.0, "seed": 4242},
            "realizations": 16,
            "steady_state": {"p1": 0.5, "p_excited": 0.9, "coherence": 0.8,
                             "t_infinity_over_relaxation": 50.0},
        }),
    ],
}

#: output files of each experiment that the benchmark checks
OUTPUT_FILES = {
    "compare": ["compare.csv"],
    "choi-scan": ["scan.csv", "summary.csv"],
    "steady-state": ["steady.csv"],
}


def configs_for(workload: str, seed: int) -> list[tuple[str, dict]]:
    """The workload's configs with ``seed`` added to each model seed."""
    out = []
    for name, cfg in WORKLOADS[workload]:
        cfg = copy.deepcopy(cfg)
        cfg["model"]["seed"] = (cfg["model"]["seed"] + int(seed)) % 2 ** 64
        out.append((name, cfg))
    return out


def write_configs(workload: str, seed: int, directory: Path) -> list[dict]:
    """Write the workload's configs into ``directory``; return one CLI
    invocation (command, config path, output directory, config) per config."""
    directory.mkdir(parents=True, exist_ok=True)
    invocations = []
    for name, cfg in configs_for(workload, seed):
        path = directory / f"{name}.yaml"
        path.write_text(json.dumps(cfg, indent=1) + "\n", encoding="utf-8")
        invocations.append({"name": name, "command": cfg["experiment"],
                            "config": str(path), "out": str(directory / name),
                            "cfg": cfg})
    return invocations


def initial_system_state(cfg: dict) -> tuple[float, complex]:
    """(rho00, rho01) of the initial system state of a compare config."""
    amps = cfg["initial_state"]["system"]["amplitudes"]
    norm = math.hypot(*amps)
    a0, a1 = amps[0] / norm, amps[1] / norm
    return a0 * a0, complex(a0 * a1)
