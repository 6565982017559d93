"""Experiment configuration: one versioned YAML schema for all subcommands.

A config file selects the experiment kind, the model parameters and the
experiment-specific sections; everything needed to re-run an experiment is
echoed into the output metadata. Validation is delegated to a JSON schema so
errors carry the offending path.
"""
from __future__ import annotations

import numpy as np
import yaml
from jsonschema import Draft202012Validator

from .linalg import is_density
from .model import ModelParams
from .tcl import WEIGHT_TOL

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Configuration failed to parse or validate."""


_NUMBER = {"type": "number"}
_STATE_2X2 = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["ket", "diagonal", "matrix"]},
        "amplitudes": {"type": "array", "items": _NUMBER,
                       "minItems": 2, "maxItems": 2},
        "populations": {"type": "array", "items": _NUMBER,
                        "minItems": 2, "maxItems": 2},
        "entries_re": {"type": "array", "minItems": 2, "maxItems": 2,
                       "items": {"type": "array", "items": _NUMBER,
                                 "minItems": 2, "maxItems": 2}},
        "entries_im": {"type": "array", "minItems": 2, "maxItems": 2,
                       "items": {"type": "array", "items": _NUMBER,
                                 "minItems": 2, "maxItems": 2}},
    },
    "required": ["kind"],
    "allOf": [{"if": {"properties": {"kind": {"const": kind}}},
               "then": {"required": [field]}}
              for kind, field in (("ket", "amplitudes"), ("diagonal", "populations"))],
    "additionalProperties": False,
}
_ENV_STATE = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["branch_projector", "maximally_mixed", "plus_projector"]},
        "theta": _NUMBER,
        "branch": {"enum": [1, 2]},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "experiment": {"enum": ["compare", "choi-scan", "steady-state"]},
        "model": {
            "type": "object",
            "properties": {
                "n_levels": {"type": "integer", "minimum": 1},
                "delta_eps": {"type": "number", "exclusiveMinimum": 0},
                "alpha": {"type": "number", "minimum": 0},
                "xi": {"type": "number", "minimum": 0, "maximum": 1},
                "seed": {"type": "integer", "minimum": 0,
                         "maximum": 2 ** 64 - 1},
            },
            "required": ["n_levels", "delta_eps", "alpha", "xi", "seed"],
            "additionalProperties": False,
        },
        "realizations": {"type": "integer", "minimum": 1},
        "initial_state": {
            "type": "object",
            "properties": {"system": _STATE_2X2, "environment": _ENV_STATE},
            "required": ["system", "environment"],
            "additionalProperties": False,
        },
        "ecps": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "properties": {
                    "weight": {"type": "number", "exclusiveMinimum": 0},
                    "theta": _NUMBER,
                    "system": _STATE_2X2,
                    "environment": _ENV_STATE,
                },
                "required": ["weight", "theta", "system", "environment"],
                "additionalProperties": False,
            },
        },
        "projectors": {"type": "array", "items": _NUMBER, "minItems": 1},
        "time_grid": {
            "type": "object",
            "properties": {
                "t_max_over_relaxation": {"type": "number", "exclusiveMinimum": 0},
                "t_max": {"type": "number", "exclusiveMinimum": 0},
                "points": {"type": "integer", "minimum": 2},
            },
            "additionalProperties": False,
        },
        "choi_scan": {
            "type": "object",
            "properties": {
                "xi_values": {"type": "array", "items": _NUMBER, "minItems": 1},
                "theta_points": {"type": "integer", "minimum": 1},
                "theta_max": {"type": "number", "exclusiveMinimum": 0},
                "lam": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["xi_values"],
            "additionalProperties": False,
        },
        "steady_state": {
            "type": "object",
            "properties": {
                "p1": {"type": "number", "minimum": 0, "maximum": 1},
                "p_excited": {"type": "number", "minimum": 0, "maximum": 1},
                "coherence": {"type": "number", "minimum": -1, "maximum": 1},
                "t_infinity_over_relaxation": {"type": "number",
                                               "exclusiveMinimum": 0},
            },
            "required": ["p1", "p_excited", "coherence"],
            "additionalProperties": False,
        },
    },
    "required": ["schema_version", "experiment", "model"],
    "additionalProperties": False,
}

_VALIDATOR = Draft202012Validator(CONFIG_SCHEMA)


def load_config(path) -> dict:
    """Read and validate a YAML config; raise ConfigError with the offending
    path on any problem."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    errors = sorted(_VALIDATOR.iter_errors(raw), key=lambda e: list(e.absolute_path))
    if errors:
        first = errors[0]
        where = "$" + "".join(f"[{p!r}]" for p in first.absolute_path)
        raise ConfigError(f"config invalid at {where}: {first.message}")
    _check_experiment_sections(raw)
    return raw


def _check_experiment_sections(cfg: dict):
    """What the schema cannot say: the sections each experiment needs, and
    initial states the runners accept (density matrices, ECPS weights
    summing to 1 within the solver's WEIGHT_TOL)."""
    kind = cfg["experiment"]
    if kind == "compare":
        has_init = "initial_state" in cfg
        has_ecps = "ecps" in cfg
        if not (has_init or has_ecps):
            raise ConfigError("compare needs 'initial_state' or 'ecps'")
        if has_init and has_ecps:
            raise ConfigError("compare takes either 'initial_state' or 'ecps', not both")
    elif kind == "choi-scan":
        if "choi_scan" not in cfg:
            raise ConfigError("choi-scan needs a 'choi_scan' section")
    elif kind == "steady-state":
        if "steady_state" not in cfg:
            raise ConfigError("steady-state needs a 'steady_state' section")
    pieces = list(cfg.get("ecps", []))
    if "initial_state" in cfg:
        pieces.append(cfg["initial_state"])
    for piece in pieces:
        env = piece["environment"]
        if env["kind"] == "branch_projector" and "theta" not in env:
            raise ConfigError("branch_projector environment needs 'theta'")
        if not is_density(system_matrix(piece["system"])):
            raise ConfigError("system state must be a 2 x 2 density matrix")
    if "ecps" in cfg:
        total = np.sum([c["weight"] for c in cfg["ecps"]])
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ConfigError(f"ecps weights must sum to 1 within {WEIGHT_TOL:g}, "
                              f"got {float(total)!r}")


def model_params(cfg: dict, seed_override=None) -> ModelParams:
    m = cfg["model"]
    seed = int(seed_override) if seed_override is not None else int(m["seed"])
    return ModelParams(n_levels=int(m["n_levels"]), delta_eps=float(m["delta_eps"]),
                       alpha=float(m["alpha"]), xi=float(m["xi"]), seed=seed)


def system_matrix(spec: dict) -> np.ndarray:
    """2x2 system density matrix from a config state spec."""
    kind = spec["kind"]
    if kind == "ket":
        amps = np.asarray(spec["amplitudes"], dtype=float)
        norm = np.linalg.norm(amps)
        if norm == 0:
            raise ConfigError("ket amplitudes must not both vanish")
        amps = amps / norm
        return np.outer(amps, amps.conj()).astype(complex)
    if kind == "diagonal":
        return np.diag(np.asarray(spec["populations"], dtype=float)).astype(complex)
    if kind == "matrix":
        re = np.asarray(spec.get("entries_re", np.zeros((2, 2))), dtype=float)
        im = np.asarray(spec.get("entries_im", np.zeros((2, 2))), dtype=float)
        return re + 1j * im
    raise ConfigError(f"unknown system state kind {kind!r}")


def environment_spec(spec: dict):
    """Translate a config environment spec into the model-level form."""
    kind = spec["kind"]
    if kind == "branch_projector":
        return ("branch_projector", float(spec["theta"]), int(spec.get("branch", 1)))
    return kind


def time_grid(cfg: dict, params: ModelParams) -> np.ndarray:
    tg = cfg.get("time_grid", {})
    points = int(tg.get("points", 400))
    if "t_max" in tg:
        t_max = float(tg["t_max"])
    else:
        over = float(tg.get("t_max_over_relaxation", 5.0))
        rate = params.relaxation_rate
        if rate <= 0:
            raise ConfigError("relaxation rate vanishes (alpha = 0); "
                              "set an absolute time_grid.t_max")
        t_max = over / rate
    return np.linspace(0.0, t_max, points)
