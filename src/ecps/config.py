"""Experiment configuration: one versioned YAML schema for all subcommands.

A config file selects the experiment kind, the model parameters and only
the sections that experiment reads (``_SECTIONS``): compare reads
realizations, initial_state or ecps, projectors and time_grid; choi-scan
reads choi_scan; steady-state reads realizations and steady_state. A JSON
schema checks types and ranges, so errors carry the offending path; the
experiment check then runs the runners' own readers, ``initial_pieces`` and
``projector_thetas``. The config is echoed into the output metadata.
"""
from __future__ import annotations

import math

import numpy as np
import yaml
from jsonschema import Draft202012Validator

from .linalg import is_density
from .model import ModelParams, branch_rotation
from .tcl import WEIGHT_TOL

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Configuration failed to parse or validate."""


_NUMBER = {"type": "number"}
_PAIR = {"type": "array", "items": _NUMBER, "minItems": 2, "maxItems": 2}
_MATRIX_2X2 = {"type": "array", "items": _PAIR, "minItems": 2, "maxItems": 2}
_STATE_2X2 = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["ket", "diagonal", "matrix"]},
        "amplitudes": _PAIR,
        "populations": _PAIR,
        "entries_re": _MATRIX_2X2,
        "entries_im": _MATRIX_2X2,
    },
    "required": ["kind"],
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
                "xi_values": {"type": "array", "minItems": 1,
                              "items": {"type": "number", "minimum": 0, "maximum": 1}},
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

#: the top-level sections each experiment reads besides schema_version,
#: experiment and model; choi-scan and steady-state need their last one, and
#: an experiment draws coupling realizations when it reads "realizations"
_SECTIONS = {
    "compare": ("realizations", "initial_state", "ecps", "projectors", "time_grid"),
    "choi-scan": ("choi_scan",),
    "steady-state": ("realizations", "steady_state"),
}


class _UniqueKeyLoader(yaml.SafeLoader):
    """yaml.SafeLoader that refuses a mapping with a repeated key."""

    def construct_mapping(self, node, deep=False):
        keys = [self.construct_object(key, deep=deep) for key, _ in node.value]
        for i, key in enumerate(keys):
            if key in keys[:i]:
                raise yaml.constructor.ConstructorError(
                    None, None, f"repeated key {key!r}", node.value[i][0].start_mark)
        return super().construct_mapping(node, deep)


def load_config(path) -> dict:
    """Read and validate a YAML config; raise ConfigError with the offending
    path on any problem, a repeated key included."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=_UniqueKeyLoader)
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    _validate(raw)
    return raw


def with_overrides(cfg: dict, seed=None, realizations=None) -> dict:
    """``cfg`` with the command-line overrides written in and validated like
    the file, so the config echoed into the metadata re-runs the experiment."""
    over = {"model": dict(cfg["model"], seed=seed)} if seed is not None else {}
    if realizations is not None:
        over["realizations"] = realizations
    if over:
        cfg = {**cfg, **over}
        _validate(cfg)
    return cfg


def _validate(cfg: dict):
    errors = sorted(_VALIDATOR.iter_errors(cfg), key=lambda e: list(e.absolute_path))
    if errors:
        first = errors[0]
        where = "$" + "".join(f"[{p!r}]" for p in first.absolute_path)
        raise ConfigError(f"config invalid at {where}: {first.message}")
    for where, x in _floats(cfg):
        if not np.isfinite(x):
            raise ConfigError(f"config invalid at {where}: {x!r} is not finite")
    _check_experiment_sections(cfg)


def _floats(node, where="$"):
    """(path, value) of every float in a loaded config."""
    if isinstance(node, float):
        yield where, node
    elif isinstance(node, (dict, list)):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _floats(value, f"{where}[{key!r}]")


def _check_experiment_sections(cfg: dict):
    """What the schema cannot say: the sections the experiment reads and
    needs, one end time per time grid, a finite relaxation rate (nonzero where
    times are set in its units), finite end times, distinct TCL column tags,
    density system states and weights summing to 1 within WEIGHT_TOL."""
    kind = cfg["experiment"]
    for section in cfg:
        if section not in ("schema_version", "experiment", "model", *_SECTIONS[kind]):
            raise ConfigError(f"config invalid at $[{section!r}]: {kind} does not read it")
    if kind == "compare":
        if ("initial_state" in cfg) == ("ecps" in cfg):
            raise ConfigError("compare takes exactly one of 'initial_state' and 'ecps'")
        if {"t_max", "t_max_over_relaxation"} <= set(cfg.get("time_grid", {})):
            raise ConfigError("config invalid at $['time_grid']: it takes t_max or "
                              "t_max_over_relaxation, not both")
        tags = [theta_tag(theta) for theta in projector_thetas(cfg)]
        if len(set(tags)) < len(tags):
            raise ConfigError(f"projector angles must have distinct column tags, got {tags}")
    elif _SECTIONS[kind][-1] not in cfg:
        raise ConfigError(f"{kind} needs a {_SECTIONS[kind][-1]!r} section")
    params = model_params(cfg)
    try:
        rate = params.relaxation_rate
    except OverflowError:
        rate = np.inf
    if not np.isfinite(rate):
        raise ConfigError(f"relaxation rate overflows at alpha = {params.alpha!r}")
    if kind == "choi-scan":
        return
    if rate <= 0 and (kind == "steady-state" or "t_max" not in cfg.get("time_grid", {})):
        raise ConfigError(f"relaxation rate vanishes (alpha = 0), and {kind} sets "
                          "its times in 1/rate; compare takes a time_grid.t_max")
    if not np.isfinite(end_time(cfg, params)):
        raise ConfigError(f"{kind} end time overflows at relaxation rate {rate!r}")
    pieces = initial_pieces(cfg)
    if not all(is_density(sysm) for _, sysm, _, _ in pieces):
        raise ConfigError("system state must be a 2 x 2 density matrix")
    total = np.sum([w for w, *_ in pieces])
    if abs(total - 1.0) > WEIGHT_TOL:
        raise ConfigError(f"ecps weights must sum to 1 within {WEIGHT_TOL:g}, "
                          f"got {float(total)!r}")


def model_params(cfg: dict) -> ModelParams:
    m = cfg["model"]
    return ModelParams(n_levels=int(m["n_levels"]), delta_eps=float(m["delta_eps"]),
                       alpha=float(m["alpha"]), xi=float(m["xi"]), seed=int(m["seed"]))


def projector_thetas(cfg: dict) -> list[float]:
    """Angles of compare's TCL projectors: ``projectors``, else 0 and pi/4."""
    return [float(t) for t in cfg.get("projectors", [0.0, np.pi / 4])]


def initial_pieces(cfg: dict) -> list:
    """The initial state as (weight, system 2x2, environment 2x2,
    theta-or-None) pieces: compare's ``ecps`` components or its one
    ``initial_state``; steady-state's diag(p_excited, 1 - p_excited) (x) I/2
    at theta = 0 and [[1, c], [c, 1]] / 2 (x) plus projector at pi/4."""
    if cfg["experiment"] == "steady-state":
        p1, p_exc, coh = (float(cfg["steady_state"][key])
                          for key in ("p1", "p_excited", "coherence"))
        return [(p1, np.diag([p_exc, 1.0 - p_exc]).astype(complex),
                 environment_state({"kind": "maximally_mixed"}), 0.0),
                (1.0 - p1, 0.5 * np.array([[1.0, coh], [np.conj(coh), 1.0]], dtype=complex),
                 environment_state({"kind": "plus_projector"}), np.pi / 4)]
    if "ecps" in cfg:
        return [(float(c["weight"]), system_matrix(c["system"]),
                 environment_state(c["environment"]), float(c["theta"]))
                for c in cfg["ecps"]]
    init = cfg["initial_state"]
    return [(1.0, system_matrix(init["system"]),
             environment_state(init["environment"]), None)]


def n_realizations(cfg: dict) -> int:
    return int(cfg.get("realizations", 4 if cfg["experiment"] == "steady-state" else 1))


def theta_tag(theta: float) -> str:
    """TCL column tag of a projector angle: theta / pi to 4 decimals."""
    return f"{theta / np.pi:.4f}".replace(".", "p").replace("-", "m") + "pi"


def _fields(spec: dict, what: str, required=(), optional=()):
    """Raise ConfigError if a state spec lacks a field its kind needs or has
    one its kind does not read."""
    for field in required:
        if field not in spec:
            raise ConfigError(f"{spec['kind']} {what} needs {field!r}")
    stray = sorted(set(spec) - {"kind", *required, *optional})
    if stray:
        raise ConfigError(f"{spec['kind']} {what} does not take {', '.join(stray)}")


def system_matrix(spec: dict) -> np.ndarray:
    """2x2 system density matrix from a config state spec."""
    kind = spec["kind"]
    if kind == "ket":
        _fields(spec, "system state", ["amplitudes"])
        amps = np.asarray(spec["amplitudes"], dtype=float)
        # an exact power-of-two scale first: the norm neither under- nor overflows
        amps = np.ldexp(amps, -np.frexp(np.abs(amps).max())[1])
        norm = math.hypot(*amps)
        if norm == 0:
            raise ConfigError("ket amplitudes must not both vanish")
        amps = amps / norm
        return np.outer(amps, amps.conj()).astype(complex)
    if kind == "diagonal":
        _fields(spec, "system state", ["populations"])
        return np.diag(np.asarray(spec["populations"], dtype=float)).astype(complex)
    _fields(spec, "system state", optional=["entries_re", "entries_im"])
    re = np.asarray(spec.get("entries_re", np.zeros((2, 2))), dtype=float)
    im = np.asarray(spec.get("entries_im", np.zeros((2, 2))), dtype=float)
    return re + 1j * im


def environment_state(spec: dict) -> np.ndarray:
    """2 x 2 branch state of every environment level from a config
    environment spec: I/2 for ``maximally_mixed``, else u_b u_b^dagger for
    the column u_b of u = ``branch_rotation(theta)``; ``plus_projector`` is
    theta = pi/4, branch 1, and ``branch_projector`` defaults to branch 1."""
    if spec["kind"] == "branch_projector":
        _fields(spec, "environment", ["theta"], ["branch"])
        theta, branch = float(spec["theta"]), int(spec.get("branch", 1))
    else:
        _fields(spec, "environment")
        if spec["kind"] == "maximally_mixed":
            return np.eye(2, dtype=complex) / 2
        theta, branch = np.pi / 4, 1
    col = branch_rotation(theta)[:, branch - 1]
    return np.outer(col, col.conj())


def end_time(cfg: dict, params: ModelParams) -> float:
    """Last time of the exact propagation: compare's t_max, or the instant at
    which steady-state reads the exact state."""
    if cfg["experiment"] == "steady-state":
        return float(cfg["steady_state"].get("t_infinity_over_relaxation", 50.0)) \
            / params.relaxation_rate
    tg = cfg.get("time_grid", {})
    return float(tg["t_max"]) if "t_max" in tg else \
        float(tg.get("t_max_over_relaxation", 5.0)) / params.relaxation_rate


def time_grid(cfg: dict, params: ModelParams) -> np.ndarray:
    points = int(cfg.get("time_grid", {}).get("points", 400))
    return np.linspace(0.0, end_time(cfg, params), points)
