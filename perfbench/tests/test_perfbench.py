"""Tests of the benchmark's own machinery: output checks, span accounting and
the traced / untraced sample modes.

    python3 -m pytest perfbench/tests
"""
import copy
import gzip
import importlib
import json
import time
from pathlib import Path

import pytest

import checks
import sample
from spans import TARGETS, Tracer
from workloads import DEFAULT_SEED, WORKLOADS, configs_for, write_configs

ECPS_MODULES = ["ecps", "ecps.cli", "ecps.config", "ecps.exact", "ecps.linalg",
                "ecps.model", "ecps.superop", "ecps.tcl"]


def _reference_text(workload, config, filename):
    path = checks.reference_path(workload, config, filename)
    return gzip.decompress(path.read_bytes()).decode("utf-8")


def _steady_invocation(tmp_path, text, seed=DEFAULT_SEED):
    (tmp_path / "steady.csv").write_text(text, encoding="utf-8")
    cfg = configs_for("steady-n120", seed)[0][1]
    return {"name": "steady_state", "command": "steady-state",
            "out": str(tmp_path), "cfg": cfg}


def _perturb(text, row, column, delta):
    lines = text.splitlines(keepends=True)
    cells = lines[row].rstrip("\r\n").split(",")
    cells[column] = repr(float(cells[column]) + delta)
    lines[row] = ",".join(cells) + "\r\n"
    return "".join(lines)


def test_reference_outputs_pass(tmp_path):
    text = _reference_text("steady-n120", "steady_state", "steady.csv")
    inv = _steady_invocation(tmp_path, text)
    assert checks.check_invocation("steady-n120", inv, DEFAULT_SEED) == []


@pytest.mark.parametrize("column", [1, 2, 3])
def test_perturbed_reference_cell_fails(tmp_path, column):
    text = _perturb(_reference_text("steady-n120", "steady_state", "steady.csv"),
                    row=1, column=column, delta=1e-11)
    inv = _steady_invocation(tmp_path, text)
    problems = checks.check_invocation("steady-n120", inv, DEFAULT_SEED)
    assert len(problems) == 1 and "differs from reference" in problems[0]


def test_other_seed_checks_seed_independent_columns(tmp_path):
    # the cps_pi4 curve does not depend on the coupling draw
    text = _perturb(_reference_text("steady-n120", "steady_state", "steady.csv"),
                    row=1, column=2, delta=1e-11)
    inv = _steady_invocation(tmp_path, text, seed=7)
    problems = checks.check_invocation("steady-n120", inv, 7)
    assert any("cps_pi4" in p for p in problems)


def test_other_seed_checks_invariants(tmp_path):
    # an exact rho00 off by 1e-6 is not compared with the reference at seed 7,
    # but it breaks rho00 + rho11 = 1
    text = _perturb(_reference_text("steady-n120", "steady_state", "steady.csv"),
                    row=1, column=1, delta=1e-6)
    inv = _steady_invocation(tmp_path, text, seed=7)
    problems = checks.check_invocation("steady-n120", inv, 7)
    assert len(problems) == 1 and "rho00 + rho11" in problems[0]


def test_scan_invariants():
    header = "xi,theta," + ",".join(f"sv{i + 1}" for i in range(16))
    good = header + "\n0,0," + ",".join(["2", "1"] + ["0"] * 14) + "\n"
    rising = header + "\n0,0," + ",".join(["1", "2"] + ["0"] * 14) + "\n"
    negative = header + "\n0,0," + ",".join(["2", "1"] + ["-1e-3"] * 14) + "\n"
    assert checks.invariants("scan.csv", good, {}) == []
    assert checks.invariants("scan.csv", rising, {})
    assert checks.invariants("scan.csv", negative, {})


def test_missing_output_fails(tmp_path):
    inv = {"name": "steady_state", "command": "steady-state",
           "out": str(tmp_path), "cfg": {}}
    assert checks.check_invocation("steady-n120", inv, DEFAULT_SEED)


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 7])
def test_empty_output_fails(tmp_path, seed):
    inv = _steady_invocation(tmp_path, "", seed=seed)
    assert checks.check_invocation("steady-n120", inv, seed)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_nested_self_times_add_up_to_parent():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("b"):
            pass
    root = tracer.spans[0]
    own = tracer.self_times()
    assert sum(own.values()) == pytest.approx(root[2] - root[1])
    # root: 1..8; a: 2..5 containing b 3..4; second b: 6..7
    assert own == {"root": 7 - 3 - 1, "a": 3 - 1, "b": 1 + 1}
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 0]


def _snapshot():
    return {name: dict(vars(importlib.import_module(name))) for name in ECPS_MODULES}


def _unchanged(before, after):
    return all(before[m].keys() == after[m].keys()
               and all(after[m][k] is v for k, v in before[m].items())
               for m in before)


def _tiny_spec(tmp_path, trace):
    """One small compare and one small steady-state invocation."""
    cfg = copy.deepcopy(WORKLOADS["compare-n60"][0][1])
    cfg["model"]["n_levels"] = 3
    cfg["time_grid"]["points"] = 7
    steady = copy.deepcopy(WORKLOADS["steady-n120"][0][1])
    steady["model"]["n_levels"] = 3
    steady["realizations"] = 2
    invocations = []
    for name, c in (("compare", cfg), ("steady", steady)):
        path = tmp_path / f"{name}.yaml"
        path.write_text(json.dumps(c), encoding="utf-8")
        invocations.append({"command": c["experiment"], "config": str(path),
                            "out": str(tmp_path / name)})
    return {"invocations": invocations, "trace": trace, "setup_only": False,
            "spans_path": str(tmp_path / "spans.json")}


def test_untraced_sample_leaves_ecps_unchanged(tmp_path):
    import ecps.cli  # noqa: F401  (load every module before the snapshot)
    before = _snapshot()
    result = sample.run_sample(_tiny_spec(tmp_path, trace=False), time.perf_counter())
    assert result["exit_codes"] == [0, 0]
    assert "self_s" not in result
    assert _unchanged(before, _snapshot())


def test_traced_sample_accounts_for_run_and_restores(tmp_path):
    import ecps.cli  # noqa: F401
    before = _snapshot()
    result = sample.run_sample(_tiny_spec(tmp_path, trace=True), time.perf_counter())
    assert result["exit_codes"] == [0, 0]
    assert _unchanged(before, _snapshot())
    counts = result["counts"]
    assert counts["exact.time_points"] == 7 + 2 * 2
    assert counts["exact.realizations"] == 1 + 2
    assert counts["model.build_hamiltonian_calls"] == 3
    assert counts["config.load_config_calls"] == 4
    assert counts["tcl.expm_calls"] > 0
    # run-phase self times add up to the runner spans, which fill the run
    spans = json.loads(Path(tmp_path / "spans.json").read_text())
    runner = sum(e - s for n, s, e, p in spans if n == "cli.runner")
    setup = sum(e - s for n, s, e, p in spans if p < 0 and n != "cli.runner")
    assert sum(result["self_s"].values()) == pytest.approx(runner + setup)
    assert runner <= result["run_s"]


def test_every_target_is_a_function_of_ecps():
    for module, attr, name, spanned, counter in TARGETS:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
        assert name.split(".")[0] in {"config", "model", "linalg", "exact",
                                      "superop", "tcl"}


def test_workload_configs_validate(tmp_path):
    from ecps.config import load_config
    for workload in WORKLOADS:
        for inv in write_configs(workload, 5, tmp_path / workload):
            assert load_config(inv["config"]) == inv["cfg"]


def test_result_line_metrics_match_benchmark_json():
    import run
    bench = json.loads((run.HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"] for m in bench["end_to_end"]} == set(run.END_TO_END)
    per_layer = (set(run.IMPORTS) | {name + "_s" for name in run.SELF_TIMES}
                 | set(run.COUNTS) | {"cli.bytes_written", "process.cpu_s",
                                      "trace.overhead_s", "failed_frac"})
    assert {m["name"] for m in bench["per_layer"]} == per_layer
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)
