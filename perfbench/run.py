"""Benchmark of the ecps CLI experiments, run the way a researcher runs them.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of an ecps checkout. Each sample is a fresh interpreter
(``sample.py``) that imports ``ecps.cli``, loads the workload's configs and
runs each experiment through ``ecps.cli.main``, so import and first-call
costs count in every sample, as they do for every CLI invocation. Samples run
one after another (a closed loop of one client) until the next one would end
after ``--seconds``; BLAS is pinned to one thread in every child process.

With ``--trace 0`` the last line of standard output reports the end-to-end
metrics: medians of ``setup_s`` (interpreter start until the configs are
loaded and validated), ``run_s`` (from there until the last output file is
written) and ``peak_rss_mb``. With ``--trace 1`` it reports the per-layer
metrics: untraced and traced samples alternate, and the traced ones give the
self time and call counts of each ecps module (see README.md). Every
invocation's outputs are checked (``checks.py``); ``attempted`` and
``failed`` count invocations. The line before it is a report with the
environment, the sample count behind each metric and every sample's values.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_invocation
from workloads import DEFAULT_SEED, WORKLOADS, write_configs

HERE = Path(__file__).resolve().parent
#: a sample still running this long after the deadline is killed and failed
GRACE_S = 120
MIN_SETUPS = 5
IMPORT_REPEATS = 3
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

#: metric -> module whose cumulative ``python -X importtime`` figure it reports
IMPORTS = {"import.ecps_s": "ecps.cli", "import.scipy_linalg_s": "scipy.linalg",
           "import.jsonschema_s": "jsonschema", "import.yaml_s": "yaml"}
#: spans whose self time is reported; the span name plus "_s"
SELF_TIMES = [
    "config.load_config",
    "model.sample_couplings", "model.build_hamiltonian", "model.initial_state",
    "linalg.eig_hermitian", "linalg.is_density",
    "exact.evolve_exact", "exact.sector_variables", "exact.ensemble_average",
    "superop.tcl_generator",
    "tcl.solve_tcl", "tcl.steady_state",
    "cli.runner",
]
COUNTS = [
    "config.load_config_calls", "model.build_hamiltonian_calls",
    "linalg.eig_hermitian_calls", "linalg.is_density_calls",
    "exact.sector_variables_calls", "exact.time_points", "exact.realizations",
    "tcl.solve_tcl_calls", "tcl.expm_calls",
]
#: recorded in the report's values but left off the result line. Only the
#: choi-scan experiment calls the first four and the counts, and its workload,
#: choi-fine, is not in BENCHMARK.json; ecps_evolve runs only for a compare
#: config with an "ecps" section, which no workload has.
REPORT_ONLY_SELF_TIMES = [
    "linalg.singular_values", "superop.delta_superop", "superop.choi_matrix",
    "superop.scan_delta", "tcl.ecps_evolve",
]
REPORT_ONLY_COUNTS = [
    "linalg.singular_values_calls", "superop.choi_matrix_calls",
    "superop.grid_points",
]


def _median(values):
    return statistics.median(values) if values else None


def child_env(root: Path, tmp: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env["TMPDIR"] = str(tmp)
    return env


def run_child(spec: dict, work: Path, env: dict, root: Path,
              timeout: float) -> tuple[dict | None, float]:
    """Run one sample process; return (its result or None, wall seconds)."""
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    result_path = Path(spec["result_path"])
    result_path.unlink(missing_ok=True)
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "sample.py"), str(spec_path), repr(start)],
            cwd=root, env=env, capture_output=True, text=True,
            timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print(f"sample timed out after {timeout:.0f} s", file=sys.stderr)
        return None, time.perf_counter() - start
    wall = time.perf_counter() - start
    if proc.stderr:
        print(proc.stderr, file=sys.stderr, end="")
    if proc.returncode != 0 or not result_path.exists():
        print(f"sample exited with code {proc.returncode}", file=sys.stderr)
        return None, wall
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if not result["ecps_file"].startswith(str(root / "src")):
        print(f"sample imported ecps from {result['ecps_file']}", file=sys.stderr)
        return None, wall
    return result, wall


def import_times(root: Path, env: dict) -> dict:
    """Cumulative import seconds of each IMPORTS module in a fresh process."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ecps.cli"],
                          cwd=root, env=env, capture_output=True, text=True,
                          timeout=GRACE_S, check=True)
    cumulative = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
        if m:
            cumulative[m.group(2)] = int(m.group(1)) * 1e-6
    return {metric: cumulative[module] for metric, module in IMPORTS.items()}


def environment(root: Path, versions: dict | None) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "not a git checkout"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    env = {"cpu_model": cpu, "nproc": os.cpu_count(),
           "blas_threads": {var: "1" for var in BLAS_THREAD_VARS},
           "git_commit": commit}
    env.update(versions or {})
    return env


def measure(workload: str, seed: int, seconds: float, trace: bool, root: Path,
            work: Path, spans_path: Path) -> tuple[dict, dict]:
    """Run samples for ``seconds``; return (result line, report). The spans of
    the last traced sample are written to ``spans_path``."""
    invocations = write_configs(workload, seed, work / "configs")
    env = child_env(root, work / "tmp")
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    base = {"invocations": [{k: inv[k] for k in ("command", "config", "out")}
                            for inv in invocations],
            "result_path": str(work / "result.json"),
            "spans_path": str(spans_path)}
    deadline = time.perf_counter() + seconds
    values: dict[str, list] = {}
    attempted = failed = 0
    problems = []
    versions = None
    crashed = False

    def add(name, value):
        values.setdefault(name, []).append(value)

    def sample(traced, setup_only):
        spec = dict(base, trace=traced, setup_only=setup_only)
        return run_child(spec, work, env, root,
                         deadline + GRACE_S - time.perf_counter())

    imports = [import_times(root, env) for _ in range(IMPORT_REPEATS)] if trace else []
    walls = []
    n_untraced = n_traced = 0
    while True:
        traced = trace and n_untraced > n_traced
        for inv in invocations:
            shutil.rmtree(inv["out"], ignore_errors=True)
        result, wall = sample(traced, setup_only=False)
        walls.append(wall)
        attempted += len(invocations)
        if result is None:
            failed += len(invocations)
            problems.append("sample process failed")
            crashed = True
            break
        versions = result["versions"]
        for inv, code in zip(invocations, result["exit_codes"]):
            found = [f"exit code {code}"] if code != 0 else \
                check_invocation(workload, inv, seed)
            if found:
                failed += 1
                problems += [f"{inv['name']}: {p}" for p in found[:5]]
        if traced:
            n_traced += 1
            add("traced_run_s", result["run_s"])
            add("traced_runner_total_s", result["runner_total_s"])
            for name in SELF_TIMES + REPORT_ONLY_SELF_TIMES:
                add(name + "_s", result["self_s"].get(name, 0.0))
            for name in COUNTS + REPORT_ONLY_COUNTS:
                add(name, result["counts"].get(name, 0))
            add("cli.bytes_written", sum(
                f.stat().st_size for inv in invocations
                for f in Path(inv["out"]).rglob("*") if f.is_file()))
        else:
            n_untraced += 1
            for name in ("setup_s", "run_s", "peak_rss_mb", "cpu_s"):
                add(name, result[name])
        enough = n_untraced >= 1 and (n_traced >= 1 or not trace)
        if enough and time.perf_counter() + _median(walls) > deadline:
            break

    # set-up alone is short: repeat it in the time left (untraced runs only)
    setup_walls = []
    while not trace and not crashed and (
            len(values["setup_s"]) < MIN_SETUPS
            or time.perf_counter() + (_median(setup_walls) or 0) <= deadline):
        result, wall = sample(traced=False, setup_only=True)
        setup_walls.append(wall)
        if result is None:
            attempted += 1
            failed += 1
            problems.append("set-up process failed")
            break
        add("setup_s", result["setup_s"])

    if not values.get("run_s") or (trace and not values.get("traced_run_s")):
        raise RuntimeError("no sample completed: " + "; ".join(problems))

    if trace:
        metrics = {m: (_median([t[m] for t in imports]), "s") for m in IMPORTS}
        metrics.update({name + "_s": (_median(values[name + "_s"]), "s")
                        for name in SELF_TIMES})
        # counts repeat exactly from sample to sample
        metrics.update({name: (statistics.median_low(values[name]), "count")
                        for name in COUNTS})
        metrics["cli.bytes_written"] = (
            statistics.median_low(values["cli.bytes_written"]), "B")
        metrics["process.cpu_s"] = (_median(values["cpu_s"]), "s")
        metrics["trace.overhead_s"] = (
            _median(values["traced_run_s"]) - _median(values["run_s"]), "s")
        metrics["failed_frac"] = (failed / attempted, "fraction")
    else:
        metrics = {name: (_median(values[name]), unit)
                   for name, unit in END_TO_END.items()}

    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}
    report = {"workload": workload, "seed": seed, "trace": int(trace),
              "seconds": seconds, "environment": environment(root, versions),
              "samples": {name: len(v) for name, v in values.items()},
              "values": values, "imports": imports, "problems": problems}
    return line, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ecps" / "__init__.py").is_file():
        print(f"no ecps source under {root / 'src'}; run from the root of an "
              f"ecps checkout", file=sys.stderr)
        return 2
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = root / ".perfbench" / f"{label}-{os.getpid()}"
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        line, report = measure(args.workload, args.seed, args.seconds,
                               bool(args.trace), root, work,
                               results / f"{label}.spans.json")
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (results / f"{label}.json").write_text(
        json.dumps({"result": line, "report": report}, indent=1) + "\n",
        encoding="utf-8")
    print(json.dumps({"report": report}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
