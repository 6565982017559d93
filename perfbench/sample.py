"""One benchmark sample: a fresh interpreter that sets up and runs a workload's
experiments through the ecps CLI entry point, as a researcher's run would.

    python3 perfbench/sample.py SPEC_JSON SPAWN_CLOCK

SPEC_JSON names the CLI invocations, whether to trace, whether to stop after
set-up, and where to write the result (and the spans, when traced).
SPAWN_CLOCK is ``time.perf_counter()`` read by the parent just before it
started this process; on Linux that clock is CLOCK_MONOTONIC, which all
processes share, so set-up time counts interpreter start-up.
"""
from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def run_sample(spec: dict, spawn_clock: float) -> dict:
    """Set up, run every invocation in ``spec`` and return the timings.

    Set-up is importing ``ecps.cli`` and loading and validating each config;
    the run is every ``ecps.cli.main`` call, up to the return of the last one,
    by which time its output files are written.
    """
    import ecps.cli
    import ecps.config

    tracer = None
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        for inv in spec["invocations"]:
            ecps.config.load_config(inv["config"])
        setup_end = time.perf_counter()
        result = {"setup_s": setup_end - spawn_clock,
                  "ecps_file": ecps.__file__}
        if spec["setup_only"]:
            return result

        cpu_start = time.process_time()
        codes = []
        for inv in spec["invocations"]:
            argv = [inv["command"], "--config", inv["config"], "--out", inv["out"]]
            span = tracer.span("cli.runner") if tracer else contextlib.nullcontext()
            try:
                with span, contextlib.redirect_stdout(io.StringIO()):
                    codes.append(ecps.cli.main(argv))
            except Exception:  # a crash fails this invocation, not the sample
                traceback.print_exc()
                codes.append(None)
        run_end = time.perf_counter()
        result.update(
            run_s=run_end - setup_end,
            cpu_s=time.process_time() - cpu_start,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            exit_codes=codes,
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        result["self_s"] = tracer.self_times()
        result["runner_total_s"] = tracer.root_time("cli.runner")
        result["counts"] = dict(tracer.counts)
        with open(spec["spans_path"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    result["versions"] = _versions()
    return result


def _versions() -> dict:
    """Library versions and BLAS build of this interpreter (read after timing)."""
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv) -> int:
    spec_path, spawn_clock = argv[1], float(argv[2])
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run_sample(spec, spawn_clock)
    with open(spec["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
