"""Record the reference outputs of every workload at the default seed.

    python3 perfbench/record_reference.py

Run from the root of an ecps checkout whose outputs are trusted: it runs each
workload's configs once through ``ecps.cli.main`` (BLAS pinned to one thread,
as in the benchmark) and stores the checked CSVs, gzip-compressed, under
``perfbench/reference/<workload>/<config>/``.
"""
from __future__ import annotations

import contextlib
import gzip
import io
import os
import sys
import tempfile
from pathlib import Path

from checks import reference_path
from run import BLAS_THREAD_VARS
from workloads import DEFAULT_SEED, OUTPUT_FILES, WORKLOADS, write_configs


def main() -> int:
    root = Path.cwd()
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})
    sys.path.insert(0, str(root / "src"))
    import ecps.cli

    (root / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=root / ".perfbench") as tmp:
        for workload in WORKLOADS:
            for inv in write_configs(workload, DEFAULT_SEED, Path(tmp) / workload):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = ecps.cli.main([inv["command"], "--config", inv["config"],
                                          "--out", inv["out"]])
                if code != 0:
                    print(f"{workload}/{inv['name']} exited with {code}",
                          file=sys.stderr)
                    return 1
                for filename in OUTPUT_FILES[inv["command"]]:
                    data = (Path(inv["out"]) / filename).read_bytes()
                    path = reference_path(workload, inv["name"], filename)
                    path.parent.mkdir(parents=True, exist_ok=True)
                    path.write_bytes(gzip.compress(data, mtime=0))
                    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
