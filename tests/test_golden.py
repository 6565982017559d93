"""The shipped configs reproduce their recorded outputs.

``tests/golden/<config>/`` holds the CSVs and the ``metadata.json`` that
``ecps <experiment> --config configs/<config>.yaml`` wrote when they were
recorded. A refactor or an optimization must reproduce every numeric CSV cell
to GOLDEN_TOL, and text cells (headers, row labels) must be equal. The
metadata must be equal as parsed JSON, exactly: it is the provenance a run is
repeated from, so no number in it may move.
"""
import csv
import gzip
import importlib.util
import io
import json
from pathlib import Path

import pytest
import yaml

from ecps.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_TOL = 1e-12
CONFIGS = sorted(p.name for p in GOLDEN.iterdir() if p.is_dir())
BENCH = ROOT / "perfbench"


def _cells(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _assert_cells_match(name, got, want):
    """Every numeric cell within GOLDEN_TOL, every text cell equal."""
    assert got[0] == want[0], f"{name}: header"
    assert len(got) == len(want), f"{name}: row count"
    bad = []
    for r, (row, ref) in enumerate(zip(got[1:], want[1:]), start=1):
        assert len(row) == len(ref), f"{name}: row {r} length"
        for i, (cell, ref_cell) in enumerate(zip(row, ref)):
            try:
                diff = abs(float(cell) - float(ref_cell))
            except ValueError:
                assert cell == ref_cell, f"{name}: row {r}, {want[0][i]}"
                continue
            if not diff <= GOLDEN_TOL:      # also catches NaN
                bad.append((r, want[0][i], cell, ref_cell))
    assert not bad, f"{name}: {len(bad)} cells off, first {bad[:3]}"


def test_every_shipped_config_has_goldens():
    shipped = sorted(p.stem for p in (ROOT / "configs").glob("*.yaml"))
    assert CONFIGS == shipped


@pytest.mark.parametrize("name", CONFIGS)
def test_shipped_config_matches_golden(name, tmp_path):
    config = ROOT / "configs" / f"{name}.yaml"
    experiment = yaml.safe_load(config.read_text())["experiment"]
    assert main([experiment, "--config", str(config), "--out", str(tmp_path)]) == 0
    goldens = sorted((GOLDEN / name).glob("*.csv"))
    assert goldens
    for golden in goldens:
        _assert_cells_match(golden.name, _cells(tmp_path / golden.name),
                            _cells(golden))
    assert (json.loads((tmp_path / "metadata.json").read_text(encoding="utf-8"))
            == json.loads((GOLDEN / name / "metadata.json").read_text(encoding="utf-8")))


def test_choi_fine_matches_benchmark_reference(tmp_path):
    # the 11 x 256 Choi scan of the benchmark's choi-fine workload, checked
    # against the references the benchmark records (perfbench/ is only read)
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    [(name, cfg)] = workloads.WORKLOADS["choi-fine"]
    config = tmp_path / f"{name}.yaml"
    config.write_text(json.dumps(cfg))          # JSON is valid YAML
    out = tmp_path / "out"
    assert main(["choi-scan", "--config", str(config), "--out", str(out)]) == 0
    for filename in ("scan.csv", "summary.csv"):
        ref = BENCH / "reference" / "choi-fine" / name / (filename + ".gz")
        want = list(csv.reader(io.StringIO(gzip.decompress(ref.read_bytes())
                                           .decode("utf-8"))))
        _assert_cells_match(filename, _cells(out / filename), want)
