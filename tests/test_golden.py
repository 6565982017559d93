"""The shipped configs reproduce their recorded outputs.

``tests/golden/<config>/`` holds the CSVs that ``ecps <experiment> --config
configs/<config>.yaml`` wrote when they were recorded. A refactor or an
optimization must reproduce every numeric cell to GOLDEN_TOL; text cells
(headers, row labels) must be equal.
"""
import csv
from pathlib import Path

import pytest
import yaml

from ecps.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_TOL = 1e-12
CONFIGS = sorted(p.name for p in GOLDEN.iterdir() if p.is_dir())


def _cells(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


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
        got, want = _cells(tmp_path / golden.name), _cells(golden)
        assert got[0] == want[0], f"{golden.name}: header"
        assert len(got) == len(want), f"{golden.name}: row count"
        bad = []
        for r, (row, ref) in enumerate(zip(got[1:], want[1:]), start=1):
            assert len(row) == len(ref), f"{golden.name}: row {r} length"
            for i, (cell, ref_cell) in enumerate(zip(row, ref)):
                try:
                    diff = abs(float(cell) - float(ref_cell))
                except ValueError:
                    assert cell == ref_cell, f"{golden.name}: row {r}, {want[0][i]}"
                    continue
                if not diff <= GOLDEN_TOL:      # also catches NaN
                    bad.append((r, want[0][i], cell, ref_cell))
        assert not bad, f"{golden.name}: {len(bad)} cells off, first {bad[:3]}"
