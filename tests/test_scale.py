"""The shipped experiments do not depend on the overall rate scale.

Scaling ``delta_eps`` and ``alpha`` by s scales the Hamiltonian by s and the
relaxation rate lambda = alpha^2 (2 pi / delta_eps) N by s, and every shipped
compare and steady-state config sets its times in units of 1/lambda. So every
CSV column but the time ``t`` must be the same at every s, from scales at
which absolute tolerances would pass anything (1e-100) to scales at which
they would refuse rounding (1e8 and up). The choi-scan config is left out:
its scan reads only its own ``choi_scan.lam``.
"""
import csv
from pathlib import Path

import numpy as np
import pytest
import yaml

from ecps.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SCALED = sorted(p.stem for p in CONFIGS.glob("*.yaml")
                if yaml.safe_load(p.read_text())["experiment"] != "choi-scan")
SCALES = [1e-100, 0.25, 3.0, 1e8, 1e100]
SCALE_TOL = 1e-13


def _columns(cfg, out):
    """Run ``cfg`` into ``out`` and return its CSV's numeric columns but t."""
    out.mkdir()
    path = out / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main([cfg["experiment"], "--config", str(path), "--out", str(out)]) == 0
    [table] = out.glob("*.csv")
    with open(table, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    keep = [i for i, name in enumerate(header) if name not in ("t", "quantity")]
    return [header[i] for i in keep], np.array([[float(row[i]) for i in keep]
                                                for row in rows])


def test_every_runnable_shipped_config_is_scaled():
    assert SCALED == ["compare_coherence", "compare_mixed_coherence",
                      "compare_mixed_population", "compare_population",
                      "steady_state"]


@pytest.mark.parametrize("name", SCALED)
def test_outputs_do_not_depend_on_the_rate_scale(name, tmp_path):
    cfg = yaml.safe_load((CONFIGS / f"{name}.yaml").read_text())
    header, ref = _columns(cfg, tmp_path / "1")
    off = {}
    for s in SCALES:
        model = dict(cfg["model"], delta_eps=cfg["model"]["delta_eps"] * s,
                     alpha=cfg["model"]["alpha"] * s)
        got_header, got = _columns({**cfg, "model": model}, tmp_path / f"{s:g}")
        assert got_header == header
        dev = np.abs(got - ref).max()
        if not dev <= SCALE_TOL:        # also catches NaN
            off[s] = dev
    assert off == {}, f"{name}: largest deviation from s = 1 per scale s: {off}"
