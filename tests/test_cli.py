import csv
import json

import numpy as np
import pytest
import yaml

import ecps.cli
from ecps.cli import main

PI4 = float(np.pi / 4)


def write_cfg(tmp_path, cfg, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def base_model(**kw):
    model = dict(n_levels=12, delta_eps=0.5, alpha=0.02, xi=0.0, seed=321)
    model.update(kw)
    return model


def compare_cfg(**model_kw):
    return {
        "schema_version": 1,
        "experiment": "compare",
        "model": base_model(**model_kw),
        "realizations": 1,
        "initial_state": {
            "system": {"kind": "ket", "amplitudes": [1.0, 0.0]},
            "environment": {"kind": "branch_projector",
                            "theta": float(np.arcsin(0.6)), "branch": 1},
        },
        "projectors": [0.0, PI4],
        "time_grid": {"t_max_over_relaxation": 5.0, "points": 40},
    }


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(x) for x in row] for row in reader]
    return header, np.array(rows)


class TestValidate:
    def test_ok(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, compare_cfg())
        assert main(["validate", "--config", cfg]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_schema_error_exit_2(self, tmp_path, capsys):
        bad = compare_cfg()
        bad["model"]["xi"] = 3.0
        cfg = write_cfg(tmp_path, bad)
        assert main(["validate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "xi" in err

    def test_missing_section_exit_2(self, tmp_path):
        bad = compare_cfg()
        del bad["initial_state"]
        cfg = write_cfg(tmp_path, bad)
        assert main(["validate", "--config", cfg]) == 2

    def test_unreadable_config(self, tmp_path):
        assert main(["validate", "--config", str(tmp_path / "missing.yaml")]) == 2

    @staticmethod
    def ecps_cfg(weights):
        cfg = compare_cfg()
        del cfg["initial_state"]
        cfg["ecps"] = [{"weight": w, "theta": 0.0,
                        "system": {"kind": "diagonal", "populations": [0.9, 0.1]},
                        "environment": {"kind": "maximally_mixed"}}
                       for w in weights]
        return cfg

    @pytest.mark.parametrize("case", ["weights_sum_1e-10_short",
                                      "weights_sum_0.9", "non_density_matrix"])
    def test_configs_the_runner_rejects_exit_2(self, tmp_path, capsys, case):
        if case == "non_density_matrix":
            cfg_dict = compare_cfg()
            cfg_dict["initial_state"]["system"] = {
                "kind": "matrix", "entries_re": [[1.0, 0.9], [0.9, 0.0]]}
        else:
            weight = 0.3333333333 if case == "weights_sum_1e-10_short" else 0.3
            cfg_dict = self.ecps_cfg([weight] * 3)
        cfg = write_cfg(tmp_path, cfg_dict)
        assert main(["validate", "--config", cfg]) == 2
        assert main(["compare", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err


class TestCompare:
    def test_runs_and_writes_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, compare_cfg())
        out = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out / "compare.csv")
        assert header[:4] == ["t", "exact_rho00", "exact_rho01_re", "exact_rho01_im"]
        assert any(c.startswith("tcl_") and c.endswith("_rho00") for c in header)
        assert rows.shape[0] == 40
        assert abs(rows[0, 1] - 1.0) <= 1e-9            # rho00(0) = 1
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["resolved"]["base_seed"] == 321
        assert meta["resolved"]["realization_seeds"] == [321]
        assert (out / "plot.py").exists()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_cfg(tmp_path, compare_cfg())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["compare", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["compare", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "compare.csv").read_bytes() == (out2 / "compare.csv").read_bytes()
        assert (out1 / "metadata.json").read_bytes() == (out2 / "metadata.json").read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_cfg(tmp_path, compare_cfg())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["compare", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["compare", "--config", cfg, "--out", str(out2),
                     "--seed", "999"]) == 0
        assert (out1 / "compare.csv").read_bytes() != (out2 / "compare.csv").read_bytes()

    def test_decoupled_model_constant_curves(self, tmp_path):
        cfg_dict = compare_cfg(alpha=0.0)
        cfg_dict["time_grid"] = {"t_max": 50.0, "points": 20}
        cfg = write_cfg(tmp_path, cfg_dict)
        out = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_csv(out / "compare.csv")
        for col in range(1, rows.shape[1]):
            assert np.abs(rows[:, col] - rows[0, col]).max() <= 1e-9

    def test_ecps_decomposition_curve(self, tmp_path):
        cfg_dict = compare_cfg()
        del cfg_dict["initial_state"]
        cfg_dict["ecps"] = [
            {"weight": 0.5, "theta": 0.0,
             "system": {"kind": "diagonal", "populations": [0.9, 0.1]},
             "environment": {"kind": "maximally_mixed"}},
            {"weight": 0.5, "theta": PI4,
             "system": {"kind": "matrix",
                        "entries_re": [[0.5, 0.4], [0.4, 0.5]]},
             "environment": {"kind": "plus_projector"}},
        ]
        cfg = write_cfg(tmp_path, cfg_dict)
        out = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        header, _ = read_csv(out / "compare.csv")
        assert "ecps_rho00" in header

    def test_non_homogeneous_ecps_exit_3(self, tmp_path, capsys):
        cfg_dict = compare_cfg()
        del cfg_dict["initial_state"]
        # plus-projector environment assigned to the theta=0 projector
        cfg_dict["ecps"] = [
            {"weight": 1.0, "theta": 0.0,
             "system": {"kind": "diagonal", "populations": [0.9, 0.1]},
             "environment": {"kind": "plus_projector"}},
        ]
        cfg = write_cfg(tmp_path, cfg_dict)
        assert main(["compare", "--config", cfg, "--out",
                     str(tmp_path / "out")]) == 3
        assert "component 0" in capsys.readouterr().err

    def test_subcommand_mismatch_exit_2(self, tmp_path):
        cfg = write_cfg(tmp_path, compare_cfg())
        assert main(["choi-scan", "--config", cfg, "--out",
                     str(tmp_path / "out")]) == 2


class TestChoiScan:
    @staticmethod
    def cfg(xi_values, theta_points=64):
        return {
            "schema_version": 1,
            "experiment": "choi-scan",
            "model": base_model(),
            "choi_scan": {"xi_values": xi_values, "theta_points": theta_points,
                          "lam": 1.0},
        }

    def test_default_scan_structure(self, tmp_path):
        cfg = write_cfg(tmp_path, self.cfg([0.0, 0.5, 1.0]))
        out = tmp_path / "out"
        assert main(["choi-scan", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out / "scan.csv")
        assert header == ["xi", "theta"] + [f"sv{i+1}" for i in range(16)]
        assert rows.shape == (3 * 64, 18)
        _, summary = read_csv(out / "summary.csv")
        by_xi = {round(r[0], 6): r for r in summary}
        assert by_xi[0.0][2] <= 1e-10 and abs(by_xi[0.0][1]) <= 1e-12
        assert by_xi[1.0][2] <= 1e-10 and abs(by_xi[1.0][1] - PI4) <= 1e-12
        assert by_xi[0.5][2] > 1e-3

    def test_single_point_grid(self, tmp_path):
        cfg = write_cfg(tmp_path, self.cfg([0.0], theta_points=1))
        out = tmp_path / "out"
        assert main(["choi-scan", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_csv(out / "scan.csv")
        assert rows.shape[0] == 1
        assert rows[0, 2:].max() <= 1e-10

    def test_empty_xi_list_exit_2(self, tmp_path):
        cfg = write_cfg(tmp_path, self.cfg([]))
        assert main(["choi-scan", "--config", cfg, "--out",
                     str(tmp_path / "out")]) == 2


class TestSteadyState:
    @staticmethod
    def cfg():
        return {
            "schema_version": 1,
            "experiment": "steady-state",
            "model": base_model(n_levels=16, xi=0.0),
            "realizations": 2,
            "steady_state": {"p1": 0.5, "p_excited": 0.9, "coherence": 0.8,
                             "t_infinity_over_relaxation": 50.0},
        }

    def test_runs_and_reports_errors(self, tmp_path):
        cfg = write_cfg(tmp_path, self.cfg())
        out = tmp_path / "out"
        assert main(["steady-state", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "steady.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        by_q = {r["quantity"]: r for r in rows}
        assert set(by_q) == {"rho00", "rho11", "rho01_re", "rho01_im"}
        # arithmetic instantiation: ECPS mixes (0.7,0.3) and (0.5,0.5) halves,
        # CPS flattens everything to (0.5, 0.5)
        assert abs(float(by_q["rho00"]["ecps"]) - 0.6) <= 1e-9
        assert abs(float(by_q["rho00"]["cps_pi4"]) - 0.5) <= 1e-9
        assert float(by_q["rho00"]["cps_abs_err"]) > float(by_q["rho00"]["ecps_abs_err"])

    def test_boundary_case_half(self, tmp_path):
        cfg_dict = self.cfg()
        cfg_dict["steady_state"]["p_excited"] = 0.5
        cfg = write_cfg(tmp_path, cfg_dict)
        out = tmp_path / "out"
        assert main(["steady-state", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "steady.csv", newline="") as fh:
            rows = {r["quantity"]: r for r in csv.DictReader(fh)}
        assert abs(float(rows["rho00"]["cps_pi4"]) -
                   float(rows["rho00"]["ecps"])) <= 1e-9


class TestInitialStateBuiltOnce:
    """The composite initial state depends only on N: one build per piece of
    the initial state, however many realizations run."""

    @staticmethod
    def _count_builds(monkeypatch, experiment, cfg_dict, tmp_path):
        calls = []
        original = ecps.cli.initial_state

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(ecps.cli, "initial_state", counting)
        cfg = write_cfg(tmp_path, cfg_dict)
        assert main([experiment, "--config", cfg, "--out", str(tmp_path / "out"),
                     "--realizations", "3"]) == 0
        return len(calls)

    def test_compare(self, monkeypatch, tmp_path):
        assert self._count_builds(monkeypatch, "compare", compare_cfg(), tmp_path) == 1

    def test_steady_state(self, monkeypatch, tmp_path):
        assert self._count_builds(monkeypatch, "steady-state",
                                  TestSteadyState.cfg(), tmp_path) == 2


class TestSeedReport:
    def test_reports_provenance(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, compare_cfg())
        assert main(["seed-report", "--config", cfg, "--realizations", "3"]) == 0
        out = capsys.readouterr().out
        assert "Philox" in out
        assert "base seed: 321" in out
        assert "321, 322, 323" in out
