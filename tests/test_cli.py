import csv
import json

import numpy as np
import pytest
import yaml

import ecps.cli
from ecps.cli import main
from ecps.config import _SECTIONS, CONFIG_SCHEMA

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

    #: initial states without a field that their kind needs, or with one
    #: that it does not read
    FIELD_ERRORS = {
        "ket_without_amplitudes": {"system": {"kind": "ket"}},
        "diagonal_without_populations": {"system": {"kind": "diagonal"}},
        "branch_projector_without_theta": {"environment": {
            "kind": "branch_projector", "branch": 1}},
        "plus_projector_theta_branch": {"environment": {
            "kind": "plus_projector", "theta": 0.3, "branch": 2}},
        "maximally_mixed_branch": {"environment": {
            "kind": "maximally_mixed", "branch": 1}},
        "ket_populations": {"system": {
            "kind": "ket", "amplitudes": [1.0, 0.0], "populations": [0.2, 0.8]}},
        "diagonal_amplitudes": {"system": {
            "kind": "diagonal", "populations": [1.0, 0.0], "amplitudes": [1.0, 0.0]}},
        "matrix_populations": {"system": {
            "kind": "matrix", "entries_re": [[1.0, 0.0], [0.0, 0.0]],
            "populations": [1.0, 0.0]}},
        "ket_populations_plus_projector_theta_branch": {
            "system": {"kind": "ket", "amplitudes": [1.0, 0.0],
                       "populations": [0.2, 0.8]},
            "environment": {"kind": "plus_projector", "theta": 0.3, "branch": 2}},
    }

    @pytest.mark.parametrize("case", ["weights_sum_1e-10_short",
                                      "weights_sum_0.9", "non_density_matrix",
                                      *FIELD_ERRORS, "ecps_maximally_mixed_theta"])
    def test_configs_the_runner_rejects_exit_2(self, tmp_path, capsys, case):
        if case == "non_density_matrix":
            cfg_dict = compare_cfg()
            cfg_dict["initial_state"]["system"] = {
                "kind": "matrix", "entries_re": [[1.0, 0.9], [0.9, 0.0]]}
        elif case in self.FIELD_ERRORS:
            cfg_dict = compare_cfg()
            cfg_dict["initial_state"].update(self.FIELD_ERRORS[case])
        elif case == "ecps_maximally_mixed_theta":
            cfg_dict = self.ecps_cfg([0.5, 0.5])
            cfg_dict["ecps"][1]["environment"]["theta"] = 0.3
        else:
            weight = 0.3333333333 if case == "weights_sum_1e-10_short" else 0.3
            cfg_dict = self.ecps_cfg([weight] * 3)
        cfg = write_cfg(tmp_path, cfg_dict)
        assert main(["validate", "--config", cfg]) == 2
        assert main(["compare", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err


    @pytest.mark.parametrize("experiment", ["compare", "steady-state"])
    def test_vanishing_rate_exit_2(self, tmp_path, capsys, experiment):
        # times set in units of 1/lambda, lambda = alpha^2 (2 pi / delta_eps) N
        if experiment == "compare":
            cfg_dict = compare_cfg(alpha=0.0)       # no absolute t_max
        else:
            cfg_dict = TestSteadyState.cfg()
            cfg_dict["model"]["alpha"] = 0.0
        cfg = write_cfg(tmp_path, cfg_dict)
        assert main(["validate", "--config", cfg]) == 2
        assert main([experiment, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_coinciding_column_tags_exit_2(self, tmp_path, capsys):
        # 0.0 and 1e-5 both give the TCL columns tcl_0p0000pi_*
        cfg_dict = compare_cfg()
        cfg_dict["projectors"] = [0.0, 0.00001, 0.0]
        cfg = write_cfg(tmp_path, cfg_dict)
        assert main(["validate", "--config", cfg]) == 2
        assert main(["compare", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, path, value", [
        ("compare", ("projectors", 0), float("nan")),
        ("compare", ("time_grid", "t_max"), float("inf")),
        ("choi-scan", ("choi_scan", "lam"), float("inf")),
        ("choi-scan", ("choi_scan", "xi_values", 0), float("nan"))],
        ids=["projectors-nan", "t_max-inf", "lam-inf", "xi_values-nan"])
    def test_non_finite_number_exit_2(self, tmp_path, capsys, command, path, value):
        cfg_dict = compare_cfg() if command == "compare" else TestChoiScan.cfg([0.5])
        node = cfg_dict
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value
        cfg = write_cfg(tmp_path, cfg_dict)
        assert main(["validate", "--config", cfg]) == 2
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "config invalid at $" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("xi", [2.0, -0.5])
    def test_xi_value_out_of_range_exit_2(self, tmp_path, capsys, xi):
        cfg = write_cfg(tmp_path, TestChoiScan.cfg([xi]))
        assert main(["validate", "--config", cfg]) == 2
        assert main(["choi-scan", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "['xi_values'][0]" in err
        assert not (tmp_path / "out").exists()

    def test_vanishing_ket_exit_2(self, tmp_path, capsys):
        cfg_dict = compare_cfg()
        cfg_dict["initial_state"]["system"]["amplitudes"] = [0.0, 0.0]
        cfg = write_cfg(tmp_path, cfg_dict)
        assert main(["validate", "--config", cfg]) == 2
        assert "ket amplitudes must not both vanish" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment, alpha", [
        ("compare", 1e155), ("compare", 1e-160), ("steady-state", 1e-160)],
        ids=["compare-rate-overflows", "compare-end-time-overflows",
             "steady-state-end-time-overflows"])
    def test_rate_out_of_range_exit_2(self, tmp_path, capsys, experiment, alpha):
        # alpha ** 2 overflows at 1e155; at 1e-160 the rate is subnormal and
        # 5 / rate (compare) or 50 / rate (steady-state) is infinite
        cfg_dict = compare_cfg() if experiment == "compare" else TestSteadyState.cfg()
        cfg_dict["model"]["alpha"] = alpha
        cfg = write_cfg(tmp_path, cfg_dict)
        assert main(["validate", "--config", cfg]) == 2
        assert main([experiment, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment, section, value", [
        ("compare", "steady_state", {"p1": 0.5, "p_excited": 0.9, "coherence": 0.8}),
        ("compare", "choi_scan", {"xi_values": [0.5]}),
        ("choi-scan", "realizations", 3),
        ("steady-state", "time_grid", {"points": 40}),
        ("steady-state", "projectors", [0.0]),
        ("steady-state", "choi_scan", {"xi_values": [0.5]})],
        ids=["compare-steady_state", "compare-choi_scan", "choi-scan-realizations",
             "steady-state-time_grid", "steady-state-projectors",
             "steady-state-choi_scan"])
    def test_section_the_experiment_does_not_read_exit_2(self, tmp_path, capsys,
                                                         experiment, section, value):
        cfg_dict = {"compare": compare_cfg, "choi-scan": lambda: TestChoiScan.cfg([0.5]),
                    "steady-state": TestSteadyState.cfg}[experiment]()
        cfg_dict[section] = value
        cfg = write_cfg(tmp_path, cfg_dict)
        assert main(["validate", "--config", cfg]) == 2
        assert main([experiment, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert f"$[{section!r}]: {experiment} does not read it" in err
        assert not (tmp_path / "out").exists()

    def test_both_end_times_exit_2(self, tmp_path, capsys):
        cfg_dict = compare_cfg()
        cfg_dict["time_grid"]["t_max"] = 50.0
        cfg = write_cfg(tmp_path, cfg_dict)
        assert main(["validate", "--config", cfg]) == 2
        assert main(["compare", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sections_cover_the_schema(self):
        read = set().union(*_SECTIONS.values())
        common = {"schema_version", "experiment", "model"}
        assert read | common == set(CONFIG_SCHEMA["properties"])

    @pytest.mark.parametrize("command, override", [
        ("compare", ["--seed", "-5"]), ("compare", ["--seed", str(2 ** 64)]),
        ("compare", ["--realizations", "0"]),
        ("seed-report", ["--seed", "-5"]), ("seed-report", ["--realizations", "0"])],
        ids=["compare-seed-5", "compare-seed-2^64", "compare-realizations-0",
             "seed-report-seed-5", "seed-report-realizations-0"])
    def test_override_outside_the_schema_exit_2(self, tmp_path, capsys, command,
                                                override):
        cfg = write_cfg(tmp_path, compare_cfg())
        assert main(["validate", "--config", cfg]) == 0
        out = ["--out", str(tmp_path / "out")] if command == "compare" else []
        assert main([command, "--config", cfg] + out + override) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestOutputDirectory:
    """An --out that cannot be a directory is refused before anything is
    computed."""

    @pytest.mark.parametrize("experiment, out", [
        ("compare", "file"), ("steady-state", "file/x")])
    def test_unusable_out_exit_2(self, tmp_path, capsys, monkeypatch, experiment, out):
        def refuse(*args):
            raise AssertionError("evolve_exact called")

        monkeypatch.setattr(ecps.cli, "evolve_exact", refuse)
        (tmp_path / "file").write_text("")
        cfg_dict = compare_cfg() if experiment == "compare" else TestSteadyState.cfg()
        cfg = write_cfg(tmp_path, cfg_dict)
        assert main([experiment, "--config", cfg, "--out", str(tmp_path / out)]) == 2
        assert "cannot create output directory" in capsys.readouterr().err


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

    def test_fine_time_grid(self, tmp_path):
        # a 20,000-point linspace is uniform only to about eps of its span
        cfg = compare_cfg(n_levels=2)
        cfg["time_grid"]["points"] = 20000
        out = tmp_path / "out"
        assert main(["compare", "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out)]) == 0
        assert read_csv(out / "compare.csv")[1].shape[0] == 20000

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_cfg(tmp_path, compare_cfg())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["compare", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["compare", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "compare.csv").read_bytes() == (out2 / "compare.csv").read_bytes()
        assert (out1 / "metadata.json").read_bytes() == (out2 / "metadata.json").read_bytes()

    @pytest.mark.parametrize("tiny, unit", [
        ([1.0e-200, 0.0], [1.0, 0.0]), ([0.0, 1.0e-200], [0.0, 1.0]),
        ([1.0786158809173895e+308, 1.4381545078898528e+308], [0.6, 0.8])],
        ids=["1e-200,0", "0,1e-200", "2^1024*(0.6,0.8)"])
    def test_tiny_ket_amplitudes_normalize(self, tmp_path, tiny, unit):
        # the squares of the amplitudes underflow to 0 (or their sum
        # overflows); their norm does not
        csvs = []
        for amplitudes in (tiny, unit):
            cfg_dict = compare_cfg()
            cfg_dict["initial_state"]["system"]["amplitudes"] = amplitudes
            cfg = write_cfg(tmp_path, cfg_dict, name=f"{amplitudes}.yaml")
            out = tmp_path / str(amplitudes)
            assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
            csvs.append((out / "compare.csv").read_bytes())
        assert csvs[0] == csvs[1]

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_cfg(tmp_path, compare_cfg())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["compare", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["compare", "--config", cfg, "--out", str(out2),
                     "--seed", "999"]) == 0
        assert (out1 / "compare.csv").read_bytes() != (out2 / "compare.csv").read_bytes()

    def test_override_run_repeats_from_its_metadata(self, tmp_path):
        cfg = write_cfg(tmp_path, compare_cfg())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["compare", "--config", cfg, "--out", str(out1),
                     "--seed", "999", "--realizations", "2"]) == 0
        echoed = json.loads((out1 / "metadata.json").read_text())["config"]
        assert echoed["model"]["seed"] == 999 and echoed["realizations"] == 2
        cfg2 = write_cfg(tmp_path, echoed, name="echoed.yaml")
        assert main(["compare", "--config", cfg2, "--out", str(out2)]) == 0
        for name in ("compare.csv", "metadata.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

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

    def test_summary_is_first_strict_minimizer(self, tmp_path):
        cfg = write_cfg(tmp_path, self.cfg([0.0, 0.3, 0.5, 1.0]))
        out = tmp_path / "out"
        assert main(["choi-scan", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_csv(out / "scan.csv")
        _, summary = read_csv(out / "summary.csv")
        expected = []
        for xi in (0.0, 0.3, 0.5, 1.0):
            best_theta, best_max = None, np.inf
            for _, theta, max_sv in rows[rows[:, 0] == xi][:, :3]:
                if max_sv < best_max:
                    best_max, best_theta = max_sv, theta
            expected.append((xi, best_theta, best_max))
        assert np.array_equal(summary, np.array(expected))

    def test_summary_keeps_first_of_tied_minima(self, tmp_path, monkeypatch):
        sv = np.zeros((2, 5, 16))
        sv[:, :, 0] = [[3.0, 1.0, 2.0, 1.0, 1.0], [2.0, 2.0, 2.0, 2.0, 2.0]]
        monkeypatch.setattr(ecps.cli, "scan_delta", lambda xis, grid, lam: sv)
        cfg = write_cfg(tmp_path, self.cfg([0.0, 1.0], theta_points=5))
        out = tmp_path / "out"
        assert main(["choi-scan", "--config", cfg, "--out", str(out)]) == 0
        _, summary = read_csv(out / "summary.csv")
        grid = np.linspace(0.0, PI4, 5)
        assert np.array_equal(summary, [[0.0, grid[1], 1.0], [1.0, grid[0], 2.0]])

    def test_realizations_flag_is_a_usage_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, self.cfg([0.5]))
        with pytest.raises(SystemExit) as exc:
            main(["choi-scan", "--config", cfg, "--out", str(tmp_path / "out"),
                  "--realizations", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --realizations" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_seed_report_realizations_override_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, self.cfg([0.5]))
        assert main(["validate", "--config", cfg]) == 0
        assert main(["seed-report", "--config", cfg, "--realizations", "3"]) == 2
        assert "config error" in capsys.readouterr().err

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
    """The initial state depends only on N: one build per piece of the
    initial state, however many realizations run."""

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

    def test_choi_scan_reports_no_realizations(self, tmp_path, capsys):
        # the Choi scan draws no couplings, so there are no realization seeds
        cfg = write_cfg(tmp_path, TestChoiScan.cfg([0.5]))
        assert main(["seed-report", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "base seed: 321" in out
        assert "realization" not in out


class TestDuplicateKeys:
    """A repeated YAML key is a config error, not a silent last-one-wins."""

    @staticmethod
    def write_dup(tmp_path):
        text = yaml.safe_dump(compare_cfg()).replace("  xi: 0.0\n", "  xi: 0.0\n  xi: 0.5\n")
        assert text.count("xi:") == 2
        path = tmp_path / "dup.yaml"
        path.write_text(text)
        return str(path)

    def test_validate_exit_2(self, tmp_path, capsys):
        assert main(["validate", "--config", self.write_dup(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "repeated key 'xi'" in err

    def test_runner_exit_2_without_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["compare", "--config", self.write_dup(tmp_path),
                     "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_top_level_section(self, tmp_path, capsys):
        text = yaml.safe_dump(compare_cfg()) + "realizations: 2\n"
        path = tmp_path / "dup.yaml"
        path.write_text(text)
        assert main(["validate", "--config", str(path)]) == 2
        assert "repeated key 'realizations'" in capsys.readouterr().err
