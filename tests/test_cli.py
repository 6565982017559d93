import csv
import json
import runpy
import sys
import types
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml

import ecps.cli
from ecps import HomogeneityError
from ecps.cli import main
from ecps.config import _SECTIONS, CONFIG_SCHEMA

PI4 = float(np.pi / 4)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
        # python -m ecps.cli: a fresh module, run as __main__, exits with main's code
        with mock.patch.dict(sys.modules), \
                mock.patch.object(sys, "argv", ["ecps", "validate", "--config", cfg]), \
                pytest.raises(SystemExit) as done:
            del sys.modules["ecps.cli"]
            runpy.run_module("ecps.cli", run_name="__main__")
        assert done.value.code == 0
        assert "config ok" in capsys.readouterr().out

    def test_schema_error_exit_2(self, tmp_path, capsys):
        bad = compare_cfg()
        bad["model"]["xi"] = 3.0
        cfg = write_cfg(tmp_path, bad)
        assert main(["validate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "xi" in err

    def test_missing_section_exit_2(self, tmp_path, capsys):
        bad = compare_cfg()
        del bad["initial_state"]
        # steady-state and choi-scan without their own section, and a root
        # that is not a mapping of sections
        steady, scan = TestSteadyState.cfg(), TestChoiScan.cfg([0.5])
        del steady["steady_state"], scan["choi_scan"]
        for cfg_dict in (bad, steady, scan, [bad]):
            cfg = write_cfg(tmp_path, cfg_dict)
            assert main(["validate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.count("config error") == 4
        assert "needs a 'steady_state' section" in err and "needs a 'choi_scan' section" in err
        assert "config root must be a mapping" in err

    def test_unreadable_config(self, tmp_path):
        assert main(["validate", "--config", str(tmp_path / "missing.yaml")]) == 2

    def test_config_not_utf8_exit_2(self, tmp_path, capsys):
        # a Latin-1 e-acute in a comment is not valid UTF-8
        path = tmp_path / "latin1.yaml"
        path.write_bytes(b"# caf\xe9\n" + yaml.safe_dump(compare_cfg()).encode())
        assert main(["validate", "--config", str(path)]) == 2
        assert main(["compare", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("config error: cannot read config") == 2
        assert not (tmp_path / "out").exists()

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
                                      *FIELD_ERRORS, "ecps_maximally_mixed_theta",
                                      "mixture_trace_1.004e-10_over",
                                      "t_max_1e-318", "t_max_3e-321",
                                      "delta_eps_1e160", "delta_eps_4_t_max_1e308",
                                      "alpha_1e152_t_max_1e157",
                                      "alpha_1e150_t_max_1e157"])
    def test_configs_the_runner_rejects_exit_2(self, tmp_path, capsys, case):
        if case.startswith("alpha_"):
            # rate * t_max overflows; unrefused, the exact phases overflow at
            # 1e152, and the TCL states come out NaN at 1e150
            cfg_dict = yaml.safe_load(
                (CONFIGS / "compare_mixed_coherence.yaml").read_text())
            cfg_dict["model"].update(n_levels=3, alpha=float(case.split("_")[1]))
            cfg_dict["time_grid"] = {"t_max": 1e157, "points": 400}
        elif case.startswith("delta_eps_"):
            # phases delta_eps * t_max overflow: at 1e160 through t_max = 5 /
            # rate, which grows as delta_eps, and at 4 through t_max itself
            cfg_dict = compare_cfg(delta_eps=float(case.split("_")[2]))
            if case.endswith("1e308"):
                cfg_dict["time_grid"] = {"t_max": 1e308, "points": 5}
        elif case.startswith("t_max_"):
            # subnormal grids: linspace's steps differ (1e-318), or some do
            # not increase (3e-321), so the solvers refuse them
            cfg_dict = compare_cfg()
            cfg_dict["time_grid"] = {"t_max": float(case[6:]), "points": 400}
        elif case == "mixture_trace_1.004e-10_over":
            # each piece passes: its trace is off by 9.95e-11 and the weight
            # sum by 9e-13, but their mixture's trace is off by 1.004e-10
            cfg_dict = self.ecps_cfg([0.5, 0.5 + 9e-13])
            for piece in cfg_dict["ecps"]:
                piece["system"]["populations"] = [0.5, 0.5 + 9.95e-11]
        elif case == "non_density_matrix":
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

    def test_large_alpha_grid_exit_0(self, tmp_path):
        # the rate is finite, and t_max = 5 / rate a normal number
        cfg_dict = compare_cfg(alpha=3e152, n_levels=2)
        cfg_dict["time_grid"]["points"] = 3
        cfg = write_cfg(tmp_path, cfg_dict)
        assert main(["validate", "--config", cfg]) == 0
        assert main(["compare", "--config", cfg, "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("d_angle", [0.0, 1e-12, 1e-6])
    @pytest.mark.parametrize("d_weight", [0.0, 9e-13, -9e-13])
    @pytest.mark.parametrize("d_trace", [0.0, 9.95e-11, 1.01e-10, -9.9e-11])
    def test_what_validate_accepts_compare_runs(self, tmp_path, d_trace, d_weight,
                                                d_angle):
        # two theta = 0 pieces near every bound: the trace of each system
        # state, the weight sum, their mixture's trace and homogeneity
        cfg_dict = self.ecps_cfg([0.5, 0.5 + d_weight])
        cfg_dict["model"]["n_levels"] = 2
        cfg_dict["time_grid"]["points"] = 3
        cfg_dict["ecps"][1]["environment"] = {"kind": "branch_projector",
                                              "theta": d_angle}
        for piece in cfg_dict["ecps"]:
            piece["system"]["populations"] = [0.5, 0.5 + d_trace]
        cfg = write_cfg(tmp_path, cfg_dict)
        accepted = abs(d_trace) < 1e-10 and abs(d_trace + d_weight) < 1e-10 \
            and d_angle < 1e-6
        code = 0 if accepted else 2
        assert main(["validate", "--config", cfg]) == code
        assert main(["compare", "--config", cfg, "--out", str(tmp_path / "out")]) == code
        assert (tmp_path / "out").exists() == accepted


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
        err = capsys.readouterr().err
        assert "config error: relaxation rate vanishes at alpha = 0.0" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment", ["compare", "steady-state"])
    def test_underflowing_rate_exit_2(self, tmp_path, capsys, experiment):
        # alpha ** 2 underflows to 0 at alpha = 1e-163, which is not 0
        cfg_dict = compare_cfg() if experiment == "compare" else TestSteadyState.cfg()
        cfg_dict["model"]["alpha"] = 1e-163
        cfg = write_cfg(tmp_path, cfg_dict)
        assert main(["validate", "--config", cfg]) == 2
        assert main([experiment, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error: relaxation rate underflows to 0 at alpha = 1e-163" in err
        assert not (tmp_path / "out").exists()

    def test_integral_floats_are_integers(self, tmp_path):
        # JSON Schema's integer takes a number with a zero fraction
        outputs = []
        for i, number in enumerate((int, float)):
            cfg_dict = compare_cfg(n_levels=number(60), seed=number(20260809))
            cfg_dict["time_grid"]["points"] = number(40)
            cfg_dict["realizations"] = number(1)
            cfg = write_cfg(tmp_path, cfg_dict, f"cfg{i}.yaml")
            assert main(["validate", "--config", cfg]) == 0
            out = tmp_path / f"out{i}"
            assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
            outputs.append((out / "compare.csv").read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("path, value", [
        (("model", "n_levels"), True), (("model", "alpha"), False),
        (("model", "seed"), True), (("realizations",), True),
        (("time_grid", "points"), True)],
        ids=["n_levels-true", "alpha-false", "seed-true", "realizations-true",
             "points-true"])
    def test_boolean_for_a_number_exit_2(self, tmp_path, capsys, path, value):
        cfg_dict = compare_cfg()
        node = cfg_dict
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        cfg = write_cfg(tmp_path, cfg_dict)
        assert main(["validate", "--config", cfg]) == 2
        assert main(["compare", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config invalid at $" in err and repr(path[-1]) in err
        assert not (tmp_path / "out").exists()

    @staticmethod
    def respelled_cfg(tmp_path, name, key, decimal, spelling):
        """A compare config file whose ``key: decimal`` line reads ``key:
        spelling``, in YAML the dumper would not write."""
        text = yaml.safe_dump(compare_cfg(alpha=0.005, n_levels=60))
        assert f"{key}: {decimal}\n" in text
        path = tmp_path / name
        path.write_text(text.replace(f"{key}: {decimal}\n", f"{key}: {spelling}\n"))
        return str(path)

    @pytest.mark.parametrize("key, decimal, exponent", [
        ("alpha", "0.005", "5e-3"), ("alpha", "0.005", "5E-3"),
        ("n_levels", "60", "6e1")])
    def test_exponent_floats_are_numbers(self, tmp_path, key, decimal, exponent):
        # YAML 1.1 reads these as strings; YAML 1.2 and the config read numbers
        outputs = []
        for i, spelling in enumerate((decimal, exponent)):
            cfg = self.respelled_cfg(tmp_path, f"cfg{i}.yaml", key, decimal, spelling)
            out = tmp_path / f"out{i}"
            assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
            outputs.append((out / "compare.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_overflowing_exponent_exit_2(self, tmp_path, capsys):
        cfg = self.respelled_cfg(tmp_path, "cfg.yaml", "alpha", "0.005", "1e400")
        assert main(["validate", "--config", cfg]) == 2
        assert main(["compare", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config invalid at $['model']['alpha']: inf is not finite" in err
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

    def test_steady_state_end_time_underflow_exit_2(self, tmp_path, capsys):
        # 5e-324 / rate is 0 at a rate above 1, and the exact run's two
        # times 0 and 0 do not increase
        cfg_dict = TestSteadyState.cfg()
        cfg_dict["model"]["alpha"] = 1.0
        cfg_dict["steady_state"]["t_infinity_over_relaxation"] = 5e-324
        cfg = write_cfg(tmp_path, cfg_dict)
        assert main(["validate", "--config", cfg]) == 2
        assert main(["steady-state", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "config error: steady-state end time out of range" in capsys.readouterr().err

    def test_steady_state_phase_overflow_exit_2(self, tmp_path, capsys):
        # 50 / rate grows as delta_eps, so delta_eps * end time overflows
        cfg_dict = TestSteadyState.cfg()
        cfg_dict["model"]["delta_eps"] = 1e200
        cfg = write_cfg(tmp_path, cfg_dict)
        assert main(["validate", "--config", cfg]) == 2
        assert main(["steady-state", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "config error: steady-state phases overflow" in capsys.readouterr().err
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

    def test_one_validation_per_invocation(self, tmp_path, monkeypatch):
        calls = mock.Mock(wraps=ecps.config._validate)
        monkeypatch.setattr(ecps.config, "_validate", calls)
        cfg = write_cfg(tmp_path, compare_cfg())
        assert main(["compare", "--config", cfg, "--out", str(tmp_path / "out"),
                     "--seed", "5"]) == 0
        assert calls.call_count == 1

    def test_override_replaces_an_invalid_field(self, tmp_path):
        # the run is judged by the seed it runs with, not by the file's
        cfg = write_cfg(tmp_path, compare_cfg(seed=-1))
        out = tmp_path / "out"
        assert main(["validate", "--config", cfg]) == 2
        assert main(["compare", "--config", cfg, "--out", str(out), "--seed", "5"]) == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["config"]["model"]["seed"] == 5
        assert meta["resolved"]["base_seed"] == 5

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

    def test_non_homogeneous_ecps_exit_2(self, tmp_path, capsys, monkeypatch):
        # a plus-projector environment under the theta = 0 projector is
        # refused at load, by ecps_evolve's own check, before any draw
        cfg_dict = yaml.safe_load((CONFIGS / "compare_mixed_population.yaml").read_text())
        del cfg_dict["initial_state"]
        cfg_dict["realizations"] = 16
        cfg_dict["ecps"] = [
            {"weight": 1.0, "theta": 0.0,
             "system": {"kind": "diagonal", "populations": [0.9, 0.1]},
             "environment": {"kind": "plus_projector"}},
        ]
        cfg = write_cfg(tmp_path, cfg_dict)
        monkeypatch.setattr(ecps.cli, "sample_couplings", mock.Mock(
            side_effect=AssertionError("a coupling was drawn")))
        assert main(["validate", "--config", cfg]) == 2
        assert main(["compare", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("config invalid at $['ecps']: component 0:") == 2
        assert not (tmp_path / "out").exists()

    def test_solver_refusal_is_the_exit_3_backstop(self, tmp_path, capsys,
                                                   monkeypatch):
        # configs that pass the check and that a solver refuses: the exact
        # phases max|w| * t_max overflow while delta_eps * t_max and rate *
        # t_max do not, and expm(K dt) gives NaN states at t_max = 1e102
        coherence = yaml.safe_load((CONFIGS / "compare_mixed_coherence.yaml").read_text())
        coherence["model"].update(n_levels=60, delta_eps=1.0,
                                  alpha=0.051639777949432225)
        coherence["time_grid"] = {"t_max": 1.78e308, "points": 5}
        population = yaml.safe_load((CONFIGS / "compare_population.yaml").read_text())
        population["time_grid"] = {"t_max": 1e102, "points": 400}
        for name, cfg_dict, why in (("phases", coherence, "phases overflow"),
                                    ("tcl", population, "TCL states are not finite")):
            cfg = write_cfg(tmp_path, cfg_dict, name=f"{name}.yaml")
            assert main(["validate", "--config", cfg]) == 0
            out = tmp_path / name
            assert main(["compare", "--config", cfg, "--out", str(out)]) == 3
            assert f"numerical precondition failed: {why}" in capsys.readouterr().err
            assert not (out / "compare.csv").exists()

        # the runner builds its pieces on another route than the config
        # check, so a state may pass one and not the other in the last bits
        def refuse(*args):
            raise HomogeneityError("component 0: not invariant")
        monkeypatch.setattr(ecps.cli, "ecps_evolve", refuse)
        cfg = write_cfg(tmp_path, TestValidate.ecps_cfg([0.5, 0.5]))
        assert main(["compare", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert "numerical precondition failed: component 0" in capsys.readouterr().err

    def test_subcommand_mismatch_exit_2(self, tmp_path):
        cfg = write_cfg(tmp_path, compare_cfg())
        assert main(["choi-scan", "--config", cfg, "--out",
                     str(tmp_path / "out")]) == 2


class TestComparePlot:
    """The emitted plot.py draws, in each panel, one line per curve of
    compare.csv: exact, each TCL projector and, when configured, ECPS."""

    @staticmethod
    def run_plot(monkeypatch, out):
        fig, axes = mock.Mock(), (mock.Mock(), mock.Mock())
        pyplot = types.ModuleType("matplotlib.pyplot")
        pyplot.subplots = mock.Mock(return_value=(fig, axes))
        matplotlib = types.ModuleType("matplotlib")
        matplotlib.use = mock.Mock()
        matplotlib.pyplot = pyplot
        monkeypatch.setitem(sys.modules, "matplotlib", matplotlib)
        monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)
        runpy.run_path(str(out / "plot.py"))
        matplotlib.use.assert_called_once_with("Agg")
        fig.savefig.assert_called_once()
        assert fig.savefig.call_args.args[0] == out / "compare.png"
        return axes

    @pytest.mark.parametrize("ecps", [False, True], ids=["tcl", "tcl+ecps"])
    def test_one_line_per_curve(self, tmp_path, monkeypatch, capsys, ecps):
        cfg_dict = TestValidate.ecps_cfg([0.5, 0.5]) if ecps else compare_cfg()
        out = (tmp_path / "out").resolve()
        assert main(["compare", "--config", write_cfg(tmp_path, cfg_dict),
                     "--out", str(out)]) == 0
        ax_pop, ax_coh = self.run_plot(monkeypatch, out)
        header, rows = read_csv(out / "compare.csv")
        col = {name: rows[:, i] for i, name in enumerate(header)}
        curves = ["exact", "tcl_0p0000pi", "tcl_0p2500pi"] + ["ecps"] * ecps
        for ax in (ax_pop, ax_coh):
            assert [c.kwargs["label"] for c in ax.plot.call_args_list] == curves
        for name, pop, coh in zip(curves, ax_pop.plot.call_args_list,
                                  ax_coh.plot.call_args_list):
            assert pop.args[0] == coh.args[0] == list(col["t"])
            assert pop.args[1] == list(col[f"{name}_rho00"])
            np.testing.assert_allclose(coh.args[1], np.hypot(
                col[f"{name}_rho01_re"], col[f"{name}_rho01_im"]), rtol=1e-14, atol=0)


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

    @pytest.mark.parametrize("flags", [[], ["--seed", "999"], ["--realizations", "3"],
                                       ["--seed", "999", "--realizations", "3"]],
                             ids=["config", "seed", "realizations", "both"])
    @pytest.mark.parametrize("experiment", ["compare", "steady-state"])
    def test_matches_the_run_metadata(self, tmp_path, capsys, experiment, flags):
        cfg_dict = compare_cfg() if experiment == "compare" else TestSteadyState.cfg()
        cfg = write_cfg(tmp_path, cfg_dict)
        assert main(["seed-report", "--config", cfg] + flags) == 0
        report = dict(line.split(": ", 1)
                      for line in capsys.readouterr().out.splitlines())
        out = tmp_path / "out"
        assert main([experiment, "--config", cfg, "--out", str(out)] + flags) == 0
        resolved = json.loads((out / "metadata.json").read_text())["resolved"]
        assert report["base seed"] == str(resolved["base_seed"])
        assert report["realizations"] == str(resolved["n_realizations"])
        assert report["realization seeds"] == ", ".join(
            str(s) for s in resolved["realization_seeds"])

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
