import json
import math

import pytest

from azarin.catalog import BUILTINS, builtin_config, builtin_names
from azarin.cli import main


def run_cli(args):
    return main([str(a) for a in args])


class TestListBuiltins:
    def test_at_least_nine_entries(self, capsys):
        assert run_cli(["list-builtins"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) >= 9
        for name in builtin_names():
            assert any(line.startswith(name) for line in out)


class TestRunErrors:
    def test_unknown_name(self, capsys):
        assert run_cli(["run", "definitely_not_a_builtin"]) == 1

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert run_cli(["run", bad]) == 1

    def test_negative_tolerance(self, tmp_path, capsys):
        cfg = {"operation": "potter_check", "order": {"rho": 0.5},
               "params": {"tol": -1.0}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["run", path]) == 1
        assert "tolerance" in capsys.readouterr().err

    def test_unknown_operation(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"operation": "no_such_op"}))
        assert run_cli(["run", path]) == 1

    def test_missing_field_diagnostic(self, tmp_path, capsys):
        cfg = {"operation": "limit_set_estimate",
               "order": {"zero_part": {"kind": "zero"}},
               "measure": {}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["run", path]) == 1
        assert "order.rho" in capsys.readouterr().err

    def test_max_window_flag_rejected(self, tmp_path, capsys):
        # the flag used to be accepted and then ignored
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "lattice_kernel_zeros", "--out-dir", tmp_path,
                     "--max-window", 1])
        assert exc.value.code == 2
        assert "--max-window" in capsys.readouterr().err

    @pytest.mark.parametrize("operation, params, path", [
        ("oscillating_family_check", {}, "params.oscillation"),
        ("limit_set_estimate", {"schedule": {"start": 1e3, "points": 8}},
         "params.schedule.stop"),
        ("transform_table", {"r_grid": {"start": 1.0, "stop": 10.0}},
         "params.r_grid.points"),
        ("periodic_family_check", {}, "params.period"),
        ("sparse_flow_check", {"probe": {}}, "params.probe.interval"),
        ("poisson_smoothing_check", {"checks": [{"r": 10.0}]},
         "params.checks[0].bound"),
        ("mellin_symbol_table", {"lambda_grid": {"stop": 1.0, "points": 3}},
         "params.lambda_grid.start"),
    ])
    def test_missing_param_field_diagnostic(self, operation, params, path,
                                            tmp_path, capsys):
        cfg = {"operation": operation, "order": {"rho": 1.0},
               "measure": {"densities": [{"kind": "power", "s": 0.0}]},
               "kernel": {"kind": "exp"}, "params": params}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["run", cfg_path, "--out-dir", tmp_path]) == 1
        assert "config error: %s: missing required field" % path \
            in capsys.readouterr().err


    @pytest.mark.parametrize("operation, params, path, message", [
        ("poisson_smoothing_check", {"checks": [5]}, "params.checks[0]",
         "expected an object"),
        ("poisson_smoothing_check", {"checks": 5}, "params.checks",
         "expected a list of {r, bound} objects"),
        ("poisson_smoothing_check", {"checks": [{"r": "big", "bound": 0.1}]},
         "params.checks[0].r", "expected a number"),
        ("transform_table", {"r_grid": 5}, "params.r_grid",
         "expected a list of numbers or a {start, stop, points} object"),
        ("transform_table", {"r_grid": [1.0, [2.0]]}, "params.r_grid[1]",
         "expected a number"),
        ("limit_set_estimate", {"schedule": 5}, "params.schedule",
         "expected a list of numbers or a {start, stop, points} object"),
        ("limit_set_estimate",
         {"schedule": {"start": 1e3, "stop": None, "points": 8}},
         "params.schedule.stop", "expected a number"),
    ])
    def test_wrong_shape_param_diagnostic(self, operation, params, path, message,
                                          tmp_path, capsys):
        cfg = {"operation": operation, "order": {"rho": 1.0},
               "measure": {"densities": [{"kind": "power", "s": 0.0}]},
               "kernel": {"kind": "exp"}, "params": params}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["run", cfg_path, "--out-dir", tmp_path]) == 1
        assert "config error: %s: %s" % (path, message) in capsys.readouterr().err

    def test_numeric_strings_are_numbers(self, tmp_path):
        # every grid entry and span field is read with float()
        cfg = {"operation": "transform_table", "order": {"rho": 1.0},
               "measure": {"densities": [{"kind": "power", "s": 0.0}]},
               "kernel": {"kind": "exp"}, "params": {"r_grid": ["10", "1e2"]}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["run", cfg_path, "--out-dir", tmp_path]) == 0
        rows = (tmp_path / "transform.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[0]) for row in rows] == [10.0, 100.0]


class TestDecayScanConfig:
    def test_three_row_csv_matches_module_values(self, tmp_path, capsys):
        cfg = {
            "operation": "potter_decay_scan",
            "order": {"rho": 0.0,
                      "zero_part": {"kind": "log_power", "A": 1.0, "alpha": 0.5}},
            "params": {"t_grid": [math.exp(16.0), math.exp(36.0),
                                  math.exp(100.0)]},
        }
        path = tmp_path / "decay.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["run", path, "--out-dir", tmp_path / "out"]) == 0
        rows = (tmp_path / "out" / "potter_decay.csv").read_text().splitlines()
        assert len(rows) == 4  # header + 3 rows
        vals = [float(r.split(",")[1]) for r in rows[1:]]
        assert vals[0] == pytest.approx(0.25, abs=1e-9)
        assert vals[1] == pytest.approx(1.0 / 6.0, abs=1e-9)
        assert vals[2] == pytest.approx(0.10, abs=1e-9)


class TestBuiltinsRoundTrip:
    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_builtin_passes(self, name, tmp_path, capsys):
        code = run_cli(["run", name, "--out-dir", tmp_path])
        assert code == 0
        reports = list(tmp_path.glob("*_report.json"))
        assert len(reports) == 1
        doc = json.loads(reports[0].read_text())
        assert doc["verdict"] in ("PASS", None)

    def test_rerun_byte_identical(self, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert run_cli(["run", "lattice_kernel_zeros", "--out-dir", out]) == 0
        for name in ("lattice_kernel_zeros_report.json", "zeros.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_builtin_config_copies_are_isolated(self):
        cfg = builtin_config("sparse_atoms")
        cfg["params"]["indices"] = []
        assert builtin_config("sparse_atoms")["params"]["indices"]


class TestVerdictExitCodes:
    def test_failing_verdict_exits_two(self, tmp_path, capsys):
        cfg = {
            "operation": "exponential_solution_check",
            "kernel": {"kind": "step_combo",
                       "steps": [[1.0, 0.0, 1.0, 1.0], [-2.0, 0.0, 0.5, 1.0]]},
            "params": {"rho": 0.0, "lambdas": [1.0], "coefficients": [1.0],
                       "r_samples": [1.0], "tol": 1e-6},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["run", path, "--out-dir", tmp_path]) == 2

    def test_expected_failure_passes(self, tmp_path, capsys):
        cfg = {
            "operation": "exponential_solution_check",
            "kernel": {"kind": "step_combo",
                       "steps": [[1.0, 0.0, 1.0, 1.0], [-2.0, 0.0, 0.5, 1.0]]},
            "params": {"rho": 0.0, "lambdas": [1.0], "coefficients": [1.0],
                       "r_samples": [1.0], "tol": 1e-6, "expect_pass": False},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["run", path, "--out-dir", tmp_path]) == 0


class TestConfigSchemaExamples:
    def test_documented_measure_descriptor(self):
        from azarin.configio import parse_measure
        m = parse_measure({"atoms": [[1.0, 1.0]],
                           "densities": [{"interval": [0, None],
                                          "kind": "power", "s": 0.5}],
                           "tail": {"kind": "self_similar", "T": 2, "rho": 1}})
        assert m.tail is not None
        xs, ws = m.atoms_in(0.9, 8.5)
        assert list(xs) == [1.0, 2.0, 4.0, 8.0]

    def test_documented_order_descriptor(self):
        from azarin.configio import parse_order
        o = parse_order({"rho": 0.5,
                         "zero_part": {"kind": "log_power", "A": 1.0,
                                       "alpha": 0.5}})
        assert float(o.scale(math.exp(4.0))) == pytest.approx(
            math.exp(2.0) * math.exp(2.0), rel=1e-12)

    def test_complex_scalars(self):
        from azarin.configio import parse_complex
        assert parse_complex(2.0, "x") == 2.0 + 0.0j
        assert parse_complex([1.0, -3.0], "x") == 1.0 - 3.0j
        with pytest.raises(Exception):
            parse_complex("nope", "x")
