import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import azarin
from azarin import configio
from azarin.catalog import BUILTINS, builtin_config, builtin_names
from azarin.cli import main
from azarin.runners import REGISTRY


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
         "expected a list"),
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
        ("limit_set_estimate", {"target": [1]}, "params.target",
         "expected an object"),
        ("wiener_zero_scan", {"window": 5}, "params.window", "expected a list"),
        ("carleman_suite", {"line_measure": [1]}, "params.line_measure",
         "expected an object"),
        ("potter_check", {"pairs": [1, 2]}, "params.pairs[0]", "expected a list"),
        ("carleman_suite", {"line_measure": {"atoms": [1]}},
         "params.line_measure.atoms[0]", "expected [location, weight]"),
        ("carleman_suite", {"line_measure": {"atoms": [["a", 1.0]]}},
         "params.line_measure.atoms[0]", "expected a number"),
        ("carleman_suite", {"line_measure": {"pieces": [5]}},
         "params.line_measure.pieces[0]", "expected an object"),
        ("carleman_suite", {"line_measure": {"pieces": [{"freq": "fast"}]}},
         "params.line_measure.pieces[0].freq", "expected a number"),
        ("carleman_suite", {"line_measure": {"pieces": 5}},
         "params.line_measure.pieces", "expected a list"),
        ("sparse_flow_check", {"probe": {"interval": [1]}},
         "params.probe.interval", "expected [lo, hi]"),
        ("sparse_flow_check", {"probe": {"interval": [0.5, "wide"]}},
         "params.probe.interval[1]", "expected a number"),
        ("limit_set_estimate", {"target": {"tol_dd": 1e-3}},
         "params.target.tol_dd", "unknown field"),
        ("sparse_flow_check", {"probe": {"interval": [0.5, 2.0], "intervall": 1}},
         "params.probe.intervall", "unknown field"),
        ("poisson_smoothing_check",
         {"checks": [{"r": 10.0, "bound": 0.1, "rr": 1.0}]},
         "params.checks[0].rr", "unknown field"),
        ("carleman_suite", {"line_measure": {"pieces": [{"frq": 1.0}]}},
         "params.line_measure.pieces[0].frq", "unknown field"),
        # a misspelt choice used to skip its check silently
        ("carleman_suite", {"reference": "i_over_zz"}, "params.reference",
         "expected one of 'i_over_z'"),
        ("averaged_limit_check", {"expected_coefficient_rule": "gamma"},
         "params.expected_coefficient_rule", "expected one of 'gamma(rho)'"),
        # expectations used to be read as given: an unknown stage ran the
        # whole round trip to a failing verdict
        ("neutralization_check", {"expect_pass": 0}, "params.expect_pass",
         "expected true or false"),
        ("order_diagnostic", {"hardy": "yes"}, "params.hardy",
         "expected true or false"),
        ("tauberian_roundtrip", {"expect_failed_stage": 5},
         "params.expect_failed_stage", "expected one of '', 'class-membership'"),
        ("tauberian_roundtrip", {"expect_failed_stage": "wiener"},
         "params.expect_failed_stage", "expected one of '', 'class-membership'"),
        # a bad grid used to end in ZeroDivisionError or a numpy traceback
        ("wiener_zero_scan", {"step": 0}, "params.step", "expected a number > 0"),
        ("wiener_zero_scan", {"step": -0.01}, "params.step",
         "expected a number > 0"),
        ("wiener_zero_scan", {"window": [20.0, -20.0]}, "params.window",
         "expected finite [lo, hi] with lo <= hi"),
        # a bad pair used to end in a run error naming no path
        ("potter_check", {"pairs": [[-1, 2]]}, "params.pairs[0]",
         "expected two numbers > 0"),
        ("potter_check", {"pairs": [[1, 0]]}, "params.pairs[0]",
         "expected two numbers > 0"),
        ("potter_check", {"pairs": [[1, 2], [3, "nan"]]}, "params.pairs[1]",
         "expected two numbers > 0"),
        # a cutoff or scale <= 0 used to pass (an empty window has sup 0, an
        # all-negative grid an empty top decade) or end in a run error
        ("neutralization_check", {"eps_grid": [0.5, -1]}, "params.eps_grid[1]",
         "expected a finite number > 0"),
        ("neutralization_check", {"n_grid": [0.0, 2.0]}, "params.n_grid[0]",
         "expected a finite number > 0"),
        ("neutralization_check", {"r_grid": [-5]}, "params.r_grid[0]",
         "expected a finite number > 0"),
        ("kernel_limit_values", {"tau_grid": [1.0, -2.0]}, "params.tau_grid[1]",
         "expected a finite number > 0"),
        ("kernel_limit_values", {"schedule": [-1e3, 1e4]}, "params.schedule[0]",
         "expected a finite number > 0"),
        ("kernel_limit_values", {"schedule": {"start": 0.0, "stop": 1e4, "points": 4}},
         "params.schedule.start", "expected a finite number > 0"),
        ("neutralization_check", {"r_grid": [1e2, "inf"]}, "params.r_grid[1]",
         "expected a finite number > 0"),
        # one sample is all transient: min() of no cluster values
        ("kernel_limit_values", {"schedule": [1e9]}, "params.schedule",
         "expected a sample past the transient"),
        # a scale <= 0 or a short schedule used to end in a run error
        ("order_diagnostic", {"r_grid": [-1.0, 10.0]}, "params.r_grid[0]",
         "expected a finite number > 0"),
        ("transform_table", {"r_grid": [10.0, 0.0]}, "params.r_grid[1]",
         "expected a finite number > 0"),
        ("averaged_limit_check", {"schedule": [1e2, 1e3, 1e4]}, "params.schedule",
         "expected at least 10 samples"),
        ("averaged_limit_check", {"schedule": [-1e2] + [1e3] * 10}, "params.schedule[0]",
         "expected a finite number > 0"),
        # a trapezoid kernel takes a support from 0; the probe must not
        ("sparse_flow_check", {"probe": {"interval": [0.0, 2.0]}}, "params.probe",
         "support must be a compact interval in (0, oo)"),
        ("sparse_flow_check", {"probe": {"interval": [-1.0, 2.0]}}, "params.probe",
         "support must be a compact interval in (0, oo)"),
        # a bound constant <= 0 used to pass: a negative cap, or 0 / 0
        ("carleman_suite", {"bound_constant": -1.0}, "params.bound_constant",
         "expected a finite number > 0"),
        ("carleman_suite", {"bound_constant": 0.0}, "params.bound_constant",
         "expected a finite number > 0"),
        # a reversed window used to end in numpy's negative sample count
        ("carleman_suite", {"jump_window": [5, -5]}, "params.jump_window",
         "expected finite [lo, hi] with lo <= hi"),
        # zip used to drop the lambdas past the last coefficient
        ("exponential_solution_check", {"lambdas": [1, 2], "coefficients": [1]},
         "params.coefficients", "expected 2 entries, one per lambda"),
        # out-of-range values used to end in a run error naming no field, or
        # (an exponent past the float range) in an OverflowError traceback
        ("density_estimate", {"alpha": -2}, "params.alpha",
         "expected a number > -1"),
        ("gamma_suite", {"decay_exponents": [0.5]}, "params.decay_exponents[0]",
         "expected a number > 1 and at most 709.7827"),
        ("gamma_suite", {"decay_exponents": [16, 1000]}, "params.decay_exponents[1]",
         "expected a number > 1 and at most 709.7827"),
        ("potter_decay_scan", {"t_grid": [2.0]}, "params.t_grid[0]",
         "expected a number > e"),
        # a period <= 1 ended in a TypeError traceback (complex taus) or in a
        # run error naming no field
        ("periodic_family_check", {"period": -2}, "params.period",
         "expected a number > 1"),
        ("periodic_family_check", {"period": 0}, "params.period",
         "expected a number > 1"),
        ("periodic_family_check", {"period": 1}, "params.period",
         "expected a number > 1"),
        # accepted but never checked: a misspelt choice ran as "tail", a
        # short expected_decay compared a prefix, a cluster radius <= 0 ran
        ("class_membership", {"which": "glbal"}, "params.which",
         "expected one of 'tail', 'global'"),
        ("gamma_suite", {"expected_decay": [0.1]}, "params.expected_decay",
         "expected 3 entries, one per decay exponent"),
        ("kernel_limit_values", {"cluster_eps": -1}, "params.cluster_eps",
         "expected a finite number > 0"),
        # a tolerance with no expectation to apply it to was ignored
        ("wiener_zero_scan", {"abscissa_tol": 1e-3}, "params.abscissa_tol",
         "needs params.expected_zeros"),
        # a scale <= 0 ended in a run error from a bare ValueError
        ("class_membership", {"r_grid": [-1, 10, 100]}, "params.r_grid[0]",
         "expected a finite number > 0"),
        ("density_estimate", {"r_grid": [0, 10, 100]}, "params.r_grid[0]",
         "expected a finite number > 0"),
        ("positive_regularity", {"r_grid": [-1, 10, 100]}, "params.r_grid[0]",
         "expected a finite number > 0"),
        ("stable_order_check", {"r_grid": [-1, 10, 100]}, "params.r_grid[0]",
         "expected a finite number > 0"),
        ("exponential_solution_check", {"r_samples": [-1]}, "params.r_samples[0]",
         "expected a finite number > 0"),
        ("poisson_smoothing_check", {"checks": [{"r": -1, "bound": 0.1}]},
         "params.checks[0].r", "expected a finite number > 0"),
        ("poisson_smoothing_check", {"checks": [{"r": 10, "bound": 0}]},
         "params.checks[0].bound", "expected a finite number > 0"),
        ("poisson_smoothing_check", {"symmetry_r": 0}, "params.symmetry_r",
         "expected a finite number > 0"),
        # a nested tolerance escaped the top-level *tol rule: FAIL, exit 2
        ("limit_set_estimate", {"target": {"tol_d": -1}}, "params.target.tol_d",
         "expected a finite number > 0"),
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

    @pytest.mark.parametrize("operation, params, path, lam", [
        ("mellin_symbol_table", {"lambda_grid": [0.0, 1e12]}, "params.lambda_grid",
         "1e+12"),
        ("mellin_symbol_table", {"lambda_grid": [0.0, 1e300]}, "params.lambda_grid",
         "1e+300"),
        ("wiener_zero_scan", {"window": [0.0, 1e12]}, "params.window", "1e+12"),
    ])
    def test_lambda_past_the_symbol_budget(self, operation, params, path, lam,
                                           tmp_path, capsys):
        # ended in numpy's _ArrayMemoryError (9.63 TiB at 1e12) or in a run
        # error naming no field
        cfg = {"operation": operation, "kernel": {"kind": "exp"}, "params": params}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["run", cfg_path, "--out-dir", tmp_path]) == 1
        assert capsys.readouterr().err.startswith(
            "config error: %s: |lambda| up to %s needs more than 2097152 nodes, "
            % (path, lam))

    @pytest.mark.parametrize("window, step, count", [
        ([0.0, 10.0], 1e-13, "1e+14"), ([0.0, 10.0], 1e-320, "inf"),
        ([-60.0, 60.0], 0.0027, "4.44e+04")])
    def test_zero_scan_grid_past_the_cell_budget(self, window, step, count, tmp_path,
                                                 capsys):
        # step 1e-13 ended in numpy's _ArrayMemoryError (728 TiB) and step
        # 1e-320 in an OverflowError traceback, both from the lambda grid
        cfg = {"operation": "wiener_zero_scan", "kernel": {"kind": "exp"},
               "params": {"window": window, "step": step}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["run", cfg_path, "--out-dir", tmp_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: params.step: %s lambdas x " % count)
        assert err.endswith(" symbol nodes is more than 134217728 cells\n")

    def test_poisson_smoothing_needs_a_zero_order(self, tmp_path, capsys):
        # ended in a run error naming no field
        cfg = {"operation": "poisson_smoothing_check", "order": {"rho": 0.5}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["run", cfg_path, "--out-dir", tmp_path]) == 1
        assert capsys.readouterr().err == ("config error: order.rho: expected 0, "
                                           "poisson smoothing is defined for zero orders\n")

    def test_gamma_suite_with_a_steep_order(self, tmp_path, capsys):
        # ln gamma(1e6) ~ 1381 on the dominance grid: the factor itself
        # overflowed math.exp and the run ended in a traceback
        cfg = {"operation": "gamma_suite",
               "order": {"rho": 0, "zero_part": {"kind": "tabulated_eta",
                                                 "points": [[0, 100], [1, 100]]}},
               "params": {"decay_exponents": [16]}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["run", cfg_path, "--out-dir", tmp_path]) in (0, 2)
        report = json.loads((tmp_path / "cfg_report.json").read_text())["report"]
        assert report["dominance_defect"] <= 1e-9
        assert report["lower_factor_consistent"]
        assert report["decay_rows"] == [[math.exp(16.0), 100.0, 100.0]]

    @pytest.mark.parametrize("name, params, path, message", [
        # convergence_trend of one sample: numpy's empty reduction
        ("roundtrip_regular", {"schedule": [100]}, "params.schedule",
         "expected at least 10 samples"),
        ("regular_density", {"schedule": {"start": 1e3, "stop": 1e6, "points": 5}},
         "params.schedule", "expected at least 10 samples"),
        ("exp_average_flow", {"schedule": {"start": 0.5, "stop": 1e6, "points": 32}},
         "params.schedule", "expected increasing samples, the first >= 1"),
        ("oscillating_density", {"schedule": [1e3] * 12}, "params.schedule",
         "expected increasing samples, the first >= 1"),
        # the schedule of 3 tau_points samples from T^base_power
        ("periodic_atoms", {"tau_points": 3}, "params.tau_points",
         "expected an integer >= 4"),
        ("periodic_atoms", {"base_power": -3}, "params.base_power",
         "expected an integer >= 0"),
    ])
    def test_flow_schedule_is_a_config_error(self, name, params, path, message,
                                             tmp_path, capsys):
        # each ended in a run error from a bare ValueError of the trajectory
        cfg = builtin_config(name)
        cfg["params"].update(params)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["run", cfg_path, "--out-dir", tmp_path]) == 1
        assert capsys.readouterr().err == "config error: %s: %s\n" % (path, message)

    def test_one_point_jump_window(self, tmp_path, capsys):
        # lo == hi scans the one point lo; only lo > hi is rejected
        cfg = {"operation": "carleman_suite",
               "params": {"line_measure": {"atoms": [[0.5, 1.0]]},
                          "jump_window": [0.5, 0.5]}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["run", path, "--out-dir", tmp_path]) == 0
        report = json.loads((tmp_path / "cfg_report.json").read_text())["report"]
        assert report["flagged"] == [0.5]

    @pytest.mark.parametrize("params, path, message", [
        ({"expect_bound_pass": False}, "params.expect_bound_pass",
         "needs params.bound_constant"),
        ({"expected_flags": [3.0]}, "params.expected_flags",
         "needs params.jump_window"),
        ({"expect_bound_pass": False, "expected_flags": [3.0]},
         "params.expect_bound_pass", "needs params.bound_constant"),
        ({"bound_constant": 1.0, "expected_flags": [3.0]},
         "params.expected_flags", "needs params.jump_window"),
        ({"flag_tol": 0.1}, "params.flag_tol", "needs params.expected_flags"),
        ({"jump_window": [0.5, 0.5], "flag_tol": 0.1}, "params.flag_tol",
         "needs params.expected_flags"),
    ])
    def test_expectation_without_its_check(self, params, path, message,
                                           tmp_path, capsys):
        # each expectation was ignored: PASS, exit 0, with nothing checked
        cfg = {"operation": "carleman_suite",
               "params": dict(line_measure={"atoms": [[0.5, 1.0]]}, **params)}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["run", cfg_path, "--out-dir", tmp_path]) == 1
        assert "config error: %s: %s" % (path, message) in capsys.readouterr().err

    def test_expectations_with_their_checks(self, tmp_path, capsys):
        cfg = {"operation": "carleman_suite",
               "params": {"line_measure": {"atoms": [[0.5, 1.0]]},
                          "bound_constant": 1.0, "expect_bound_pass": False,
                          "jump_window": [0.5, 0.5], "expected_flags": [0.5]}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["run", path, "--out-dir", tmp_path]) == 2
        out = json.loads((tmp_path / "cfg_report.json").read_text())
        assert out["verdict"] == "FAIL"
        assert out["report"]["bound_passed"] is True
        assert out["report"]["flags_match"] is True

    @pytest.mark.parametrize("flag_tol, match", [(None, True), (0.01, False)],
                             ids=["default", "set"])
    def test_flag_tol_defaults_where_flags_are_expected(self, flag_tol, match, tmp_path):
        # the one flag 0.5 lies 0.04 from the expected 0.54: within 0.05
        params = {"line_measure": {"atoms": [[0.5, 1.0]]},
                  "jump_window": [0.5, 0.5], "expected_flags": [0.54]}
        if flag_tol is not None:
            params["flag_tol"] = flag_tol
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"operation": "carleman_suite", "params": params}))
        assert run_cli(["run", path, "--out-dir", tmp_path]) == (0 if match else 2)
        report = json.loads((tmp_path / "cfg_report.json").read_text())["report"]
        assert report["flags_match"] is match

    @pytest.mark.parametrize("cfg, key", [
        ({"operation": "carleman_suite",
          "params": {"line_measure": {"pieces": [{}]}, "bound_constant": 1.0}},
         "bound_passed"),
        ({"operation": "antiderivative_identity",
          "measure": {"densities": [{"kind": "power", "s": 0.0, "interval": [2, None]}]},
          "kernel": {"kind": "smooth_bump", "interval": [1, 2]}}, "passed"),
    ], ids=["carleman_bound", "antiderivative_identity"])
    def test_numpy_bool_is_written(self, cfg, key, tmp_path, capsys):
        # a numpy bool in the report ended the run in a TypeError traceback
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["run", path, "--out-dir", tmp_path]) == 0
        report = json.loads((tmp_path / "cfg_report.json").read_text())["report"]
        assert report[key] is True

    def test_expectation_is_a_boolean(self, tmp_path, capsys):
        # "no" used to be read as given, so as true: the run passed
        cfg = {"operation": "integrability_check", "order": {"rho": 1.0},
               "kernel": {"kind": "exp"}, "params": {"expect_converged": "no"}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["run", path, "--out-dir", tmp_path]) == 1
        assert ("config error: params.expect_converged: expected true or false"
                in capsys.readouterr().err)
        cfg["params"]["expect_converged"] = False
        path.write_text(json.dumps(cfg))
        assert run_cli(["run", path, "--out-dir", tmp_path]) == 2

    @pytest.mark.parametrize("descriptor, value, path, message", [
        ("measure", {"atoms": [["a", 1]]}, "measure.atoms[0]", "expected a number"),
        ("measure", {"densities": [{"kind": "power", "s": 0.0,
                                    "interval": ["a", None]}]},
         "measure.densities[0].interval[0]", "expected a number"),
        ("measure", {"tail": {"kind": "self_similar", "T": "x", "rho": 1.0}},
         "measure.tail.T", "expected a number"),
        ("measure", {"densities": [{"kind": "table", "log_nodes": 5,
                                    "values": [1.0]}]},
         "measure.densities[0].log_nodes", "expected a list"),
        ("order", {"rho": "x"}, "order.rho", "expected a number"),
        ("order", {"rho": 1.0, "zero_part": {"kind": "log_power", "alpha": [1]}},
         "order.zero_part.alpha", "expected a number"),
        ("order", {"rho": 1.0, "zero_part": {"kind": "tabulated_eta",
                                             "points": [[0.0, 0.1, 0.2]]}},
         "order.zero_part.points[0]", "expected a list of 2 entries"),
        ("kernel", {"kind": "power_cut", "s": -0.5, "cut": "x"}, "kernel.cut",
         "expected a number"),
        ("kernel", {"kind": "table", "nodes": [0.0, "b"], "values": [1.0, 0.0]},
         "kernel.nodes[1]", "expected a number"),
        ("kernel", {"kind": "smooth_bump", "interval": [1.0, 2.0], "n_max": "six"},
         "kernel.n_max", "expected an integer"),
        ("kernel", {"kind": "smooth_bump", "interval": [1.0, 2.0], "n_max": 6.7},
         "kernel.n_max", "expected an integer"),
        ("measure", {"densities": [{"kind": "power_log", "s": -1.0,
                                    "log_power": 1.5}]},
         "measure.densities[0].log_power", "expected an integer"),
        ("order", {"rho": 1.0, "zero_part": 5}, "order.zero_part",
         "expected an object"),
        ("measure", {"densities": [5]}, "measure.densities[0]",
         "expected an object"),
        ("measure", {"tail": 5}, "measure.tail", "expected an object"),
        ("measure", {"atoms": 5}, "measure.atoms", "expected a list"),
        ("measure", [1], "measure", "expected an object"),
        ("kernel", {"kind": "step_combo", "steps": 5}, "kernel.steps",
         "expected a list"),
        ("measure", {"atomz": [[1.0, 1.0]]}, "measure.atomz", "unknown field"),
        ("order", {"rho": 1.0, "zero_part": {"kind": "log_power", "alpha": 0.3,
                                             "alpah": 0.3}},
         "order.zero_part.alpah", "unknown field"),
        ("kernel", {"kind": "exp", "scale": 2.0}, "kernel.scale", "unknown field"),
        # non-finite numbers used to run: every row past r = 1 was nan
        ("order", {"rho": math.nan}, "order.rho", "expected a finite number"),
        # every value was nan
        ("measure", {"atoms": [[1.0, math.nan]]}, "measure.atoms[0]",
         "expected a finite number"),
        # every value was 0
        ("measure", {"atoms": [[math.inf, 1.0]]}, "measure.atoms[0]",
         "expected a finite number"),
        ("measure", {"densities": [{"kind": "power", "s": 0.0,
                                    "interval": [math.nan, 2.0]}]},
         "measure.densities[0].interval[0]", "expected a finite number"),
        # an open end is null, not infinity
        ("measure", {"densities": [{"kind": "power", "s": 0.0,
                                    "interval": [1.0, math.inf]}]},
         "measure.densities[0].interval[1]", "expected a finite number"),
        # these ended in a run error: the Cauchy criterion failed at zero
        ("measure", {"densities": [{"kind": "power", "s": math.nan}]},
         "measure.densities[0].s", "expected a finite number"),
        ("measure", {"densities": [{"kind": "power", "s": 0.0, "coef": math.nan}]},
         "measure.densities[0].coef", "expected a finite number"),
    ])
    def test_descriptor_number_diagnostic(self, descriptor, value, path, message,
                                          tmp_path, capsys):
        cfg = {"operation": "transform_table", "order": {"rho": 1.0},
               "measure": {"densities": [{"kind": "power", "s": 0.0}]},
               "kernel": {"kind": "exp"}, "params": {"r_grid": [10.0]}}
        cfg[descriptor] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["run", cfg_path, "--out-dir", tmp_path]) == 1
        assert "config error: %s: %s" % (path, message) in capsys.readouterr().err

    def test_tol_override_rewrites_only_tol_keys(self, tmp_path, capsys):
        assert run_cli(["run", "sparse_atoms", "--out-dir", tmp_path,
                        "--tol-override", 0.001]) == 0
        report = json.loads((tmp_path / "sparse_atoms_report.json").read_text())
        assert report["report"]["delta_tol"] == 0.001
        assert report["report"]["null_tol"] == 0.001
        # eps_cluster is a tolerance (it must be > 0) but keeps its value
        assert run_cli(["run", "periodic_atoms", "--out-dir", tmp_path,
                        "--tol-override", 0.5]) == 0
        report = json.loads((tmp_path / "periodic_atoms_report.json").read_text())
        assert report["report"]["eps_cluster"] == 0.001

    def test_infinite_tol_override_is_a_config_error(self, tmp_path, capsys):
        # validate_config checked > 0 only, so the run passed
        assert run_cli(["run", "roundtrip_regular", "--out-dir", tmp_path,
                        "--tol-override", math.inf]) == 1
        assert ("config error: params.ratio_tol: tolerance must be finite and > 0"
                in capsys.readouterr().err)

    def test_unknown_param_rejected(self, tmp_path, capsys):
        cfg = builtin_config("oscillating_density")
        cfg["params"]["eps_clustr"] = cfg["params"].pop("eps_cluster")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["run", cfg_path, "--out-dir", tmp_path]) == 1
        assert "config error: params.eps_clustr: unknown field" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, path, message", [
        ("paramz", {}, "paramz", "unknown field"),
        ("kernel", {"kind": "exp"}, "kernel", "unknown field"),
        ("outputs", 5, "outputs", "expected an object"),
        ("outputs", {"json": 5}, "outputs.json", "expected a string"),
        ("outputs", {"csv": ["a"]}, "outputs.csv", "expected a string"),
        ("outputs", {"jsn": "report.json"}, "outputs.jsn", "unknown field"),
    ])
    def test_top_level_diagnostic(self, key, value, path, message, tmp_path,
                                  capsys):
        # potter_decay_scan declares the order descriptor only
        cfg = {"operation": "potter_decay_scan", "order": {"rho": 1.0},
               "params": {"t_grid": [100.0]}, key: value}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["run", cfg_path, "--out-dir", tmp_path]) == 1
        assert "config error: %s: %s" % (path, message) in capsys.readouterr().err

    @pytest.mark.parametrize("points, message", [
        # a NaN slope used to write "nan" rows and pass
        ([[0, 0.4], [1, 0.2], [2, "nan"]], "grid and slope values must be finite"),
        ([[0, 0.4], [1, 0.2], ["inf", 0.1]], "grid and slope values must be finite"),
        ([[0, 0.4], [2, 0.2], [1, 0.1]],
         "grid must start at ln r = 0 and strictly increase"),
    ])
    def test_bad_slope_table_is_a_config_error(self, points, message, tmp_path,
                                               capsys):
        cfg = {"operation": "potter_decay_scan",
               "order": {"rho": 0.0, "zero_part": {"kind": "tabulated_eta",
                                                   "points": points}},
               "params": {"t_grid": [100.0]}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["run", cfg_path, "--out-dir", tmp_path / "out"]) == 1
        assert "config error: order.zero_part: %s" % message \
            in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("log_nodes, values, message", [
        # each of these used to pass parsing and fail in the first evaluation
        ([0.0, 1.0, 1.0], [1.0, 2.0, 3.0], "log_nodes must strictly increase"),
        ([0.0, 1.0, 2.0], [1.0, 2.0], "log_nodes and values must have the same length"),
        ([0.0], [1.0], "a table needs at least 2 nodes"),
        ([0.0, 1.0, 2.0], [1.0, "nan", 3.0], "table nodes and values must be finite"),
    ])
    def test_bad_density_table_is_a_config_error(self, log_nodes, values, message,
                                                 tmp_path, capsys):
        cfg = {"operation": "transform_table", "order": {"rho": 1.0},
               "kernel": {"kind": "exp"},
               "measure": {"densities": [{"kind": "table", "interval": [1.0, 5.0],
                                          "log_nodes": log_nodes, "values": values}]},
               "params": {"r_grid": [1.0]}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["run", cfg_path, "--out-dir", tmp_path / "out"]) == 1
        assert "config error: measure.densities[0]: %s" % message \
            in capsys.readouterr().err

    @pytest.mark.parametrize("kernel, message", [
        # a support below 0 ran to PASS, integrating only the part on u > 0
        ({"kind": "trapezoid", "interval": [-1, 2]},
         "support [-1, 2] must satisfy 0 <= lo < hi"),
        ({"kind": "indicator", "interval": [-1, 2]},
         "support [-1, 2] must satisfy 0 <= lo < hi"),
        ({"kind": "smooth_bump", "interval": [-1, 2]},
         "support [-1, 2] must satisfy 0 <= lo < hi"),
        ({"kind": "table", "nodes": [-1, 0.5, 2], "values": [0, 1, 0]},
         "support [-1, 2] must satisfy 0 <= lo < hi"),
        ({"kind": "step_combo", "steps": [[1, -1, 1]]},
         "support [-1, 1] must satisfy 0 <= lo < hi"),
        # support (0, -1]: every transform value was 0
        ({"kind": "power_cut", "s": -0.5, "cut": -1},
         "support [0, -1] must satisfy 0 <= lo < hi"),
        # these ended in a "run error:" with numpy's message and no path
        ({"kind": "table", "nodes": [0.5, 1, 2], "values": [0, 1]},
         "nodes and values must have the same length"),
        ({"kind": "smooth_bump", "interval": [1, 2], "n_max": -1},
         "n_max must be >= 0"),
        ({"kind": "step_combo", "steps": []},
         "a step combination needs at least one step"),
    ], ids=["trapezoid-below-0", "indicator-below-0", "smooth_bump-below-0",
            "table-below-0", "step_combo-below-0", "power_cut-negative-cut",
            "table-lengths", "smooth_bump-n_max", "step_combo-empty"])
    def test_bad_kernel_is_a_config_error(self, kernel, message, tmp_path, capsys):
        cfg = {"operation": "transform_table", "order": {"rho": 1.0},
               "measure": {"densities": [{"kind": "power", "s": 0.0}]},
               "kernel": kernel, "params": {"r_grid": [1.0]}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["run", cfg_path, "--out-dir", tmp_path / "out"]) == 1
        assert "config error: kernel: %s" % message in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("tail, interval, path, message", [
        # T = 1 ended in a ZeroDivisionError traceback
        ({"T": 1}, [1, 2], "measure.tail",
         "self-similar period T must be finite and > 1"),
        # T = 0.5 ran to PASS with an empty base window
        ({"T": 0.5}, [1, 2], "measure.tail",
         "self-similar period T must be finite and > 1"),
        ({"T": "inf"}, [1, 2], "measure.tail",
         "self-similar period T must be finite and > 1"),
        # base_lo = 0 was a "math domain error" run error
        ({"T": 2, "base_lo": 0}, [1, 2], "measure.tail",
         "self-similar base_lo must be finite and > 0"),
        ({"T": 2, "base_lo": "nan"}, [1, 2], "measure.tail",
         "self-similar base_lo must be finite and > 0"),
        ({"T": 2, "rho": "nan"}, [1, 2], "measure.tail",
         "self-similar rho must be finite"),
        # a piece past the base window was counted once per image that
        # the evaluation happened to build
        ({"T": 2}, [1, 8], "measure",
         "self-similar base pieces must lie in the base window"),
        ({"T": 2}, [1, None], "measure",
         "self-similar base pieces must lie in the base window"),
        ({"T": 2}, [0.5, 2], "measure",
         "self-similar base pieces must lie in the base window"),
    ], ids=["T-1", "T-half", "T-inf", "base_lo-0", "base_lo-nan", "rho-nan",
            "piece-past-window", "piece-to-infinity", "piece-below-window"])
    def test_bad_self_similar_tail_is_a_config_error(self, tail, interval, path,
                                                     message, tmp_path, capsys):
        cfg = {"operation": "transform_table", "order": {"rho": 1.0},
               "kernel": {"kind": "exp"},
               "measure": {"densities": [{"kind": "power", "interval": interval,
                                          "s": 0.0}],
                           "tail": dict({"kind": "self_similar", "rho": 1}, **tail)},
               "params": {"r_grid": [10.0]}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["run", cfg_path, "--out-dir", tmp_path / "out"]) == 1
        assert "config error: %s: %s" % (path, message) in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    def test_stable_order_of_self_similar_tail_is_a_config_error(self, tmp_path,
                                                                 capsys):
        # its breakpoints over (0, oo) ended in "run error: math domain error"
        cfg = {"operation": "stable_order_check", "order": {"rho": 1.0},
               "measure": {"densities": [{"kind": "power", "interval": [1, 2],
                                          "s": 0.0}],
                           "tail": {"kind": "self_similar", "T": 2, "rho": 1}}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["run", cfg_path, "--out-dir", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert "config error: measure.tail: " in err
        assert "math domain error" not in err
        assert not list((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("measure, kernel, path", [
        ({"densities": [{"kind": "power", "s": 0.0, "interval": [1, 5]}]},
         {"kind": "exp"}, "kernel.kind"),
        ({"atoms": [[0.5, 1.0]],
          "densities": [{"kind": "power", "s": 0.0, "interval": [1, 5]}]},
         {"kind": "smooth_bump", "interval": [1, 2]}, "measure"),
        ({"densities": [{"kind": "power", "s": 0.0, "interval": [1, 2]}],
          "tail": {"kind": "self_similar", "T": 2, "rho": 1}},
         {"kind": "smooth_bump", "interval": [1, 2]}, "measure"),
    ], ids=["exp-kernel", "atom-below-1", "self-similar"])
    def test_antiderivative_identity_inputs_are_config_errors(self, measure, kernel,
                                                              path, tmp_path, capsys):
        # these ended in a bare "run error:" from the library's ValueError
        cfg = {"operation": "antiderivative_identity", "measure": measure,
               "kernel": kernel}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["run", cfg_path, "--out-dir", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert "config error: %s: the identity check needs " % path in err
        assert "run error" not in err

    @pytest.mark.parametrize("params, path, message", [
        ({"orders": [-2]}, "params.orders[0]",
         "expected an integer >= 0 and below kernel.n_max = 6"),
        ({"orders": [0, 9]}, "params.orders[1]",
         "expected an integer >= 0 and below kernel.n_max = 6"),
        ({"orders": []}, "params.orders", "expected a nonempty list"),
        ({"r_samples": []}, "params.r_samples", "expected a nonempty list"),
        ({"r_samples": [1.0, -1]}, "params.r_samples[1]",
         "expected a finite number > 0"),
    ])
    def test_antiderivative_identity_params_are_config_errors(self, params, path,
                                                              message, tmp_path, capsys):
        # these ended in an IndexError traceback or a run error naming no field
        cfg = {"operation": "antiderivative_identity",
               "measure": {"densities": [{"kind": "power", "s": 0.0,
                                          "interval": [2, None]}]},
               "kernel": {"kind": "smooth_bump", "interval": [1, 2]}, "params": params}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["run", cfg_path, "--out-dir", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert "config error: %s: %s" % (path, message) in err

    def test_period_beside_a_self_similar_tail(self, tmp_path, capsys):
        # the tail's period silently replaced the one given
        cfg = {"operation": "periodic_family_check", "order": {"rho": 1.0},
               "measure": {"atoms": [[1.0, 1.0]],
                           "tail": {"kind": "self_similar", "T": 2, "rho": 1}},
               "params": {"period": 3.0}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["run", cfg_path, "--out-dir", tmp_path / "out"]) == 1
        assert ("config error: params.period: the measure's self-similar tail "
                "sets the period" in capsys.readouterr().err)

    @pytest.mark.parametrize("which", [None, "tail", "global"])
    def test_class_membership_choices_run(self, which, tmp_path):
        cfg = {"operation": "class_membership", "order": {"rho": 1.0},
               "measure": {"densities": [{"kind": "power", "s": 0.0}]},
               "params": {"r_grid": {"start": 1e-4, "stop": 1e4, "points": 9}}}
        if which is not None:
            cfg["params"]["which"] = which
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["run", cfg_path, "--out-dir", tmp_path / "out"]) == 0

    def test_hardy_counts_of_a_density_from_origin(self, tmp_path, capsys):
        # the counts mu((0, r]) took their reference point at hull()[0] = 0
        # and ended in "run error: cumulative masses require c and t in (0, oo)"
        cfg = {"operation": "order_diagnostic", "order": {"rho": 1.0},
               "measure": {"densities": [{"kind": "power", "s": 0.0,
                                          "interval": [0, None]}]},
               "kernel": {"kind": "exp"}, "params": {"hardy": True}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["run", cfg_path, "--out-dir", tmp_path]) in (0, 2)
        report = json.loads((tmp_path / "cfg_report.json").read_text())["report"]
        assert len(report["count_over_scale"]) == 16
        for ratio in report["count_over_scale"]:
            assert abs(ratio - 1.0) <= 1e-9

    def test_overflowing_pair_is_a_run_error(self, tmp_path, capsys):
        # r t overflowed, the excess was NaN and the check passed
        cfg = {"operation": "potter_check", "order": {"rho": 1.0},
               "params": {"pairs": [[2.0, 3.0], [1e300, 1e300]]}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["run", cfg_path, "--out-dir", tmp_path]) == 1
        assert ("run error: Potter bound excess is not finite at pair (r, t) = "
                "(1e+300, 1e+300)" in capsys.readouterr().err)

    @pytest.mark.parametrize("operation, params", [
        ("potter_check", {"pairs": [[1.0, 1e300]]}),
        ("potter_decay_scan", {"t_grid": [1e300]}),
    ])
    def test_factor_beyond_float_range_is_reported(self, operation, params,
                                                   tmp_path, capsys):
        # ln potter_factor(1e300) = 2 ln 1e300 ~ 1381: the factor itself
        # overflowed math.exp and the run ended in a traceback
        cfg = {"operation": operation,
               "order": {"rho": 0.0, "zero_part": {"kind": "tabulated_eta",
                                                   "points": [[0, 2.0], [1, 2.0]]}},
               "params": params}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["run", cfg_path, "--out-dir", tmp_path]) == 0
        report = json.loads((tmp_path / "cfg_report.json").read_text())["report"]
        if operation == "potter_check":
            assert report["passed"] and report["max_violation"] == 0.0
        else:
            (t, forward, backward), = report["rows"]
            assert forward == pytest.approx(2.0, rel=1e-12)
            assert math.isfinite(backward)

    def test_gamma_suite_factor_beyond_float_range(self, tmp_path, capsys):
        # ln gamma(t1 t2) reaches 1200: the linear quotient overflowed math.exp
        cfg = {"operation": "gamma_suite",
               "order": {"rho": 0.0, "zero_part": {"kind": "tabulated_eta",
                                                   "points": [[0, 2.0], [1, 2.0]]}},
               "params": {"ln_range": 300, "decay_exponents": [16.0]}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["run", cfg_path, "--out-dir", tmp_path]) == 0
        report = json.loads((tmp_path / "cfg_report.json").read_text())["report"]
        assert 0.0 <= report["submultiplicativity_excess"] <= 1e-12
        assert all(math.isfinite(x) for row in report["decay_rows"] for x in row)

    @pytest.mark.parametrize("zero_part, verdict, decay, rtol", [
        # a flat order's forward column is 0 throughout: not decreasing
        ({"kind": "zero"}, "FAIL", [0.0, 0.0, 0.0], 0.0),
        ({"kind": "log_power", "A": 1.0, "alpha": 0.5}, "PASS",
         [0.25, 0.16666666666666666, 0.1], 1e-15),
        ({"kind": "log_of_log_power", "alpha": 2.0}, "PASS",
         [0.3470590350904647, 0.19912720288118488, 0.0921054034198285], 0.0),
        ({"kind": "tabulated_eta", "points": [[0, 0.3], [1, 0.2], [3, 0.05]]}, "PASS",
         [0.071875, 0.05972222222222223, 0.053500000000000006], 0.0),
    ], ids=["flat", "log-power", "log-log", "tabulated"])
    def test_gamma_suite_is_pinned(self, zero_part, verdict, decay, rtol, tmp_path):
        # reports of the Potter factor taken one t at a time, as the reference
        cfg = {"operation": "gamma_suite", "order": {"rho": 0.0, "zero_part": zero_part},
               "params": {"pairs": 20, "dominance_points": 20}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        run_cli(["run", cfg_path, "--out-dir", tmp_path])
        out = json.loads((tmp_path / "cfg_report.json").read_text())
        assert out["verdict"] == verdict
        report = out["report"]
        rows = report.pop("decay_rows")
        assert report == {"gamma_at_one": 1.0, "submultiplicativity_excess": 0.0,
                          "dominance_defect": 0.0, "lower_factor_consistent": True,
                          "decay_strictly_decreasing": verdict == "PASS"}
        assert [row[0] for row in rows] == [math.exp(e) for e in (16.0, 36.0, 100.0)]
        assert [row[1] for row in rows] == [row[2] for row in rows]
        got = [row[1] for row in rows]
        assert got == (decay if rtol == 0.0 else pytest.approx(decay, rel=rtol, abs=0.0))

    @pytest.mark.parametrize("order", [
        {"rho": 0.5},
        {"rho": 0.0, "zero_part": {"kind": "tabulated_eta",
                                   "points": [[0, 2.0], [1, 2.0]]}},
    ], ids=["power", "tabulated"])
    def test_gamma_suite_ln_range_beyond_float_range(self, order, tmp_path, capsys):
        # exp(ln_range) overflows past ~709.8; the suite needs only the logs
        def run(ln_range):
            cfg = {"operation": "gamma_suite", "order": order,
                   "params": {"ln_range": ln_range, "decay_exponents": [16.0, 36.0]}}
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(cfg))
            code = run_cli(["run", cfg_path, "--out-dir", tmp_path])
            return code, json.loads((tmp_path / "cfg_report.json").read_text())

        code, got = run(800)
        want_code, want = run(10)
        assert code == want_code and got["verdict"] == want["verdict"]
        assert got["report"]["submultiplicativity_excess"] == 0.0

    def test_potter_check_ln_range_beyond_float_range(self, tmp_path, capsys):
        # r t of two lattice pairs leaves the float range once ln_range
        # passes half of ln(max float)
        cfg = {"operation": "potter_check", "order": {"rho": 0.5},
               "params": {"ln_range": 800}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["run", cfg_path, "--out-dir", tmp_path]) == 1
        assert "config error: params.ln_range: " in capsys.readouterr().err

    def test_output_directories_are_created(self, tmp_path, capsys):
        # the report and CSV directories are created as --out-dir is
        cfg = {"operation": "potter_decay_scan", "order": {"rho": 1.0},
               "params": {"t_grid": [100.0]},
               "outputs": {"json": "no/such/dir.json", "csv": "tables/decay.csv"}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run_cli(["run", cfg_path, "--out-dir", out]) == 0
        report = json.loads((out / "no" / "such" / "dir.json").read_text())
        assert report["operation"] == "potter_decay_scan"
        assert (out / "tables" / "decay.csv").read_text().startswith("t,")

    @pytest.mark.parametrize("out_dir, json_name", [
        ("blocker", "report.json"),          # --out-dir is a file
        (".", "blocker/report.json"),        # the report's directory is a file
    ])
    def test_unwritable_output_is_a_run_error(self, out_dir, json_name, tmp_path,
                                              capsys):
        (tmp_path / "blocker").write_text("")
        cfg = {"operation": "potter_decay_scan", "order": {"rho": 1.0},
               "params": {"t_grid": [100.0]}, "outputs": {"json": json_name}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["run", cfg_path, "--out-dir", tmp_path / out_dir]) == 1
        err = capsys.readouterr().err
        assert err.startswith("run error: ")
        assert "blocker" in err

    @pytest.mark.parametrize("index", [0, 50])
    def test_sparse_flow_index_out_of_range(self, index, tmp_path, capsys):
        cfg = {"operation": "sparse_flow_check", "order": {"rho": 1.0},
               "measure": {"atoms": [[10.0, 1.0]]},
               "params": {"indices": [1, index]}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["run", cfg_path, "--out-dir", tmp_path]) == 1
        assert "config error: params.indices[1]: expected an atom index in 1..1" \
            in capsys.readouterr().err

    def test_sparse_flow_probe_outside_the_window(self, tmp_path, capsys):
        # at r = 100 the window (5, 150] is (0.05, 1.5] in u, and the probe
        # (0.5, 2] leaves it: the error names the window of mu_r
        cfg = {"operation": "sparse_flow_check", "order": {"rho": 1.0},
               "measure": {"atoms": [[10.0, 1.0], [100.0, 1.0]], "window": [5.0, 150.0]},
               "params": {"indices": [2]}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["run", cfg_path, "--out-dir", tmp_path]) == 1
        assert capsys.readouterr().err == (
            "run error: query (0.5, 2] exceeds the representable window (0.05, 1.5]\n")

    def test_sparse_flow_deltas_are_one_dilation_integral(self, tmp_path, dilation_calls,
                                                          scaled_calls):
        assert run_cli(["run", "sparse_atoms", "--out-dir", tmp_path]) == 0
        r_ns = [math.exp(n * n) for n in range(5, 10)]
        assert [list(call[2]) for call in dilation_calls].count(r_ns) == 1
        assert scaled_calls == []

    def test_sparse_flow_with_no_gap(self, tmp_path, capsys):
        # the last atom has no gap after it, so no gap is paired, beside a density
        cfg = {"operation": "sparse_flow_check", "order": {"rho": 0.0},
               "measure": {"atoms": [[2.0, 1.0], [50.0, 1.0]],
                           "densities": [{"kind": "power", "interval": [1000.0, 2000.0],
                                          "s": -1}]},
               "params": {"indices": [2]}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["run", cfg_path, "--out-dir", tmp_path]) == 0
        report = json.loads((tmp_path / "cfg_report.json").read_text())["report"]
        assert report["max_gap_pairing"] == 0.0 and report["max_delta_error"] == 0.0
        rows = (tmp_path / "sparse_flow.csv").read_text().splitlines()
        assert [row.split(",")[:2] for row in rows[1:]] == [["5.00000000000000000e+01", "atom"]]

    @pytest.mark.parametrize("operation, params, path", [
        ("transform_table", {"r_grid": {"start": 1.0, "stop": 10.0, "points": 2.7}},
         "params.r_grid.points"),
        ("transform_table", {"r_grid": {"start": 1.0, "stop": 10.0, "points": -3}},
         "params.r_grid.points"),
        ("limit_set_estimate", {"schedule": {"start": 1e3, "stop": 1e6, "points": 0}},
         "params.schedule.points"),
        ("mellin_symbol_table",
         {"lambda_grid": {"start": -1.0, "stop": 1.0, "points": "many"}},
         "params.lambda_grid.points"),
        ("gamma_suite", {"pairs": 0}, "params.pairs"),
        ("gamma_suite", {"dominance_points": 2.5}, "params.dominance_points"),
        ("potter_check", {"count": -1}, "params.count"),
        ("periodic_family_check", {"period": 2.0, "tau_points": 0},
         "params.tau_points"),
        # 1e11 points ended in numpy's _ArrayMemoryError traceback (745 GiB)
        ("transform_table", {"r_grid": {"start": 1, "stop": 10, "points": 1e11}},
         "params.r_grid.points"),
        ("gamma_suite", {"dominance_points": 1e11}, "params.dominance_points"),
        ("potter_check", {"count": 2 ** 20 + 1}, "params.count"),
    ])
    def test_count_must_be_a_positive_integer(self, operation, params, path,
                                              tmp_path, capsys):
        cfg = {"operation": operation, "order": {"rho": 1.0},
               "measure": {"densities": [{"kind": "power", "s": 0.0}]},
               "kernel": {"kind": "exp"}, "params": params}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["run", cfg_path, "--out-dir", tmp_path]) == 1
        assert capsys.readouterr().err == (
            "config error: %s: expected an integer >= 1 and at most 1048576\n" % path)

    def test_count_bound_admits_its_largest_value(self):
        assert configio._read(configio.Count, 2 ** 20, "p") == 2 ** 20
        assert configio._read(int, 2 ** 40, "p") == 2 ** 40

    @pytest.mark.parametrize("base_power", [2000, 1018])
    def test_base_power_past_the_float_range(self, base_power, tmp_path, capsys):
        # both ended in an OverflowError traceback: 2000 from T**base_power,
        # 1018 from the top image of the self-similar tail (T = 2)
        cfg = builtin_config("periodic_atoms")
        cfg["params"].update(base_power=base_power, tau_points=4)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["run", cfg_path, "--out-dir", tmp_path]) == 1
        assert capsys.readouterr().err == (
            "config error: params.base_power: expected T**(base_power + 4) times "
            "the family's reach 9 to be a float, with T = 2.0 the period\n")

    @pytest.mark.parametrize("operation, extra, tail, schedule, window", [
        # the image locations T**k pass the float range
        ("limit_set_estimate", {}, {"rho": 1}, (1e306, 1.7e307),
         "(1.5625e+304, 1.53e+308]"),
        ("oscillating_family_check", {"params": {"oscillation": 0.5}}, {"rho": 1},
         (1e306, 1.7e307), "(1.5625e+304, 1.53e+308]"),
        # the image weights T**(3 k) pass it, the locations do not
        ("limit_set_estimate", {"order": {"rho": 3.0}}, {"rho": 3}, (1e120, 1e130),
         "(1.5625e+118, 9e+130]"),
        # the averaged measure widens the pairing window 4 times each way
        ("averaged_limit_check", {"kernel": {"kind": "exp"}}, {"rho": 1},
         (1e300, 1e306), "(3.90625e+297, 3.6e+307]"),
        ("tauberian_roundtrip", {"kernel": {"kind": "exp"}}, {"rho": 1},
         (1e300, 1e306), "(3.90625e+297, 3.6e+307]"),
        # the weights T**(k rho) of the images far below base_lo
        ("limit_set_estimate", {}, {"rho": -3, "base_lo": 1e300}, None,
         "(15.625, 9e+06]"),
    ], ids=["locations", "oscillating", "weights", "averaged", "roundtrip", "below"])
    def test_self_similar_images_past_the_float_range(self, operation, extra, tail,
                                                      schedule, window, tmp_path,
                                                      capsys):
        # each ended in an OverflowError traceback from SelfSimilarTail.powers
        base_lo = tail.get("base_lo", 1.0)
        cfg = {"operation": operation, "order": {"rho": 1.0},
               "measure": {"atoms": [[1.2 * base_lo, 1.0]],
                           "tail": dict({"kind": "self_similar", "T": 2}, **tail)},
               "params": {}}
        if schedule is not None:
            cfg["params"]["schedule"] = {"start": schedule[0], "stop": schedule[1],
                                         "points": 12}
        for key, value in extra.items():
            cfg[key] = dict(cfg.get(key, {}), **value)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["run", cfg_path, "--out-dir", tmp_path]) == 1
        assert capsys.readouterr().err == (
            "config error: params.schedule: expected the self-similar images over "
            "%s to have float locations and weights, with T = 2.0, rho = %r and "
            "base_lo = %r\n" % (window, float(tail["rho"]), base_lo))

    def test_self_similar_schedule_below_the_float_range_runs(self, tmp_path):
        cfg = {"operation": "limit_set_estimate", "order": {"rho": 1.0},
               "measure": {"atoms": [[1.0, 1.0]],
                           "tail": {"kind": "self_similar", "T": 2, "rho": 1}},
               "params": {"schedule": {"start": 1e300, "stop": 1e305, "points": 12}}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["run", cfg_path, "--out-dir", tmp_path]) == 0

    @pytest.mark.parametrize("window, count", [
        ([-1e9, 1e9], "4e+10"), ([-1e300, 1e300], "4e+301"), ([-1e308, 1e308], "inf"),
        ([0.0, 0.05 * 2 ** 20], "1.05e+06")])
    def test_jump_window_past_the_point_bound(self, window, count, tmp_path, capsys):
        # [-1e9, 1e9] ended in numpy's _ArrayMemoryError traceback (298 GiB),
        # [-1e300, 1e300] in a run error naming no field and [-1e308, 1e308]
        # in an OverflowError traceback
        cfg = {"operation": "carleman_suite", "params": {"jump_window": window}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli(["run", cfg_path, "--out-dir", tmp_path]) == 1
        assert capsys.readouterr().err == (
            "config error: params.jump_window: %s points at step 0.05 is more than "
            "1048576\n" % count)

    def test_numeric_strings_are_numbers(self, tmp_path):
        # every number, complex scalars included, is read with float()
        cfg = {"operation": "transform_table", "order": {"rho": 1.0},
               "measure": {"densities": [{"kind": "power", "s": "0.0"}]},
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


def _builtin(name, **params):
    cfg = builtin_config(name)
    cfg["params"].update(params)
    del cfg["operation"]
    return cfg


_LOG_POWER = {"rho": 0.0, "zero_part": {"kind": "log_power", "A": 1.0, "alpha": 0.5}}
_POWER = {"densities": [{"kind": "power", "s": 0.0}]}
_LATTICE = {"kind": "step_combo", "steps": [[1.0, 0.0, 1.0], [-2.0, 0.0, 0.5]]}
_R_GRID = {"start": 1e2, "stop": 1e5, "points": 12}
_SCHEDULE = {"start": 1e3, "stop": 1e6, "points": 12}

# one small config per registered operation: the config without its
# operation, the exit code, the report's keys and the CSV tables
OPERATIONS = {
    "gamma_suite": (
        {"order": _LOG_POWER, "params": {"pairs": 20, "dominance_points": 10,
                                         "expected_decay": [0.25, 1 / 6, 0.1]}}, 0,
        "decay_rows decay_strictly_decreasing dominance_defect expected_decay "
        "gamma_at_one lower_factor_consistent submultiplicativity_excess",
        ["potter_decay.csv"]),
    "potter_decay_scan": ({"order": _LOG_POWER}, 0, "rows", ["potter_decay.csv"]),
    "potter_check": (
        {"order": dict(_LOG_POWER, rho=0.5), "params": {"count": 50}}, 0,
        "max_violation passed worst_pair", []),
    "poisson_smoothing_check": (
        {"order": _LOG_POWER}, 0, "rows symmetry_gap symmetry_tol",
        ["poisson_smoothing.csv"]),
    "limit_set_estimate": (
        {"order": {"rho": 1.0}, "measure": _POWER,
         "params": {"schedule": _SCHEDULE, "target": {"exponent": 0.0}}}, 0,
        "cluster_members clusters regular representative_ts target_distance trend "
        "zero_cluster", ["trajectory.csv"]),
    "oscillating_family_check": (
        _builtin("oscillating_density", schedule=_SCHEDULE), 0,
        "clusters max_family_distance rows", ["family_match.csv"]),
    "periodic_family_check": (
        _builtin("periodic_atoms", tau_points=4, base_power=4), 0,
        "cluster_count eps_cluster exact_invariance_worst family_match_worst",
        ["trajectory.csv"]),
    "sparse_flow_check": (
        _builtin("sparse_atoms"), 0, "delta_tol max_delta_error max_gap_pairing null_tol",
        ["sparse_flow.csv"]),
    "class_membership": (
        {"order": {"rho": 1.0}, "measure": _POWER,
         "params": {"r_grid": _R_GRID, "expect_bounded": True}}, 0,
        "bounded decade_ratio sup_ratio", []),
    "positive_regularity": (
        {"order": {"rho": 1.0}, "measure": _POWER,
         "params": {"r_grid": _R_GRID, "expect_regular": True}}, 0,
        "branch limit oscillation regular", []),
    "density_estimate": (
        {"order": {"rho": 1.0}, "measure": _POWER, "params": {"r_grid": _R_GRID}}, 0,
        "alpha lower resolution upper", []),
    "transform_table": (
        {"order": {"rho": 1.0}, "measure": _POWER, "kernel": {"kind": "exp"},
         "params": {"r_grid": _R_GRID}}, 0, "points", ["transform.csv"]),
    "kernel_limit_values": (
        _builtin("periodic_kernel_limits"), 0, "cluster_values match_error", []),
    "neutralization_check": (
        {"order": {"rho": 1.0}, "measure": _POWER, "kernel": {"kind": "exp"},
         "params": {"eps_grid": [0.5, 0.25], "n_grid": [2.0, 4.0],
                    "r_grid": {"start": 1e2, "stop": 1e3, "points": 3}}}, 0,
        "head_sups passed tail_sups", []),
    "integrability_check": (
        {"order": {"rho": 0.5}, "kernel": {"kind": "exp"},
         "params": {"expect_converged": True}}, 0,
        "amalgam_converged amalgam_value l1_converged l1_value", []),
    "averaged_limit_check": (
        _builtin("exp_average_flow", schedule=_SCHEDULE), 0,
        "averaged_bounded averaged_sup_ratio clusters coefficient_rel_error "
        "density_match_error fitted_coefficient", []),
    "antiderivative_identity": (
        {"measure": {"densities": [{"kind": "power", "s": 0.0, "interval": [2, None]}]},
         "kernel": {"kind": "smooth_bump", "interval": [1, 2]}}, 0,
        "max_rel_error passed", ["identity.csv"]),
    "stable_order_check": (
        {"order": {"rho": 0.5}, "measure": {"densities": [{"kind": "power", "s": 0.5}]},
         "params": {"r_grid": _R_GRID, "expect_stable": True}}, 0,
        "branch stable tail_max", []),
    "order_diagnostic": (
        _builtin("laplace_vs_counting"), 0,
        "both_directions_ok count_over_scale final_slope gap_bound_ok slope_vanishes "
        "transform_over_scale", []),
    "mellin_symbol_table": (
        {"kernel": _LATTICE,
         "params": {"lambda_grid": {"start": -2.0, "stop": 2.0, "points": 5}}}, 0,
        "points rho", ["symbol.csv"]),
    "wiener_zero_scan": (
        {"kernel": {"kind": "exp"},
         "params": {"rho": 0.5, "window": [-2.0, 2.0], "step": 0.1,
                    "expect_nonvanishing": True}}, 0,
        "max_abs min_abs nonvanishing zeros", ["zeros.csv"]),
    # lambda 1 is no zero of the lattice symbol: the negative control fails
    "exponential_solution_check": (
        {"kernel": _LATTICE, "params": {"rho": 1.0, "lambdas": [1.0]}}, 2,
        "max_residual residuals", []),
    "tauberian_roundtrip": (
        _builtin("roundtrip_regular", expect_failed_stage=""), 0,
        "averaged_coefficient failed_stage measure_coefficient ratio_error stages "
        "symbol_at_zero", []),
    # Lebesgue measure on the line: G = i/z on both sides, its spectrum {0}
    "carleman_suite": (
        {"params": {"line_measure": {"pieces": [{}]}, "reference": "i_over_z",
                    "bound_constant": 1.0, "jump_window": [-0.1, 0.1],
                    "expected_flags": [0.0]}}, 0,
        "bound_max_ratio bound_passed flagged flags_match reference_error", []),
}


class TestEveryOperation:
    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_operation_runs(self, name, tmp_path, capsys):
        # each reaches its runner's body, not only its config checks
        assert name in OPERATIONS, "no config for the operation %r" % name
        cfg, code, keys, tables = OPERATIONS[name]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(cfg, operation=name)))
        assert run_cli(["run", cfg_path, "--out-dir", tmp_path / "out"]) == code
        report = json.loads((tmp_path / "out" / "cfg_report.json").read_text())["report"]
        assert sorted(report) == keys.split()
        assert sorted(p.name for p in (tmp_path / "out").glob("*.csv")) == tables


def _python(script, *args):
    """The last stdout line of ``script`` run by a fresh interpreter, as JSON."""
    path = [str(Path(azarin.__file__).resolve().parents[1]),
            os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          capture_output=True, text=True, env=env, check=True,
                          timeout=300)
    return json.loads(proc.stdout.splitlines()[-1])


# the plain result records, by module: NamedTuples, whose classes cost a
# fraction of a dataclass's to build at import
RECORDS = {
    "carleman": ["CarlemanBoundReport", "JumpScanReport"],
    "dynamics": ["TrajectorySample", "LimitSetEstimate", "TrendReport",
                 "RegularFormFit", "RegularityReport"],
    "measures": ["DensityEstimate", "MembershipReport"],
    "orders": ["PotterReport"],
    "runners": ["RunResult"],
    "tauberian": ["MellinSymbol", "ZeroScanReport", "ExponentialSolutionReport",
                  "RoundtripStage", "RoundtripReport"],
    "transforms": ["NeutralizationReport", "IntegrabilityReport",
                   "AveragedDensityReport", "IdentityReport", "StableOrderReport",
                   "OrderDiagnosticReport"],
}


class TestRunPathImports:
    def test_cold_start_builds_no_record_dataclass_and_no_masked_arrays(self):
        # np.unique's hash path imports numpy.ma on its first call
        script = ("import dataclasses, importlib, json, sys\n"
                  "import azarin.cli\n"
                  "from azarin.kernels import ExpKernel\n"
                  "from azarin.measures import MetricFamily\n"
                  "from azarin.tauberian import wiener_zero_scan\n"
                  "MetricFamily()\n"
                  "wiener_zero_scan(ExpKernel(), 0.5, window=(-2.0, 2.0), step=0.1)\n"
                  "records = json.loads(sys.argv[1])\n"
                  "print(json.dumps(['numpy.ma' in sys.modules, sorted(\n"
                  "    name for mod, names in records.items() for name in names\n"
                  "    if dataclasses.is_dataclass(getattr(\n"
                  "        importlib.import_module('azarin.' + mod), name)))]))\n")
        masked, dataclass_records = _python(script, json.dumps(RECORDS))
        assert not masked
        assert dataclass_records == []

    def test_runs_load_no_scipy(self, tmp_path):
        # scipy is a test dependency only; a run must not import it, and
        # the round trip must not pay numpy.ma's import (np.unique's first call)
        cfg = {"operation": "stable_order_check", "order": {"rho": 0.5},
               "measure": {"densities": [{"kind": "power", "s": 0.5}]},
               "params": {"expect_stable": True}}
        cfg_path = tmp_path / "stable.json"
        cfg_path.write_text(json.dumps(cfg))
        script = ("import json, sys\n"
                  "from azarin.cli import main\n"
                  "codes = [main(['run', 'roundtrip_regular', '--out-dir', sys.argv[1]])]\n"
                  "masked = 'numpy.ma' in sys.modules\n"
                  "codes.append(main(['run', sys.argv[2], '--out-dir', sys.argv[1]]))\n"
                  "print(json.dumps([codes, masked, sorted(m for m in sys.modules\n"
                  "                                        if m.split('.')[0] == 'scipy')]))\n")
        codes, masked, scipy_modules = _python(script, tmp_path / "out", cfg_path)
        assert codes == [0, 0]
        assert not masked
        assert scipy_modules == []


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

    def test_complex_coefficients(self, tmp_path, capsys):
        # the residual is |c| |T(r)|, so [1, 2] gives sqrt(5) times 1.0's
        residual = {}
        for name, coef in (("real", 1.0), ("complex", [1, 2])):
            cfg = {
                "operation": "exponential_solution_check",
                "kernel": {"kind": "step_combo",
                           "steps": [[1.0, 0.0, 1.0, 1.0], [-2.0, 0.0, 0.5, 1.0]]},
                "params": {"rho": 0.0, "lambdas": [1.0], "coefficients": [coef],
                           "r_samples": [1.0], "tol": 1e-6},
            }
            path = tmp_path / ("%s.json" % name)
            path.write_text(json.dumps(cfg))
            assert run_cli(["run", path, "--out-dir", tmp_path]) == 2
            doc = json.loads((tmp_path / ("%s_report.json" % name)).read_text())
            residual[name] = doc["report"]["max_residual"]
        assert residual["complex"] == pytest.approx(math.sqrt(5.0) * residual["real"],
                                                    rel=1e-9)

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
                           "densities": [{"interval": [1, 2],
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
        assert parse_complex("-0.5", "x") == -0.5 + 0.0j
        with pytest.raises(Exception):
            parse_complex("nope", "x")

    def test_readme_lists_every_declared_field(self):
        # one README bullet per object or kind, "* `path`, kind `k`: fields;
        # meaning": the fields are the quoted names before the bullet's ";"
        tables = {"order": configio.ORDER, "order.zero_part": configio.ZERO_PART,
                  "measure": configio.MEASURE,
                  "measure.densities[]": configio.DENSITY,
                  "measure.tail": configio.TAIL, "kernel": configio.KERNEL,
                  "outputs": configio.OUTPUTS}
        declared = {}
        for path, decl in tables.items():
            if isinstance(decl, configio.Kind):
                for kind, obj in decl.kinds.items():
                    declared[path, kind] = (list(obj.fields), kind == decl.default)
            else:
                declared[path, None] = (list(decl.fields), False)
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        bullets = re.findall(r"^\* `([\w.\[\]]+)`(?:, kind `(\w+)`)?( \(default\))?"
                             r": ((?:[^;\n]|\n(?![*\n]))*)", readme, flags=re.M)
        listed = {(path, kind or None): (re.findall(r"`(\w+)`", fields),
                                         bool(default))
                  for path, kind, default, fields in bullets}
        assert listed == declared
