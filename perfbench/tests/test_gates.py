"""A deliberately perturbed result must count as a failed operation."""

import json
import math

import gates
import run
from workloads import CliOp, Scans, _lib_op, dense_log_potter
import inputs


def _exp_table(rho, grid):
    return [math.gamma(rho) * r ** rho for r in grid]


def test_exact_table_passes_and_scaled_value_fails():
    grid = [1e-2, 1.0, 1e4]
    want = _exp_table(0.7, grid)
    assert gates.table_failures("exp", grid, want, want, gates.EXP_TABLE_RTOL) == []
    got = list(want)
    got[1] *= 1.0 + 1e-6
    assert len(gates.table_failures("exp", grid, got, want, gates.EXP_TABLE_RTOL)) == 1
    assert gates.table_failures("exp", grid, got[:2], want, gates.EXP_TABLE_RTOL)


def test_moved_zero_fails():
    want = inputs.expected_zeros(2, (-20.0, 20.0))
    assert gates.zero_failures(list(want), want) == []
    moved = list(want)
    moved[3] += 1e-5
    assert len(gates.zero_failures(moved, want)) == 1
    assert gates.zero_failures(want[:-1], want)


def test_one_byte_difference_fails():
    assert gates.same_bytes("op", b"abc", b"abc") == []
    assert gates.same_bytes("op", b"abc", b"abd")


def test_potter_probe_off_the_dense_grid_fails():
    order = inputs.tabulated_family()
    zp = order.zero_part
    tau = math.log(37.0)
    brute = dense_log_potter(zp.xs, zp.etas, tau)
    from azarin.orders import potter_factor
    got = math.log(potter_factor(order, 37.0))
    assert gates.potter_failures(True, [(37.0, got, brute)]) == []
    assert gates.potter_failures(True, [(37.0, got + 1e-5, brute)])
    assert gates.potter_failures(False, [(37.0, got, brute)])


def test_roundtrip_report_out_of_tolerance_fails():
    from azarin import catalog
    cfg = catalog.builtin_config("roundtrip_regular")
    report = {"operation": "tauberian_roundtrip", "verdict": "PASS",
              "report": {"ratio_error": 1e-3, "failed_stage": "",
                         "symbol_at_zero": [math.gamma(0.7), 0.0]}}
    ok = json.dumps(report).encode()
    assert gates.cli_failures("rt", cfg, 0, ok) == []
    report["report"]["ratio_error"] = 0.03
    assert gates.cli_failures("rt", cfg, 0, json.dumps(report).encode())
    report["report"]["ratio_error"] = 1e-3
    report["report"]["symbol_at_zero"] = [math.gamma(0.7) * (1 + 1e-6), 0.0]
    assert gates.cli_failures("rt", cfg, 0, json.dumps(report).encode())
    assert gates.cli_failures("rt", cfg, 2, ok)


def test_tally_counts_a_report_that_differs_in_one_byte(tmp_path):
    from azarin import catalog
    op = CliOp("sparse_atoms", catalog.builtin_config("sparse_atoms"), tmp_path)
    passes = [run.run_pass([op], tmp_path / ("pass%d" % k)) for k in range(3)]
    report = tmp_path / "pass2" / "sparse_atoms" / "sparse_atoms_report.json"
    data = bytearray(report.read_bytes())
    k = max(i for i, b in enumerate(data) if chr(b).isdigit())
    data[k] = ord("1") if data[k] != ord("1") else ord("2")
    evaluated = [run.evaluate_pass([op], results) for _, results in passes]
    assert run.tally([op.label], evaluated)[:2] == (3, 0)
    report.write_bytes(bytes(data))
    json.loads(bytes(data))  # still a valid report: only determinism catches it
    evaluated[2] = run.evaluate_pass([op], passes[2][1])
    attempted, failed, messages = run.tally([op.label], evaluated)
    assert (attempted, failed) == (3, 1)
    assert "differ from the first pass" in messages[0]


def test_tally_counts_exceptions_and_oracle_misses(tmp_path):
    def boom():
        raise ValueError("boom")

    ops = [_lib_op("boom", boom, lambda v: []),
           _lib_op("scaled", lambda: [1.0 + 1e-6], lambda v: gates.table_failures(
               "scaled", [1.0], v, [1.0], gates.EXP_TABLE_RTOL))]
    _, results = run.run_pass(ops, tmp_path / "p0")
    attempted, failed, _ = run.tally([op.label for op in ops],
                                     [run.evaluate_pass(ops, results)])
    assert (attempted, failed) == (2, 2)


def test_scans_oracles_accept_the_seed_zero_references(tmp_path):
    wl = Scans(0, tmp_path)
    wl.references()
    assert gates.zero_failures(inputs.expected_zeros(2, (-20.0, 20.0)), wl.zeros_want) == []
    for t, brute in wl.potter_want.items():
        assert math.isfinite(brute) and brute >= 0.0
