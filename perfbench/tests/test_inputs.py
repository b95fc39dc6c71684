"""Seeded inputs: seed 0 is the builtin and acceptance inputs, other seeds stay in range."""

import importlib.util
import math

import numpy as np
import pytest

import inputs
from azarin import catalog
from azarin.configio import parse_kernel
from conftest import ROOT

SEEDS = range(1, 25)


def _test_orders_module():
    spec = importlib.util.spec_from_file_location("azarin_test_orders",
                                                  ROOT / "tests" / "test_orders.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_seed0_roundtrip_is_the_builtin():
    assert inputs.roundtrip_config(0) == catalog.builtin_config("roundtrip_regular")


def test_seed0_flows_are_the_builtins():
    got = dict(inputs.flow_configs(0))
    assert list(got) == list(inputs.FLOW_BUILTINS)
    for name, cfg in got.items():
        assert cfg == catalog.builtin_config(name)


def test_seed0_transforms():
    spec = inputs.transform_inputs(0)
    assert spec["rho"] == 0.7
    assert spec["laplace"] == catalog.builtin_config("laplace_vs_counting")
    assert spec["exp_grid"][0] == 1e-2 and spec["log_grid"][0] == 1e-2


def test_seed0_zero_scan_is_the_lattice_builtin():
    builtin = catalog.builtin_config("lattice_kernel_zeros")
    spec = inputs.scan_inputs(0)
    assert spec["q"] == 2
    assert spec["zero_kernel"] == parse_kernel(builtin["kernel"])
    assert list(spec["window"]) == builtin["params"]["window"]
    assert spec["step"] == builtin["params"]["step"]
    want = builtin["params"]["expected_zeros"]
    got = inputs.expected_zeros(2, spec["window"])
    assert len(got) == len(want)
    assert all(abs(a - b) <= 1e-12 for a, b in zip(got, sorted(want)))


def test_potter_order_is_the_test_suite_family():
    ref = _test_orders_module().tabulated_family()
    assert inputs.tabulated_family() == ref


def test_carleman_inputs_are_criterion_10():
    c = inputs.carleman_inputs()
    zs = [complex(x, y)
          for x in np.linspace(-4.0, 4.0, 10)
          for y in list(np.geomspace(0.05, 5.0, 5))
          + list(-np.geomspace(0.05, 5.0, 5))]
    assert c["zs"] == zs and len(zs) == 100
    assert c["lebesgue"].pieces == ((None, None, 1.0, 0.0),)
    assert c["oscillating"].pieces == ((None, None, 1.0, -3.0),)


@pytest.mark.parametrize("q", inputs.ZERO_SCAN_QS)
def test_expected_zeros_cover_every_k_in_the_window(q):
    spacing = 2.0 * math.pi / math.log(q)
    got = inputs.expected_zeros(q, (-20.0, 20.0))
    ks = [round(z / spacing) for z in got]
    k_max = int(20.0 // spacing)
    assert ks == list(range(-k_max, k_max + 1))
    assert (k_max + 1) * spacing > 20.0


def test_same_seed_same_inputs():
    for seed in (0, 3, 17):
        assert inputs.roundtrip_config(seed) == inputs.roundtrip_config(seed)
        assert inputs.flow_configs(seed) == inputs.flow_configs(seed)
        a, b = inputs.transform_inputs(seed), inputs.transform_inputs(seed)
        assert a == b
        sa, sb = inputs.scan_inputs(seed), inputs.scan_inputs(seed)
        assert sa["q"] == sb["q"] and sa["potter_pairs"] == sb["potter_pairs"]


def test_draws_stay_in_their_ranges():
    lo, hi = inputs.ROUNDTRIP_RHO
    for seed in SEEDS:
        cfg = inputs.roundtrip_config(seed)
        assert lo <= cfg["order"]["rho"] <= hi
        assert cfg["measure"]["densities"][0]["s"] == round(cfg["order"]["rho"] - 1.0, 6)
        spec = inputs.transform_inputs(seed)
        assert inputs.TRANSFORM_RHO[0] <= spec["rho"] <= inputs.TRANSFORM_RHO[1]
        for grid in (spec["exp_grid"], spec["log_grid"]):
            assert 1e-2 <= min(grid) and max(grid) < 1e8
        for name, cfg in inputs.flow_configs(seed):
            base = catalog.builtin_config(name)["params"]
            sched = cfg["params"].get("schedule")
            if isinstance(sched, dict):
                factor = sched["start"] / base["schedule"]["start"]
                assert 1.0 <= factor <= 2.5 + 1e-12
        assert inputs.scan_inputs(seed)["q"] in inputs.ZERO_SCAN_QS
