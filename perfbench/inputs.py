"""Seeded inputs for the four benchmark workloads.

Every draw comes from ``numpy.random.default_rng(seed)`` and is never
filtered by outcome.  Seed 0 is special: it reproduces the builtin configs
(``azarin.catalog.builtin_config``) and the acceptance-test inputs exactly.

The draws are chosen so that the work of a pass hardly depends on the seed
(the run-to-run spread should measure the program, not the draw): the GK
batch count of a roundtrip moves by 6% across the whole rho range, and the
log-singular table has enough r values that the +-25% swing of one value's
node count averages out.
"""

from __future__ import annotations

import math

import numpy as np

from azarin import catalog
from azarin.carleman import RealMeasure
from azarin.kernels import StepKernel
from azarin.orders import ProximateOrder, TabulatedZero

ROUNDTRIP_RHO = (0.6, 0.8)
TRANSFORM_RHO = (0.65, 0.75)
FLOW_START_FACTOR = (1.0, 2.5)
ZERO_SCAN_QS = (2, 3, 5)
FLOW_BUILTINS = ("regular_density", "oscillating_density", "periodic_atoms",
                 "sparse_atoms", "periodic_kernel_limits", "exp_average_flow")
POTTER_PAIRS = 120
EXP_TABLE_POINTS = 40       # a quarter decade apart, from 1e-2
LOG_TABLE_POINTS = 25       # 0.4 decades apart, from 1e-2


def roundtrip_config(seed):
    """The ``roundtrip_regular`` config with rho drawn in [0.6, 0.8], s = rho - 1."""
    rng = np.random.default_rng(seed)
    cfg = catalog.builtin_config("roundtrip_regular")
    if seed != 0:
        rho = round(float(rng.uniform(*ROUNDTRIP_RHO)), 6)
        cfg["order"]["rho"] = rho
        cfg["measure"]["densities"][0]["s"] = round(rho - 1.0, 6)
    return cfg


def _log_grid(lo_exp, step, points, phase):
    return [10.0 ** (lo_exp + (k + phase) * step) for k in range(points)]


def transform_inputs(seed):
    """rho for the power density t**(rho-1), the two r grids on [1e-2, 1e8),
    and the ``laplace_vs_counting`` config (the builtin at every seed)."""
    rng = np.random.default_rng(seed)
    rho = 0.7 if seed == 0 else round(float(rng.uniform(*TRANSFORM_RHO)), 6)
    phase = 0.0 if seed == 0 else float(rng.uniform(0.0, 1.0))
    return {
        "rho": rho,
        "phase": phase,
        "exp_grid": _log_grid(-2.0, 10.0 / EXP_TABLE_POINTS, EXP_TABLE_POINTS, phase),
        "log_grid": _log_grid(-2.0, 10.0 / LOG_TABLE_POINTS, LOG_TABLE_POINTS, phase),
        "laplace": catalog.builtin_config("laplace_vs_counting"),
    }


def flow_configs(seed):
    """The six flow builtins with every schedule start shifted by the seed.

    Geometric schedules start ``factor`` times later (factor in [1, 2.5]);
    lattice schedules move by ``shift`` whole periods (shift in {0, 1, 2}),
    which keeps them on the lattice their checks rely on.
    """
    rng = np.random.default_rng(seed)
    factor = 1.0 if seed == 0 else round(float(rng.uniform(*FLOW_START_FACTOR)), 6)
    shift = 0 if seed == 0 else int(rng.integers(0, 3))
    out = []
    for name in FLOW_BUILTINS:
        cfg = catalog.builtin_config(name)
        params = cfg["params"]
        schedule = params.get("schedule")
        if isinstance(schedule, dict) and factor != 1.0:
            schedule["start"] = schedule["start"] * factor
        elif isinstance(schedule, list) and shift:
            period = cfg["measure"]["tail"]["T"]
            params["schedule"] = [t * period ** shift for t in schedule]
        elif "base_power" in params and shift:
            params["base_power"] += shift
        out.append((name, cfg))
    return out


def zero_scan_kernel(q):
    """chi_(0,1] - q chi_(0,1/q]: Mellin symbol zeros at 2 pi k / ln q (rho = 1)."""
    return StepKernel(steps=((1.0, 0.0, 1.0), (-float(q), 0.0, 1.0 / q)))


def expected_zeros(q, window):
    spacing = 2.0 * math.pi / math.log(q)
    k_max = int(math.floor(max(abs(window[0]), abs(window[1])) / spacing))
    return sorted(k * spacing for k in range(-k_max, k_max + 1)
                  if window[0] < k * spacing < window[1])


def tabulated_family():
    """The non-concave tabulated order of ``tests/test_orders.py``."""
    xs = np.linspace(0.0, 40.0, 801)
    etas = 0.4 * np.exp(-xs / 6.0) * (1.0 + 0.05 * np.sin(7.0 * xs))
    return ProximateOrder(0.0, TabulatedZero(xs=tuple(xs), etas=tuple(etas)))


def carleman_inputs():
    """Acceptance criterion 10: Lebesgue measure and an oscillating density."""
    zs = [complex(x, y)
          for x in np.linspace(-4.0, 4.0, 10)
          for y in list(np.geomspace(0.05, 5.0, 5))
          + list(-np.geomspace(0.05, 5.0, 5))]
    return {
        "lebesgue": RealMeasure(pieces=((None, None, 1.0, 0.0),)),
        "oscillating": RealMeasure(pieces=((None, None, 1.0, -3.0),)),
        "zs": zs,
        "jump_window": (-1.0, 1.0),
        "osc_window": (2.0, 4.0),
    }


def scan_inputs(seed):
    """Zero-scan kernel, Potter sample pairs and the Carleman suite."""
    rng = np.random.default_rng(seed)
    q = 2 if seed == 0 else int(rng.choice(ZERO_SCAN_QS))
    pairs = [tuple(p) for p in np.exp(rng.uniform(-20.0, 20.0,
                                                  size=(POTTER_PAIRS, 2)))]
    return {
        "q": q,
        "zero_kernel": zero_scan_kernel(q),
        "window": (-20.0, 20.0),
        "step": 0.01,
        "potter_order": tabulated_family(),
        "potter_pairs": pairs,
        "carleman": carleman_inputs(),
    }
