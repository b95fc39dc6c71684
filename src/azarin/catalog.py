"""Built-in experiment configs.

Each entry is a complete, ready-to-run config document reproducing one of
the library's reference scenarios; ``azarin run <name>`` accepts the names
directly.  All grids are pinned so reruns are byte-identical.
"""

from __future__ import annotations

import copy
import math

_TWO_PI_OVER_LN2 = 2.0 * math.pi / math.log(2.0)


def _slow_drift_eta():
    """Tabulated slope of the symmetric scale exp(ln(1 + x/(1+x^2))) on [0, 60].

    The scale behaves like 1 + 1/ln r at infinity, matching the slowly
    decaying density perturbation used by the regular-density scenario.
    """
    out = []
    for k in range(2401):
        x = 60.0 * k / 2400
        out.append([x, (1.0 - x * x) / ((1.0 + x * x) * (1.0 + x + x * x))])
    return out


BUILTINS = {
    # single limit measure recovered from a slowly perturbed power density
    "regular_density": {
        "operation": "limit_set_estimate",
        "order": {"rho": 0.5,
                  "zero_part": {"kind": "tabulated_eta",
                                "points": _slow_drift_eta()}},
        "measure": {"densities": [{"interval": [0, None], "kind": "perturbed_power",
                                   "s": -0.5, "style": "inv_log"}]},
        "params": {
            "schedule": {"start": 1e3, "stop": 1e6, "points": 48},
            "eps_cluster": 1e-3,
            "target": {"exponent": -0.5, "tol_d": 1e-3},
        },
    },
    # oscillatory density: the limit set is a circle of rotated measures
    "oscillating_density": {
        "operation": "oscillating_family_check",
        "order": {"rho": 0.5},
        "measure": {"densities": [{"interval": [0, None], "kind": "power",
                                   "s": [-0.5, 3.0]}]},
        "params": {
            "oscillation": 3.0,
            "schedule": {"start": 1e3, "stop": 1e6, "points": 48},
            "eps_cluster": 1e-3,
            "tol_d": 1e-3,
        },
    },
    # self-similar atom lattice: the limit set is one full period of the flow
    "periodic_atoms": {
        "operation": "periodic_family_check",
        "order": {"rho": 1.0},
        "measure": {"atoms": [[1.0, 1.0]],
                    "tail": {"kind": "self_similar", "T": 2, "rho": 1}},
        "params": {"tau_points": 16, "base_power": 36, "eps_cluster": 1e-3,
                   "exact_tol": 1e-12},
    },
    # super-geometrically sparse atoms: single spikes alternate with the
    # zero measure along the flow
    "sparse_atoms": {
        "operation": "sparse_flow_check",
        "order": {"rho": 1.0},
        "measure": {"atoms": [[math.exp(n * n), math.exp(n * n)]
                              for n in range(1, 13)]},
        "params": {"indices": [5, 6, 7, 8, 9],
                   "probe": {"interval": [0.5, 2.0]},
                   "delta_tol": 1e-6, "null_tol": 1e-8},
    },
    # cluster values of the normalized transform against direct pairings
    "periodic_kernel_limits": {
        "operation": "kernel_limit_values",
        "order": {"rho": 1.0},
        "measure": {"atoms": [[1.0, 1.0]],
                    "tail": {"kind": "self_similar", "T": 2, "rho": 1}},
        "kernel": {"kind": "trapezoid", "interval": [1.0, 3.0]},
        "params": {
            # schedule rides the tau lattice so every phase recurs exactly
            "schedule": sorted(2.0 ** (k / 16.0) * 2.0 ** p
                               for k in range(16) for p in range(30, 34)),
            "cluster_eps": 1e-4, "tau_points": 16, "tol": 1e-4,
        },
    },
    # exponential smoothing of a power measure: averaged flow recovers
    # Gamma(rho) * u**rho
    "exp_average_flow": {
        "operation": "averaged_limit_check",
        "order": {"rho": 0.7},
        "measure": {"densities": [{"interval": [0, None], "kind": "power",
                                   "s": -0.3}]},
        "kernel": {"kind": "exp"},
        "params": {
            "schedule": {"start": 1e2, "stop": 1e6, "points": 32},
            "eps_cluster": 1e-3, "density_tol": 0.01,
            "expected_coefficient_rule": "gamma(rho)", "coef_tol": 0.01,
        },
    },
    # zero-order Laplace smoothing vs the counting function, both ~ scale
    "laplace_vs_counting": {
        "operation": "order_diagnostic",
        "order": {"rho": 0.0, "zero_part": {"kind": "log_of_log_power", "alpha": 2}},
        "measure": {"densities": [{"interval": [1.0, None], "kind": "power_log",
                                   "s": -1.0, "coef": 2.0, "log_power": 1}]},
        "kernel": {"kind": "exp"},
        "params": {"r_grid": {"start": 1e2, "stop": 1e8, "points": 10},
                   "hardy": True},
    },
    # lattice-step kernel: symbol zeros on the arithmetic progression
    "lattice_kernel_zeros": {
        "operation": "wiener_zero_scan",
        "kernel": {"kind": "step_combo",
                   "steps": [[1.0, 0.0, 1.0], [-2.0, 0.0, 0.5]]},
        "params": {
            "rho": 1.0, "window": [-20.0, 20.0], "step": 0.01, "tol": 1e-6,
            "expected_zeros": [k * _TWO_PI_OVER_LN2 for k in (-2, -1, 0, 1, 2)],
            "abscissa_tol": 1e-6,
        },
    },
    # full regularity transfer through the averaged measure and back
    "roundtrip_regular": {
        "operation": "tauberian_roundtrip",
        "order": {"rho": 0.7},
        "measure": {"densities": [{"interval": [0, None], "kind": "perturbed_power",
                                   "s": -0.3, "style": "inv_log1p"}]},
        "kernel": {"kind": "exp"},
        "params": {
            "schedule": {"start": 1e2, "stop": 1e8, "points": 176},
            "ratio_tol": 0.02,
        },
    },
}


def builtin_names():
    return sorted(BUILTINS)


def builtin_config(name):
    if name not in BUILTINS:
        raise KeyError(name)
    return copy.deepcopy(BUILTINS[name])
