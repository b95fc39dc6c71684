"""Operation registry binding config documents to library calls.

Each runner consumes a validated config and returns a RunResult holding an
optional pass/fail verdict, a JSON-ready report and CSV tables.  Runners
are deterministic: every grid and schedule is either spelled out in the
config or has a fixed default; sample batches use a fixed low-discrepancy
lattice instead of random draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import carleman as carl
from .configio import (ConfigError, number, parse_kernel, parse_measure,
                       parse_order, require)
from .dynamics import (convergence_trend, estimate_limit_set,
                       positive_regularity_criterion, sample_trajectory,
                       verify_regular_limit_form)
from .measures import (MetricFamily, RadonMeasure, class_membership,
                       lower_density, upper_density)
from .numerics import DEFAULT_QUAD
from .orders import (poisson_smoothed_scale, potter_bound_report,
                     potter_decay_scan, potter_factor)
from .special import lanczos_gamma
from .tauberian import (mellin_symbol_table, tauberian_roundtrip,
                        verify_exponential_solution, wiener_zero_scan)
from .transforms import (KernelTransform, averaged_measure,
                         check_antiderivative_identity, integrability_report,
                         neutralization_report, normalized_limit_values,
                         order_diagnostic, stable_order_report,
                         verify_averaged_limit_densities)

REGISTRY = {}


@dataclass
class RunResult:
    verdict: object            # True / False / None (no pass-fail semantics)
    report: dict
    tables: list = field(default_factory=list)   # (name, header, rows)


def operation(name):
    def deco(fn):
        REGISTRY[name] = fn
        return fn
    return deco


def _jsonable(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def _span(given, path):
    """(start, stop, points) of a grid given as an object."""
    return tuple(number(require(given, key, path), "%s.%s" % (path, key))
                 for key in ("start", "stop", "points"))


def _grid(params, key, default_start, default_stop, default_points):
    given = params.get(key)
    if given is None:
        return np.geomspace(default_start, default_stop, default_points)
    if isinstance(given, dict):
        start, stop, points = _span(given, "params." + key)
        return np.geomspace(float(start), float(stop), int(points))
    return np.asarray([float(v) for v in given], dtype=float)


def _quad(params):
    tol = params.get("quad_tol")
    ctrl = DEFAULT_QUAD
    if tol is not None:
        ctrl = ctrl.with_tol(float(tol))
    return ctrl


def _lattice_pairs(count, ln_range):
    """Deterministic low-discrepancy (r, t) pairs, log-uniform."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    pairs = []
    for i in range(1, count + 1):
        u = (i * phi) % 1.0
        v = (i * i * phi) % 1.0
        pairs.append((math.exp((2.0 * u - 1.0) * ln_range),
                      math.exp((2.0 * v - 1.0) * ln_range)))
    return pairs


# ---------------------------------------------------------------------------
# order-side operations


@operation("gamma_suite")
def run_gamma_suite(cfg):
    order = parse_order(cfg.get("order"))
    params = cfg.get("params", {})
    tol = float(params.get("tol", 1e-6))
    at_one = potter_factor(order, 1.0)
    pairs = _lattice_pairs(int(params.get("pairs", 100)),
                           float(params.get("ln_range", 10.0)))
    submult_worst = 0.0
    for t1, t2 in pairs:
        g12 = potter_factor(order, t1 * t2)
        g1 = potter_factor(order, t1)
        g2 = potter_factor(order, t2)
        submult_worst = max(submult_worst, g12 / (g1 * g2) - 1.0)
    ts = np.geomspace(1e-6, 1e6, int(params.get("dominance_points", 50)))
    dominance_worst = 0.0
    for t in ts:
        dominance_worst = max(dominance_worst,
                              float(order.zero_scale(t)) - potter_factor(order, t))
    lower_ok = all(potter_factor(order, 1.0 / t) >= 0 and
                   1.0 / potter_factor(order, 1.0 / t) <= potter_factor(order, t)
                   * (1.0 + 1e-12) for t in ts[:: max(1, ts.size // 10)])
    exponents = params.get("decay_exponents", [16.0, 36.0, 100.0])
    scan = potter_decay_scan(order, [math.exp(e) for e in exponents])
    decays = [row[1] for row in scan]
    strictly_decreasing = all(b < a for a, b in zip(decays, decays[1:]))
    report = {
        "gamma_at_one": at_one,
        "submultiplicativity_excess": submult_worst,
        "dominance_defect": dominance_worst,
        "lower_factor_consistent": lower_ok,
        "decay_rows": [list(r) for r in scan],
        "decay_strictly_decreasing": strictly_decreasing,
    }
    expected = params.get("expected_decay")
    decay_ok = True
    if expected is not None:
        decay_ok = all(abs(got - want) <= float(params.get("decay_tol", 1e-3))
                       for got, want in zip(decays, expected))
        report["expected_decay"] = expected
    verdict = (at_one == 1.0 and submult_worst <= tol
               and dominance_worst <= 1e-9 and strictly_decreasing
               and decay_ok and lower_ok)
    table = ("potter_decay.csv", ["t", "forward", "backward"],
             [list(r) for r in scan])
    return RunResult(verdict, report, [table])


@operation("potter_decay_scan")
def run_potter_decay_scan(cfg):
    order = parse_order(cfg.get("order"))
    params = cfg.get("params", {})
    ts = _grid(params, "t_grid", math.exp(16.0), math.exp(100.0), 3)
    rows = potter_decay_scan(order, ts)
    report = {"rows": [list(r) for r in rows]}
    return RunResult(None, report,
                     [("potter_decay.csv", ["t", "forward", "backward"],
                       [list(r) for r in rows])])


@operation("potter_check")
def run_potter_check(cfg):
    order = parse_order(cfg.get("order"))
    params = cfg.get("params", {})
    pairs = params.get("pairs")
    if pairs is None:
        pairs = _lattice_pairs(int(params.get("count", 1000)),
                               float(params.get("ln_range", 20.0)))
    rep = potter_bound_report(order, pairs,
                              tolerance=float(params.get("tol", 1e-6)))
    report = {"max_violation": rep.max_violation, "passed": rep.passed,
              "worst_pair": rep.worst_pair}
    return RunResult(rep.passed, report)


@operation("poisson_smoothing_check")
def run_poisson_smoothing(cfg):
    order = parse_order(cfg.get("order"))
    params = cfg.get("params", {})
    quad = _quad(params)
    rows = []
    verdict = True
    checks = params.get("checks", [{"r": 1e4, "bound": 0.05}])
    if not isinstance(checks, list):
        raise ConfigError("params.checks: expected a list of {r, bound} objects")
    for i, entry in enumerate(checks):
        path = "params.checks[%d]" % i
        r = number(require(entry, "r", path), path + ".r")
        bound = number(require(entry, "bound", path), path + ".bound")
        v1 = poisson_smoothed_scale(order, r, quad)
        v = float(order.scale(r))
        defect = abs(v1 / v - 1.0)
        rows.append([r, v1, v, defect, bound])
        verdict = verdict and defect < bound
    sym_r = float(params.get("symmetry_r", 37.5))
    sym_gap = abs(poisson_smoothed_scale(order, sym_r, quad)
                  - poisson_smoothed_scale(order, 1.0 / sym_r, quad))
    sym_tol = float(params.get("symmetry_tol", 1e-8))
    verdict = verdict and sym_gap <= sym_tol
    report = {"rows": rows, "symmetry_gap": sym_gap, "symmetry_tol": sym_tol}
    return RunResult(verdict, report,
                     [("poisson_smoothing.csv",
                       ["r", "smoothed", "scale", "rel_defect", "bound"], rows)])


# ---------------------------------------------------------------------------
# measure/dynamics operations


def _trajectory_table(samples):
    rows = []
    for s in samples:
        for n, p in enumerate(s.pairings, start=1):
            rows.append([s.t, n, p.real, p.imag])
    return ("trajectory.csv", ["t", "n", "re_pairing", "im_pairing"], rows)


@operation("limit_set_estimate")
def run_limit_set(cfg):
    order = parse_order(cfg.get("order"))
    measure = parse_measure(cfg.get("measure"))
    params = cfg.get("params", {})
    quad = _quad(params)
    fam = MetricFamily(quad=quad)
    schedule = _grid(params, "schedule", 1e3, 1e6, 48)
    samples = sample_trajectory(measure, order, schedule, fam, quad)
    est = estimate_limit_set(samples, fam,
                             eps_cluster=float(params.get("eps_cluster", 1e-3)))
    trend = convergence_trend(samples, fam)
    report = {
        "clusters": len(est.clusters),
        "cluster_members": [[est.samples[i].t for i in group]
                            for group in est.clusters],
        "regular": est.regular,
        "zero_cluster": est.zero_cluster,
        "representative_ts": est.representative_ts,
        "trend": {"head": trend.head, "tail": trend.tail,
                  "ratio": trend.ratio, "converged": trend.converged},
    }
    verdict = None
    target = params.get("target")
    if target is not None:
        exponent = complex(float(target.get("exponent", order.rho - 1.0)),
                           float(target.get("oscillation", 0.0)))
        coef = complex(float(target.get("coef", 1.0)))
        nu = RadonMeasure.power_density(exponent, coef=coef)
        target_p = fam.pairings(nu, quad)
        d = fam.distance_from_pairings(est.limit_pairings[0], target_p)
        report["target_distance"] = d
        verdict = est.regular and d <= float(target.get("tol_d", 1e-3))
    return RunResult(verdict, report, [_trajectory_table(samples)])


@operation("oscillating_family_check")
def run_oscillating_family(cfg):
    order = parse_order(cfg.get("order"))
    measure = parse_measure(cfg.get("measure"))
    params = cfg.get("params", {})
    lam0 = float(require(params, "oscillation", "params"))
    quad = _quad(params)
    fam = MetricFamily(quad=quad)
    schedule = _grid(params, "schedule", 1e3, 1e6, 48)
    samples = sample_trajectory(measure, order, schedule, fam, quad)
    est = estimate_limit_set(samples, fam,
                             eps_cluster=float(params.get("eps_cluster", 1e-3)))
    tol = float(params.get("tol_d", 2e-3))
    rows = []
    worst = 0.0
    for t_star, p in zip(est.representative_ts, est.representative_pairings):
        # predicted member: density t*^{i lam0} u^{i lam0 + rho - 1}
        phase = complex(np.exp(1j * lam0 * math.log(t_star)))
        nu = RadonMeasure.power_density(complex(order.rho - 1.0, lam0),
                                        coef=phase)
        d = fam.distance_from_pairings(p, fam.pairings(nu, quad))
        rows.append([t_star, d])
        worst = max(worst, d)
    report = {"clusters": len(est.clusters), "max_family_distance": worst,
              "rows": rows}
    return RunResult(worst <= tol, report,
                     [("family_match.csv", ["t", "distance"], rows)])


@operation("periodic_family_check")
def run_periodic_family(cfg):
    order = parse_order(cfg.get("order"))
    measure = parse_measure(cfg.get("measure"))
    params = cfg.get("params", {})
    quad = _quad(params)
    fam = MetricFamily(quad=quad)
    period = (measure.tail.period if measure.tail
              else float(require(params, "period", "params")))
    tau_points = int(params.get("tau_points", 16))
    base_power = int(params.get("base_power", 36))
    taus = [period ** (k / tau_points) for k in range(tau_points)]
    exact_worst = 0.0
    for tau in taus:
        t = tau * period ** base_power
        a = measure.scaled(order, t)
        b = measure.scaled(order, t * period)
        exact_worst = max(exact_worst,
                          fam.distance_from_pairings(fam.pairings(a, quad),
                                                     fam.pairings(b, quad)))
    schedule = sorted(tau * period ** k for tau in taus
                      for k in range(base_power, base_power + 3))
    samples = sample_trajectory(measure, order, np.array(schedule), fam, quad)
    eps = float(params.get("eps_cluster", 1e-3))
    est = estimate_limit_set(samples, fam, eps_cluster=eps,
                             transient_fraction=0.0, top_decades=30.0)
    match_worst = 0.0
    for tau in taus:
        p = fam.pairings(measure.scaled(order, tau), quad)
        d = min(fam.distance_from_pairings(p, q)
                for q in est.representative_pairings)
        match_worst = max(match_worst, d)
    exact_tol = float(params.get("exact_tol", 1e-12))
    report = {
        "exact_invariance_worst": exact_worst,
        "cluster_count": len(est.clusters),
        "family_match_worst": match_worst,
        "eps_cluster": eps,
    }
    verdict = exact_worst <= exact_tol and match_worst <= 2.0 * eps
    return RunResult(verdict, report, [_trajectory_table(samples)])


@operation("sparse_flow_check")
def run_sparse_flow(cfg):
    order = parse_order(cfg.get("order"))
    measure = parse_measure(cfg.get("measure"))
    params = cfg.get("params", {})
    quad = _quad(params)
    fam = MetricFamily(quad=quad)
    indices = params.get("indices", [5, 6, 7, 8, 9])
    probe = params.get("probe", {"interval": [0.5, 2.0]})
    bump_lo, bump_hi = require(probe, "interval", "params.probe")
    from .measures import TestFunction
    bump = TestFunction(lo=float(bump_lo), hi=float(bump_hi))
    xs = np.sort(measure.atom_x)
    delta_tol = float(params.get("delta_tol", 1e-6))
    null_tol = float(params.get("null_tol", 1e-8))
    rows = []
    worst_delta = 0.0
    worst_null = 0.0
    for n in indices:
        r_n = float(xs[n - 1])
        at = measure.scaled(order, r_n)
        got = at.pair(bump, quad)
        expected = complex(bump(np.array([1.0]))[0])
        worst_delta = max(worst_delta, abs(got - expected))
        rows.append([r_n, "atom", got.real, got.imag])
        if n < len(xs):
            mid = math.sqrt(r_n * float(xs[n]))
            there = measure.scaled(order, mid)
            pmax = float(np.max(np.abs(fam.pairings(there, quad))))
            worst_null = max(worst_null, pmax)
            rows.append([mid, "gap", pmax, 0.0])
    report = {"max_delta_error": worst_delta, "max_gap_pairing": worst_null,
              "delta_tol": delta_tol, "null_tol": null_tol}
    verdict = worst_delta <= delta_tol and worst_null <= null_tol
    return RunResult(verdict, report,
                     [("sparse_flow.csv", ["t", "kind", "value", "imag"], rows)])


@operation("class_membership")
def run_class_membership(cfg):
    order = parse_order(cfg.get("order"))
    measure = parse_measure(cfg.get("measure"))
    params = cfg.get("params", {})
    quad = _quad(params)
    grid = params.get("r_grid")
    rep = class_membership(measure, order, which=params.get("which", "tail"),
                           r_grid=None if grid is None else _grid(params, "r_grid", 1, 1e8, 120),
                           quad=quad)
    report = {"sup_ratio": rep.sup_ratio, "bounded": rep.bounded,
              "decade_ratio": rep.decade_ratio}
    verdict = None
    if "expect_bounded" in params:
        verdict = rep.bounded == bool(params["expect_bounded"])
    return RunResult(verdict, report)


@operation("positive_regularity")
def run_positive_regularity(cfg):
    order = parse_order(cfg.get("order"))
    measure = parse_measure(cfg.get("measure"))
    params = cfg.get("params", {})
    quad = _quad(params)
    grid = _grid(params, "r_grid", 1e2, 1e7, 40)
    rep = positive_regularity_criterion(measure, order, grid, quad=quad)
    report = {"branch": rep.branch, "limit": rep.limit_estimate,
              "oscillation": rep.oscillation, "regular": rep.regular}
    verdict = None
    if "expect_regular" in params:
        verdict = rep.regular == bool(params["expect_regular"])
    return RunResult(verdict, report)


@operation("density_estimate")
def run_density_estimate(cfg):
    order = parse_order(cfg.get("order"))
    measure = parse_measure(cfg.get("measure"))
    params = cfg.get("params", {})
    quad = _quad(params)
    grid = _grid(params, "r_grid", 1e2, 1e7, 48)
    alpha = float(params.get("alpha", 1.0))
    up = upper_density(measure, order, alpha, grid, quad)
    lo = lower_density(measure, order, alpha, grid, quad)
    report = {"alpha": alpha, "upper": up.value, "lower": lo.value,
              "resolution": up.resolution}
    return RunResult(None, report)


# ---------------------------------------------------------------------------
# transform-side operations


@operation("transform_table")
def run_transform_table(cfg):
    order = parse_order(cfg.get("order"))
    measure = parse_measure(cfg.get("measure"))
    kernel = parse_kernel(cfg.get("kernel"))
    params = cfg.get("params", {})
    quad = _quad(params)
    tr = KernelTransform(kernel, measure, order, quad)
    grid = _grid(params, "r_grid", 1.0, 1e6, 25)
    rows = []
    for r in grid:
        v = tr.value(r)
        scale = float(order.scale(r))
        j = v / scale
        rows.append([float(r), v.real, v.imag, scale, j.real, j.imag])
    return RunResult(None, {"points": len(rows)},
                     [("transform.csv",
                       ["r", "re_value", "im_value", "scale", "re_norm", "im_norm"],
                       rows)])


@operation("kernel_limit_values")
def run_kernel_limit_values(cfg):
    order = parse_order(cfg.get("order"))
    measure = parse_measure(cfg.get("measure"))
    kernel = parse_kernel(cfg.get("kernel"))
    params = cfg.get("params", {})
    quad = _quad(params)
    tr = KernelTransform(kernel, measure, order, quad)
    schedule = _grid(params, "schedule", 1e3, 1e9, 64)
    eps = float(params.get("cluster_eps", 1e-4))
    clusters = normalized_limit_values(tr, schedule, eps=eps)
    tol = float(params.get("tol", 1e-4))
    taus = params.get("tau_grid")
    worst = None
    if taus is None and measure.tail is not None:
        period = measure.tail.period
        npts = int(params.get("tau_points", 16))
        taus = [period ** (k / npts) for k in range(npts)]
    if taus is not None:
        worst = 0.0
        direct = []
        for tau in taus:
            nu = measure.scaled(order, float(tau))
            val = KernelTransform(kernel, nu, quad=quad).value(1.0)
            direct.append(val)
            worst = max(worst, min(abs(val - c) for c in clusters))
        for c in clusters:
            worst = max(worst, min(abs(v - c) for v in direct))
    report = {"cluster_values": [ _jsonable(c) for c in clusters],
              "match_error": worst}
    verdict = None if worst is None else worst <= tol
    return RunResult(verdict, report)


@operation("neutralization_check")
def run_neutralization(cfg):
    order = parse_order(cfg.get("order"))
    measure = parse_measure(cfg.get("measure"))
    kernel = parse_kernel(cfg.get("kernel"))
    params = cfg.get("params", {})
    quad = _quad(params)
    eps_grid = params.get("eps_grid", [0.5, 0.25, 0.125, 0.0625])
    n_grid = params.get("n_grid", [2.0, 4.0, 8.0, 16.0])
    r_grid = _grid(params, "r_grid", 1e2, 1e5, 10)
    rep = neutralization_report(kernel, order, measure, eps_grid, n_grid,
                                r_grid, quad)
    report = {"head_sups": list(rep.head_sups), "tail_sups": list(rep.tail_sups),
              "passed": rep.passed}
    verdict = rep.passed
    if "expect_pass" in params:
        verdict = rep.passed == bool(params["expect_pass"])
    return RunResult(verdict, report)


@operation("integrability_check")
def run_integrability(cfg):
    order = parse_order(cfg.get("order"))
    kernel = parse_kernel(cfg.get("kernel"))
    params = cfg.get("params", {})
    quad = _quad(params)
    rep = integrability_report(kernel, order, quad)
    report = {"l1_value": rep.l1_value, "l1_converged": rep.l1_converged,
              "amalgam_value": rep.amalgam_value,
              "amalgam_converged": rep.amalgam_converged}
    verdict = None
    if "expect_converged" in params:
        verdict = rep.l1_converged == bool(params["expect_converged"])
    return RunResult(verdict, report)


@operation("averaged_limit_check")
def run_averaged_limit(cfg):
    order = parse_order(cfg.get("order"))
    measure = parse_measure(cfg.get("measure"))
    kernel = parse_kernel(cfg.get("kernel"))
    params = cfg.get("params", {})
    quad = _quad(params)
    fam = MetricFamily(quad=quad)
    schedule = _grid(params, "schedule", 1e2, 1e6, 32)
    hull = fam.support_hull()
    window = (schedule.min() * hull[0] / 4.0, schedule.max() * hull[1] * 4.0)
    tr = KernelTransform(kernel, measure, order, quad)
    smoothed = averaged_measure(tr, window)
    shifted = order.shifted(1.0)
    membership = class_membership(
        smoothed, shifted,
        r_grid=np.geomspace(window[0] * 4.0, window[1] / 8.0, 40), quad=quad)
    s_traj = sample_trajectory(smoothed, shifted, schedule, fam, quad)
    s_est = estimate_limit_set(s_traj, fam,
                               eps_cluster=float(params.get("eps_cluster", 1e-3)))
    mu_traj = sample_trajectory(measure, order, schedule, fam, quad)
    mu_est = estimate_limit_set(mu_traj, fam,
                                eps_cluster=float(params.get("eps_cluster", 1e-3)))
    densities = verify_averaged_limit_densities(
        tr, order, s_est, mu_est, tol=float(params.get("density_tol", 0.01)),
        quad=quad)
    fit = verify_regular_limit_form(s_est, shifted, quad) if s_est.regular else None
    report = {
        "averaged_bounded": membership.bounded,
        "averaged_sup_ratio": membership.sup_ratio,
        "density_match_error": densities.max_rel_error,
        "clusters": len(s_est.clusters),
    }
    verdict = membership.bounded and densities.passed
    if fit is not None:
        report["fitted_coefficient"] = _jsonable(fit.coefficient)
        rule = params.get("expected_coefficient_rule")
        if rule == "gamma(rho)":
            want = lanczos_gamma(order.rho)
            err = abs(fit.coefficient / want - 1.0)
            report["coefficient_rel_error"] = err
            verdict = verdict and err <= float(params.get("coef_tol", 0.01))
    return RunResult(verdict, report)


@operation("antiderivative_identity")
def run_antiderivative_identity(cfg):
    measure = parse_measure(cfg.get("measure"))
    kernel = parse_kernel(cfg.get("kernel"))
    params = cfg.get("params", {})
    quad = _quad(params)
    orders_list = [int(n) for n in params.get("orders", [0, 1, 2])]
    r_samples = [float(r) for r in params.get("r_samples", [1.0, 3.0, 10.0])]
    rep = check_antiderivative_identity(kernel, measure, orders_list, r_samples,
                                        quad, tol=float(params.get("tol", 1e-6)))
    rows = [[n, r, lhs.real, lhs.imag, rhs.real, rhs.imag, err]
            for n, r, lhs, rhs, err in rep.rows]
    report = {"max_rel_error": rep.max_rel_error, "passed": rep.passed}
    return RunResult(rep.passed, report,
                     [("identity.csv",
                       ["n", "r", "re_lhs", "im_lhs", "re_rhs", "im_rhs", "rel_err"],
                       rows)])


@operation("stable_order_check")
def run_stable_order(cfg):
    order = parse_order(cfg.get("order"))
    measure = parse_measure(cfg.get("measure"))
    params = cfg.get("params", {})
    quad = _quad(params)
    grid = _grid(params, "r_grid", 1e1, 1e6, 40)
    from .transforms import PiecewiseFunction
    f = PiecewiseFunction(lambda t: measure.density(t),
                          measure.breakpoints_in(0.0, math.inf))
    rep = stable_order_report(f, order, grid, quad)
    report = {"stable": rep.stable, "tail_max": rep.tail_max,
              "branch": rep.branch}
    verdict = None
    if "expect_stable" in params:
        verdict = rep.stable == bool(params["expect_stable"])
    return RunResult(verdict, report)


@operation("order_diagnostic")
def run_order_diagnostic(cfg):
    order = parse_order(cfg.get("order"))
    measure = parse_measure(cfg.get("measure"))
    kernel = parse_kernel(cfg.get("kernel"))
    params = cfg.get("params", {})
    quad = _quad(params)
    grid = _grid(params, "r_grid", 1e2, 1e8, 16)
    tr = KernelTransform(kernel, measure, order, quad)
    rep = order_diagnostic(tr, order, grid, quad)
    report = {"final_slope": rep.final_slope,
              "slope_vanishes": rep.slope_vanishes,
              "gap_bound_ok": rep.gap_bound_ok}
    verdict = rep.passed
    if params.get("hardy"):
        ratios = []
        counts = []
        for r in grid:
            v = float(order.scale(r))
            ratios.append(abs(tr.value(r)) / v)
            counts.append(measure.mass(measure.hull()[0] * (1 - 1e-12), r,
                                       quad).real / v)
        report["transform_over_scale"] = ratios
        report["count_over_scale"] = counts
        final_gap = abs(ratios[-1] - 1.0)
        first_gap = abs(ratios[0] - 1.0)
        count_gap = abs(counts[-1] - 1.0)
        report["both_directions_ok"] = bool(final_gap < first_gap
                                            and final_gap < 0.15
                                            and count_gap < 0.05)
        verdict = verdict and report["both_directions_ok"]
    return RunResult(verdict, report)


# ---------------------------------------------------------------------------
# tauberian-side operations


@operation("mellin_symbol_table")
def run_symbol_table(cfg):
    kernel = parse_kernel(cfg.get("kernel"))
    params = cfg.get("params", {})
    quad = _quad(params)
    rho = float(params.get("rho", 1.0))
    lams = params.get("lambda_grid", {"start": -20.0, "stop": 20.0, "points": 81})
    if isinstance(lams, dict):
        start, stop, points = _span(lams, "params.lambda_grid")
        grid = np.linspace(float(start), float(stop), int(points))
    else:
        grid = np.asarray([float(v) for v in lams])
    table = mellin_symbol_table(kernel, rho, grid, quad)
    rows = [[lam, v.real, v.imag, abs(v)]
            for lam, v in zip(table.lambda_grid, table.values)]
    return RunResult(None, {"rho": rho, "points": len(rows)},
                     [("symbol.csv", ["lambda", "re", "im", "abs"], rows)])


@operation("wiener_zero_scan")
def run_zero_scan(cfg):
    kernel = parse_kernel(cfg.get("kernel"))
    params = cfg.get("params", {})
    quad = _quad(params)
    rho = float(params.get("rho", 1.0))
    window = params.get("window", [-20.0, 20.0])
    rep = wiener_zero_scan(kernel, rho, window=(float(window[0]), float(window[1])),
                           step=float(params.get("step", 0.01)),
                           tol=float(params.get("tol", 1e-6)), quad=quad)
    rows = [[lam, val] for lam, val in rep.zeros]
    report = {"zeros": rows, "nonvanishing": rep.nonvanishing,
              "min_abs": rep.min_abs, "max_abs": rep.max_abs}
    verdict = None
    expected = params.get("expected_zeros")
    if expected is not None:
        abscissa_tol = float(params.get("abscissa_tol", 1e-6))
        got = sorted(lam for lam, _ in rep.zeros)
        want = sorted(float(v) for v in expected)
        verdict = (len(got) == len(want)
                   and all(abs(a - b) <= abscissa_tol
                           for a, b in zip(got, want)))
        report["expected_zeros"] = want
    elif "expect_nonvanishing" in params:
        verdict = rep.nonvanishing == bool(params["expect_nonvanishing"])
    return RunResult(verdict, report,
                     [("zeros.csv", ["lambda", "abs_symbol"], rows)])


@operation("exponential_solution_check")
def run_exponential_solution(cfg):
    kernel = parse_kernel(cfg.get("kernel"))
    params = cfg.get("params", {})
    quad = _quad(params)
    rho = float(params.get("rho", 0.0))
    lambdas = [float(v) for v in params.get("lambdas", [])]
    coefs = [complex(float(c)) for c in params.get("coefficients",
                                                   [1.0] * len(lambdas))]
    r_samples = [float(r) for r in params.get("r_samples",
                                              [1.0, math.e, math.e ** 2])]
    rep = verify_exponential_solution(kernel, rho, lambdas, coefs, r_samples,
                                      quad, tol=float(params.get("tol", 1e-6)))
    report = {"residuals": [[r, v] for r, v in rep.residuals],
              "max_residual": rep.max_residual}
    verdict = rep.passed
    if "expect_pass" in params:
        verdict = rep.passed == bool(params["expect_pass"])
    return RunResult(verdict, report)


@operation("tauberian_roundtrip")
def run_roundtrip(cfg):
    order = parse_order(cfg.get("order"))
    measure = parse_measure(cfg.get("measure"))
    kernel = parse_kernel(cfg.get("kernel"))
    params = cfg.get("params", {})
    quad = _quad(params)
    schedule = _grid(params, "schedule", 1e2, 1e8, 176)
    rep = tauberian_roundtrip(kernel, order, measure, schedule=schedule,
                              quad=quad,
                              ratio_tol=float(params.get("ratio_tol", 0.02)))
    report = {
        "stages": [{"name": s.name, "passed": s.passed, "detail": s.detail}
                   for s in rep.stages],
        "failed_stage": rep.failed_stage,
        "averaged_coefficient": _jsonable(rep.averaged_coefficient),
        "measure_coefficient": _jsonable(rep.measure_coefficient),
        "symbol_at_zero": _jsonable(rep.symbol_at_zero),
        "ratio_error": rep.ratio_error,
    }
    verdict = rep.passed
    if "expect_failed_stage" in params:
        verdict = (not rep.passed
                   and rep.failed_stage == params["expect_failed_stage"]) or \
                  (rep.passed and params["expect_failed_stage"] == "")
    return RunResult(verdict, report)


@operation("carleman_suite")
def run_carleman(cfg):
    params = cfg.get("params", {})
    line = params.get("line_measure", {})
    atoms = [(float(x), complex(*(w if isinstance(w, list) else [w, 0.0])))
             for x, w in line.get("atoms", [])]
    pieces = []
    for p in line.get("pieces", []):
        lo = None if p.get("lo") is None else float(p["lo"])
        hi = None if p.get("hi") is None else float(p["hi"])
        coef = p.get("coef", 1.0)
        coef = complex(*coef) if isinstance(coef, list) else complex(coef)
        pieces.append((lo, hi, coef, float(p.get("freq", 0.0))))
    measure = carl.RealMeasure(atoms=tuple(atoms), pieces=tuple(pieces))
    ct = carl.CarlemanTransform(measure)
    report = {}
    verdict = True
    if params.get("reference") == "i_over_z":
        zs = [complex(x, y)
              for x in np.linspace(-5.0, 5.0, 10)
              for y in (np.linspace(0.1, 5.0, 5).tolist()
                        + (-np.linspace(0.1, 5.0, 5)).tolist())]
        worst = max(abs(ct.value(z) - 1j / z) for z in zs)
        report["reference_error"] = worst
        verdict = verdict and worst <= float(params.get("reference_tol", 1e-8))
    bound_m = params.get("bound_constant")
    if bound_m is not None:
        br = carl.carleman_bound_report(ct, float(bound_m))
        report["bound_max_ratio"] = br.max_ratio
        report["bound_passed"] = br.passed
        if "expect_bound_pass" in params:
            verdict = verdict and (br.passed == bool(params["expect_bound_pass"]))
        else:
            verdict = verdict and br.passed
    window = params.get("jump_window")
    if window is not None:
        js = carl.spectrum_jump_scan(ct, (float(window[0]), float(window[1])))
        report["flagged"] = list(js.flagged)
        expected = params.get("expected_flags")
        if expected is not None:
            tol = float(params.get("flag_tol", 0.05))
            ok = (len(js.flagged) >= 1 and
                  all(any(abs(f - e) <= tol for e in expected)
                      for f in js.flagged))
            report["flags_match"] = ok
            verdict = verdict and ok
    return RunResult(verdict, report)
