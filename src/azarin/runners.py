"""Operation registry binding config documents to library calls.

Each registered runner takes a validated config, reads the parameters its
signature declares (see ``operation``) and returns a RunResult holding an
optional pass/fail verdict, a JSON-ready report and CSV tables.  Runners
are deterministic: every grid and schedule is either spelled out in the
config or has a fixed default; sample batches use a fixed low-discrepancy
lattice instead of random draws.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from typing import NamedTuple

import numpy as np

from . import carleman as carl
from .configio import (LINE_MEASURE, Choice, ConfigError, Count, Grid, Interval,
                       List, Maybe, Obj, Range, Unchecked, Window, parse_kernel,
                       parse_measure, parse_order, positive)
from .dynamics import (convergence_trend, estimate_limit_set,
                       positive_regularity_criterion, sample_trajectory,
                       verify_regular_limit_form)
from .kernels import SmoothBumpKernel, trapezoid_kernel
from .measures import (MetricFamily, RadonMeasure, class_membership,
                       lower_density, upper_density)
from .numerics import DEFAULT_QUAD
from .orders import (log_potter_factor, poisson_smoothed_scale,
                     potter_bound_report, potter_decay_scan, potter_factor)
from .special import lanczos_gamma
from .tauberian import (ROUNDTRIP_STAGES, ScanGridError, mellin_symbol_table,
                        tauberian_roundtrip, verify_exponential_solution,
                        wiener_zero_scan)
from .transforms import (TRANSIENT_FRACTION, KernelTransform, PiecewiseFunction,
                         averaged_measure, check_antiderivative_identity,
                         integrability_report, neutralization_report,
                         normalized_limit_values, order_diagnostic,
                         stable_order_report, verify_averaged_limit_densities)

REGISTRY = {}
# runner parameters with these names take the parsed top-level descriptor
_DESCRIPTORS = {"order": parse_order, "measure": parse_measure,
                "kernel": parse_kernel}


class RunResult(NamedTuple):
    verdict: object            # True / False / None (no pass-fail semantics)
    report: dict
    tables: tuple = ()         # (name, header, rows)


def _expected(got, expect, default=None):
    """The verdict ``got == expect``, or ``default`` when nothing is expected."""
    return default if expect is None else got == expect


def _descriptor(key, value, path):
    # looks the parser up at call time, so a rebinding of the entry reaches it
    return _DESCRIPTORS[key](value, path)


def _needs(**pairs):
    """A check: each params key of ``pairs`` that is given needs the key it
    maps to, without which it would be ignored."""
    def check(**args):
        for key, other in pairs.items():
            if args[key] is not None and args[other] is None:
                raise ConfigError("params.%s: needs params.%s" % (key, other))
    return check


def operation(name, check=None):
    """Register a runner under ``name``; the registered function takes a config.

    The runner's signature declares what it reads from the config:
    ``order``, ``measure`` and ``kernel`` are the parsed descriptors,
    ``quad`` is the ``QuadControl`` that ``params.quad_tol`` sets, and each
    other parameter is the ``params`` key of its name, which its default
    declares (``configio._read``; no default: a required number).
    ``check``, if given, takes the arguments and raises a ConfigError for a
    rule between them.  Any other top-level or ``params`` key is a
    ConfigError, reported after the declared fields are read and checked.
    """
    def deco(fn):
        spec = inspect.signature(fn).parameters
        params = {key: param.default for key, param in spec.items()
                  if key not in _DESCRIPTORS and key != "quad"}
        if "quad" in spec:
            params["quad_tol"] = DEFAULT_QUAD.tol
        fields = {key: functools.partial(_descriptor, key)
                  for key in spec if key in _DESCRIPTORS}
        # validate_config reads the operation, the CLI the outputs
        fields.update(params=Obj(params, default={}), operation=None,
                      outputs=None)

        def arguments(params, operation, outputs, **descriptors):
            args = dict(descriptors, **params)
            if "quad" in spec:
                args["quad"] = DEFAULT_QUAD.with_tol(args.pop("quad_tol"))
            if check is not None:
                check(**args)
            return args

        config = Obj(fields, arguments)

        @functools.wraps(fn)
        def run(cfg):
            return fn(**config(cfg, ""))

        REGISTRY[name] = run
        return run
    return deco


def _jsonable(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
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


def _lattice_logs(count, ln_range):
    """Deterministic low-discrepancy (ln r, ln t) pairs in [-ln_range, ln_range]."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    pairs = []
    for i in range(1, count + 1):
        u = (i * phi) % 1.0
        v = (i * i * phi) % 1.0
        pairs.append(((2.0 * u - 1.0) * ln_range, (2.0 * v - 1.0) * ln_range))
    return pairs


# ---------------------------------------------------------------------------
# order-side operations

# the largest x whose e**x is a float, and the largest |ln_range| whose
# lattice pairs r, t and products r t are floats
_MAX_LN = math.log(sys.float_info.max)
_MAX_PAIR_LN = 0.5 * _MAX_LN


def _decay_per_exponent(decay_exponents, expected_decay, **_):
    if expected_decay is not None and len(expected_decay) != len(decay_exponents):
        raise ConfigError("params.expected_decay: expected %d entries, one per "
                          "decay exponent" % len(decay_exponents))


@operation("gamma_suite", check=_decay_per_exponent)
def run_gamma_suite(order, tol=1e-6, pairs=Count(100), ln_range=10.0,
                    dominance_points=Count(50),
                    decay_exponents=List([16.0, 36.0, 100.0], item=Range(
                        1.0, _MAX_LN, "a number > 1 and at most %.4f, so that "
                        "e**x is a float > e" % _MAX_LN)),
                    expected_decay=List(None), decay_tol=1e-3):
    at_one = potter_factor(order, 1.0)
    l1, l2 = np.array(_lattice_logs(pairs, ln_range)).T
    # gamma(t1 t2) / (gamma(t1) gamma(t2)) - 1, W(t) / gamma(t) - 1 and the
    # lower factor against gamma, all in log form: no overflow
    g12, g1, g2 = log_potter_factor(order, [l1 + l2, l1, l2])
    submult_worst = np.expm1(g12 - g1 - g2).max(initial=0.0).item()
    taus = np.log(np.geomspace(1e-6, 1e6, dominance_points))
    upper = log_potter_factor(order, taus)
    dominance_worst = np.expm1(order.zero_part.log_scale(taus) - upper).max(initial=0.0).item()
    every = max(1, taus.size // 10)
    lower = -log_potter_factor(order, -taus[::every])
    lower_ok = bool(np.all(lower <= upper[::every] + 1e-12))
    scan = potter_decay_scan(order, [math.exp(e) for e in decay_exponents])
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
    decay_ok = True
    if expected_decay is not None:
        decay_ok = all(abs(got - want) <= decay_tol
                       for got, want in zip(decays, expected_decay))
        report["expected_decay"] = expected_decay
    verdict = (at_one == 1.0 and submult_worst <= tol
               and dominance_worst <= 1e-9 and strictly_decreasing
               and decay_ok and lower_ok)
    table = ("potter_decay.csv", ["t", "forward", "backward"],
             [list(r) for r in scan])
    return RunResult(verdict, report, [table])


@operation("potter_decay_scan")
def run_potter_decay_scan(order, t_grid=Grid(math.exp(16.0), math.exp(100.0), 3,
                                             item=Range(math.e, math.inf, "a number > e"))):
    rows = potter_decay_scan(order, t_grid)
    report = {"rows": [list(r) for r in rows]}
    return RunResult(None, report,
                     [("potter_decay.csv", ["t", "forward", "backward"],
                       [list(r) for r in rows])])


def _potter_pairs(pairs, ln_range, **_):
    if pairs is None and not abs(ln_range) <= _MAX_PAIR_LN:
        raise ConfigError("params.ln_range: expected a number of size at most %.4f, "
                          "so that r, t and r t are finite" % _MAX_PAIR_LN)
    for i, pair in enumerate(pairs or ()):
        if not all(0.0 < x < math.inf for x in pair):
            raise ConfigError("params.pairs[%d]: expected two numbers > 0" % i)


@operation("potter_check", check=_potter_pairs)
def run_potter_check(order, pairs=List(None, item=List(length=2, item=Unchecked())),
                     count=Count(1000), ln_range=20.0, tol=1e-6):
    if pairs is None:
        pairs = [(math.exp(a), math.exp(b)) for a, b in _lattice_logs(count, ln_range)]
    rep = potter_bound_report(order, pairs, tolerance=tol)
    report = {"max_violation": rep.max_violation, "passed": rep.passed,
              "worst_pair": rep.worst_pair}
    return RunResult(rep.passed, report)


def _zero_order(order, **_):
    if order.rho != 0.0:
        raise ConfigError("order.rho: expected 0, poisson smoothing is defined "
                          "for zero orders")


@operation("poisson_smoothing_check", check=_zero_order)
def run_poisson_smoothing(order, quad,
                          checks=List([{"r": 1e4, "bound": 0.05}],
                                      item=Obj({"r": positive, "bound": positive},
                                               lambda r, bound: (r, bound))),
                          symmetry_r=Range(0.0, math.inf, "a finite number > 0", 37.5),
                          symmetry_tol=1e-8):
    rows = []
    verdict = True
    for r, bound in checks:
        v1 = poisson_smoothed_scale(order, r, quad)
        v = float(order.scale(r))
        defect = abs(v1 / v - 1.0)
        rows.append([r, v1, v, defect, bound])
        verdict = verdict and defect < bound
    sym_gap = abs(poisson_smoothed_scale(order, symmetry_r, quad)
                  - poisson_smoothed_scale(order, 1.0 / symmetry_r, quad))
    verdict = verdict and sym_gap <= symmetry_tol
    report = {"rows": rows, "symmetry_gap": sym_gap, "symmetry_tol": symmetry_tol}
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


def _flow_schedule(schedule, measure, margin=1.0, **_):
    # sample_trajectory takes an increasing schedule from t >= 1, and
    # estimate_limit_set needs 10 trajectory samples
    if len(schedule) < 10:
        raise ConfigError("params.schedule: expected at least 10 samples")
    if schedule[0] < 1.0 or np.any(np.diff(schedule) <= 0.0):
        raise ConfigError("params.schedule: expected increasing samples, the first >= 1")
    # the samples pair the family over its hull (widened by ``margin``), and a
    # self-similar tail takes the images k of that range: T**k from
    # lo / (T**2 base_lo) to T hi / base_lo, the locations x T**k (x < T base_lo)
    # up to T**2 hi and the weights T**(k rho), each a float with one power of T
    # to spare for the rounding of k
    tail = measure.tail
    if tail is None:
        return
    hull = MetricFamily().support_hull()
    ln_lo = math.log(schedule[0]) + math.log(hull[0] / margin)
    ln_hi = math.log(schedule[-1]) + math.log(hull[1] * margin)
    lt, ln_base = math.log(tail.period), math.log(tail.base_lo)
    if max(ln_hi + 3.0 * lt, max(1.0, abs(tail.rho)) * (ln_hi - ln_base + 2.0 * lt),
           -tail.rho * (ln_base - ln_lo + 3.0 * lt)) > _MAX_LN:
        raise ConfigError("params.schedule: expected the self-similar images over "
                          "(%g, %g] to have float locations and weights, with "
                          "T = %r, rho = %r and base_lo = %r"
                          % (math.exp(ln_lo), math.exp(min(ln_hi, _MAX_LN)),
                             tail.period, tail.rho, tail.base_lo))


@operation("limit_set_estimate", check=_flow_schedule)
def run_limit_set(order, measure, quad, schedule=Grid(1e3, 1e6, 48),
                  eps_cluster=1e-3,
                  target=Obj({"exponent": Maybe(float), "oscillation": 0.0, "coef": 1.0,
                              "tol_d": Range(0.0, math.inf, "a finite number > 0", 1e-3)},
                             default=None)):
    fam = MetricFamily()
    samples = sample_trajectory(measure, order, schedule, fam, quad)
    est = estimate_limit_set(samples, fam, eps_cluster=eps_cluster)
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
    if target is not None:
        exponent = target["exponent"]
        if exponent is None:
            exponent = order.rho - 1.0
        nu = RadonMeasure.power_density(complex(exponent, target["oscillation"]),
                                        coef=complex(target["coef"]))
        target_p = fam.pairings(nu, quad)
        d = fam.distance_from_pairings(est.limit_pairings[0], target_p)
        report["target_distance"] = d
        verdict = est.regular and d <= target["tol_d"]
    return RunResult(verdict, report, [_trajectory_table(samples)])


@operation("oscillating_family_check", check=_flow_schedule)
def run_oscillating_family(order, measure, oscillation, quad,
                           schedule=Grid(1e3, 1e6, 48), eps_cluster=1e-3,
                           tol_d=2e-3):
    fam = MetricFamily()
    samples = sample_trajectory(measure, order, schedule, fam, quad)
    est = estimate_limit_set(samples, fam, eps_cluster=eps_cluster)
    # predicted members: the densities t*^{i osc} u^{i osc + rho - 1}, paired
    # by linearity as phase multiples of one base density's pairings
    base = fam.pairings(RadonMeasure.power_density(
        complex(order.rho - 1.0, oscillation)), quad)
    phases = np.exp(1j * oscillation * np.log(est.representative_ts))
    dists = fam.distance_from_pairings(np.array(est.representative_pairings),
                                       phases[:, None] * base).tolist()
    rows = [[t, d] for t, d in zip(est.representative_ts, dists)]
    worst = max(dists)
    report = {"clusters": len(est.clusters), "max_family_distance": worst,
              "rows": rows}
    return RunResult(worst <= tol_d, report,
                     [("family_match.csv", ["t", "distance"], rows)])


def _periodic_schedule(measure, period, tau_points, base_power, **_):
    if not measure.tail and period is None:
        raise ConfigError("params.period: missing required field")
    if measure.tail and period is not None:
        raise ConfigError("params.period: the measure's self-similar tail sets "
                          "the period; give none")
    # the schedule tau T^k, k = base_power .. base_power + 2, for tau_points
    # taus in [1, T): 3 tau_points samples, the first T^base_power
    if tau_points < 4:
        raise ConfigError("params.tau_points: expected an integer >= 4")
    if base_power < 0:
        raise ConfigError("params.base_power: expected an integer >= 0")


@operation("periodic_family_check", check=_periodic_schedule)
def run_periodic_family(order, measure, quad,
                        period=Maybe(Range(1.0, math.inf, "a number > 1")),
                        tau_points=Count(16), base_power=36, eps_cluster=1e-3,
                        exact_tol=1e-12):
    fam = MetricFamily()
    if measure.tail:
        period = measure.tail.period
    # the top sample, below T**(base_power + 3), pairs the family up to its
    # hull's top times itself, and a self-similar tail counts its images one
    # power of T past that
    top = fam.support_hull()[1]
    if (base_power + 4) * math.log(period) + math.log(top) > _MAX_LN:
        raise ConfigError("params.base_power: expected T**(base_power + 4) times the "
                          "family's reach %g to be a float, with T = %r the period"
                          % (top, period))
    taus = [period ** (k / tau_points) for k in range(tau_points)]
    ts = [tau * period ** base_power for tau in taus]
    exact_worst = float(fam.distance_from_pairings(
        fam.flow_pairings(measure, order, ts, quad),
        fam.flow_pairings(measure, order, [t * period for t in ts], quad)).max())
    schedule = sorted(tau * period ** k for tau in taus
                      for k in range(base_power, base_power + 3))
    samples = sample_trajectory(measure, order, np.array(schedule), fam, quad)
    est = estimate_limit_set(samples, fam, eps_cluster=eps_cluster,
                             transient_fraction=0.0, top_decades=30.0)
    match_worst = float(fam.distance_from_pairings(
        fam.flow_pairings(measure, order, taus, quad)[:, None],
        np.array(est.representative_pairings)).min(axis=1).max())
    report = {
        "exact_invariance_worst": exact_worst,
        "cluster_count": len(est.clusters),
        "family_match_worst": match_worst,
        "eps_cluster": eps_cluster,
    }
    verdict = exact_worst <= exact_tol and match_worst <= 2.0 * eps_cluster
    return RunResult(verdict, report, [_trajectory_table(samples)])


def _probe(interval):
    """The sparse-flow probe: a trapezoid bump on a compact interval in (0, oo)."""
    if interval[0] <= 0.0:
        raise ValueError("support must be a compact interval in (0, oo)")
    return trapezoid_kernel(*interval)


@operation("sparse_flow_check")
def run_sparse_flow(order, measure, quad,
                    indices=List([5, 6, 7, 8, 9], item=int),
                    probe=Obj({"interval": Interval(bounded=True)}, _probe,
                              default={"interval": [0.5, 2.0]}),
                    delta_tol=1e-6, null_tol=1e-8):
    fam = MetricFamily()
    xs = np.sort(measure.atom_x)
    for i, n in enumerate(indices):
        if not 1 <= n <= len(xs):
            raise ConfigError("params.indices[%d]: expected an atom index in 1..%d"
                              % (i, len(xs)))
    mids = [math.sqrt(float(xs[n - 1]) * float(xs[n])) for n in indices if n < len(xs)]
    gap_pairings = np.abs(fam.flow_pairings(measure, order, mids, quad))
    gaps = zip(mids, gap_pairings.max(axis=1, initial=0.0).tolist())
    # the probe against each mu_r at r = r_n as one dilation integral, each
    # norm V(r_n) and window that of ``measure.scaled(order, r_n)``
    r_ns = [float(xs[n - 1]) for n in indices]
    for r_n in r_ns:
        measure._check_window(*probe.support, r_n)
    pairs = measure.dilation_integrals(probe, r_ns, [float(order.scale(r)) for r in r_ns],
                                       [probe.support], quad)[0]
    expected = complex(probe(np.array([1.0]))[0])
    rows = []
    worst_delta = 0.0
    worst_null = 0.0
    for n, r_n, got in zip(indices, r_ns, pairs):
        worst_delta = max(worst_delta, abs(got - expected))
        rows.append([r_n, "atom", got.real, got.imag])
        if n < len(xs):
            mid, pmax = next(gaps)
            worst_null = max(worst_null, pmax)
            rows.append([mid, "gap", pmax, 0.0])
    report = {"max_delta_error": worst_delta, "max_gap_pairing": worst_null,
              "delta_tol": delta_tol, "null_tol": null_tol}
    verdict = worst_delta <= delta_tol and worst_null <= null_tol
    return RunResult(verdict, report,
                     [("sparse_flow.csv", ["t", "kind", "value", "imag"], rows)])


@operation("class_membership")
def run_class_membership(order, measure, quad, which=Choice("tail", "global"),
                         r_grid=Grid(item=positive), expect_bounded=Maybe(bool)):
    rep = class_membership(measure, order, which=which or "tail", r_grid=r_grid,
                           quad=quad)
    report = {"sup_ratio": rep.sup_ratio, "bounded": rep.bounded,
              "decade_ratio": rep.decade_ratio}
    return RunResult(_expected(rep.bounded, expect_bounded), report)


@operation("positive_regularity")
def run_positive_regularity(order, measure, quad, r_grid=Grid(1e2, 1e7, 40, item=positive),
                            expect_regular=Maybe(bool)):
    rep = positive_regularity_criterion(measure, order, r_grid, quad=quad)
    report = {"branch": rep.branch, "limit": rep.limit_estimate,
              "oscillation": rep.oscillation, "regular": rep.regular}
    return RunResult(_expected(rep.regular, expect_regular), report)


@operation("density_estimate")
def run_density_estimate(order, measure, quad, r_grid=Grid(1e2, 1e7, 48, item=positive),
                         alpha=Range(-1.0, math.inf, "a number > -1", 1.0)):
    up = upper_density(measure, order, alpha, r_grid, quad)
    lo = lower_density(measure, order, alpha, r_grid, quad)
    report = {"alpha": alpha, "upper": up.value, "lower": lo.value,
              "resolution": up.resolution}
    return RunResult(None, report)


# ---------------------------------------------------------------------------
# transform-side operations


@operation("transform_table")
def run_transform_table(order, measure, kernel, quad,
                        r_grid=Grid(1.0, 1e6, 25, item=positive)):
    tr = KernelTransform(kernel, measure, order, quad)
    rows = []
    for r, v, scale in zip(r_grid.tolist(), tr.values(r_grid).tolist(),
                           order.scale(r_grid).tolist()):
        j = v / scale
        rows.append([r, v.real, v.imag, scale, j.real, j.imag])
    return RunResult(None, {"points": len(rows)},
                     [("transform.csv",
                       ["r", "re_value", "im_value", "scale", "re_norm", "im_norm"],
                       rows)])


def _past_transient(schedule, **_):
    # normalized_limit_values drops the first TRANSIENT_FRACTION of the schedule
    if math.ceil(TRANSIENT_FRACTION * len(schedule)) >= len(schedule):
        raise ConfigError("params.schedule: expected a sample past the transient")


@operation("kernel_limit_values", check=_past_transient)
def run_kernel_limit_values(order, measure, kernel, quad,
                            schedule=Grid(1e3, 1e9, 64, item=positive),
                            cluster_eps=Range(0.0, math.inf, "a finite number > 0",
                                              1e-4), tol=1e-4,
                            tau_grid=List(None, item=positive, nonempty=True),
                            tau_points=Count(16)):
    tr = KernelTransform(kernel, measure, order, quad)
    clusters = normalized_limit_values(tr, schedule, eps=cluster_eps)
    taus = tau_grid
    worst = None
    if taus is None and measure.tail is not None:
        period = measure.tail.period
        taus = [period ** (k / tau_points) for k in range(tau_points)]
    if taus is not None:
        # the transform of mu_tau at 1 (rows) against each cluster value
        diff = np.subtract.outer(tr.integrals(taus, order.scale(taus)), clusters)
        dist = np.hypot(diff.real, diff.imag)
        worst = max(dist.min(axis=1).max(), dist.min(axis=0).max()).item()
    report = {"cluster_values": [ _jsonable(c) for c in clusters],
              "match_error": worst}
    verdict = None if worst is None else worst <= tol
    return RunResult(verdict, report)


@operation("neutralization_check")
def run_neutralization(order, measure, kernel, quad,
                       eps_grid=List([0.5, 0.25, 0.125, 0.0625], item=positive,
                                     nonempty=True),
                       n_grid=List([2.0, 4.0, 8.0, 16.0], item=positive,
                                   nonempty=True),
                       r_grid=Grid(1e2, 1e5, 10, item=positive),
                       expect_pass=Maybe(bool)):
    rep = neutralization_report(kernel, order, measure, eps_grid, n_grid,
                                r_grid, quad)
    report = {"head_sups": list(rep.head_sups), "tail_sups": list(rep.tail_sups),
              "passed": rep.passed}
    return RunResult(_expected(rep.passed, expect_pass, rep.passed), report)


@operation("integrability_check")
def run_integrability(order, kernel, quad, expect_converged=Maybe(bool)):
    rep = integrability_report(kernel, order, quad)
    report = {"l1_value": rep.l1_value, "l1_converged": rep.l1_converged,
              "amalgam_value": rep.amalgam_value,
              "amalgam_converged": rep.amalgam_converged}
    return RunResult(_expected(rep.l1_converged, expect_converged), report)


# the averaged measure spans the pairing window widened 4 times each way
@operation("averaged_limit_check", check=functools.partial(_flow_schedule, margin=4.0))
def run_averaged_limit(order, measure, kernel, quad,
                       schedule=Grid(1e2, 1e6, 32, item=positive),
                       eps_cluster=1e-3, density_tol=0.01,
                       expected_coefficient_rule=Choice("gamma(rho)"),
                       coef_tol=0.01):
    fam = MetricFamily()
    hull = fam.support_hull()
    window = (schedule.min() * hull[0] / 4.0, schedule.max() * hull[1] * 4.0)
    tr = KernelTransform(kernel, measure, order, quad)
    smoothed = averaged_measure(tr, window)
    shifted = order.shifted(1.0)
    membership = class_membership(
        smoothed, shifted,
        r_grid=np.geomspace(window[0] * 4.0, window[1] / 8.0, 40), quad=quad)
    s_traj = sample_trajectory(smoothed, shifted, schedule, fam, quad)
    s_est = estimate_limit_set(s_traj, fam, eps_cluster=eps_cluster)
    mu_traj = sample_trajectory(measure, order, schedule, fam, quad)
    mu_est = estimate_limit_set(mu_traj, fam, eps_cluster=eps_cluster)
    densities = verify_averaged_limit_densities(tr, s_est, mu_est,
                                                tol=density_tol)
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
        if expected_coefficient_rule == "gamma(rho)":
            want = lanczos_gamma(order.rho)
            err = abs(fit.coefficient / want - 1.0)
            report["coefficient_rel_error"] = err
            verdict = verdict and err <= coef_tol
    return RunResult(verdict, report)


def _bump_off_unit_interval(measure, kernel, orders, **_):
    if not isinstance(kernel, SmoothBumpKernel):
        raise ConfigError("kernel.kind: the identity check needs a smooth_bump kernel")
    if measure.hull()[0] < 1.0 and not measure.is_trivial():
        raise ConfigError("measure: the identity check needs no mass on (0, 1]")
    for i, n in enumerate(orders):   # order n takes the derivative n + 1
        if not 0 <= n < kernel.n_max:
            raise ConfigError("params.orders[%d]: expected an integer >= 0 and "
                              "below kernel.n_max = %d" % (i, kernel.n_max))


@operation("antiderivative_identity", check=_bump_off_unit_interval)
def run_antiderivative_identity(measure, kernel, quad,
                                orders=List([0, 1, 2], item=int, nonempty=True),
                                r_samples=List([1.0, 3.0, 10.0], item=positive,
                                               nonempty=True), tol=1e-6):
    rep = check_antiderivative_identity(kernel, measure, orders, r_samples,
                                        quad, tol=tol)
    rows = [[n, r, lhs.real, lhs.imag, rhs.real, rhs.imag, err]
            for n, r, lhs, rhs, err in rep.rows]
    report = {"max_rel_error": rep.max_rel_error, "passed": rep.passed}
    return RunResult(rep.passed, report,
                     [("identity.csv",
                       ["n", "r", "re_lhs", "im_lhs", "re_rhs", "im_rhs", "rel_err"],
                       rows)])


def _tail_free(measure, **_):
    if measure.tail:
        raise ConfigError("measure.tail: a self-similar density has infinitely "
                          "many breakpoints; the check needs a measure without one")


@operation("stable_order_check", check=_tail_free)
def run_stable_order(order, measure, quad, r_grid=Grid(1e1, 1e6, 40, item=positive),
                     expect_stable=Maybe(bool)):
    f = PiecewiseFunction(lambda t: measure.density(t),
                          measure.breakpoints_in(0.0, math.inf))
    rep = stable_order_report(f, order, r_grid, quad)
    report = {"stable": rep.stable, "tail_max": rep.tail_max,
              "branch": rep.branch}
    return RunResult(_expected(rep.stable, expect_stable), report)


@operation("order_diagnostic")
def run_order_diagnostic(order, measure, kernel, quad,
                         r_grid=Grid(1e2, 1e8, 16, item=positive),
                         hardy=False):
    tr = KernelTransform(kernel, measure, order, quad)
    rep = order_diagnostic(tr, r_grid)
    report = {"final_slope": rep.final_slope,
              "slope_vanishes": rep.slope_vanishes,
              "gap_bound_ok": rep.gap_bound_ok}
    verdict = rep.passed
    if hardy:
        v = order.scale(r_grid)
        ratios = (np.abs(tr.values(r_grid)) / v).tolist()
        counts = (measure.cumulative_masses(measure.hull()[0] * (1 - 1e-12), r_grid,
                                            quad).real / v).tolist()
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
def run_symbol_table(kernel, quad, rho=1.0,
                     lambda_grid=Grid(-20.0, 20.0, 81, space=np.linspace)):
    try:
        table = mellin_symbol_table(kernel, rho, lambda_grid, quad)
    except ValueError as exc:
        raise ConfigError("params.lambda_grid: %s" % exc)
    rows = [[lam, v.real, v.imag, abs(v)]
            for lam, v in zip(table.lambda_grid, table.values)]
    return RunResult(None, {"rho": rho, "points": len(rows)},
                     [("symbol.csv", ["lambda", "re", "im", "abs"], rows)])


@operation("wiener_zero_scan", check=_needs(abscissa_tol="expected_zeros"))
def run_zero_scan(kernel, quad, rho=1.0, window=Window([-20.0, 20.0]),
                  step=Range(0.0, math.inf, "a number > 0", 0.01), tol=1e-6,
                  expected_zeros=List(None), abscissa_tol=Maybe(float),
                  expect_nonvanishing=Maybe(bool)):
    try:
        rep = wiener_zero_scan(kernel, rho, window=window, step=step, tol=tol,
                               quad=quad)
    except ScanGridError as exc:
        raise ConfigError("params.step: %s" % exc)
    except ValueError as exc:
        raise ConfigError("params.window: %s" % exc)
    rows = [[lam, val] for lam, val in rep.zeros]
    report = {"zeros": rows, "nonvanishing": rep.nonvanishing,
              "min_abs": rep.min_abs, "max_abs": rep.max_abs}
    verdict = _expected(rep.nonvanishing, expect_nonvanishing)
    if expected_zeros is not None:
        got = sorted(lam for lam, _ in rep.zeros)
        want = sorted(expected_zeros)
        abscissa_tol = 1e-6 if abscissa_tol is None else abscissa_tol
        verdict = (len(got) == len(want)
                   and all(abs(a - b) <= abscissa_tol
                           for a, b in zip(got, want)))
        report["expected_zeros"] = want
    return RunResult(verdict, report,
                     [("zeros.csv", ["lambda", "abs_symbol"], rows)])


def _coefficient_per_lambda(lambdas, coefficients, **_):
    if coefficients is not None and len(coefficients) != len(lambdas):
        raise ConfigError("params.coefficients: expected %d entries, one per lambda"
                          % len(lambdas))


@operation("exponential_solution_check", check=_coefficient_per_lambda)
def run_exponential_solution(kernel, quad, rho=0.0, lambdas=List([]),
                             coefficients=List(None, item=complex),
                             r_samples=List([1.0, math.e, math.e ** 2], item=positive),
                             tol=1e-6, expect_pass=Maybe(bool)):
    if coefficients is None:
        coefficients = [complex(1.0)] * len(lambdas)
    rep = verify_exponential_solution(kernel, rho, lambdas, coefficients,
                                      r_samples, quad, tol=tol)
    report = {"residuals": [[r, v] for r, v in rep.residuals],
              "max_residual": rep.max_residual}
    return RunResult(_expected(rep.passed, expect_pass, rep.passed), report)


@operation("tauberian_roundtrip", check=functools.partial(_flow_schedule, margin=4.0))
def run_roundtrip(order, measure, kernel, quad, schedule=Grid(1e2, 1e8, 176),
                  ratio_tol=0.02,
                  expect_failed_stage=Choice("", *ROUNDTRIP_STAGES)):
    rep = tauberian_roundtrip(kernel, order, measure, schedule=schedule,
                              quad=quad, ratio_tol=ratio_tol)
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
    if expect_failed_stage is not None:
        verdict = (not rep.passed
                   and rep.failed_stage == expect_failed_stage) or \
                  (rep.passed and expect_failed_stage == "")
    return RunResult(verdict, report)


@operation("carleman_suite", check=_needs(expect_bound_pass="bound_constant",
                                          expected_flags="jump_window",
                                          flag_tol="expected_flags"))
def run_carleman(line_measure=LINE_MEASURE, reference=Choice("i_over_z"),
                 reference_tol=1e-8, bound_constant=Maybe(positive),
                 expect_bound_pass=Maybe(bool),
                 jump_window=Window(None), expected_flags=List(None),
                 flag_tol=Maybe(float)):
    ct = carl.CarlemanTransform(line_measure)
    report = {}
    verdict = True
    if reference == "i_over_z":
        ys = np.linspace(0.1, 5.0, 5)
        zs = np.linspace(-5.0, 5.0, 10)[:, None] + 1j * np.concatenate([ys, -ys])
        gap = ct.values(zs) - 1j / zs
        worst = float(np.max(np.hypot(gap.real, gap.imag)))
        report["reference_error"] = worst
        verdict = verdict and worst <= reference_tol
    if bound_constant is not None:
        br = carl.carleman_bound_report(ct, bound_constant)
        report["bound_max_ratio"] = br.max_ratio
        report["bound_passed"] = br.passed
        verdict = verdict and _expected(br.passed, expect_bound_pass, br.passed)
    if jump_window is not None:
        try:
            js = carl.spectrum_jump_scan(ct, jump_window)
        except ValueError as exc:
            raise ConfigError("params.jump_window: %s" % exc)
        report["flagged"] = list(js.flagged)
        if expected_flags is not None:
            flag_tol = 0.05 if flag_tol is None else flag_tol
            ok = (len(js.flagged) >= 1 and
                  all(any(abs(f - e) <= flag_tol for e in expected_flags)
                      for f in js.flagged))
            report["flags_match"] = ok
            verdict = verdict and ok
    return RunResult(verdict, report)
