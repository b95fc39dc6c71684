"""Mellin symbols, the Wiener nonvanishing condition and the round trip.

The symbol of a kernel at order rho is lambda -> integral of
K(t) t**(rho-1+i lambda) dt.  Zeros of the symbol parameterize the
exceptional solutions (1/t**(1-rho)) * sum c_lambda t**(-i lambda) of the
homogeneous convolution equation; a nonvanishing symbol makes the
averaged-measure regularity pull back to the measure itself, which the
round-trip harness verifies end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (convergence_trend, estimate_limit_set,
                       geometric_schedule, sample_trajectory,
                       verify_regular_limit_form)
from .measures import DEFAULT_QUAD, MetricFamily, RadonMeasure, class_membership
from .numerics import (_WGK, _XGK, DivergenceError, _cauchy_windows,
                       golden_section_min)
from .transforms import KernelTransform, averaged_measure, integrability_report

__all__ = [
    "mellin_symbol", "MellinSymbol", "mellin_symbol_table", "wiener_zero_scan",
    "verify_exponential_solution", "tauberian_roundtrip",
]

# lambdas per exp(i lam x) block in ``_SymbolQuadrature.values``
_CHUNK = 256
# halvings of the panels next to a singular point of the kernel: GK15 on
# the last panel leaves the error of the ln|1 - 1/t| symbol (2e-8 of its
# table max after 18 halvings, 2e-10 after 30)
_GRADED_LEVELS = 30


class _SymbolQuadrature:
    """Shared node set for K(t) t**(rho-1+i lam) over (0, oo), in x = ln t.

    One GK15 panelization (width <= a third of the shortest oscillation
    wavelength, graded near declared singular points) serves every lambda
    up to ``lam_max``: the kernel part g(x) = K(e^x) e^{rho x} is evaluated
    once and each symbol value is a weighted sum of g against e^{i lam x}.
    The windows are the shared Cauchy windows over the kernel support, so a
    finite support end is the end of the core window; the rings are judged
    by absolute mass, so oscillation that cancels inside a ring cannot stop
    the expansion early.
    """

    def __init__(self, kernel, rho, lam_max, quad=DEFAULT_QUAD):
        width = min(0.5, 2.0 * math.pi / (abs(lam_max) + 1.0) / 3.0)
        k_lo, k_hi = kernel.support
        sing_x = [math.log(s) for s in kernel.singular_points]
        bp_x = sorted({math.log(b) for b in kernel.breakpoints() if b > 0.0})

        def panels(a, b):
            edges = {a, b}
            edges.update(x for x in bp_x if a < x < b)
            for s in sing_x:
                if a <= s <= b:
                    span = b - a
                    for k in range(1, _GRADED_LEVELS):
                        for side in (-1.0, 1.0):
                            p = s + side * span * 0.5 ** k
                            if a < p < b:
                                edges.add(p)
            edges = sorted(edges)
            out = []
            for lo, hi in zip(edges[:-1], edges[1:]):
                n = max(1, int(math.ceil((hi - lo) / width)))
                pts = np.linspace(lo, hi, n + 1)
                out.append(pts)
            return np.unique(np.concatenate(out))

        parts = []

        def ring(a, b, live):
            """Add the nodes of (ln a, ln b] to ``parts``; return its absolute mass."""
            edges = panels(math.log(a), math.log(b))
            mid = 0.5 * (edges[:-1] + edges[1:])
            half = 0.5 * (edges[1:] - edges[:-1])
            xs = (mid[:, None] + half[:, None] * _XGK[None, :]).ravel()
            ws = (half[:, None] * _WGK[None, :]).ravel()
            g = np.asarray(kernel(np.exp(xs)), dtype=complex) * np.exp(rho * xs)
            parts.append((xs, ws, g))
            return (float(np.sum(ws * np.abs(g))),)

        _, partials, failed = _cauchy_windows(ring, max(k_lo, 0.0), k_hi, (1.0,),
                                              quad)
        if failed:
            raise DivergenceError("Mellin symbol integral diverges at %s"
                                  % failed[0], partials=partials[0])
        self.xs = np.concatenate([p[0] for p in parts])
        self.wg = np.concatenate([p[1] * p[2] for p in parts])

    def value(self, lam):
        return complex(np.sum(self.wg * np.exp(1j * float(lam) * self.xs)))

    def values(self, lams):
        lams = np.asarray(lams, dtype=float)
        out = np.empty(lams.size, dtype=complex)
        for i in range(0, lams.size, _CHUNK):
            block = lams[i:i + _CHUNK]
            out[i:i + _CHUNK] = np.exp(1j * block[:, None] * self.xs[None, :]) @ self.wg
        return out


def mellin_symbol(kernel, rho, lam, quad=DEFAULT_QUAD):
    """integral over (0, oo) of K(t) * t**(rho - 1 + i lam) dt."""
    return _SymbolQuadrature(kernel, float(rho), abs(float(lam)), quad).value(lam)


@dataclass(frozen=True)
class MellinSymbol:
    kernel: object
    rho: float
    lambda_grid: tuple
    values: tuple


def mellin_symbol_table(kernel, rho, lambdas, quad=DEFAULT_QUAD):
    lambdas = np.asarray(lambdas, dtype=float)
    sq = _SymbolQuadrature(kernel, float(rho), float(np.max(np.abs(lambdas))),
                           quad)
    vals = sq.values(lambdas)
    return MellinSymbol(kernel=kernel, rho=float(rho),
                        lambda_grid=tuple(lambdas), values=tuple(vals))


@dataclass(frozen=True)
class ZeroScanReport:
    zeros: tuple
    nonvanishing: bool
    min_abs: float
    max_abs: float
    table: MellinSymbol


def wiener_zero_scan(kernel, rho, window=(-30.0, 30.0), step=0.01, tol=1e-6,
                     quad=DEFAULT_QUAD, refine_xtol=1e-8):
    """Locate real zeros of the Mellin symbol on a window.

    Candidates are bracketed local minima of |symbol| on the grid; each is
    refined by golden section and classified as a zero when the refined
    value is negligible against the local symbol scale (max of |symbol|
    within one unit).  The verdict is nonvanishing iff no zeros are found
    in the window (honest for exponentially decaying symbols, for which a
    global min/max ratio would misfire).
    """
    lo, hi = window
    n = int(round((hi - lo) / step)) + 1
    lams = np.linspace(lo, hi, n)
    sq = _SymbolQuadrature(kernel, float(rho), float(max(abs(lo), abs(hi))),
                           quad)
    table = MellinSymbol(kernel=kernel, rho=float(rho),
                         lambda_grid=tuple(lams), values=tuple(sq.values(lams)))
    mags = np.abs(np.asarray(table.values))
    max_abs = float(mags.max())
    zeros = []
    for i in range(1, n - 1):
        if not (mags[i] <= mags[i - 1] and mags[i] <= mags[i + 1]):
            continue
        if mags[i] == mags[i - 1] and mags[i] == mags[i + 1]:
            continue
        a, b = lams[i - 1], lams[i + 1]
        lam_star, val = golden_section_min(
            lambda x: abs(sq.value(x)), a, b, xtol=refine_xtol)
        local = mags[max(0, i - int(1.0 / step)): i + int(1.0 / step) + 1]
        local_scale = float(local.max()) if local.size else max_abs
        if val <= tol * max(local_scale, 1e-300):
            zeros.append((float(lam_star), float(val)))
    return ZeroScanReport(zeros=tuple(zeros), nonvanishing=not zeros,
                          min_abs=float(mags.min()), max_abs=max_abs,
                          table=table)


@dataclass(frozen=True)
class ExponentialSolutionReport:
    residuals: tuple
    max_residual: float
    passed: bool


def verify_exponential_solution(kernel, rho, lambdas, coefficients, r_samples,
                                quad=DEFAULT_QUAD, tol=1e-6):
    """Forward check of the exceptional solution family.

    Builds d mu = t**(rho-1) * sum c_l t**(-i l) dt and evaluates the
    convolution transform at the sample points; when every l is a symbol
    zero the residuals vanish, otherwise they report the distance to the
    solution set (the deliberate negative control).
    """
    measure = RadonMeasure.zero()
    for lam, c in zip(lambdas, coefficients):
        piece = RadonMeasure.power_density(complex(rho - 1.0, -float(lam)),
                                           coef=c)
        measure = measure + piece
    tr = KernelTransform(kernel, measure, quad=quad)
    residuals = []
    for r in r_samples:
        residuals.append((float(r), abs(tr.value(float(r)))))
    worst = max(v for _, v in residuals)
    return ExponentialSolutionReport(residuals=tuple(residuals),
                                     max_residual=worst, passed=worst <= tol)


@dataclass(frozen=True)
class RoundtripStage:
    name: str
    passed: bool
    detail: str


# the stages that can fail, in order: the values of ``failed_stage``
ROUNDTRIP_STAGES = ("class-membership", "integrability", "wiener-condition",
                    "averaged-measure", "averaged-regularity",
                    "averaged-density-form", "measure-regularity",
                    "measure-density-form", "constant-transfer")


@dataclass(frozen=True)
class RoundtripReport:
    stages: tuple
    averaged_coefficient: complex
    measure_coefficient: complex
    symbol_at_zero: complex
    ratio_error: float
    passed: bool
    failed_stage: str


def tauberian_roundtrip(kernel, order, measure, schedule=None, fam=None,
                        quad=DEFAULT_QUAD, eps_cluster=1e-3, ratio_tol=0.02,
                        scan_window=(-8.0, 8.0), scan_step=0.02):
    """End-to-end regularity transfer check.

    Stage (i) builds the averaged measure (density = transform values) and
    verifies its flow converges to c * t**rho dt under the order shifted by
    one; stage (ii) verifies the measure flow converges to
    (c/c1) * t**(rho-1) dt with c1 the symbol value at zero.  Stage
    verdicts combine the net-convergence probe, single-cluster structure
    and the density-form fit.  Returns a structured report naming the
    first failed stage.
    """
    fam = fam or MetricFamily()
    if schedule is None:
        schedule = geometric_schedule(1e2, 1e8, 176)
    schedule = np.asarray(schedule, dtype=float)
    stages = []

    def fail(name, detail):
        stages.append(RoundtripStage(name, False, detail))
        return RoundtripReport(stages=tuple(stages),
                               averaged_coefficient=complex("nan"),
                               measure_coefficient=complex("nan"),
                               symbol_at_zero=complex("nan"),
                               ratio_error=math.nan, passed=False,
                               failed_stage=name)

    membership = class_membership(measure, order, which="global", quad=quad)
    if not membership.bounded:
        return fail("class-membership", "measure not in the global class")
    stages.append(RoundtripStage("class-membership", True,
                                 "sup ratio %.6g" % membership.sup_ratio))

    integ = integrability_report(kernel, order, quad)
    if not integ.l1_converged:
        return fail("integrability", "weighted L1 norm diverges")
    stages.append(RoundtripStage("integrability", True,
                                 "L1 %.6g" % integ.l1_value))

    scan = wiener_zero_scan(kernel, order.rho, window=scan_window,
                            step=scan_step, quad=quad)
    if not scan.nonvanishing:
        return fail("wiener-condition",
                    "symbol zeros at %s" % (scan.zeros,))
    stages.append(RoundtripStage("wiener-condition", True,
                                 "min |symbol| %.3g" % scan.min_abs))

    hull = fam.support_hull()
    window = (schedule.min() * hull[0] / 4.0, schedule.max() * hull[1] * 4.0)
    transform = KernelTransform(kernel, measure, order, quad)
    try:
        smoothed = averaged_measure(transform, window)
    except DivergenceError:
        return fail("averaged-measure", "transform integral diverges")

    shifted = order.shifted(1.0)
    s_traj = sample_trajectory(smoothed, shifted, schedule, fam, quad)
    s_trend = convergence_trend(s_traj, fam)
    s_est = estimate_limit_set(s_traj, fam, eps_cluster=eps_cluster)
    if not (s_trend.converged and s_est.regular):
        return fail("averaged-regularity",
                    "trend ratio %.3g, clusters %d"
                    % (s_trend.ratio, len(s_est.clusters)))
    s_fit = verify_regular_limit_form(s_est, shifted, quad)
    if not s_fit.passed:
        return fail("averaged-density-form",
                    "fit residual %.3g" % s_fit.residual)
    stages.append(RoundtripStage("averaged-regularity", True,
                                 "c = %r" % (s_fit.coefficient,)))

    mu_traj = sample_trajectory(measure, order, schedule, fam, quad)
    mu_trend = convergence_trend(mu_traj, fam)
    mu_est = estimate_limit_set(mu_traj, fam, eps_cluster=eps_cluster)
    if not (mu_trend.converged and mu_est.regular):
        return fail("measure-regularity",
                    "trend ratio %.3g, clusters %d"
                    % (mu_trend.ratio, len(mu_est.clusters)))
    mu_fit = verify_regular_limit_form(mu_est, order, quad)
    if not mu_fit.passed:
        return fail("measure-density-form",
                    "fit residual %.3g" % mu_fit.residual)
    stages.append(RoundtripStage("measure-regularity", True,
                                 "c/c1 = %r" % (mu_fit.coefficient,)))

    c1 = mellin_symbol(kernel, order.rho, 0.0, quad)
    predicted = s_fit.coefficient / c1
    ratio_error = abs(mu_fit.coefficient / predicted - 1.0)
    passed = ratio_error <= ratio_tol
    stages.append(RoundtripStage("constant-transfer", passed,
                                 "ratio error %.3g" % ratio_error))
    return RoundtripReport(stages=tuple(stages),
                           averaged_coefficient=s_fit.coefficient,
                           measure_coefficient=mu_fit.coefficient,
                           symbol_at_zero=c1, ratio_error=float(ratio_error),
                           passed=passed,
                           failed_stage="" if passed else "constant-transfer")
