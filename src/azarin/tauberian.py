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
from typing import NamedTuple

import numpy as np

from .dynamics import (convergence_trend, estimate_limit_set,
                       geometric_schedule, sample_trajectory,
                       verify_regular_limit_form)
from .measures import DEFAULT_QUAD, MetricFamily, RadonMeasure, class_membership
from .numerics import (_WGK, _XGK, DivergenceError, _cauchy_windows,
                       _sorted_unique, golden_section_min)
from .transforms import KernelTransform, averaged_measure, integrability_report

__all__ = [
    "mellin_symbol", "MellinSymbol", "mellin_symbol_table", "wiener_zero_scan",
    "verify_exponential_solution", "tauberian_roundtrip",
]

_EPS_CLUSTER = 1e-3
# bytes of exp(i lam x) rows that ``_SymbolQuadrature.values`` builds at
# once on an arbitrary grid; more rows are built and multiplied block by block
_COARSE_BYTES = 16 * 2 ** 20
# largest |lam - c| max|x| on which ``_SymbolQuadrature.near`` sums the
# moment series about c: its terms reach e^reach times the symbol's scale
_SERIES_REACH = 2.0
# halvings of the panels next to a singular point of the kernel: GK15 on
# the last panel leaves the error of the ln|1 - 1/t| symbol (2e-8 of its
# table max after 18 halvings, 2e-10 after 30)
_GRADED_LEVELS = 30
# the symbol's panel width times (lam_max + 1), so a panel's half turns
# e^{i lam x} by at most k = _PANEL_PHASE / 2.  GK15 integrates e^{i k y} on
# [-1, 1] to its weights' rounding up to k = 5: the error is 4.9e-15 at
# k = pi/3 (panels a third of a wavelength), 3.2e-15 at 4, 4.6e-15 at 5,
# 7.8e-15 at 5.5, 3.3e-14 at 6 and 1.0e-12 at 7
_PANEL_PHASE = 10.0
# GK15 nodes that the symbol quadrature may take (96 MiB of node arrays),
# checked before each window is built: the core comes first, so a lambda
# range whose core alone is over it is rejected before any node is built
_SYMBOL_NODES = 2 ** 21
# (lambda, node) cells of a zero scan's grid table, checked before the grid
# is built: about 2 s of symbol sums (the exp kernel over (-60, 60) at step
# 0.0028 on a 2-core machine), twice the largest scan of the test suite
_SCAN_CELLS = 2 ** 27


class ScanGridError(ValueError):
    """A zero scan's lambda grid times the symbol's nodes is over ``_SCAN_CELLS``."""


class _SymbolQuadrature:
    """Shared node set for K(t) t**(rho-1+i lam) over (0, oo), in x = ln t.

    One GK15 panelization (width min(0.5, ``_PANEL_PHASE`` / (lam_max + 1)):
    the cap resolves the kernel part, the phase e^{i lam x}; graded near
    declared singular points) serves every lambda up to ``lam_max``: the
    kernel part g(x) = K(e^x) e^{rho x} is evaluated once and each symbol
    value is a weighted sum of g against e^{i lam x}.  A non-finite
    ``lam_max``, or one whose node set would pass ``_SYMBOL_NODES``, is a
    ValueError raised before the window that would pass it is built, so
    before any node when the core window (the first) would.
    The windows are the shared Cauchy windows over the kernel support, so a
    finite support end is the end of the core window; the rings are judged
    by absolute mass, so oscillation that cancels inside a ring cannot stop
    the expansion early.

    A table on an arithmetic grid lam_k = lam_0 + k d of K lambdas splits
    k = (c M + j) F + f with F = M ~ K^(1/3): mid row j of the table is the
    product A @ (E_j B).T of the coarse rows A[c, m] = e^{i lam_{cMF} x_m},
    the mid row E_j[m] = e^{i j F d x_m} and the weighted fine rows
    B[f, m] = w_m g(x_m) e^{i f d x_m}.  That is (C + M + F) N exponentials
    instead of K N, no recurrence whose error grows along the grid, and
    three K^(1/3) x N arrays held at a time.  An arbitrary grid takes the
    dense product, one exponential row per lambda against the weights.

    ``near`` gives |symbol| on a short bracket from one exponential pass:
    the moments of the weights about the bracket's midpoint.
    """

    def __init__(self, kernel, rho, lam_max, quad=DEFAULT_QUAD):
        if not math.isfinite(lam_max):
            raise ValueError("expected finite lambdas, got |lambda| up to %r"
                             % (lam_max,))
        width = min(0.5, _PANEL_PHASE / (abs(lam_max) + 1.0))
        k_lo, k_hi = kernel.support
        sing_x = [math.log(s) for s in kernel.singular_points]
        bp_x = sorted({math.log(b) for b in kernel.breakpoints() if b > 0.0})

        def panels(a, b):
            nodes = (_XGK.size * (b - a) / width
                     + sum(xs.size for xs, _, _ in fetched.values()))
            if not nodes <= _SYMBOL_NODES:
                raise ValueError("|lambda| up to %g needs more than %d nodes, "
                                 "%.3g with ln t in (%g, %g)"
                                 % (lam_max, _SYMBOL_NODES, nodes, a, b))
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
            return _sorted_unique(np.concatenate(out))

        fetched = {}

        def ring(windows, live):
            """Keep the nodes of each ring (ln a, ln b] in ``fetched``; return
            the rings' absolute masses."""
            rows = []
            for a, b in windows:
                x = panels(math.log(a), math.log(b))
                mid = 0.5 * (x[:-1] + x[1:])
                half = 0.5 * (x[1:] - x[:-1])
                xs = (mid[:, None] + half[:, None] * _XGK[None, :]).ravel()
                ws = (half[:, None] * _WGK[None, :]).ravel()
                g = np.asarray(kernel(np.exp(xs)), dtype=complex) * np.exp(rho * xs)
                fetched[a, b] = (xs, ws, g)
                rows.append((float(np.sum(ws * np.abs(g))),))
            return rows

        _, partials, failed, windows, _ = _cauchy_windows(
            ring, max(k_lo, 0.0), k_hi, (1.0,), quad, block=1)
        if failed:
            raise DivergenceError("Mellin symbol integral diverges at %s"
                                  % failed[0], partials=partials[0])
        # the core, then the rings taken at zero and at infinity, outward;
        # one ring per step fetches none past an accepted end, but blocks of
        # several rings would, and such a ring is not part of the integral
        (lo, hi), (core, *rings) = windows[0], fetched
        parts = [fetched[core]]
        parts += [fetched[w] for w in sorted(rings, reverse=True)
                  if lo <= w[0] and w[1] <= core[0]]
        parts += [fetched[w] for w in sorted(rings) if core[1] <= w[0] and w[1] <= hi]
        self.xs = np.concatenate([p[0] for p in parts])
        self.wg = np.concatenate([p[1] * p[2] for p in parts])

    def value(self, lam):
        return complex(np.sum(self.wg * np.exp(1j * float(lam) * self.xs)))

    def values(self, lams, step=None):
        """The symbol at each of ``lams``; with ``step``, lams[k] = lams[0] + k step."""
        lams = np.asarray(lams, dtype=float)
        if step is not None:
            return self._grid_values(lams, step)
        w = self.wg[:, None]
        rows = max(1, _COARSE_BYTES // (16 * self.xs.size))
        out = np.empty((lams.size, 1), dtype=complex)
        for i in range(0, lams.size, rows):
            out[i:i + rows] = np.exp(1j * lams[i:i + rows, None] * self.xs[None, :]) @ w
        return out.ravel()

    def _grid_values(self, lams, step):
        """The three-level table on the arithmetic grid ``lams``."""
        f = m = max(1, round(lams.size ** (1.0 / 3.0)))
        x = self.xs[None, :]
        a = np.exp(1j * lams[::m * f, None] * x)
        b = self.wg * np.exp(1j * (step * np.arange(f))[:, None] * x)
        out = np.empty((a.shape[0], m, f), dtype=complex)
        for j, mid in enumerate(step * np.arange(0, m * f, f)):
            out[:, j] = a @ (np.exp(1j * mid * self.xs) * b).T
        return out.ravel()[:lams.size]

    def near(self, lo, hi):
        """lam -> |symbol(lam)| for golden-section search on [lo, hi].

        About the midpoint c the symbol is sum_k m_k (i (lam - c))^k with
        moments m_k = sum w g e^{i c x} x^k / k!, taken until
        reach^k / k! < 1e-18 for reach = (hi - lo) / 2 max|x|, and summed by
        Horner: one exponential pass where each ``value`` takes one.  Past
        ``_SERIES_REACH`` the terms cancel by up to e^reach, and the exact
        ``value`` is used.
        """
        c = 0.5 * (lo + hi)
        reach = 0.5 * (hi - lo) * float(np.max(np.abs(self.xs)))
        if not reach <= _SERIES_REACH:
            return lambda lam: abs(self.value(lam))
        term = self.wg * np.exp(1j * c * self.xs)
        moments, bound, k = [], 1.0, 0
        while bound >= 1e-18:
            moments.append(complex(np.sum(term)))
            k += 1
            bound *= reach / k
            term = term * (self.xs / k)
        moments.reverse()

        def magnitude(lam):
            z, s = 1j * (lam - c), 0j
            for m in moments:
                s = s * z + m
            return abs(s)

        return magnitude


def mellin_symbol(kernel, rho, lam, quad=DEFAULT_QUAD):
    """integral over (0, oo) of K(t) * t**(rho - 1 + i lam) dt.

    Raises ValueError for a non-finite ``lam`` and for one whose node set
    would be over the symbol quadrature's budget.
    """
    return _SymbolQuadrature(kernel, float(rho), abs(float(lam)), quad).value(lam)


class MellinSymbol(NamedTuple):
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


class ZeroScanReport(NamedTuple):
    zeros: tuple
    nonvanishing: bool
    min_abs: float
    max_abs: float
    table: MellinSymbol


def _local_minima(mags):
    """Indices i of the interior grid points with mags[i] at most both
    neighbours, skipping flat triples (all three equal)."""
    mid, left, right = mags[1:-1], mags[:-2], mags[2:]
    dip = (mid <= left) & (mid <= right) & ~((mid == left) & (mid == right))
    return np.flatnonzero(dip) + 1


def wiener_zero_scan(kernel, rho, window=(-30.0, 30.0), step=0.01, tol=1e-6,
                     quad=DEFAULT_QUAD):
    """Locate real zeros of the Mellin symbol on a window.

    The table on the grid is the three-level product of
    ``_SymbolQuadrature``.  Candidates are the local minima of |symbol| on
    the grid, bracketed by their neighbours; golden section on the bracket's
    moment series (``_SymbolQuadrature.near``) finds each minimizer, where
    one exact ``value`` gives the refined |symbol|.  A candidate is a zero
    when that value is negligible against the local symbol scale (max of
    |symbol| within one unit).  The verdict is nonvanishing iff no zeros
    are found in the window (honest for exponentially decaying symbols, for
    which a global min/max ratio would misfire).

    The grid has ``round((hi - lo) / step) + 1`` points spanning the window
    exactly, so its spacing is ``(hi - lo) / (n - 1)``, not ``step``: step
    0.3 on (-1, 1) gives 8 points 0.2857 apart.  A step at least twice the
    window width gives the one point ``lo``.  Raises ValueError unless
    ``step > 0`` and ``window`` is a finite ``(lo, hi)`` with lo <= hi, and
    (before the grid is built) when the symbol's node set for |lambda| up
    to max(|lo|, |hi|) is over its budget; a grid whose lambdas times those
    nodes pass ``_SCAN_CELLS`` is a ``ScanGridError``, also before the grid.
    """
    lo, hi = window
    if not step > 0:
        raise ValueError("step must be > 0, got %r" % (step,))
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ValueError("window must be finite with lo <= hi, got %r"
                         % (window,))
    sq = _SymbolQuadrature(kernel, float(rho), float(max(abs(lo), abs(hi))),
                           quad)
    count = (hi - lo) / step   # inf for a step of 1e-320, never an OverflowError
    if not (count + 1.0) * sq.xs.size <= _SCAN_CELLS:
        raise ScanGridError("%.3g lambdas x %d symbol nodes is more than %d cells"
                            % (count + 1.0, sq.xs.size, _SCAN_CELLS))
    n = int(round(count)) + 1
    lams = np.linspace(lo, hi, n)
    vals = sq.values(lams, step=(hi - lo) / max(n - 1, 1))
    table = MellinSymbol(kernel=kernel, rho=float(rho),
                         lambda_grid=tuple(lams), values=tuple(vals))
    mags = np.abs(vals)
    max_abs = float(mags.max())
    zeros = []
    for i in _local_minima(mags).tolist():
        a, b = float(lams[i - 1]), float(lams[i + 1])
        lam_star, _ = golden_section_min(sq.near(a, b), a, b, xtol=1e-8)
        val = abs(sq.value(lam_star))
        local = mags[max(0, i - int(1.0 / step)): i + int(1.0 / step) + 1]
        local_scale = float(local.max()) if local.size else max_abs
        if val <= tol * max(local_scale, 1e-300):
            zeros.append((float(lam_star), float(val)))
    return ZeroScanReport(zeros=tuple(zeros), nonvanishing=not zeros,
                          min_abs=float(mags.min()), max_abs=max_abs,
                          table=table)


class ExponentialSolutionReport(NamedTuple):
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


class RoundtripStage(NamedTuple):
    name: str
    passed: bool
    detail: str


# the stages that can fail, in order: the values of ``failed_stage``
ROUNDTRIP_STAGES = ("class-membership", "integrability", "wiener-condition",
                    "averaged-measure", "averaged-regularity",
                    "averaged-density-form", "measure-regularity",
                    "measure-density-form", "constant-transfer")


class RoundtripReport(NamedTuple):
    stages: tuple
    averaged_coefficient: complex
    measure_coefficient: complex
    symbol_at_zero: complex
    ratio_error: float
    passed: bool
    failed_stage: str


def tauberian_roundtrip(kernel, order, measure, schedule=None,
                        quad=DEFAULT_QUAD, ratio_tol=0.02):
    """End-to-end regularity transfer check.

    Stage (i) builds the averaged measure (density = transform values) and
    verifies its flow converges to c * t**rho dt under the order shifted by
    one; stage (ii) verifies the measure flow converges to
    (c/c1) * t**(rho-1) dt with c1 the symbol value at zero.  Stage
    verdicts combine the net-convergence probe, single-cluster structure
    and the density-form fit.  Returns a structured report naming the
    first failed stage.
    """
    fam = MetricFamily()
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

    scan = wiener_zero_scan(kernel, order.rho, window=(-8.0, 8.0), step=0.02,
                            quad=quad)
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
    s_est = estimate_limit_set(s_traj, fam, eps_cluster=_EPS_CLUSTER)
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
    mu_est = estimate_limit_set(mu_traj, fam, eps_cluster=_EPS_CLUSTER)
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
