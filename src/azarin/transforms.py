"""Kernel convolution transform of a measure and its asymptotic harnesses.

The central object is ``KernelTransform``: the value at r is the integral
of K(t/r) against the measure, evaluated in the scaled variable u = t/r
with kernel singularities isolated and improper endpoints handled by the
shared Cauchy window rule.  On top of it sit the neutralization and
integrability checks, the averaged measure (density = transform values),
the canonical antiderivative chain and the growth diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import SmoothBumpKernel
from .measures import DEFAULT_QUAD, RadonMeasure, TabulatedPiece
from .numerics import (DivergenceError, _cauchy_windows, converges,
                       improper_quad, log_quad)
from .orders import potter_factor

__all__ = [
    "KernelTransform", "normalized_limit_values", "neutralization_report",
    "integrability_report", "averaged_measure", "verify_averaged_limit_densities",
    "PiecewiseFunction", "canonical_antiderivative", "distribution_function",
    "antiderivative_chain", "check_antiderivative_identity",
    "stable_order_report", "order_diagnostic",
]


class KernelTransform:
    """Evaluator of r -> integral of K(t/r) d mu(t).

    ``values(rs)`` computes many r at once, in u = t/r: the r values whose
    kernel support and measure hull clip u to the same window share its
    core and its Cauchy rings, and each ring is the measure's dilation
    integral of K at scales r (``RadonMeasure.dilation_integrals``), one
    vector ``log_quad`` per run of consecutive r with the same measure
    breakpoints in u.  Each r keeps its own Cauchy test and stops taking
    rings once it is decided.  ``value(r)`` is ``values`` at one r, whose
    integrand is scalar.  Values are cached per r; the cache is a plain
    dict (deterministic values, so concurrent double-computation is benign).
    """

    def __init__(self, kernel, measure, order=None, quad=DEFAULT_QUAD):
        self.kernel = kernel
        self.measure = measure
        self.order = order
        self.quad = quad
        self._cache = {}

    def _window_term(self, rs, u_lo, u_hi):
        """Transform at each r of the list ``rs`` restricted to u in (u_lo, u_hi].

        The dilation integral of the kernel at scales ``rs`` and norms 1.
        """
        return self.measure.dilation_integrals(self.kernel, rs, [1.0] * len(rs),
                                               u_lo, u_hi, self.quad)

    def values(self, rs):
        """Transform values at every r of ``rs``, as an array."""
        rs = [float(r) for r in np.ravel(rs)]
        if any(r <= 0.0 for r in rs):
            raise ValueError("transform requires r > 0")
        k_lo, k_hi = self.kernel.support
        m_lo, m_hi = self.measure.hull()
        groups = {}
        for r in dict.fromkeys(r for r in rs if r not in self._cache):
            # measure-hull clipping is slightly widened so boundary atoms
            # stay inside the half-open integration windows
            u_lo = max(k_lo, m_lo / r * (1.0 - 1e-12))
            u_hi = min(k_hi, m_hi / r * (1.0 + 1e-12))
            if not math.isinf(u_hi) and u_hi <= max(u_lo, 0.0):
                self._cache[r] = 0.0 + 0.0j
            else:
                groups.setdefault((u_lo, u_hi), []).append(r)
        failures = []
        for (u_lo, u_hi), group in groups.items():
            def ring(a, b, live, group=group):
                return self._window_term([group[j] for j in live], a, b)

            totals, partials, failed = _cauchy_windows(ring, u_lo, u_hi, group,
                                                       self.quad)
            for j, (r, total) in enumerate(zip(group, totals)):
                if j in failed:
                    failures.append((rs.index(r), failed[j], partials[j]))
                else:
                    self._cache[r] = complex(total)
        if failures:
            _, side, partials = min(failures, key=lambda f: f[0])
            raise DivergenceError(
                "transform integral failed the Cauchy criterion at %s" % side,
                partials=partials)
        return np.array([self.value(r) for r in rs], dtype=complex)

    def value(self, r):
        r = float(r)
        if r not in self._cache:
            self.values([r])
        return self._cache[r]


def _cluster_complex(values, eps):
    values = list(values)
    used = [False] * len(values)
    clusters = []
    for i, v in enumerate(values):
        if used[i]:
            continue
        group = [v]
        used[i] = True
        for j in range(i + 1, len(values)):
            if not used[j] and abs(values[j] - v) <= eps:
                group.append(values[j])
                used[j] = True
        clusters.append(sum(group) / len(group))
    return clusters


def normalized_limit_values(transform, schedule, eps=1e-4, transient_fraction=0.2):
    """Cluster values of the normalized transform along a schedule."""
    if transform.order is None:
        raise ValueError("normalized values need an order")
    schedule = np.asarray(schedule, dtype=float)
    rs = schedule[int(math.ceil(transient_fraction * schedule.size)):]
    vals = transform.values(rs) / np.asarray(transform.order.scale(rs), dtype=float)
    return _cluster_complex(vals.tolist(), eps)


@dataclass(frozen=True)
class NeutralizationReport:
    head_sups: tuple
    tail_sups: tuple
    head_passed: bool
    tail_passed: bool
    passed: bool


def _monotone_decreasing(seq, slack):
    return all(b <= a * (1.0 + slack) + 1e-300 for a, b in zip(seq, seq[1:]))


def neutralization_report(kernel, order, measure, eps_grid, n_grid, r_grid,
                          quad=DEFAULT_QUAD, slack=0.10):
    """Neutralization of zero and infinity for the triple (K, order, mu).

    For each cutoff the report records sup over the top r-decade of
    |integral of K d mu_r| over (0, eps] resp. (N, oo); the condition holds
    iff these sups decrease (within ``slack``) as eps -> 0 resp. N -> oo.
    Divergent entries are recorded as inf and fail the check.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    top = r_grid[r_grid >= r_grid.max() / 10.0]

    def window_sup(cut, side):
        worst = 0.0
        for r in top:
            scaled = measure.scaled(order, r)
            tr = KernelTransform(kernel, scaled, quad=quad)
            try:
                if side == "head":
                    val = _restricted_value(tr, 0.0, cut)
                else:
                    val = _restricted_value(tr, cut, math.inf)
            except DivergenceError:
                return math.inf
            worst = max(worst, abs(val))
        return worst

    head = tuple(window_sup(e, "head") for e in sorted(eps_grid, reverse=True))
    tail = tuple(window_sup(n, "tail") for n in sorted(n_grid))
    head_ok = all(map(math.isfinite, head)) and _monotone_decreasing(head, slack)
    tail_ok = all(map(math.isfinite, tail)) and _monotone_decreasing(tail, slack)
    return NeutralizationReport(head_sups=head, tail_sups=tail,
                                head_passed=head_ok, tail_passed=tail_ok,
                                passed=head_ok and tail_ok)


def _restricted_value(transform, u_lo, u_hi):
    """Transform of the measure restricted to u in (u_lo, u_hi) at r = 1."""
    k_lo, k_hi = transform.kernel.support
    lo = max(u_lo, k_lo, 0.0)
    hi = min(u_hi, k_hi if not math.isinf(k_hi) else transform.measure.hull()[1])
    if hi <= lo:
        return 0.0 + 0.0j
    totals, partials, failed = _cauchy_windows(
        lambda a, b, live: transform._window_term([1.0], a, b), lo, hi, (1.0,),
        transform.quad)
    if failed:
        raise DivergenceError("restricted transform failed the Cauchy criterion "
                              "at %s" % failed[0], partials=partials[0])
    return totals[0]


@dataclass(frozen=True)
class IntegrabilityReport:
    l1_value: float
    l1_converged: bool
    amalgam_value: float
    amalgam_converged: bool
    passed: bool


def integrability_report(kernel, order, quad=DEFAULT_QUAD, amalgam_span=40,
                         sup_samples=48):
    """L1 norm of t**(rho-1) * gamma(t) * |K(t)| plus the amalgam series.

    The amalgam series sums e**(n rho) * gamma(e**n) * K_n where K_n is the
    sup of |K| on (e**n, e**(n+1)]; sups are taken on a log grid and become
    inf when the cell contains a declared singular point of the kernel.
    """
    rho = order.rho
    gamma_cache = {}

    def gamma_at(t):
        key = round(math.log(t), 9)
        if key not in gamma_cache:
            gamma_cache[key] = potter_factor(order, t)
        return gamma_cache[key]

    def integrand(t):
        g = np.array([gamma_at(x) for x in np.atleast_1d(t)])
        return np.abs(kernel(t)) * np.exp((rho - 1.0) * np.log(t)) * g

    try:
        l1 = improper_quad(integrand, 0.0, None, quad,
                           split_points=kernel.breakpoints(),
                           singular_points=kernel.singular_points).real
        l1_ok = True
    except DivergenceError as exc:
        l1 = abs(exc.partials[-1]) if exc.partials else math.inf
        l1_ok = False

    total = 0.0
    converged = False
    prev_increment = math.inf
    k_lo, k_hi = kernel.support
    for n in range(0, amalgam_span):
        increment = 0.0
        for sign in ((1,) if n == 0 else (1, -1)):
            m = sign * n
            a, b = math.exp(m), math.exp(m + 1)
            if b <= k_lo or (not math.isinf(k_hi) and a >= k_hi):
                continue
            if any(a < s <= b for s in kernel.singular_points):
                return IntegrabilityReport(l1, l1_ok, math.inf, False, False)
            ts = np.geomspace(max(a, k_lo) * (1 + 1e-12),
                              min(b, k_hi if not math.isinf(k_hi) else b),
                              sup_samples)
            kn = float(np.max(np.abs(kernel(ts))))
            increment += math.exp(m * rho) * gamma_at(math.exp(m)) * kn
        total += increment
        if n > 2 and increment <= quad.tol * (1.0 + total) and \
                prev_increment <= quad.tol * (1.0 + total):
            converged = True
            break
        prev_increment = increment
    return IntegrabilityReport(l1_value=float(l1), l1_converged=l1_ok,
                               amalgam_value=total, amalgam_converged=converged,
                               passed=l1_ok)


def averaged_measure(transform, window, points_per_decade=32):
    """The measure with density = transform values, tabulated on a log grid.

    This is the smoothing of mu by the kernel; its natural comparison order
    is the input order shifted by one.
    """
    lo, hi = window
    if not (0.0 < lo < hi):
        raise ValueError("window must be an interval in (0, oo)")
    n = max(8, int(points_per_decade * math.log10(hi / lo)) + 1)
    nodes = np.geomspace(lo, hi, n)
    vals = transform.values(nodes)
    piece = TabulatedPiece(lo=lo, hi=hi, log_nodes=tuple(np.log(nodes)),
                           values=tuple(vals))
    return RadonMeasure(pieces=(piece,), window=(lo, hi))


@dataclass(frozen=True)
class AveragedDensityReport:
    max_rel_error: float
    passed: bool
    rows: tuple


def verify_averaged_limit_densities(transform, est_s, est_mu,
                                    u_samples=(0.5, 0.8, 1.0, 1.5, 2.0),
                                    tol=0.01, quad=DEFAULT_QUAD):
    """Densities of averaged-measure limits vs kernel transforms of mu-limits.

    Cluster matching is by medoid schedule position: the k-th averaged
    cluster is compared against the k-th mu cluster (both sorted by t).
    """
    rows = []
    worst = 0.0
    pairs = zip(est_s.representatives, est_s.representative_ts,
                est_mu.representatives)
    for s_rep, s_t, mu_rep in pairs:
        matched = KernelTransform(transform.kernel, mu_rep, quad=quad)
        for u, want in zip(u_samples, matched.values(u_samples).tolist()):
            got = complex(s_rep.density(np.array([u]))[0])
            err = abs(got - want) / max(abs(want), 1e-300)
            rows.append((s_t, float(u), got, want, err))
            worst = max(worst, err)
    return AveragedDensityReport(max_rel_error=worst, passed=worst <= tol,
                                 rows=tuple(rows))


# ---------------------------------------------------------------------------
# canonical antiderivatives


class PiecewiseFunction:
    """Vectorized callable with declared breakpoints (kinks/jumps).

    ``resolution`` caps the sampling step used when the function is
    tabulated (set it for oscillatory integrands).
    """

    def __init__(self, fn, breakpoints=(), label="", resolution=None):
        self._fn = fn
        self.breakpoints = tuple(sorted(set(float(b) for b in breakpoints)))
        self.label = label
        self.resolution = resolution

    def __call__(self, t):
        return self._fn(np.asarray(t, dtype=float))


class _Cumulative:
    """Panelized cumulative integral with per-panel cubic interpolation.

    Panels split at declared breakpoints; within a panel the nodes are
    linear for short spans and geometric across wide ones, so both
    polynomial kinks and power-law growth interpolate accurately.
    """

    def __init__(self, fn, lo, hi, breakpoints, points_per_panel=512):
        from scipy.interpolate import CubicSpline
        edges = [lo] + [b for b in breakpoints if lo < b < hi] + [hi]
        resolution = getattr(fn, "resolution", None)
        self.edges = edges
        self.splines = []
        self.offsets = []
        acc = 0.0 + 0.0j
        for a, b in zip(edges[:-1], edges[1:]):
            if resolution is not None:
                n = min(262145, max(points_per_panel,
                                    int((b - a) / resolution) + 2))
                xs = np.linspace(a, b, n)
            elif a > 0.0 and b / a > 50.0:
                n = max(points_per_panel,
                        min(8192, int(384 * math.log10(b / a)) + 1))
                xs = np.geomspace(a, b, n)
            else:
                xs = np.linspace(a, b, points_per_panel)
            ys = np.asarray(fn(xs), dtype=complex)
            spline = CubicSpline(xs, ys)
            anti = spline.antiderivative()
            self.splines.append(anti)
            self.offsets.append(acc)
            acc = acc + anti(b)
        self.total = acc

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape, dtype=complex)
        edges = self.edges
        idx = np.clip(np.searchsorted(edges, t, side="right") - 1, 0,
                      len(self.splines) - 1)
        for k, (anti, off) in enumerate(zip(self.splines, self.offsets)):
            mask = idx == k
            if mask.any():
                out[mask] = off + anti(np.clip(t[mask], edges[k], edges[k + 1]))
        return out


@dataclass
class Antiderivative:
    fn: PiecewiseFunction
    branch: str    # "tail" for -int_t^oo, "origin" for int_0^t

    def __call__(self, t):
        return self.fn(t)

    @property
    def breakpoints(self):
        return self.fn.breakpoints


def canonical_antiderivative(f, domain, quad=DEFAULT_QUAD):
    """F = -int_t^oo f when the tail converges, else int_0^t f.

    The branch is decided numerically with the Cauchy window rule; if the
    tail diverges and the head integral over (0, t0] also diverges there is
    no canonical antiderivative and a DivergenceError is raised.
    ``domain = (lo, hi)`` bounds the range over which F will be evaluated.
    """
    lo, hi = float(domain[0]), float(domain[1])
    bps = [b for b in getattr(f, "breakpoints", ()) if lo < b < hi]
    cum = _Cumulative(f, lo, hi, bps)

    def integrand(t):
        return np.asarray(f(t))

    tail_ok, tail_val, _ = converges(integrand, hi, None, quad)
    if tail_ok:
        # -int_t^oo f = S(t) - S(hi) - int_hi^oo f
        const = cum.total + tail_val

        def fn(t):
            return cum(t) - const

        return Antiderivative(PiecewiseFunction(fn, bps, label="tail"), "tail")
    head_ok, head_val, partials = converges(integrand, 0.0, lo, quad)
    if not head_ok:
        raise DivergenceError(
            "no canonical antiderivative: both branch integrals diverge",
            partials=partials)

    def fn(t):
        return cum(t) + head_val

    return Antiderivative(PiecewiseFunction(fn, bps, label="origin"), "origin")


def distribution_function(measure, quad=DEFAULT_QUAD):
    """The normalized distribution of the measure.

    Returns -mu((t, oo)) when the full tail mass is finite, otherwise
    mu((0, t]); this pins the start of the antiderivative chain.
    """
    hull = measure.hull()
    try:
        if math.isinf(hull[1]):
            tail_total = measure.improper_mass(max(hull[0], 1e-6), math.inf,
                                               quad, absolute=True)
            finite_tail = True
        else:
            finite_tail = True
            tail_total = measure.abs_mass(hull[0] * 0.5, hull[1], quad)
    except DivergenceError:
        finite_tail = False
        tail_total = None

    bps = sorted({float(x) for x in measure.atom_x}
                 | set(measure.breakpoints_in(0.0, math.inf)))

    if finite_tail:
        ref = max(hull[0] * 0.5, 1e-12)
        if math.isinf(hull[1]):
            total = measure.improper_mass(ref, math.inf, quad)
        else:
            total = measure.mass(ref, hull[1] * 2.0, quad)

        def fn(t):
            t = np.asarray(t, dtype=float)
            out = np.empty(t.shape, dtype=complex)
            flat = out.ravel()
            for i, x in enumerate(t.ravel()):
                if x > ref:
                    got = measure.mass(ref, x, quad)
                elif 0.0 < x < ref:
                    got = -measure.mass(x, ref, quad)
                else:
                    got = 0.0
                flat[i] = -(total - got)
            return out

        return PiecewiseFunction(fn, bps, label="neg-tail-mass")

    def fn(t):
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape, dtype=complex)
        flat = out.ravel()
        lo_ref = hull[0]
        for i, x in enumerate(t.ravel()):
            flat[i] = 0.0 if x <= lo_ref else \
                measure.mass(lo_ref * (1 - 1e-15), x, quad)
        return out

    return PiecewiseFunction(fn, bps, label="head-mass")


def antiderivative_chain(measure, depth, domain, quad=DEFAULT_QUAD):
    """[F_0, ..., F_depth]: F_0 from the measure, then canonical steps."""
    chain = [distribution_function(measure, quad)]
    for _ in range(depth):
        chain.append(canonical_antiderivative(chain[-1], domain, quad).fn)
    return chain


@dataclass(frozen=True)
class IdentityReport:
    rows: tuple
    max_rel_error: float
    passed: bool


def check_antiderivative_identity(kernel, measure, orders, r_samples,
                                  quad=DEFAULT_QUAD, tol=1e-6):
    """Integration-by-parts identity for smooth finite kernels.

    For n in ``orders`` and each r sample, compares
    (-1)**(n+1) r**(n+1) * transform(r) against the integral of
    K^(n+1)(t/r) F_n(t) dt; requires the measure to vanish on (0, 1].
    """
    if not isinstance(kernel, SmoothBumpKernel):
        raise ValueError("identity check requires a smooth bump kernel")
    hull = measure.hull()
    if hull[0] < 1.0 and not measure.is_trivial():
        raise ValueError("measure must not charge (0, 1]")
    lo, hi = kernel.support
    r_samples = [float(r) for r in r_samples]
    domain = (1e-3, max(r_samples) * hi * 1.05 + 1.0)
    chain = antiderivative_chain(measure, max(orders), domain, quad)
    tr = KernelTransform(kernel, measure, quad=quad)
    rows = []
    worst = 0.0
    for n in orders:
        deriv = kernel.derivative(n + 1)
        F = chain[n]
        for r in r_samples:
            lhs = (-1.0) ** (n + 1) * r ** (n + 1) * tr.value(r)
            splits = [b for b in F.breakpoints if r * lo < b < r * hi]
            rhs = log_quad(lambda t: deriv(t / r) * F(t), r * lo, r * hi,
                           quad, split_points=splits)
            scale = max(abs(lhs), abs(rhs), 1e-12)
            err = abs(lhs - rhs) / scale
            rows.append((n, r, lhs, rhs, err))
            worst = max(worst, err)
    return IdentityReport(rows=tuple(rows), max_rel_error=worst,
                          passed=worst <= tol)


@dataclass(frozen=True)
class StableOrderReport:
    tail_max: float
    prev_max: float
    stable: bool
    samples: tuple
    branch: str


def stable_order_report(f, order, r_grid, quad=DEFAULT_QUAD, floor_factor=10.0):
    """Stability of the order under integration: limsup |F(r)|/(r V(r)) > 0.

    F is the canonical antiderivative of f; verdict stable iff the
    top-decade running max of the ratio stays above the numeric floor and
    does not keep collapsing decade over decade.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    F = canonical_antiderivative(f, (min(r_grid) * 1e-3, max(r_grid) * 1.1), quad)
    ratios = np.abs(np.asarray(F(r_grid))) / (r_grid * np.asarray(order.scale(r_grid)))
    top = ratios[r_grid >= r_grid.max() / 10.0]
    prev = ratios[(r_grid >= r_grid.max() / 100.0) & (r_grid < r_grid.max() / 10.0)]
    tail_max = float(top.max()) if top.size else 0.0
    prev_max = float(prev.max()) if prev.size else tail_max
    floor = floor_factor * quad.tol
    stable = tail_max > floor and tail_max >= 0.5 * prev_max
    return StableOrderReport(tail_max=tail_max, prev_max=prev_max, stable=stable,
                             samples=tuple(ratios), branch=F.branch)


@dataclass(frozen=True)
class OrderDiagnosticReport:
    log_slopes: tuple
    final_slope: float
    slope_vanishes: bool
    gap_bound_ok: bool
    passed: bool


def order_diagnostic(transform, r_grid, quad=DEFAULT_QUAD, h=1e-4,
                     slope_tol=0.05, decay_factor=0.6):
    """Numeric check that the transform itself behaves like a zero-order scale.

    Reports r Psi'(r)/Psi(r) by central differences in ln r; the slope
    "vanishes" when its top-decade value either sits below ``slope_tol``
    outright or has decayed to at most ``decay_factor`` of the head value
    (slowly varying scales approach zero at logarithmic speed only).  Also
    checks the monotone gap bound value(2r) - value(r) >= m * mu([r, 2r])
    with m = min over [1,2] of K(u/2) - K(u).
    """
    r_grid = np.asarray(r_grid, dtype=float)
    slopes = []
    for r in r_grid:
        up = transform.value(r * math.exp(h))
        dn = transform.value(r * math.exp(-h))
        mid = transform.value(r)
        slopes.append(abs((up - dn) / (2.0 * h)) / max(abs(mid), 1e-300))
    slopes = np.array(slopes)
    top = slopes[r_grid >= r_grid.max() / 10.0]
    head = slopes[r_grid <= r_grid.min() * 10.0]
    final = float(np.max(top))
    vanishes = final <= max(slope_tol, decay_factor * float(np.max(head)))
    us = np.linspace(1.0, 2.0, 64)
    m_const = float(np.min(transform.kernel(us / 2.0) - transform.kernel(us)))
    gap_ok = True
    for r in r_grid:
        gap = (transform.value(2.0 * r) - transform.value(r)).real
        lower = m_const * transform.measure.mass(r, 2.0 * r, quad).real
        if gap < lower * (1.0 - 1e-9) - 1e-9 * (1.0 + abs(gap)):
            gap_ok = False
            break
    return OrderDiagnosticReport(log_slopes=tuple(slopes), final_slope=final,
                                 slope_vanishes=vanishes, gap_bound_ok=gap_ok,
                                 passed=vanishes and gap_ok)
