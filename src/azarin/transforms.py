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
from typing import NamedTuple

import numpy as np

from .dynamics import _single_linkage
from .kernels import SmoothBumpKernel
from .measures import DEFAULT_QUAD, RadonMeasure, TabulatedPiece
from .numerics import (_RING_BLOCK, CubicTable, DivergenceError, _cauchy_windows,
                       converges, improper_quad, log_quad)
from .orders import log_potter_factor

__all__ = [
    "KernelTransform", "normalized_limit_values", "neutralization_report",
    "integrability_report", "averaged_measure", "verify_averaged_limit_densities",
    "PiecewiseFunction", "canonical_antiderivative", "distribution_function",
    "antiderivative_chain", "check_antiderivative_identity",
    "stable_order_report", "order_diagnostic",
]

TRANSIENT_FRACTION = 0.2
_PANEL_POINTS = 512
_LOG_STEP = 1e-4


class KernelTransform:
    """Evaluator of r -> integral of K(t/r) d mu(t).

    ``integrals(rs, norms, u_window)`` computes many r at once, in u = t/r:
    the integral of K(u) over u in the window against mu(r u)/n, at n = V(r)
    the transform of mu_r = mu(r .)/V(r) at 1.  The r values whose kernel
    support, measure hull and window clip u to the same window share its
    core and its Cauchy rings.  Each fetch of rings is the measure's
    dilation integral of K at scales r and norms n over its windows
    (``RadonMeasure.dilation_integrals``), whose columns are the (ring, r)
    pairs.  Each r keeps its own Cauchy test and stops taking rings once it
    is decided.  A group of one r fetches in its first step one ring more
    at each improper end than that end took in the last accepted one-r
    group (16 rings before one), so a table of ``value`` calls takes about
    one step per r.  ``values(rs)`` is the norm-1 case over (0, oo), cached
    per r in a plain dict; ``value(r)`` is ``values`` at one r.  The values
    are deterministic and the remembered ring counts change only the rings
    fetched, so concurrent double computation is benign.
    """

    def __init__(self, kernel, measure, order=None, quad=DEFAULT_QUAD):
        self.kernel = kernel
        self.measure = measure
        self.order = order
        self.quad = quad
        self._cache = {}
        self._first = (_RING_BLOCK, _RING_BLOCK)   # a one-column value's first blocks

    def _window_term(self, rs, windows, norms):
        """The dilation integral of the kernel at scales ``rs`` and norms
        ``norms`` over each window (a, b] of ``windows``."""
        return self.measure.dilation_integrals(self.kernel, rs, norms, windows, self.quad)

    def integrals(self, rs, norms, u_window=(0.0, math.inf)):
        """Integral of K(u) over u in ``u_window`` against mu(r u)/n for every
        r of ``rs`` and n of ``norms`` (broadcast against ``rs``), as an array.

        A divergent column raises the DivergenceError of the first failing r
        in the order given, with that column's partial sums.
        """
        rs = [float(r) for r in np.ravel(rs)]
        norms = np.broadcast_to(np.asarray(norms, dtype=float), (len(rs),)).tolist()
        if not all(0.0 < r < math.inf for r in rs):
            raise ValueError("transform requires a finite r > 0")
        k_lo, k_hi = self.kernel.support
        m_lo, m_hi = self.measure.hull()
        # widen the hull clip at an end atom, to keep it in the half-open windows
        at_lo, at_hi = (m in self.measure.atom_x for m in (m_lo, m_hi))
        groups = {}
        for i, r in enumerate(rs):
            u_lo = max(k_lo, m_lo / r * (1.0 - 1e-12 * at_lo), u_window[0])
            u_hi = min(k_hi, m_hi / r * (1.0 + 1e-12 * at_hi), u_window[1])
            if math.isinf(u_hi) or u_hi > max(u_lo, 0.0):
                groups.setdefault((u_lo, u_hi), []).append(i)
        out = np.zeros(len(rs), dtype=complex)
        failures = []
        for (u_lo, u_hi), group in groups.items():
            def ring(windows, live, group=group):
                cols = [group[j] for j in live]
                return self._window_term([rs[i] for i in cols], windows,
                                         [norms[i] for i in cols])

            totals, partials, failed, _, taken = _cauchy_windows(
                ring, u_lo, u_hi, [rs[i] for i in group], self.quad, first=self._first)
            if len(group) == 1 and not failed:
                # the next one-column value fetches one ring more than each
                # improper end of this one took; a finite end took none
                self._first = tuple(k + 1 if k else old
                                    for k, old in zip(taken[0], self._first))
            out[group] = totals
            failures.extend((group[j], side, partials[j]) for j, side in failed.items())
        if failures:
            _, side, partials = min(failures, key=lambda f: f[0])
            raise DivergenceError("transform integral failed the Cauchy criterion "
                                  "at %s" % side, partials=partials)
        return out

    def values(self, rs):
        """Transform values at every r of ``rs``, as an array."""
        rs = [float(r) for r in np.ravel(rs)]
        new = list(dict.fromkeys(r for r in rs if r not in self._cache))
        self._cache.update(zip(new, self.integrals(new, 1.0).tolist()))
        return np.array([self.value(r) for r in rs], dtype=complex)

    def value(self, r):
        r = float(r)
        if r not in self._cache:
            self.values([r])
        return self._cache[r]


def normalized_limit_values(transform, schedule, eps=1e-4):
    """The limit values of J(r) = value(r)/V(r) along a schedule past its
    first ``TRANSIENT_FRACTION``: the cluster means of single linkage at
    ``eps`` on |J(r_i) - J(r_j)|, the limit set's rule, whose clusters do not
    depend on the schedule's order.  Clusters and sums go in index order."""
    if transform.order is None:
        raise ValueError("normalized values need an order")
    schedule = np.asarray(schedule, dtype=float)
    rs = schedule[int(math.ceil(TRANSIENT_FRACTION * schedule.size)):]
    vals = transform.values(rs) / np.asarray(transform.order.scale(rs), dtype=float)
    diff = vals[:, None] - vals
    return [sum(vals[group].tolist()) / len(group)
            for group in _single_linkage(np.hypot(diff.real, diff.imag), eps)]


class NeutralizationReport(NamedTuple):
    head_sups: tuple
    tail_sups: tuple
    head_passed: bool
    tail_passed: bool
    passed: bool


def _monotone_decreasing(seq):
    return all(b <= a * 1.10 + 1e-300 for a, b in zip(seq, seq[1:]))


def neutralization_report(kernel, order, measure, eps_grid, n_grid, r_grid,
                          quad=DEFAULT_QUAD):
    """Neutralization of zero and infinity for the triple (K, order, mu).

    For each cutoff the report records sup over the top r-decade of
    |integral of K d mu_r| over (0, eps] resp. (N, oo); the condition holds
    iff these sups decrease (within 10%) as eps -> 0 resp. N -> oo.
    Each cutoff is one ``KernelTransform.integrals`` call over the top
    decade at norms V(r).  Divergent entries are recorded as inf and fail
    the check.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    top = r_grid[r_grid >= r_grid.max() / 10.0]
    transform = KernelTransform(kernel, measure, quad=quad)
    norms = order.scale(top)

    def window_sup(u_window):
        try:
            vals = transform.integrals(top, norms, u_window)
        except DivergenceError:
            return math.inf
        return float(np.max(np.abs(vals), initial=0.0))

    head = tuple(window_sup((0.0, e)) for e in sorted(eps_grid, reverse=True))
    tail = tuple(window_sup((n, math.inf)) for n in sorted(n_grid))
    head_ok = all(map(math.isfinite, head)) and _monotone_decreasing(head)
    tail_ok = all(map(math.isfinite, tail)) and _monotone_decreasing(tail)
    return NeutralizationReport(head_sups=head, tail_sups=tail,
                                head_passed=head_ok, tail_passed=tail_ok,
                                passed=head_ok and tail_ok)


class IntegrabilityReport(NamedTuple):
    l1_value: float
    l1_converged: bool
    amalgam_value: float
    amalgam_converged: bool
    passed: bool


def integrability_report(kernel, order, quad=DEFAULT_QUAD):
    """L1 norm of t**(rho-1) * gamma(t) * |K(t)| plus the amalgam series.

    The amalgam series sums e**(m rho) * gamma(e**m) * K_m over the cells
    (e**m, e**(m+1)], m = 0, 1, -1, 2, -2, ..., with K_m the sup of |K| on a
    log grid of the cell; it is inf at the first cell it reaches that holds
    a declared singular point of the kernel.  gamma comes from one
    ``log_potter_factor`` call per GK batch and one for all the cells.
    """
    rho = order.rho

    def integrand(t):
        g = np.exp(log_potter_factor(order, np.log(t)))
        return np.abs(kernel(t)) * np.exp((rho - 1.0) * np.log(t)) * g

    try:
        l1 = improper_quad(integrand, 0.0, None, quad,
                           split_points=kernel.breakpoints(),
                           singular_points=kernel.singular_points).real
        l1_ok = True
    except DivergenceError as exc:
        l1 = abs(exc.partials[-1]) if exc.partials else math.inf
        l1_ok = False

    ms = np.array([0] + [m for n in range(1, 40) for m in (n, -n)])
    a, b = np.array([[math.exp(m), math.exp(m + 1)] for m in ms.tolist()]).T
    k_lo, k_hi = kernel.support
    inside = (b > k_lo) & (a < k_hi)
    singular = inside & np.any([(a < s) & (s <= b) for s in kernel.singular_points], axis=0)
    cells = inside & ~singular
    ts = np.geomspace(np.maximum(a[cells], k_lo) * (1 + 1e-12), np.minimum(b[cells], k_hi), 48)
    # (ln gamma, K_m) per cell, exponentiated only in a cell the loop reaches:
    # e**(m rho) gamma may overflow in a cell past the stop
    factors = dict(zip(ms[cells].tolist(), zip(log_potter_factor(order, ms[cells]).tolist(),
                                               np.abs(kernel(ts)).max(axis=0).tolist())))
    total, converged, prev_increment = 0.0, False, math.inf
    for n in range(40):
        cell = slice(max(2 * n - 1, 0), 2 * n + 1)   # m = n and m = -n
        if singular[cell].any():
            return IntegrabilityReport(l1, l1_ok, math.inf, False, False)
        increment = sum([math.exp(m * rho) * math.exp(g) * k
                         for m, (g, k) in factors.items() if m in (n, -n)], 0.0)
        total += increment
        if n > 2 and increment <= quad.tol * (1.0 + total) and \
                prev_increment <= quad.tol * (1.0 + total):
            converged = True
            break
        prev_increment = increment
    return IntegrabilityReport(l1_value=float(l1), l1_converged=l1_ok,
                               amalgam_value=total, amalgam_converged=converged,
                               passed=l1_ok)


def averaged_measure(transform, window):
    """The measure with density = transform values, tabulated on a log grid.

    This is the smoothing of mu by the kernel; its natural comparison order
    is the input order shifted by one.
    """
    lo, hi = window
    if not (0.0 < lo < hi):
        raise ValueError("window must be an interval in (0, oo)")
    n = max(8, int(32 * math.log10(hi / lo)) + 1)
    nodes = np.geomspace(lo, hi, n)
    piece = TabulatedPiece(lo=lo, hi=hi, log_nodes=tuple(np.log(nodes)),
                           values=tuple(transform.values(nodes)))
    return RadonMeasure(pieces=(piece,), window=(lo, hi))


class AveragedDensityReport(NamedTuple):
    max_rel_error: float
    passed: bool
    rows: tuple


def verify_averaged_limit_densities(transform, est_s, est_mu, tol=0.01):
    """Densities of averaged-measure limits vs kernel transforms of mu-limits.

    ``transform`` is the transform of mu with its order.  Cluster matching
    is by medoid schedule position: the k-th averaged cluster is compared
    against the k-th mu cluster (both sorted by t), whose representative
    mu_t has the transform ``transform.integrals(t u, V(t))`` at u.
    """
    us = np.array([0.5, 0.8, 1.0, 1.5, 2.0])
    rows = []
    for s_rep, s_t, mu_t in zip(est_s.representatives, est_s.representative_ts,
                                est_mu.representative_ts):
        wants = transform.integrals(mu_t * us, transform.order.scale(mu_t))
        for u, want in zip(us.tolist(), wants.tolist()):
            got = complex(s_rep.density(np.array([u]))[0])
            rows.append((s_t, u, got, want, abs(got - want) / max(abs(want), 1e-300)))
    worst = max((row[-1] for row in rows), default=0.0)
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
    polynomial kinks and power-law growth interpolate accurately.  A panel's
    last node is one ulp inside it, so that a jump at its end (an atom of a
    distribution) is sampled at its left limit, out of the panel's cubic.
    """

    def __init__(self, fn, lo, hi, breakpoints):
        edges = [lo] + [b for b in breakpoints if lo < b < hi] + [hi]
        resolution = getattr(fn, "resolution", None)
        self.edges = edges
        self.splines = []
        self.offsets = []
        acc = 0.0 + 0.0j
        for a, b in zip(edges[:-1], edges[1:]):
            if resolution is not None:
                n = min(262145, max(_PANEL_POINTS,
                                    int((b - a) / resolution) + 2))
                xs = np.linspace(a, b, n)
            elif a > 0.0 and b / a > 50.0:
                n = max(_PANEL_POINTS,
                        min(8192, int(384 * math.log10(b / a)) + 1))
                xs = np.geomspace(a, b, n)
            else:
                xs = np.linspace(a, b, _PANEL_POINTS)
            xs[-1] = np.nextafter(b, a)
            ys = np.asarray(fn(xs), dtype=complex)
            anti = CubicTable.fit(xs, ys).antiderivative()
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


def canonical_antiderivative(f, domain, quad=DEFAULT_QUAD):
    """F = -int_t^oo f when the tail converges, else int_0^t f.

    The branch is decided numerically with the Cauchy window rule; if the
    tail diverges and the head integral over (0, t0] also diverges there is
    no canonical antiderivative and a DivergenceError is raised.
    ``domain = (lo, hi)`` bounds the range over which F will be evaluated.
    F is a ``PiecewiseFunction`` whose label is its branch, "tail" or
    "origin".
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

        return PiecewiseFunction(fn, bps, label="tail")
    head_ok, head_val, partials = converges(integrand, 0.0, lo, quad)
    if not head_ok:
        raise DivergenceError(
            "no canonical antiderivative: both branch integrals diverge",
            partials=partials)

    def fn(t):
        return cum(t) + head_val

    return PiecewiseFunction(fn, bps, label="origin")


def distribution_function(measure, quad=DEFAULT_QUAD):
    """The normalized distribution of the measure.

    Returns -mu((t, oo)) when the full tail mass is finite, otherwise
    mu((0, t]); this pins the start of the antiderivative chain.
    """
    hull = measure.hull()
    finite_tail = True
    if math.isinf(hull[1]):
        try:   # a convergence probe: the value is not used
            measure.improper_mass(max(hull[0], 1e-6), math.inf, quad, absolute=True)
        except DivergenceError:
            finite_tail = False

    bps = sorted({float(x) for x in measure.atom_x}
                 | set(measure.breakpoints_in(0.0, math.inf)))

    if finite_tail:
        ref, label = max(hull[0] * 0.5, 1e-12), "neg-tail-mass"
        offset = -measure.improper_mass(ref, math.inf, quad)
    else:
        # just below the hull, so that an atom on its lower edge counts
        ref, label, offset = hull[0] * (1 - 1e-15), "head-mass", 0.0
    return PiecewiseFunction(lambda t: offset + measure.cumulative_masses(ref, t, quad),
                             bps, label=label)


def antiderivative_chain(measure, depth, domain, quad=DEFAULT_QUAD):
    """[F_0, ..., F_depth]: F_0 from the measure, then canonical steps."""
    chain = [distribution_function(measure, quad)]
    for _ in range(depth):
        chain.append(canonical_antiderivative(chain[-1], domain, quad))
    return chain


class IdentityReport(NamedTuple):
    rows: tuple
    max_rel_error: float
    passed: bool


def check_antiderivative_identity(kernel, measure, orders, r_samples,
                                  quad=DEFAULT_QUAD, tol=1e-6):
    """Integration-by-parts identity for smooth finite kernels.

    For n in ``orders`` and each r sample, compares
    (-1)**(n+1) r**(n+1) * transform(r) against the integral of
    K^(n+1)(t/r) F_n(t) dt over the scaled kernel support, clipped below at
    the lower end of the chain's domain; requires the measure to vanish on
    (0, 1].
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
            rhs, = log_quad(lambda t: deriv(t / r) * F(t),
                            [(max(r * lo, domain[0]), r * hi)], quad, split_points=splits)
            scale = max(abs(lhs), abs(rhs), 1e-12)
            err = abs(lhs - rhs) / scale
            rows.append((n, r, lhs, rhs, err))
            worst = max(worst, err)
    return IdentityReport(rows=tuple(rows), max_rel_error=worst,
                          passed=worst <= tol)


class StableOrderReport(NamedTuple):
    tail_max: float
    prev_max: float
    stable: bool
    samples: tuple
    branch: str


def stable_order_report(f, order, r_grid, quad=DEFAULT_QUAD):
    """Stability of the order under integration: limsup |F(r)|/(r V(r)) > 0.

    F is the canonical antiderivative of f; verdict stable iff the
    top-decade running max of the ratio stays above the numeric floor
    (10 ``quad.tol``) and does not keep collapsing decade over decade.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    F = canonical_antiderivative(f, (min(r_grid) * 1e-3, max(r_grid) * 1.1), quad)
    ratios = np.abs(np.asarray(F(r_grid))) / (r_grid * np.asarray(order.scale(r_grid)))
    top = ratios[r_grid >= r_grid.max() / 10.0]
    prev = ratios[(r_grid >= r_grid.max() / 100.0) & (r_grid < r_grid.max() / 10.0)]
    tail_max = float(top.max()) if top.size else 0.0
    prev_max = float(prev.max()) if prev.size else tail_max
    floor = 10.0 * quad.tol
    stable = tail_max > floor and tail_max >= 0.5 * prev_max
    return StableOrderReport(tail_max=tail_max, prev_max=prev_max, stable=stable,
                             samples=tuple(ratios), branch=F.label)


class OrderDiagnosticReport(NamedTuple):
    log_slopes: tuple
    final_slope: float
    slope_vanishes: bool
    gap_bound_ok: bool
    passed: bool


def order_diagnostic(transform, r_grid):
    """Numeric check that the transform itself behaves like a zero-order scale.

    Reports r Psi'(r)/Psi(r) by central differences in ln r; the slope
    "vanishes" when its top-decade value either sits below 0.05 outright
    or has decayed to at most 0.6 of the head value
    (slowly varying scales approach zero at logarithmic speed only).  Also
    checks the monotone gap bound value(2r) - value(r) >= m * mu([r, 2r])
    with m = min over [1,2] of K(u/2) - K(u).
    """
    r_grid = np.asarray(r_grid, dtype=float)
    # one batch in the order of a loop over r, whose first divergence it
    # raises: r e^h, r e^-h and r for each r, then every 2r
    steps = r_grid[:, None] * np.array([math.exp(_LOG_STEP), math.exp(-_LOG_STEP), 1.0])
    vals = transform.values(np.concatenate([steps.ravel(), 2.0 * r_grid]))
    (up, dn, mid), twice = vals[:steps.size].reshape(-1, 3).T, vals[steps.size:]
    slope = np.array([(up - dn).real, (up - dn).imag]) / (2.0 * _LOG_STEP)
    slopes = np.hypot(*slope) / np.maximum(np.hypot(mid.real, mid.imag), 1e-300)
    final = float(np.max(slopes[r_grid >= r_grid.max() / 10.0]))
    vanishes = final <= max(0.05, 0.6 * float(np.max(slopes[r_grid <= r_grid.min() * 10.0])))
    us = np.linspace(1.0, 2.0, 64)
    m_const = float(np.min(transform.kernel(us / 2.0) - transform.kernel(us)))
    lowers = m_const * transform.measure.masses(1.0, 2.0, r_grid, transform.quad).real
    gaps = (twice - mid).real
    gap_ok = not np.any(gaps < lowers * (1.0 - 1e-9) - 1e-9 * (1.0 + np.abs(gaps)))
    return OrderDiagnosticReport(log_slopes=tuple(slopes), final_slope=final,
                                 slope_vanishes=vanishes, gap_bound_ok=gap_ok,
                                 passed=vanishes and gap_ok)
