"""Scaling flow of a measure and estimation of its limit set.

The flow samples mu_t = mu(t .)/V(t) along a schedule, compares samples in
the pinned metric, clusters the tail by single linkage and reports one
representative per cluster.  Regularity (a single limit measure) is probed
two ways: structurally (one cluster) and through net convergence (the
successive-distance trend along the trajectory must decay), which is the
sharper test for slowly mixing transients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import DEFAULT_QUAD, MetricFamily, RadonMeasure

__all__ = [
    "TrajectorySample", "LimitSetEstimate", "sample_trajectory",
    "estimate_limit_set", "convergence_trend", "check_flow_invariance",
    "verify_regular_limit_form", "verify_density_envelope",
    "positive_regularity_criterion", "sigma_envelope_bound", "geometric_schedule",
]


@dataclass(frozen=True)
class TrajectorySample:
    t: float
    measure: RadonMeasure
    pairings: np.ndarray


def geometric_schedule(start, stop, points):
    return np.geomspace(float(start), float(stop), int(points))


def sample_trajectory(measure, order, schedule, fam=None, quad=DEFAULT_QUAD):
    """Scaled measures mu_t along an increasing schedule with t_1 >= 1.

    The samples and their pairings come from one ``fam.flow_pairings``
    call, which integrates each family member along the whole schedule at
    once.
    """
    schedule = np.asarray(schedule, dtype=float)
    if schedule.size == 0 or schedule[0] < 1.0 or np.any(np.diff(schedule) <= 0):
        raise ValueError("schedule must be increasing with t >= 1")
    fam = fam or MetricFamily()
    scaled, pairings = fam.flow_pairings(measure, order, schedule, quad)
    return [TrajectorySample(t=float(t), measure=m, pairings=p)
            for t, m, p in zip(schedule, scaled, pairings)]


def _post_transient(samples, transient_fraction, top_decades):
    ts = np.array([s.t for s in samples])
    start = int(math.ceil(transient_fraction * len(samples)))
    cut = ts.max() / 10.0 ** top_decades
    idx = [i for i in range(len(samples)) if i >= start and ts[i] >= cut]
    if not idx:
        idx = [i for i in range(len(samples)) if ts[i] >= cut]
    return idx


def _single_linkage(dist, eps):
    n = dist.shape[0]
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n):
        for j in range(i + 1, n):
            if dist[i, j] <= eps:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values(), key=lambda g: min(g))


@dataclass
class LimitSetEstimate:
    samples: list
    clusters: list
    representatives: list
    representative_ts: list
    representative_pairings: list
    limit_pairings: list
    zero_cluster: list
    regular: bool
    eps_cluster: float
    distances: np.ndarray
    family: MetricFamily


def _extrapolate(ts, pairings):
    """Least-squares limit of pairings along the trajectory.

    The basis (1, 1/ln t, ..., 1/ln^3 t) removes the leading slowly varying
    transients; the intercept is the limit estimate.  The number of terms
    shrinks with the cluster size, down to a plain mean.
    """
    ts = np.asarray(ts, dtype=float)
    P = np.asarray(pairings)
    if ts.size >= 12:
        degree = 4
    elif ts.size >= 6:
        degree = 3
    elif ts.size >= 4:
        degree = 2
    else:
        return P.mean(axis=0)
    x = 1.0 / np.log(ts)
    A = np.column_stack([x ** k for k in range(degree)])
    coef, *_ = np.linalg.lstsq(A, P, rcond=None)
    return coef[0]


def estimate_limit_set(samples, fam=None, eps_cluster=1e-3,
                       transient_fraction=0.2, top_decades=2.0,
                       zero_threshold=1e-8):
    """Cluster the post-transient trajectory; regular iff one cluster.

    The transient cutoff keeps samples in the top ``top_decades`` decades of
    the schedule and past the first ``transient_fraction`` of indices.
    """
    fam = fam or MetricFamily()
    if len(samples) < 10:
        raise ValueError("need at least 10 trajectory samples")
    idx = _post_transient(samples, transient_fraction, top_decades)
    if not idx:
        raise ValueError("no post-transient samples left")
    kept = [samples[i] for i in idx]
    P = np.array([s.pairings for s in kept])
    n = len(kept)
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dist[i, j] = dist[j, i] = fam.distance_from_pairings(P[i], P[j])
    clusters = _single_linkage(dist, eps_cluster)
    reps, rep_ts, rep_pairings, limits, zero_flags = [], [], [], [], []
    for group in clusters:
        sub = dist[np.ix_(group, group)]
        medoid = group[int(np.argmin(sub.sum(axis=0)))]
        reps.append(kept[medoid].measure)
        rep_ts.append(kept[medoid].t)
        rep_pairings.append(P[medoid])
        lim = _extrapolate([kept[i].t for i in group], P[group])
        limits.append(lim)
        zero_flags.append(bool(np.max(np.abs(lim)) <= zero_threshold))
    return LimitSetEstimate(
        samples=kept, clusters=clusters, representatives=reps,
        representative_ts=rep_ts, representative_pairings=rep_pairings,
        limit_pairings=limits, zero_cluster=zero_flags,
        regular=(len(clusters) == 1), eps_cluster=eps_cluster,
        distances=dist, family=fam,
    )


@dataclass(frozen=True)
class TrendReport:
    head: float
    tail: float
    ratio: float
    converged: bool
    floor: float
    steps: tuple


def convergence_trend(samples, fam=None, decay_ratio=0.25, floor=1e-7,
                      skip_fraction=0.1):
    """Net-convergence probe: successive distances d(mu_{t_k}, mu_{t_{k+1}}).

    The trajectory converges (hence the limit set is a single measure) iff
    the step sizes die out: either the tail maximum falls below ``floor`` or
    it is at most ``decay_ratio`` times the head maximum.  A persistent
    plateau marks genuine oscillation in the flow.
    """
    fam = fam or MetricFamily()
    start = int(len(samples) * skip_fraction)
    kept = samples[start:]
    steps = np.array([
        fam.distance_from_pairings(a.pairings, b.pairings)
        for a, b in zip(kept[:-1], kept[1:])
    ])
    third = max(1, steps.size // 3)
    head = float(steps[:third].max())
    tail = float(steps[-third:].max())
    ratio = tail / head if head > 0 else 0.0
    converged = tail <= max(floor, decay_ratio * head)
    return TrendReport(head=head, tail=tail, ratio=ratio, converged=converged,
                       floor=floor, steps=tuple(steps))


@dataclass(frozen=True)
class InvarianceReport:
    max_excess: float
    passed: bool
    details: tuple


def check_flow_invariance(est, order, t_list, quad=DEFAULT_QUAD):
    """Scaling any representative must land near the representative set.

    Requires a constant order (the flow map of the limit set); for each
    representative nu and t the distance min_j d(nu_t, rep_j) must stay
    within 2 * eps_cluster (the zero measure is admitted as a target).
    """
    fam = est.family
    details = []
    worst = 0.0
    targets = [np.asarray(p) for p in est.representative_pairings]
    targets.append(np.zeros(fam.n_members, dtype=complex))
    for rep, t0 in zip(est.representatives, est.representative_ts):
        for t in t_list:
            moved = rep.scaled(order, t)
            p = fam.pairings(moved, quad)
            dmin = min(fam.distance_from_pairings(p, q) for q in targets)
            details.append((t0, float(t), dmin))
            worst = max(worst, dmin)
    return InvarianceReport(max_excess=worst, passed=worst <= 2.0 * est.eps_cluster,
                            details=tuple(details))


@dataclass(frozen=True)
class RegularFormFit:
    coefficient: complex
    residual: float
    passed: bool
    target_pairings: tuple


def power_density_pairings(order_rho, fam, quad=DEFAULT_QUAD):
    """Pairings of the density t**(rho-1) dt against the family."""
    return fam.pairings(RadonMeasure.power_density(order_rho - 1.0), quad)


def verify_regular_limit_form(est, order, quad=DEFAULT_QUAD, tol=1e-3):
    """Fit the single-cluster limit against c * t**(rho-1) dt.

    Least squares over the pairing vectors; the relative misfit must stay
    below ``tol``.
    """
    if not est.regular:
        raise ValueError("limit-set estimate is not regular")
    fam = est.family
    g = power_density_pairings(order.rho, fam, quad)
    p = np.asarray(est.limit_pairings[0])
    denom = np.vdot(g, g).real
    c = complex(np.vdot(g, p) / denom)
    misfit = float(np.linalg.norm(p - c * g))
    scale = float(np.linalg.norm(p))
    residual = misfit / scale if scale > 0 else misfit
    return RegularFormFit(coefficient=c, residual=residual,
                          passed=residual <= tol, target_pairings=tuple(g))


@dataclass(frozen=True)
class EnvelopeReport:
    max_upper_excess: float
    min_lower_slack: float
    passed: bool
    rows: tuple


def verify_density_envelope(est, order, upper, lower, intervals, tol,
                            quad=DEFAULT_QUAD):
    """Check a^rho * density bounds for every representative on intervals.

    ``upper``/``lower`` are DensityEstimate values N(alpha), N_lower(alpha)
    evaluated at alpha = b/a - 1; interval endpoints must avoid atoms.
    """
    rows = []
    worst_up = 0.0
    worst_lo = 0.0
    for rep in est.representatives:
        for (a, b) in intervals:
            xs, _ = rep.atoms_in(a * (1 - 1e-6), a * (1 + 1e-6))
            ys, _ = rep.atoms_in(b * (1 - 1e-6), b * (1 + 1e-6))
            if xs.size or ys.size:
                raise ValueError("interval endpoints must avoid atoms")
            val = rep.mass(a, b, quad).real
            alpha = b / a - 1.0
            ub = a ** order.rho * upper(alpha)
            lb = a ** order.rho * lower(alpha)
            rows.append((a, b, val, lb, ub))
            worst_up = max(worst_up, val - ub)
            worst_lo = max(worst_lo, lb - val)
    passed = worst_up <= tol and worst_lo <= tol
    return EnvelopeReport(max_upper_excess=worst_up, min_lower_slack=worst_lo,
                          passed=passed, rows=tuple(rows))


@dataclass(frozen=True)
class RegularityReport:
    branch: str
    limit_estimate: float
    oscillation: float
    regular: bool
    samples: tuple


def positive_regularity_criterion(measure, order, r_grid, ab=(1.0, math.e),
                                  quad=DEFAULT_QUAD, osc_tol=0.01):
    """Limit criterion for positive measures, branched on the sign of rho.

    rho > 0: mu((1, R])/V(R); rho < 0: mu([R, oo))/V(R); rho = 0:
    mu((aR, bR])/V(R) normalized by ln(b/a).  The verdict is regular iff
    the top-decade oscillation of the ratio stays within ``osc_tol``.
    """
    if not measure.is_positive():
        raise ValueError("criterion applies to positive measures only")
    r_grid = np.asarray(r_grid, dtype=float)
    vals = []
    for r in r_grid:
        v = float(order.scale(r))
        if order.rho > 0:
            branch = "head"
            vals.append(measure.mass(1.0, r, quad).real / v)
        elif order.rho < 0:
            branch = "tail"
            vals.append(measure.improper_mass(r, math.inf, quad).real / v)
        else:
            branch = "window"
            a, b = ab
            vals.append(measure.mass(a * r, b * r, quad).real
                        / (v * math.log(b / a)))
    vals = np.array(vals)
    top = vals[r_grid >= r_grid.max() / 10.0]
    mean = float(np.mean(top))
    osc = float(np.max(top) - np.min(top)) / (abs(mean) + 1e-300)
    return RegularityReport(branch=branch, limit_estimate=mean, oscillation=osc,
                            regular=osc <= osc_tol, samples=tuple(vals))


def sigma_envelope_bound(n1_of_alpha, rho, q_grid):
    """inf over q > 1 of N1(q-1)/|q**rho - 1| (global envelope constant)."""
    best = math.inf
    for q in q_grid:
        q = float(q)
        if q <= 1.0:
            continue
        denom = abs(q ** rho - 1.0)
        if denom <= 0:
            continue
        best = min(best, n1_of_alpha(q - 1.0) / denom)
    return best
