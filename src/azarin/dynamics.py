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
from typing import NamedTuple

import numpy as np

from .measures import DEFAULT_QUAD, MetricFamily, RadonMeasure

__all__ = [
    "TrajectorySample", "LimitSetEstimate", "sample_trajectory",
    "estimate_limit_set", "convergence_trend", "verify_regular_limit_form",
    "positive_regularity_criterion", "geometric_schedule",
]

_TREND_FLOOR = 1e-7


class TrajectorySample(NamedTuple):
    """The flow at scale t: the pairings of mu_t and the unscaled measure.

    ``measure`` builds mu_t = mu(t .)/V(t) each time it is read; the flow
    itself needs only the pairings.
    """
    t: float
    pairings: np.ndarray
    base: RadonMeasure
    order: object

    @property
    def measure(self):
        return self.base.scaled(self.order, self.t)


def geometric_schedule(start, stop, points):
    return np.geomspace(float(start), float(stop), int(points))


def sample_trajectory(measure, order, schedule, fam, quad=DEFAULT_QUAD):
    """The flow along an increasing schedule with t_1 >= 1, one sample per t.

    The pairings come from one ``fam.flow_pairings`` call, which integrates
    each family member along the whole schedule at once; no mu_t is built
    until a sample's ``measure`` is read.
    """
    schedule = np.asarray(schedule, dtype=float)
    if schedule.size == 0 or schedule[0] < 1.0 or np.any(np.diff(schedule) <= 0):
        raise ValueError("schedule must be increasing with t >= 1")
    pairings = fam.flow_pairings(measure, order, schedule, quad)
    return [TrajectorySample(t=float(t), pairings=p, base=measure, order=order)
            for t, p in zip(schedule, pairings)]


def _post_transient(samples, transient_fraction, top_decades):
    ts = np.array([s.t for s in samples])
    start = int(math.ceil(transient_fraction * len(samples)))
    cut = ts.max() / 10.0 ** top_decades
    idx = [i for i in range(len(samples)) if i >= start and ts[i] >= cut]
    if not idx:
        idx = [i for i in range(len(samples)) if ts[i] >= cut]
    return idx


def _single_linkage(dist, eps):
    """The clusters of single linkage at ``eps``: the connected components
    of the graph dist <= eps of a symmetric ``dist``, each in index order,
    ordered by least index."""
    link = dist <= eps
    free = np.ones(len(dist), dtype=bool)
    clusters = []
    while free.any():
        group = front = np.arange(len(dist)) == np.argmax(free)
        while front.any():
            free &= ~front
            front = link[front].any(axis=0) & free
            group = group | front
        clusters.append(np.flatnonzero(group).tolist())
    return clusters


class LimitSetEstimate(NamedTuple):
    samples: list
    clusters: list
    representatives: list
    representative_ts: list
    representative_pairings: list
    limit_pairings: list
    zero_cluster: list
    regular: bool
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


_DIST_ROWS = 8


def estimate_limit_set(samples, fam, eps_cluster=1e-3,
                       transient_fraction=0.2, top_decades=2.0):
    """Cluster the post-transient trajectory; regular iff one cluster.

    The transient cutoff keeps samples in the top ``top_decades`` decades of
    the schedule and past the first ``transient_fraction`` of indices.
    """
    if len(samples) < 10:
        raise ValueError("need at least 10 trajectory samples")
    idx = _post_transient(samples, transient_fraction, top_decades)
    if not idx:
        raise ValueError("no post-transient samples left")
    kept = [samples[i] for i in idx]
    P = np.array([s.pairings for s in kept])
    # the upper triangle in blocks of rows, so that the (rows, samples,
    # members) temporaries stay small, mirrored: d(a, b) and d(b, a) agree
    # bit for bit
    dist = np.empty((len(kept), len(kept)))
    for i in range(0, len(kept), _DIST_ROWS):
        block = fam.distance_from_pairings(P[i:i + _DIST_ROWS, None], P[None, i:])
        dist[i:i + _DIST_ROWS, i:] = block
        dist[i:, i:i + _DIST_ROWS] = block.T
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
        zero_flags.append(bool(np.max(np.abs(lim)) <= 1e-8))
    return LimitSetEstimate(
        samples=kept, clusters=clusters, representatives=reps,
        representative_ts=rep_ts, representative_pairings=rep_pairings,
        limit_pairings=limits, zero_cluster=zero_flags,
        regular=(len(clusters) == 1), distances=dist, family=fam,
    )


class TrendReport(NamedTuple):
    head: float
    tail: float
    ratio: float
    converged: bool
    floor: float
    steps: tuple


def convergence_trend(samples, fam):
    """Net-convergence probe: successive distances d(mu_{t_k}, mu_{t_{k+1}}).

    The trajectory converges (hence the limit set is a single measure) iff
    the step sizes die out: either the tail maximum falls below
    ``_TREND_FLOOR`` or it is at most a quarter of the head maximum.  A
    persistent plateau marks genuine oscillation in the flow.
    """
    P = np.array([s.pairings for s in samples[int(len(samples) * 0.1):]])
    steps = fam.distance_from_pairings(P[:-1], P[1:])
    third = max(1, steps.size // 3)
    head = float(steps[:third].max())
    tail = float(steps[-third:].max())
    ratio = tail / head if head > 0 else 0.0
    converged = tail <= max(_TREND_FLOOR, 0.25 * head)
    return TrendReport(head=head, tail=tail, ratio=ratio, converged=converged,
                       floor=_TREND_FLOOR, steps=tuple(steps))


class RegularFormFit(NamedTuple):
    coefficient: complex
    residual: float
    passed: bool
    target_pairings: tuple


def verify_regular_limit_form(est, order, quad=DEFAULT_QUAD):
    """Fit the single-cluster limit against c * t**(rho-1) dt.

    Least squares over the pairing vectors; the relative misfit must stay
    below 1e-3.
    """
    if not est.regular:
        raise ValueError("limit-set estimate is not regular")
    fam = est.family
    g = fam.pairings(RadonMeasure.power_density(order.rho - 1.0), quad)
    p = np.asarray(est.limit_pairings[0])
    denom = np.vdot(g, g).real
    c = complex(np.vdot(g, p) / denom)
    misfit = float(np.linalg.norm(p - c * g))
    scale = float(np.linalg.norm(p))
    residual = misfit / scale if scale > 0 else misfit
    return RegularFormFit(coefficient=c, residual=residual,
                          passed=residual <= 1e-3, target_pairings=tuple(g))


class RegularityReport(NamedTuple):
    branch: str
    limit_estimate: float
    oscillation: float
    regular: bool
    samples: tuple


def positive_regularity_criterion(measure, order, r_grid, quad=DEFAULT_QUAD):
    """Limit criterion for positive measures, branched on the sign of rho.

    rho > 0: mu((1, R])/V(R); rho < 0: mu([R, oo))/V(R); rho = 0:
    mu((R, eR])/V(R).  The verdict is regular iff the top-decade
    oscillation of the ratio stays within 0.01.
    """
    if not measure.is_positive():
        raise ValueError("criterion applies to positive measures only")
    r_grid = np.asarray(r_grid, dtype=float)
    v = order.scale(r_grid)
    if order.rho > 0:
        branch = "head"
        vals = measure.cumulative_masses(1.0, r_grid, quad).real / v
    elif order.rho < 0:
        branch = "tail"
        r_max = r_grid.max()
        vals = (measure.improper_mass(r_max, math.inf, quad)
                - measure.cumulative_masses(r_max, r_grid, quad)).real / v
    else:
        branch = "window"
        vals = measure.masses(1.0, math.e, r_grid, quad).real / v
    top = vals[r_grid >= r_grid.max() / 10.0]
    mean = float(np.mean(top))
    osc = float(np.max(top) - np.min(top)) / (abs(mean) + 1e-300)
    return RegularityReport(branch=branch, limit_estimate=mean, oscillation=osc,
                            regular=osc <= 0.01, samples=tuple(vals))
