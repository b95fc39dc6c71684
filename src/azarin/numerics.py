"""Shared quadrature machinery.

All integrals over (0, oo) are computed in log coordinates with an
adaptive Gauss-Kronrod 7/15 rule.  Improper endpoints are handled by one
Cauchy window rule (``_cauchy_windows``): a core window grows ring by ring,
the outer edge of each ring ``_EXPANSION`` times its inner edge,
and a ring is calm when its magnitude is at most
``tol * (1 + |total|) + abs_tol``.  A finite end of the integration range is
an end of the core window and takes no rings.  An improper end is accepted
when two rings in a row are calm, or when the next edge would leave the
float range after at least one calm ring; it is rejected after
``_MAX_EXPANSIONS`` rings.  The rule runs on a batch of columns that share
the rings, each with its own total and calm count, and steps the same way
for one column and for many.  An end's first block holds the rings its
caller asks for (``_RING_BLOCK`` unless it knows how many a similar column
took) for one column and one ring for a batch; its later blocks double up
to ``_RING_BLOCK`` rings, and each holds at most ``_RING_CELLS`` (ring,
column) cells or one ring.  A step makes one call for the blocks that are
for the same columns, the first step with the core and the first block of
each end.  The infinity end is judged only once the zero end is decided
for every column and holds its first block until then.  The rings are
consumed one at a time, zero end first, so the totals and partial sums are
those of one ring at a time, whatever the blocks; the rest of a block is
discarded.

``adaptive_quad`` integrates over an array of intervals at once, and
accepts vector integrands returning an (n, k) array for n nodes: the k
integrals of an interval share its segments and each keeps its own budget
``tol * |I_j| + abs_tol``.  Every interval keeps its own segments, as in
QUADPACK's ``qag``; the intervals only share each pass's batch of nodes,
and ``_gk_eval`` sums each segment of a batch on its own, so an interval's
value is bit for bit that of its one-interval call, and a scalar
integrand's that of its one-column vector form.  ``log_quad`` integrates
over each of a list of windows (a, b) in ln t, each window one interval,
so a step of Cauchy rings is one ``adaptive_quad`` call and a window's
value does not depend on the other windows of the call.  An interval's
refinement stops as soon as each of its integrals' error estimates, summed
over its segments, is within its budget (QUADPACK's global test).  Until
then a segment is split while any of its integrals' estimate on it is over
the segment's length share of that budget: into graded panels toward a
singular point it ends on, and into halves otherwise.

``CubicTable`` is the not-a-knot cubic spline (and its antiderivative) that
tabulated densities and cumulative integrals interpolate with.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace

import numpy as np


class NumericsError(Exception):
    pass


class QuadratureError(NumericsError):
    """Adaptive refinement exhausted its budget."""

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class DivergenceError(NumericsError):
    """Improper integral failed the Cauchy criterion; partial sums attached."""

    def __init__(self, message, partials=()):
        super().__init__(message)
        self.partials = list(partials)


class SingularPointError(NumericsError):
    pass


class WindowError(NumericsError):
    pass


@dataclass(frozen=True)
class QuadControl:
    """The error budget ``tol * |I| + abs_tol`` of every integral."""
    tol: float = 1e-10          # relative tolerance
    abs_tol: float = 1e-13

    def with_tol(self, tol):
        return replace(self, tol=float(tol))


DEFAULT_QUAD = QuadControl()

_MAX_DEPTH = 42             # adaptive_quad's passes and segments per interval
_MAX_SEGMENTS = 40000
_GRADED_PANELS = 18         # geometric panels toward singular endpoints
_WINDOW_LO = 0.25           # initial window for improper integrals
_WINDOW_HI = 4.0
_EXPANSION = 4.0            # a Cauchy ring's outer edge over its inner edge
_MAX_EXPANSIONS = 96        # slow geometric ring decay needs headroom

# the most Cauchy rings of a block, the first block of one column by
# default; a block, and a ring call, holds at most _RING_CELLS (window,
# column) cells or one window, which bounds the temporaries of a wide batch
# and leaves one column's calls whole
_RING_BLOCK = 16
_RING_CELLS = 2048

# Gauss-Kronrod 7/15 nodes and weights on [-1, 1].
_XGK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
# One (2, 15) matrix contracts a segment's 15 values to I15 (row 0, the
# weights above) and I7 (row 1, the Gauss weights at nodes 1, 3, ..., 13).
_WGK_WG = np.stack([_WGK, np.zeros(15)])
_WGK_WG[1, 1::2] = [0.129484966168870, 0.279705391489277, 0.381830050505119,
                    0.417959183673469, 0.381830050505119, 0.279705391489277,
                    0.129484966168870]


def _sorted_unique(x):
    """The sorted distinct values of ``x`` (with no NaN), bit for bit those
    of ``np.unique(x)``.  np.unique takes a hash path that imports numpy.ma
    on its first call in a process, a cost of every cold start; this is its
    sorting path."""
    x = np.sort(np.ravel(x))
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


def _gk_eval(f, lo, hi):
    """Gauss-Kronrod 7/15 on a batch of segments; returns (I15, err).

    The values, a complex one as its two float parts, are contracted by one
    stacked product with ``_WGK_WG`` that takes each segment on its own, so
    a segment's sums do not depend on the rest of the batch, and a scalar
    integrand's are those of its one-column vector form."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _XGK[None, :]
    vals = np.asarray(f(nodes.ravel()))
    kind = complex if vals.dtype.kind == "c" else float
    blocks = np.ascontiguousarray(vals, dtype=kind).view(float).reshape(len(lo), 15, -1)
    sums = _WGK_WG @ blocks
    sums *= half[:, None, None]
    sums = sums.view(kind).reshape((len(lo), 2) + vals.shape[1:])
    return sums[:, 0], np.abs(sums[:, 0] - sums[:, 1])


def adaptive_quad(f, a, b, ctrl=DEFAULT_QUAD, split_points=(), singular_points=()):
    """Adaptive GK7/15 integrals of a vectorized (possibly complex) ``f``
    over the intervals [a, b] of arrays (or scalars) ``a``, ``b`` of one
    shape; lists of floats are read as they are, with no array round trip.

    Each interval keeps its own segments: the ``split_points`` inside it
    become segment boundaries, and the ``singular_points`` in its closure
    are also boundaries and receive a graded geometric subdivision (nodes
    are interior, so integrable endpoint singularities need no special
    values).  A segment that ends on a singular point is refined into the
    same graded panels (``_GRADED_PANELS`` of them, halving toward the
    point), so each pass shrinks its end panel 2**(_GRADED_PANELS - 1)-fold
    where bisection would halve it; every other segment is bisected.  All
    intervals share one ``f`` call per pass on the flat array of their
    nodes, and ``_MAX_SEGMENTS`` caps the segments each holds after a pass.
    Outside ``f`` the cost is bookkeeping: only an interval that holds a
    split point, or a singular point in its closure, takes per-interval
    Python at set-up (any other is one segment), and a pass is a fixed
    number of numpy calls, with graded panels only for singular points.

    ``f`` maps n nodes to n values, or to an (n, k) array for k integrals
    over one set of segments; the result has the shape of ``a`` followed by
    that of one value (an empty interval gives 0).  Each integral has its
    own budget ``tol * |I| + abs_tol``.  An interval is accepted once the
    summed error estimate ``sum |I15 - I7|`` of each of its integrals is
    within its budget (QUADPACK's global test); until then each pass splits
    its segments on which any of its integrals' estimate is over the
    segment's length share of the budget.  Accepting on the sum matters
    next to an interior singularity, where the estimates of the narrowest
    segments are rounding noise that no split can shrink below their
    share.  An interval still over budget at ``_MAX_DEPTH`` passes or
    ``_MAX_SEGMENTS`` segments raises ``QuadratureError`` with the current
    estimate.
    """
    if isinstance(a, list):   # ``log_quad``'s window ends
        shape = (len(a),)
    else:
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        shape, a, b = a.shape, a.ravel().tolist(), b.ravel().tolist()
    count = len(a)
    sing = sorted({float(p) for p in singular_points})
    cuts = sorted({float(p) for p in split_points} | set(sing))

    def graded(x, y):
        """x, y and the panel ends halving toward each of them in ``sing``."""
        halves = [(y - x) * 0.5 ** k for k in range(1, _GRADED_PANELS)]
        pts = [x, y]
        if x in sing:
            pts += [x + h for h in halves]
        if y in sing:
            pts += [y - h for h in halves]
        return pts

    seg_lo, seg_hi, grp, plain = [], [], [], 0
    for i, (x, y) in enumerate(zip(a, b)):
        if not y > x:
            continue
        # one segment: no cut inside and no singular point in the closure
        inside = cuts and cuts[bisect_right(cuts, x):bisect_left(cuts, y)]
        if not inside and (not sing or bisect_left(sing, x) == bisect_right(sing, y)):
            seg_lo.append(x)
            seg_hi.append(y)
            grp.append(i)
            plain += 1
            continue
        edges = [x] + inside + [y]
        if any(x <= p <= y for p in sing):
            pts = set(edges)
            for u, v in zip(edges[:-1], edges[1:]):
                pts.update(graded(u, v))
            edges = sorted(pts)
        seg_lo += edges[:-1]
        seg_hi += edges[1:]
        grp += [i] * (len(edges) - 1)
    if not grp:
        return np.zeros(shape, dtype=complex)[()]
    seg_lo, seg_hi = np.array(seg_lo, dtype=float), np.array(seg_hi, dtype=float)
    if plain == count:   # every interval is one segment
        grp, span = np.arange(count), seg_hi - seg_lo
    else:
        grp, span = np.array(grp), np.subtract(b, a, dtype=float)
    vals, errs = _gk_eval(f, seg_lo, seg_hi)
    tail = vals.shape[1:]   # the shape of one value
    k = errs[0].size

    def rows(vals, errs):
        """A row per segment: its values as (real, imaginary) pairs, then its
        error estimates."""
        vals = vals.astype(complex, copy=False).reshape(len(vals), k)
        return np.concatenate([vals.view(float), errs.reshape(len(errs), k)], axis=1)

    def result(totals):
        return totals.reshape(shape + tail)[()]

    data = rows(vals, errs)
    for depth in range(_MAX_DEPTH + 1):
        # each interval's sums over its segments, added in their order;
        # numpy's sum over the rows of one interval adds in the same order
        # and is several times faster than bincount on wide rows
        sums = (data.sum(axis=0, keepdims=True) if count == 1 else
                np.bincount((grp[:, None] * (3 * k) + np.arange(3 * k)).ravel(),
                            data.ravel(), 3 * k * count).reshape(count, 3 * k))
        totals = np.ascontiguousarray(sums[:, :2 * k]).view(complex)
        budget = ctrl.tol * abs(totals) + ctrl.abs_tol
        over = sums[:, 2 * k:] > budget
        if not over.any():
            return result(totals)
        share = budget[grp] * ((seg_hi - seg_lo) / span[grp])[:, None]
        bad = over.any(axis=1)[grp] & (data[:, 2 * k:] > share).any(axis=1)
        if not bad.any():
            return result(totals)
        if depth == _MAX_DEPTH:
            raise QuadratureError("max depth reached", estimate=result(totals))
        # a segment on a singular point takes graded panels toward it, the
        # others their two halves
        halve, keep = bad, ~bad
        for point in sing:
            halve = halve & (seg_lo != point) & (seg_hi != point)
        ends = np.flatnonzero(bad & ~halve).tolist() if sing else []
        panels = [np.array(sorted(set(graded(seg_lo.item(j), seg_hi.item(j)))))
                  for j in ends]
        lo, hi, twin = seg_lo[halve], seg_hi[halve], grp[halve]
        mid = 0.5 * (lo + hi)
        ref_lo = np.concatenate([lo, mid] + [p[:-1] for p in panels])
        ref_hi = np.concatenate([mid, hi] + [p[1:] for p in panels])
        grp = np.concatenate([grp[keep], twin, twin] + [np.full(p.size - 1, grp.item(j))
                                                        for p, j in zip(panels, ends)])
        # no interval holds more segments than all of them together
        if grp.size > _MAX_SEGMENTS and np.bincount(grp).max() > _MAX_SEGMENTS:
            raise QuadratureError("segment budget exhausted", estimate=result(totals))
        data = np.concatenate([data[keep], rows(*_gk_eval(f, ref_lo, ref_hi))])
        seg_lo = np.concatenate([seg_lo[keep], ref_lo])
        seg_hi = np.concatenate([seg_hi[keep], ref_hi])


def log_quad(f, windows, ctrl=DEFAULT_QUAD, split_points=(), singular_points=()):
    """Integrals of f over each window (a, b] of ``windows`` (pairs with
    0 < a < b < oo that need not touch), in log coordinates: one value per
    window, or one row per window for a vector ``f``.

    One ``adaptive_quad`` over the windows in ln t, each window its own
    interval with the split and singular points that lie in it, so a
    window's segments and value do not depend on the other windows.
    Improper ends belong to the Cauchy window rule (``_cauchy_windows``); a
    window outside (0, oo) raises ``ValueError``.
    Graded panels at a singular point p narrow below the float spacing of
    t, so a node x != ln p can give t = e^x == p, where f may be infinite;
    such a node is evaluated one float to its own side of p.
    """
    if not all(0.0 < x < y < math.inf for x, y in windows):
        raise ValueError("log_quad windows must satisfy 0 < a < b < oo")
    sing = [(p, math.log(p)) for p in singular_points if p > 0.0]

    def g(x):
        t = np.exp(x)
        for p, ln_p in sing:
            on = t == p
            if on.any():
                t[on] = np.nextafter(p, np.where(x[on] > ln_p, math.inf, 0.0))
        v = np.asarray(f(t))
        return v * (t[:, None] if v.ndim == 2 else t)

    return adaptive_quad(g, [math.log(x) for x, _ in windows],
                         [math.log(y) for _, y in windows], ctrl,
                         [math.log(p) for p in split_points if p > 0.0],
                         [ln_p for _, ln_p in sing])


class _End:
    """One improper end of the Cauchy window rule for a batch of columns.

    Ring k runs from edge k-1 to edge k, each edge ``step`` of the one
    before; ``edges`` holds one edge past the rings fetched.  Column j has
    left the float range at edge t when ``out(t * scales[j])``.  ``parts[j]``
    holds the parts fetched for column j and not yet judged, ``state[j]``
    its partial sums, calm rings in a row and verdict: True (accepted),
    False (rejected) or None (it needs the next ring); ``open`` lists the
    columns with no verdict.  The first block of a single column holds
    ``first`` rings (one when ``block`` is 1), that of a batch one ring."""

    def __init__(self, edge, step, out, scales, ctrl, block, first):
        self.edges, self.step, self.out, self.ctrl = [edge, step(edge)], step, out, ctrl
        self.scales, self.open, self.block = scales, list(range(len(scales))), block
        self.size = first if len(scales) == 1 and block > 1 else 1
        self.parts = [[] for _ in scales]
        self.state = [([], 0, None) for _ in scales]

    def judge(self, totals):
        """Consume each open column's parts, one ring at a time, outward,
        adding them to its running total in ``totals``: two calm rings in a
        row accept it; a next edge beyond the float range accepts it after a
        calm ring and rejects it otherwise, as ``_MAX_EXPANSIONS`` rings do.
        The parts are dropped once judged.  Returns whether a column needs a
        ring."""
        tol, abs_tol, most = self.ctrl.tol, self.ctrl.abs_tol, _MAX_EXPANSIONS
        edges, scales = self.edges, self.scales
        for j in self.open:
            sums, calm, verdict = self.state[j]
            total = totals[j]
            for part in self.parts[j]:
                total = total + part
                sums.append(total)
                calm = calm + 1 if abs(part) <= tol * (1.0 + abs(total)) + abs_tol else 0
                if calm >= 2:
                    verdict = True
                    break
            self.parts[j], totals[j] = [], total
            k = len(sums)
            if verdict is None and (k >= most or self.out(edges[k + 1] * scales[j])):
                verdict = k < most and calm >= 1
            self.state[j] = (sums, calm, verdict)
        self.open = [j for j in self.open if self.state[j][2] is None]
        return bool(self.open)

    def plan(self):
        """The next block's rings (a, b), outward, and the open columns not
        beyond its first edge to fetch them for: blocks doubling from the
        first one up to ``block`` rings, and no more than
        ``_RING_CELLS`` cells of those columns or one ring, that never reach
        an edge beyond one of those columns nor take the end past
        ``_MAX_EXPANSIONS`` rings."""
        live = [j for j in self.open if not self.out(self.edges[-1] * self.scales[j])]
        scales = [self.scales[j] for j in live] or [1.0]
        least, most = min(scales), max(scales)   # out is monotone in the scale
        rings = []
        for _ in range(min(self.size, _MAX_EXPANSIONS + 2 - len(self.edges),
                           _RING_CELLS // len(live) or 1) if live else 0):
            edge, nxt = self.edges[-2:]
            if rings and (self.out(nxt * least) or self.out(nxt * most)):
                break
            rings.append((nxt, edge) if nxt < edge else (edge, nxt))
            self.edges.append(self.step(nxt))
        self.size = min(2 * self.size, self.block)
        return rings, live


def _cauchy_windows(ring, lo, hi, scales, ctrl, block=_RING_BLOCK,
                    first=(_RING_BLOCK, _RING_BLOCK)):
    """Columns of an integral over (lo, hi) in (0, oo) by the Cauchy window rule.

    ``lo == 0`` and ``hi == inf`` are improper ends (``_End``); column j's
    edge leaves the float range when ``edge * scales[j]`` does.  The core
    window is ``(_WINDOW_LO, _WINDOW_HI)`` clipped to (lo, hi); when the
    finite end lies beyond it, the core is the one ring next to that end.
    ``ring(windows, live)`` returns for each window (a, b) of ``windows``,
    which need not touch, a row of the parts of the columns listed in
    ``live``.  Each step fetches the next block of rings of each end that
    needs them for its live columns, those whose next edge is still inside
    the float range: first blocks of ``first`` = (zero end, infinity end)
    rings for one column and of one ring for a batch, then blocks doubling
    up to ``block``.  The core and the blocks of a step that are for the
    same live columns share one call, cut into calls of at most
    ``_RING_CELLS`` (window, column) cells or one window.  The infinity end
    adds to the totals after the zero end, so it is judged only once the
    zero end is decided for every column: it holds the parts of its first
    block until then, and fetches no other block before.  A caller that
    knows how many rings a similar column took asks for one more in
    ``first``, so that the column takes one step; blocks change only the
    rings fetched, never the result.  A ring callback with no adaptive
    integral to batch passes ``block=1``, so that it fetches no ring it
    discards, whatever ``first``.  Returns the totals, each column's
    partial sums (core first, then the rings at zero, then those at
    infinity), a dict mapping each rejected column to the end, "zero" or
    "infinity", that failed first, each column's window (a, b): the core
    and the rings it took, and each column's ring counts (zero end,
    infinity end), 0 at a finite end.
    """
    improper_lo = (lo == 0.0)
    improper_hi = math.isinf(hi)
    core_lo = _WINDOW_LO if improper_lo else lo
    core_hi = _WINDOW_HI if improper_hi else hi
    if core_hi <= core_lo:
        if improper_lo:
            core_lo = core_hi / _EXPANSION
        elif improper_hi:
            core_hi = core_lo * _EXPANSION
        else:
            return ([0.0 + 0.0j] * len(scales), [[] for _ in scales], {},
                    [(lo, hi)] * len(scales), [(0, 0)] * len(scales))
    n = len(scales)
    zero = improper_lo and _End(core_lo, lambda t: t / _EXPANSION,
                                lambda x: x < 1e-300, scales, ctrl, block, first[0])
    inf = improper_hi and _End(core_hi, lambda t: t * _EXPANSION,
                               lambda x: x > 1e300, scales, ctrl, block, first[1])
    calls = {tuple(range(n)): [(None, [(core_lo, core_hi)])]}   # live columns: blocks
    wanting = [end for end in (zero, inf) if end]
    while True:
        for end in wanting:
            rings, cols = end.plan()
            if rings:
                calls.setdefault(tuple(cols), []).append((end, rings))
        if not calls:
            break
        for live, step in calls.items():
            windows = [w for _, rings in step for w in rings]
            width = _RING_CELLS // len(live) or 1
            rows = iter([row for at in range(0, len(windows), width)
                         for row in ring(windows[at:at + width], list(live))])
            for end, rings in step:
                got = [next(rows) for _ in rings]
                if end is None:
                    core = list(got[0])
                    totals = list(core)
                for j, parts in zip(live, zip(*got)) if end else ():
                    end.parts[j].extend(parts)
        # the infinity end adds to the totals that the zero end leaves
        wanting = ([zero] if zero and zero.judge(totals) else
                   [inf] if inf and inf.judge(totals) else [])
        calls = {}

    partials, failed, reach, counts = [], {}, [], []
    for j in range(n):
        sums, window, taken = [core[j]], [core_lo, core_hi], [0, 0]
        for side, end, name in ((0, zero, "zero"), (1, inf, "infinity")):
            if end:
                ring_sums, _, verdict = end.state[j]
                sums += ring_sums
                taken[side] = len(ring_sums)
                window[side] = end.edges[len(ring_sums)]
                if not verdict:
                    failed.setdefault(j, name)
        partials.append(sums)
        reach.append(tuple(window))
        counts.append(tuple(taken))
    return totals, partials, failed, reach, counts


def improper_quad(f, lo, hi, ctrl=DEFAULT_QUAD, split_points=(), singular_points=()):
    """Integral of ``f`` over (lo, hi) in (0, oo); lo == 0 / hi == inf improper.

    Each step of Cauchy windows is one ``log_quad`` of ``f``.  Masses with
    atoms take their windows from ``RadonMeasure.masses`` instead
    (``improper_mass``), so the atoms enter the criterion there.
    """
    def window_values(windows, live):
        return [(v,) for v in log_quad(f, windows, ctrl, split_points, singular_points).tolist()]

    hi = math.inf if hi is None else float(hi)
    totals, partials, failed, _, _ = _cauchy_windows(window_values, float(lo), hi,
                                                     (1.0,), ctrl)
    if failed:
        raise DivergenceError(
            "improper integral failed Cauchy criterion at %s" % failed[0],
            partials=partials[0],
        )
    return totals[0]


def converges(f, lo, hi, ctrl=DEFAULT_QUAD):
    """Cauchy test for the integral of ``f`` over (lo, hi), as in improper_quad.

    Returns (converged, value, partials).
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            val = improper_quad(f, lo, hi, ctrl)
    except DivergenceError as exc:
        return False, None, exc.partials
    except QuadratureError:
        return False, None, []
    if not np.isfinite(val):
        return False, None, []
    return True, val, []


def golden_section_min(fn, a, b, xtol=1e-10):
    """Golden-section minimum of a scalar function on [a, b]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1 = fn(x1)
    f2 = fn(x2)
    for _ in range(240):
        if b - a < xtol:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = fn(x2)
    xm = 0.5 * (a + b)
    return xm, fn(xm)


class CubicTable:
    """Piecewise polynomial on increasing knots ``x``.

    Row k of ``coef`` holds the coefficients, highest power first, of the
    piece on [x_k, x_{k+1}] in the local coordinate d = t - x_k.  A point
    takes the piece ``searchsorted(x, t, side="right") - 1`` clipped to
    [0, n-2], as in ``scipy.interpolate.PPoly``, so the end pieces
    extrapolate.  ``fit`` builds the not-a-knot cubic interpolant (the
    default of scipy's ``CubicSpline``; de Boor, A Practical Guide to
    Splines, 1978) and ``antiderivative`` its quartic integral from x_0.
    """

    def __init__(self, x, coef):
        self.x = x
        self.coef = coef

    @classmethod
    def fit(cls, x, y):
        """Not-a-knot cubic through (x, y); y may be complex.

        Two points give the line and three the parabola through them; from
        four on, the slopes solve scipy's not-a-knot tridiagonal system by
        a Thomas sweep.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y)
        dx = np.diff(x)
        slope = np.diff(y) / dx
        if x.size == 2:
            s = np.array([slope[0], slope[0]])
        elif x.size == 3:
            curv = (slope[1] - slope[0]) / (x[2] - x[0])
            s = np.array([slope[0] - curv * dx[0], slope[0] + curv * dx[0],
                          slope[1] + curv * dx[1]])
        else:
            s = _not_a_knot_slopes(x, dx, slope)
        t = (s[:-1] + s[1:] - 2.0 * slope) / dx
        coef = np.stack([t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]], axis=1)
        return cls(x, coef)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        # searchsorted(x, t, "right") - 1 clipped to [0, n-2], in one search
        k = np.searchsorted(self.x[1:-1], t, side="right")
        return _horner(self.coef.take(k, axis=0), t - self.x.take(k))

    def antiderivative(self):
        """The quartic table of the integral from x_0 (0 there)."""
        coef = np.concatenate([self.coef / np.arange(self.coef.shape[1], 0, -1),
                               np.zeros_like(self.coef[:, :1])], axis=1)
        coef[1:, -1] = np.cumsum(_horner(coef, np.diff(self.x)))[:-1]
        return CubicTable(self.x, coef)


def _horner(coef, d):
    """Polynomials with coefficient rows ``coef`` (highest first) at ``d``."""
    out = coef[..., 0] * d
    for j in range(1, coef.shape[-1] - 1):   # in place: no temporaries
        out += coef[..., j]
        out *= d
    out += coef[..., -1]
    return out


def _not_a_knot_slopes(x, dx, slope):
    """Node slopes of the not-a-knot cubic, n >= 4: the Thomas sweep of the
    tridiagonal system sub_i s_{i-1} + diag_i s_i + sup_i s_{i+1} = rhs_i."""
    n = x.size
    sub = np.zeros(n)
    diag = np.empty(n)
    sup = np.zeros(n)
    rhs = np.empty(n, dtype=slope.dtype)
    sub[1:-1] = dx[1:]
    diag[1:-1] = 2.0 * (dx[:-1] + dx[1:])
    sup[1:-1] = dx[:-1]
    rhs[1:-1] = 3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    span = x[2] - x[0]
    diag[0], sup[0] = dx[1], span
    rhs[0] = ((dx[0] + 2.0 * span) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / span
    span = x[-1] - x[-3]
    diag[-1], sub[-1] = dx[-2], span
    rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2.0 * span + dx[-1]) * dx[-2] * slope[-1]) / span
    ups, outs = [], []
    up = out = 0.0
    for a, b, c, r in zip(sub.tolist(), diag.tolist(), sup.tolist(), rhs.tolist()):
        pivot = b - a * up
        up = c / pivot
        out = (r - a * out) / pivot
        ups.append(up)
        outs.append(out)
    s = [out]
    for up, out in zip(ups[-2::-1], outs[-2::-1]):
        s.append(out - up * s[-1])
    return np.array(s[::-1], dtype=slope.dtype)
