"""Shared quadrature machinery.

All integrals over (0, oo) are computed in log coordinates with an
adaptive Gauss-Kronrod 7/15 rule.  Improper endpoints are handled by one
Cauchy window rule (``_expand_windows``): a core window grows ring by ring,
the outer edge of each ring ``QuadControl.expansion`` times its inner edge,
and a ring is calm when its magnitude is at most
``tol * (1 + |total|) + abs_tol``.  An end is accepted when two rings in a
row are calm, when the next edge would leave the float range after at least
one calm ring, or when the window reaches a finite support edge; it is
rejected after ``max_expansions`` rings.

``adaptive_quad`` and ``log_quad`` accept vector integrands returning an
(n, k) array for n nodes: the k integrals share segments and each column
keeps its own budget ``tol * |I_j| + abs_tol``.  Refinement stops as soon as
every column's error estimate, summed over segments, is within its budget
(QUADPACK's global test).  Until then a segment is split while any column's
estimate on it is over the segment's length share of that budget.
"""

from __future__ import annotations

import math
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
    tol: float = 1e-10          # relative tolerance
    abs_tol: float = 1e-13
    max_depth: int = 42
    max_segments: int = 40000
    window_lo: float = 0.25     # initial window for improper integrals
    window_hi: float = 4.0
    expansion: float = 4.0
    max_expansions: int = 96    # slow geometric ring decay needs headroom
    graded_levels: int = 18     # geometric panels toward singular endpoints

    def with_tol(self, tol):
        return replace(self, tol=float(tol))


DEFAULT_QUAD = QuadControl()

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
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])
_G_IDX = np.arange(1, 15, 2)


def _gk_eval(f, lo, hi):
    """Gauss-Kronrod 7/15 on a batch of segments; returns (I15, err)."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _XGK[None, :]
    vals = np.asarray(f(nodes.ravel()))
    if vals.ndim == 2:  # vector integrand: (segment, column, node)
        vals = vals.reshape(nodes.shape + vals.shape[1:]).swapaxes(1, 2)
        half = half[:, None]
    else:
        vals = vals.reshape(nodes.shape)
    i15 = half * (vals @ _WGK)
    i7 = half * (vals[..., _G_IDX] @ _WG)
    return i15, np.abs(i15 - i7)


def _graded_edges(lo, hi, singular, levels):
    """Insert geometrically shrinking panels toward singular endpoints."""
    pts = [lo, hi]
    length = hi - lo
    for s in singular:
        if abs(s - lo) < 1e-300 * max(1.0, abs(lo)) or s == lo:
            pts.extend(lo + length * 0.5 ** k for k in range(1, levels))
        elif s == hi or abs(s - hi) < 1e-300 * max(1.0, abs(hi)):
            pts.extend(hi - length * 0.5 ** k for k in range(1, levels))
    return pts


def adaptive_quad(f, a, b, ctrl=DEFAULT_QUAD, split_points=(), singular_points=()):
    """Adaptive GK7/15 integral of a vectorized (possibly complex) ``f``.

    ``split_points`` become segment boundaries; ``singular_points`` are also
    boundaries and receive a graded geometric subdivision (nodes are interior,
    so integrable endpoint singularities need no special values).

    ``f`` maps n nodes to n values, or to an (n, k) array for k integrals
    over one set of segments; then the result is an array of k values (an
    empty interval gives a scalar 0).  Each column j has its own budget
    ``tol * |I_j| + abs_tol``.  The result is accepted once every column's
    summed error estimate ``sum |I15 - I7|`` is within its budget; until
    then each pass splits the segments on which any column's estimate is
    over the segment's length share of the budget.  Accepting on the sum
    matters next to an interior singularity, where the estimates of the
    narrowest segments are rounding noise that no split can shrink below
    their share.
    """
    a = float(a)
    b = float(b)
    if not b > a:
        return 0.0 + 0.0j
    interior = sorted({float(p) for p in split_points if a < p < b}
                      | {float(p) for p in singular_points if a < p < b})
    edges = [a] + interior + [b]
    sing = sorted({float(p) for p in singular_points if a <= p <= b})
    pts = set()
    for lo, hi in zip(edges[:-1], edges[1:]):
        pts.update(_graded_edges(lo, hi, [s for s in sing if s in (lo, hi)],
                                 ctrl.graded_levels))
    edges = np.array(sorted(set(edges) | pts))
    seg_lo = edges[:-1]
    seg_hi = edges[1:]
    vals, errs = _gk_eval(f, seg_lo, seg_hi)
    vector = vals.ndim == 2

    def result(total):
        return total.astype(complex) if vector else complex(total)

    for _ in range(ctrl.max_depth):
        total = vals.sum(axis=0)
        width = seg_hi - seg_lo
        length = width.sum()
        budget = ctrl.tol * abs(total) + ctrl.abs_tol
        if np.all(errs.sum(axis=0) <= budget):
            return result(total)
        if vector:
            width = width[:, None]
        over = errs > budget * width / length
        bad = over.any(axis=1) if vector else over
        if not bad.any():
            return result(total)
        if seg_lo.size + np.count_nonzero(bad) > ctrl.max_segments:
            if np.all(np.sum(errs, axis=0) < 100.0 * budget):
                return result(total)
            raise QuadratureError("segment budget exhausted", estimate=result(total))
        mid = 0.5 * (seg_lo[bad] + seg_hi[bad])
        new_lo = np.concatenate([seg_lo[~bad], seg_lo[bad], mid])
        new_hi = np.concatenate([seg_hi[~bad], mid, seg_hi[bad]])
        keep_vals = vals[~bad]
        keep_errs = errs[~bad]
        ref_vals, ref_errs = _gk_eval(f, np.concatenate([seg_lo[bad], mid]),
                                      np.concatenate([mid, seg_hi[bad]]))
        vals = np.concatenate([keep_vals, ref_vals])
        errs = np.concatenate([keep_errs, ref_errs])
        seg_lo, seg_hi = new_lo, new_hi

    total = np.sum(vals, axis=0)
    if np.any(np.sum(errs, axis=0) > 100.0 * (ctrl.tol * abs(total) + ctrl.abs_tol)):
        raise QuadratureError("max depth reached", estimate=result(total))
    return result(total)


def log_quad(f, t_lo, t_hi, ctrl=DEFAULT_QUAD, split_points=(), singular_points=()):
    """Integrate f over [t_lo, t_hi] subset of (0, oo) in log coordinates."""
    if not (t_lo > 0.0 and t_hi > t_lo):
        return 0.0 + 0.0j

    def g(xi):
        t = np.exp(xi)
        v = np.asarray(f(t))
        return v * (t[:, None] if v.ndim == 2 else t)

    return adaptive_quad(
        g, math.log(t_lo), math.log(t_hi), ctrl,
        split_points=[math.log(p) for p in split_points if t_lo < p < t_hi],
        singular_points=[math.log(p) for p in singular_points if t_lo <= p <= t_hi],
    )


def _expand_windows(ring, edge, side, step, beyond, total, partials, ctrl,
                    hard=None):
    """Grow one end of a window by Cauchy rings; returns (accepted, total).

    ``side`` is -1 at the lower end and +1 at the upper.  Each pass moves
    ``edge`` to ``step(edge)``, adds ``ring(a, b)`` over the new ring to the
    running ``total`` and appends the total to ``partials``.  ``beyond``
    tells when an edge has left the float range and ``hard`` is a finite
    support edge, if the window has one.
    """
    calm = 0
    for _ in range(ctrl.max_expansions):
        if hard is not None and (edge <= hard if side < 0 else edge >= hard):
            return True, total
        nxt = step(edge)
        if beyond(nxt):
            return calm >= 1, total
        part = ring(nxt, edge) if side < 0 else ring(edge, nxt)
        total += part
        partials.append(total)
        edge = nxt
        if abs(part) <= ctrl.tol * (1.0 + abs(total)) + ctrl.abs_tol:
            calm += 1
            if calm >= 2:
                return True, total
        else:
            calm = 0
    return False, total


def improper_quad(f, lo, hi, ctrl=DEFAULT_QUAD, split_points=(), singular_points=(),
                  extra_terms=None):
    """Integral of ``f`` over (lo, hi) in (0, oo); lo == 0 / hi == inf improper.

    ``extra_terms(a, b)`` optionally adds a window-supported discrete sum
    (atom contributions) to each window so the Cauchy criterion sees the
    complete measure.
    """
    improper_lo = (lo == 0.0)
    improper_hi = (hi is None) or math.isinf(hi)
    core_lo = ctrl.window_lo if improper_lo else float(lo)
    core_hi = ctrl.window_hi if improper_hi else float(hi)
    if core_hi <= core_lo:
        if improper_lo:
            core_lo = core_hi / ctrl.expansion
        elif improper_hi:
            core_hi = core_lo * ctrl.expansion
        else:
            return 0.0 + 0.0j

    def window_value(a, b):
        val = log_quad(f, a, b, ctrl, split_points, singular_points)
        if extra_terms is not None:
            val += extra_terms(a, b)
        return val

    total = window_value(core_lo, core_hi)
    partials = [total]
    ok_lo = ok_hi = True
    if improper_lo:
        ok_lo, total = _expand_windows(
            window_value, core_lo, -1, lambda t: t / ctrl.expansion,
            lambda t: t < 1e-300, total, partials, ctrl)
    if improper_hi:
        ok_hi, total = _expand_windows(
            window_value, core_hi, 1, lambda t: t * ctrl.expansion,
            lambda t: t > 1e300, total, partials, ctrl)
    if not (ok_lo and ok_hi):
        side = "zero" if not ok_lo else "infinity"
        raise DivergenceError(
            "improper integral failed Cauchy criterion at %s" % side,
            partials=partials,
        )
    return total


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


def golden_section_min(fn, a, b, xtol=1e-10, max_iter=240):
    """Golden-section minimum of a scalar function on [a, b]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1 = fn(x1)
    f2 = fn(x2)
    for _ in range(max_iter):
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
