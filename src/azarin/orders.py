"""Proximate orders and their growth scales.

A proximate order is written rho(r) = rho + rho_hat(r) where rho_hat is a
zero proximate order satisfying the symmetry rho_hat(1/r) = -rho_hat(r),
i.e. the zero-part scale W(r) obeys W(1/r) = W(r) and W(1) = 1.  The full
comparison scale is ``scale(r) = r**rho * W(r)``.

The Potter factor ``potter_factor(order, t)`` is the extremal ratio

    sup_{r > 0} W(r t) / W(r),

the zero-part convention; the order-rho power re-enters through the Potter
inequality  ``scale(r t) <= t**rho * potter_factor(t) * scale(r)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .numerics import (DEFAULT_QUAD, SingularPointError,
                       golden_section_min, improper_quad)

__all__ = [
    "ZeroPart", "FlatZero", "LogPowerZero", "LogLogZero",
    "TabulatedZero", "ProximateOrder", "potter_factor", "potter_factor_lower",
    "log_potter_factor", "potter_bound_report", "potter_decay_scan",
    "poisson_smoothed_scale",
]


class ZeroPart:
    """Zero proximate order, represented through h(x) = ln W(e^x)."""

    def log_scale(self, x):
        raise NotImplementedError

    def slope(self, x):
        """d/dx ln W(e^x); raises SingularPointError where undefined."""
        raise NotImplementedError

    @property
    def concave_log_scale(self):
        """True when h(x) is nondecreasing and concave on x > 0, so the Potter
        factor is W(t)."""
        return False


@dataclass(frozen=True)
class FlatZero(ZeroPart):
    """rho_hat identically zero; W == 1."""

    def log_scale(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def slope(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    @property
    def concave_log_scale(self):
        return True


@dataclass(frozen=True)
class LogPowerZero(ZeroPart):
    """W(r) = exp(A |ln r|**alpha) with alpha in (0, 1).

    The slope is singular at r = 1.
    """
    coef: float = 1.0
    alpha: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")

    def log_scale(self, x):
        x = np.asarray(x, dtype=float)
        return self.coef * np.abs(x) ** self.alpha

    def slope(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x == 0.0):
            raise SingularPointError("slope undefined at r = 1 for this family")
        return self.coef * self.alpha * np.sign(x) * np.abs(x) ** (self.alpha - 1.0)

    @property
    def concave_log_scale(self):
        return self.coef > 0.0


@dataclass(frozen=True)
class LogLogZero(ZeroPart):
    """W(r) = 1 + |ln r|**alpha with alpha > 1."""
    alpha: float = 2.0

    def __post_init__(self):
        if not self.alpha > 1.0:
            raise ValueError("alpha must exceed 1")

    def log_scale(self, x):
        x = np.asarray(x, dtype=float)
        return np.log1p(np.abs(x) ** self.alpha)

    def slope(self, x):
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        return self.alpha * np.sign(x) * ax ** (self.alpha - 1.0) / (1.0 + ax ** self.alpha)


@dataclass(frozen=True)
class TabulatedZero(ZeroPart):
    """Zero order from a tabulated slope eta_hat on x = ln r >= 0.

    Values are linearly interpolated; symmetry supplies x < 0 through
    eta_hat(-x) = -eta_hat(x); beyond the last node the slope is frozen at
    its final value (grids should decay toward zero there).
    """
    xs: tuple = ()
    etas: tuple = ()
    # read-only arrays built once: xs, etas, the trapezoid integral of eta at each
    # node, the K signed knots k_j = +-x_i, h and h' at each k_j on the piece right
    # of it, one row per signed piece [k_j, k_(j+1)), j = -1 .. K-1: |base|, cum,
    # eta, h''/2 (0 beyond the last node), sign and k_(j+1) (inf for j = K-1),
    # (max H, -min H) on the pieces i .. i + 2^l - 1 between knots at [l, i], and
    # max |H| and max |h'| on a piece's quadratic up to xs[-1] past it
    _cum: tuple = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        etas = np.asarray(self.etas, dtype=float)
        if xs.size < 2 or xs[0] != 0.0 or np.any(np.diff(xs) <= 0):
            raise ValueError("grid must start at ln r = 0 and strictly increase")
        if etas.size != xs.size:
            raise ValueError("grid and slope arrays must have equal length")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(etas))):
            raise ValueError("grid and slope values must be finite")
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (etas[1:] + etas[:-1]) * np.diff(xs))])
        half_curv = np.append(0.5 * np.diff(etas) / np.diff(xs), 0.0)
        object.__setattr__(self, "xs", tuple(xs))
        object.__setattr__(self, "etas", tuple(etas))
        knots = np.concatenate([-xs[:0:-1], xs])
        i = np.concatenate([np.arange(xs.size - 1, -1, -1), np.arange(xs.size)])
        pieces = np.column_stack([xs[i], cum[i], etas[i], half_curv[i],
                                  np.repeat([-1.0, 1.0], xs.size),
                                  np.append(knots, np.inf)])
        # H on a node piece is extreme at its ends or where eta crosses 0
        cross = np.divide(etas[:-1] * np.diff(xs), etas[:-1] - etas[1:],
                          out=np.zeros(xs.size - 1), where=etas[:-1] * etas[1:] < 0.0)
        ends = np.stack([cum[:-1], cum[1:], cum[:-1] + 0.5 * etas[:-1] * cross])
        ends = np.concatenate([ends[:, ::-1], ends], axis=1)   # on the signed pieces
        ranges = [np.column_stack([ends.max(0), -ends.min(0)])]
        for w in 2 ** np.arange((knots.size - 1).bit_length() - 1):
            ranges.append(np.maximum(ranges[-1], np.roll(ranges[-1], -w, 0)))
        slope = np.abs(etas).max() + 2.0 * xs[-1] * np.abs(half_curv).max()
        arrays = (xs.copy(), etas.copy(), cum, knots, *_on_pieces(knots, pieces[1:].T)[:2],
                  pieces, np.stack(ranges), np.array([np.abs(ends).max(), slope]))
        for a in arrays:
            a.flags.writeable = False
        object.__setattr__(self, "_cum", arrays)

    def log_scale(self, x):
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        xs, etas, cum = self._cum[:3]
        # trapezoid rule up to the enclosing node, linear slope beyond it
        idx = np.clip(np.searchsorted(xs, ax, side="right") - 1, 0, xs.size - 2)
        base = cum[idx] + 0.5 * (np.interp(ax, xs, etas) + etas[idx]) * (ax - xs[idx])
        return np.where(ax <= xs[-1], base, cum[-1] + etas[-1] * (ax - xs[-1]))

    def slope(self, x):
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        xs, etas = self._cum[:2]
        val = np.where(ax <= xs[-1], np.interp(ax, xs, etas), etas[-1])
        return np.sign(x) * val


@dataclass(frozen=True)
class ProximateOrder:
    """rho(r) = rho + rho_hat(r); evaluators for the scale r**rho(r)."""
    rho: float = 0.0
    zero_part: ZeroPart = FlatZero()

    def log_scale(self, r):
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0.0):
            raise ValueError("scale requires r > 0")
        x = np.log(r)
        return self.rho * x + self.zero_part.log_scale(x)

    def scale(self, r):
        """V(r) = r**rho(r); equals 1 exactly at r = 1."""
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0.0):
            raise ValueError("scale requires r > 0")
        # r**rho (exact for rho = 1) times the zero-part scale
        return r ** self.rho * np.exp(self.zero_part.log_scale(np.log(r)))

    def zero_scale(self, r):
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0.0):
            raise ValueError("scale requires r > 0")
        return np.exp(self.zero_part.log_scale(np.log(r)))

    def log_derivative(self, r):
        """d ln V / d ln r, the local growth index (rho(r) + r ln r rho'(r))."""
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0.0):
            raise ValueError("log_derivative requires r > 0")
        return self.rho + self.zero_part.slope(np.log(r))

    def shifted(self, delta):
        return ProximateOrder(self.rho + float(delta), self.zero_part)


# the Potter grid search: _GRID_POINTS values of ln r in +-_GRID_HALF_WIDTH
_GRID_HALF_WIDTH = 40.0
_GRID_POINTS = 4001
# the exact tabulated supremum: signed knots per bounded block, (tau, piece)
# cells per chunk, and the bounds' rounding margin per unit of max |H| + max
# |h'| (|tau| + xs[-1]), by which the rounding of x +- tau moves g < 1e-14
_BLOCK = 32
_POTTER_CELLS = 4096
_ROUNDING = 1e-12


def _grid_supremum(zero_part, tau):
    h = zero_part.log_scale
    lo, hi = -_GRID_HALF_WIDTH, _GRID_HALF_WIDTH
    edge_points = max(2, _GRID_POINTS // 50)
    for _ in range(6):   # the grid, then up to five widenings
        xs = np.linspace(lo, hi, _GRID_POINTS)
        g = h(xs + tau) - h(xs)
        k = int(np.argmax(g))
        best = g[k]
        edge = max(g[:edge_points].max(), g[-edge_points:].max())
        if edge < best - 1e-9 * (1.0 + abs(best)) or lo < -5e5:
            break
        lo *= 2.0
        hi *= 2.0
    a = xs[max(k - 1, 0)]
    b = xs[min(k + 1, xs.size - 1)]
    if b > a:
        _, neg = golden_section_min(lambda x: -(h(np.array([x + tau]))[0]
                                                - h(np.array([x]))[0]),
                                    a, b, xtol=1e-9)
        best = max(best, -neg)
    return best


def _on_pieces(x, rows):
    """h, h' and h''/2 at x on signed pieces, given as the columns of ``rows``."""
    base, cum, eta, half_curv, sign = rows[:5]
    d = np.abs(x) - base
    return cum + d * (eta + half_curv * d), sign * (eta + 2.0 * half_curv * d), half_curv


def _block_ranges(zero_part, edges):
    """Outer bounds (max H(|x|), -min H(|x|)) for x in [edges[..., b], edges[..., b + 1]]:
    the knot pieces between, and the linear tail beyond the last node by its far end."""
    xs, etas, cum, knots = zero_part._cum[:4]
    s = np.minimum(np.maximum(np.searchsorted(knots, edges) - 1, 0), knots.size - 2)
    i, j = s[..., :-1], s[..., 1:]   # the knot piece of each edge
    level = np.frexp(j - i + 1)[1] - 1
    out = np.maximum(*zero_part._cum[7][level, [i, j + 1 - (1 << level)]])
    far = np.maximum(np.abs(edges[..., :-1]), np.abs(edges[..., 1:]))
    tail = (cum[-1] + etas[-1] * (far - xs[-1]))[..., None] * [1.0, -1.0]
    return np.where((far > xs[-1])[..., None], np.maximum(out, tail), out)


def _merged_piece_peaks(zero_part, j, tau, m):
    """max of g(x) = h(x + tau) - h(x) on the merged piece from x = k_j (the first
    ``m`` cells) or x = k_j - tau (h(x + tau) on the piece right of k_j, at the
    rounded x + tau); the search for the other term's piece also ends it."""
    knots, h_knot, dh_knot, pieces = zero_part._cum[3:7]
    k = knots[j]
    shifted = k[m:] - tau[m:]
    probe = np.concatenate([k[:m] + tau[:m], shifted])
    rows = np.take(pieces, np.searchsorted(knots, probe, side="right"), axis=0).T
    h, dh, c = _on_pieces(probe, rows)
    own = np.take(pieces, j + 1, axis=0).T
    h_own, dh_own = _on_pieces(shifted + tau[m:], own[:, m:])[:2]
    g = np.concatenate([h[:m] - h_knot[j[:m]], h_own - h[m:]])
    dg = np.concatenate([dh[:m] - dh_knot[j[:m]], dh_own - dh[m:]])
    fall = 2.0 * np.concatenate([own[3, :m] - c[:m], c[m:] - own[3, m:]])   # -g''
    width = np.concatenate([np.minimum(own[5, :m], rows[5, :m] - tau[:m]) - k[:m],
                            np.minimum(rows[5, m:], own[5, m:] - tau[m:]) - shifted])
    with np.errstate(all="ignore"):   # 0 * inf, and the cells without a vertex
        vertex = (dg > 0.0) & (dg < fall * width)
        return np.where(vertex, g + 0.5 * dg ** 2 / fall, g)


def _tabulated_supremum(zero_part, taus):
    """sup_x h(x + tau) - h(x) for a TabulatedZero at each finite nonzero tau, exactly.

    h(x) = H(|x|) with H quadratic between the nodes and linear beyond the
    last, so g(x) = h(x + tau) - h(x) is quadratic between the merged knots
    {+-x_i} and {+-x_i - tau}, and constant left of the first and right of
    the last.  Its supremum is the largest of g at the knots and g at the
    vertex of each concave piece whose vertex lies inside the piece.

    A block of ``_BLOCK`` signed knots holds the merged pieces from its knots and
    its knots' k_j - tau (the end blocks stretched to min(k_0, k_0 - tau) and max(k_end,
    k_end - tau)), where g <= max H(|x + tau|) - min H(|x|).  A block whose bound is
    below the best peak at the block starts (a candidate), less a rounding margin, is
    dropped; the rest go through one pass in chunks of about ``_POTTER_CELLS``.
    """
    knots, sizes = zero_part._cum[3], zero_part._cum[8]
    n, end = knots.size, knots[-1]
    starts = np.arange(0, n, _BLOCK)
    out = np.full(taus.size, -np.inf)
    per = max(1, _POTTER_CELLS // starts.size)
    for s in range(0, taus.size, per):
        tau = taus[s:s + per, None]
        edges = np.column_stack([np.minimum(knots[0], knots[0] - tau), np.tile(
            knots[starts[1:]], (tau.size, 1)), np.maximum(end, end - tau)])
        both = np.stack([edges + tau, edges])
        up, down = _block_ranges(zero_part, both)
        best = _merged_piece_peaks(zero_part, np.tile(starts, tau.size),
                                   np.repeat(tau, starts.size), starts.size * tau.size)
        keep = ~(up[..., 0] + down[..., 1] < best.reshape(tau.size, -1).max(1, keepdims=True)
                 - _ROUNDING * (sizes[0] + sizes[1] * (end + np.abs(tau))))
        keep_t, keep_b = np.nonzero(keep)
        # ranges of j: kept blocks' knots, then their k_j - tau (cut[b] <= j < cut[b + 1])
        cut = np.searchsorted(knots, both[0])
        cut[:, 0], cut[:, -1] = 0, n
        first = np.concatenate([starts[keep_b], cut[keep_t, keep_b]])
        count = np.concatenate([np.append(starts, n)[keep_b + 1],
                                cut[keep_t, keep_b + 1]]) - first
        pos = np.cumsum(count) - count
        chunks = np.flatnonzero(np.diff(pos // _POTTER_CELLS)) + 1
        for r in np.split(np.arange(count.size), chunks):
            at = np.repeat(r, count[r])   # the range of each cell
            j = first[at] + np.arange(pos[r[0]], pos[r[0]] + at.size) - pos[at]
            t = keep_t[at % keep_t.size]
            np.maximum.at(out, s + t, _merged_piece_peaks(zero_part, j, tau[t, 0],
                                                          np.count_nonzero(at < keep_t.size)))
    return out


def log_potter_factor(order, tau):
    """ln potter_factor(order, e**tau) at a number or an array of finite tau (else a
    ValueError before any search), in its shape.  Closed forms (flat, concave) take the
    array, a table's exact search its distinct nonzero tau at once, a grid search each."""
    tau = np.asarray(tau, dtype=float)
    bad = tau[~np.isfinite(tau)]
    if bad.size:
        raise ValueError("the Potter factor needs a finite ln t, got %r" % float(bad[0]))
    zero_part = order.zero_part
    if zero_part.concave_log_scale:
        out = zero_part.log_scale(tau)
    else:
        taus = tau.ravel().tolist()
        distinct = [x for x in dict.fromkeys(taus) if x]
        sup = dict(zip(distinct, _tabulated_supremum(zero_part, np.array(distinct)).tolist()
                       if isinstance(zero_part, TabulatedZero)
                       else [float(_grid_supremum(zero_part, x)) for x in distinct]))
        out = np.reshape([sup.get(x, 0.0) for x in taus], tau.shape)
    return float(out) if out.ndim == 0 else out


def potter_factor(order, t):
    """sup_{r>0} W(rt)/W(r) for the zero part W of the order.

    Uses the closed form W(t) for every t when the family has a concave
    log-scale: for h(x) = ln W(e^x) even, nondecreasing and concave on
    [0, oo) with h(0) = 0, h(x + tau) <= h(|x| + |tau|) <= h(x) + h(|tau|),
    with equality at x = 0.  For a ``TabulatedZero`` the supremum is exact:
    ln W(e^x) is piecewise quadratic, and its slope sign(x) eta_hat(|x|)
    keeps the sign of the table eta_hat.  Otherwise a widening log-uniform
    grid search (``_grid_supremum``) with golden-section refinement around
    the grid argmax.  The supremum is found in log form and exponentiated,
    so a factor beyond the float range raises OverflowError; the Potter
    report, the decay scan and the gamma suite use the log and do not.
    Scalar on purpose: for many t, call ``log_potter_factor`` on their logs.
    """
    t = float(t)
    if t <= 0.0:
        raise ValueError("potter_factor requires t > 0")
    return math.exp(log_potter_factor(order, math.log(t)))


def potter_factor_lower(order, t):
    """inf_{r>0} W(rt)/W(r) = 1 / potter_factor(1/t)."""
    t = float(t)
    if t <= 0.0:
        raise ValueError("potter_factor_lower requires t > 0")
    return 1.0 / potter_factor(order, 1.0 / t)


class PotterReport(NamedTuple):
    max_violation: float
    worst_pair: tuple
    passed: bool
    tolerance: float


def potter_bound_report(order, samples, tolerance=1e-6):
    """Check scale(rt) <= t**rho * potter_factor(t) * scale(r) on samples.

    Violations are measured relatively, in log space to dodge overflow.  A
    pair with t <= 0, or whose product r t is 0 or not finite (out of the
    float range), has no finite excess and raises ValueError.
    """
    r, t = np.asarray(samples, dtype=float).reshape(-1, 2).T
    with np.errstate(over="ignore", under="ignore"):
        rt = r * t
    bad = np.flatnonzero(~np.isfinite(rt) | (rt == 0.0) | (t <= 0.0))
    if bad.size:
        raise ValueError("Potter bound excess is not finite at pair (r, t) = (%r, %r)"
                         % (float(r[bad[0]]), float(t[bad[0]])))
    taus = [math.log(x) for x in t.tolist()]
    log_bound = order.rho * np.array(taus) + log_potter_factor(order, taus)
    excess = order.log_scale(rt) - (log_bound + order.log_scale(r))
    worst, worst_pair = 0.0, None
    if excess.size and excess.max() > 0.0:
        k = int(np.argmax(excess))
        worst, worst_pair = float(excess[k]), (float(r[k]), float(t[k]))
    violation = math.expm1(worst)
    return PotterReport(max_violation=violation, worst_pair=worst_pair,
                        passed=violation <= tolerance, tolerance=tolerance)


def potter_decay_scan(order, t_grid):
    """Rows (t, ln gamma(t)/ln t, ln gamma(1/t)/ln t) over a t grid with t > e.

    Both rows tend to zero as t grows; for the concave families the forward
    column is exactly ln W(t)/ln t.
    """
    ts = [float(t) for t in t_grid]
    bad = [t for t in ts if not math.e < t < math.inf]
    if bad:
        raise ValueError("decay scan requires finite t > e, got %r" % bad[0])
    lts = [math.log(t) for t in ts]
    fwd, bwd = log_potter_factor(order, [lts, [math.log(1.0 / t) for t in ts]]) / lts
    return list(zip(ts, fwd.tolist(), bwd.tolist()))


def poisson_smoothed_scale(order, r, quad=DEFAULT_QUAD):
    """Harmonic smoothing (2r/pi) * integral of W(t)/(t^2+r^2) dt over (0,oo).

    Defined for zero orders only; the smoothed scale is holomorphic in the
    right half-plane, symmetric under r -> 1/r and asymptotic to W(r).
    """
    r = float(r)
    if r <= 0.0:
        raise ValueError("poisson smoothing requires r > 0")
    if order.rho != 0.0:
        raise ValueError("poisson smoothing is defined for zero orders")

    # substitute t = r*u so the kernel peak sits at u ~ 1
    def integrand(u):
        return order.zero_scale(r * u) / (u * u + 1.0)

    val = improper_quad(integrand, 0.0, None, quad)
    return float((2.0 / math.pi) * val.real)
