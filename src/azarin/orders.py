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
    # read-only arrays built once: xs, etas, the trapezoid integral of eta
    # at each node, the K signed knots k_j = +-x_i, h and h' at each k_j on
    # the piece right of it, and one row per signed piece [k_j, k_(j+1)),
    # j = -1 .. K-1: |base|, cum, eta, h''/2 (0 beyond the last node), sign
    # and k_(j+1) (inf for j = K-1)
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
        arrays = (xs.copy(), etas.copy(), cum, knots,
                  *_on_pieces(knots, pieces[1:].T)[:2], pieces)
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


def _right_of(knots, y):
    """``np.searchsorted(knots, [y, knots - tau], side="right")`` for the
    symmetric signed knots and y = knots + tau, with one search: knots - tau
    is -y reversed, so its search is n less the left search of y, reversed
    (where the right search r is 0, knots[r - 1] > y)."""
    r = np.searchsorted(knots, y, side="right")
    return np.concatenate([r, (knots.size - r + (knots[r - 1] == y))[::-1]])


def _tabulated_supremum(zero_part, tau):
    """sup_x h(x + tau) - h(x) for a TabulatedZero, exactly.

    h(x) = H(|x|) with H quadratic between the nodes and linear beyond the
    last, so g(x) = h(x + tau) - h(x) is quadratic between the merged knots
    {+-x_i} and {+-x_i - tau}, and constant left of the first and right of
    the last.  Its supremum is the largest of g at the knots and g at the
    vertex of each concave piece whose vertex lies inside the piece.

    A merged piece starts at a signed knot k_j, where the knot tables give
    h(x), or at k_j - tau, where h(x + tau) lies on the signed piece right
    of k_j.  One search of the knots for every k_j +- tau finds the other
    term's piece and the merged piece's end, so nothing is sorted.
    """
    knots, h_knot, dh_knot, pieces = zero_part._cum[3:]
    n = knots.size
    probe = np.concatenate([knots + tau, knots - tau])
    rows = np.take(pieces, _right_of(knots, probe[:n]), axis=0).T
    h, dh, c = _on_pieces(probe, rows)
    shifted = probe[n:]
    h_own, dh_own, c_own = _on_pieces(shifted + tau, pieces[1:].T)   # at the rounded x + tau
    g = np.concatenate([h[:n] - h_knot, h_own - h[n:]])
    dg = np.concatenate([dh[:n] - dh_knot, dh_own - dh[n:]])
    fall = 2.0 * np.concatenate([c_own - c[:n], c[n:] - c_own])   # -g''
    end = pieces[1:, 5]
    width = np.concatenate([np.minimum(end, rows[5, :n] - tau) - knots,
                            np.minimum(rows[5, n:], end - tau) - shifted])
    with np.errstate(invalid="ignore"):   # the unbounded last piece: 0 * inf
        vertex = (dg > 0.0) & (dg < fall * width)
    best = g.max()
    if vertex.any():
        best = max(best, (g[vertex] + 0.5 * dg[vertex] ** 2 / fall[vertex]).max())
    return float(best)


def log_potter_factor(order, tau):
    """ln potter_factor(order, e**tau) at a number or an array of tau, in its
    shape, finite where e**tau or the factor is not.  A closed form (flat or
    concave) takes the whole array; a search runs once per distinct tau."""
    tau = np.asarray(tau, dtype=float)
    zero_part = order.zero_part
    if zero_part.concave_log_scale:
        out = zero_part.log_scale(tau)
    else:
        search = (_tabulated_supremum if isinstance(zero_part, TabulatedZero)
                  else _grid_supremum)
        taus = tau.ravel().tolist()
        sup = {x: float(search(zero_part, x)) if x else 0.0 for x in dict.fromkeys(taus)}
        out = np.reshape([sup[x] for x in taus], tau.shape)
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
    if any(t <= math.e for t in ts):
        raise ValueError("decay scan requires t > e")
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
