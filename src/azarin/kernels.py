"""Borel kernels K on (0, oo) for the convolution transform.

Each kernel is vectorized and declares its support, breakpoints
(integration split points) and singular points.  The smooth bump carries
exact derivative evaluators built from the polynomial recurrence for
d^k/dx^k exp(-1/(1-x^2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Kernel", "ExpKernel", "IndicatorKernel", "StepKernel", "PowerCutKernel",
    "LogSingularKernel", "SmoothBumpKernel", "TableKernel",
]


class Kernel:
    support = (0.0, math.inf)
    singular_points = ()

    def __call__(self, t):
        raise NotImplementedError

    def breakpoints(self):
        lo, hi = self.support
        pts = []
        if lo > 0.0:
            pts.append(lo)
        if not math.isinf(hi):
            pts.append(hi)
        return pts


@dataclass(frozen=True)
class ExpKernel(Kernel):
    """K(t) = exp(-t)."""

    def __call__(self, t):
        return np.exp(-np.asarray(t, dtype=float))


@dataclass(frozen=True)
class IndicatorKernel(Kernel):
    """Indicator of (lo, hi]."""
    lo: float = 0.0
    hi: float = 1.0

    @property
    def support(self):
        return (self.lo, self.hi)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return ((t > self.lo) & (t <= self.hi)).astype(float)


@dataclass(frozen=True)
class StepKernel(Kernel):
    """Finite combination sum_i coef_i * t**exp_i * chi_(lo_i, hi_i].

    With all exponents zero this is the plain step combination; a nonzero
    exponent gives a power-weighted window (used to move a kernel between
    the rho = 0 and rho = 1 formulations of the transform).
    """
    steps: tuple = ()  # entries (coef, lo, hi) or (coef, lo, hi, exponent)

    def _norm(self):
        out = []
        for s in self.steps:
            if len(s) == 3:
                c, lo, hi = s
                e = 0.0
            else:
                c, lo, hi, e = s
            out.append((complex(c), float(lo), float(hi), float(e)))
        return out

    @property
    def support(self):
        steps = self._norm()
        return (min(s[1] for s in steps), max(s[2] for s in steps))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape, dtype=complex)
        for c, lo, hi, e in self._norm():
            mask = (t > lo) & (t <= hi)
            if mask.any():
                out[mask] += c * t[mask] ** e if e else c
        if np.all(np.abs(out.imag) == 0.0):
            return out.real
        return out

    def breakpoints(self):
        pts = set()
        for _, lo, hi, _ in self._norm():
            if lo > 0.0:
                pts.add(lo)
            pts.add(hi)
        return sorted(pts)


@dataclass(frozen=True)
class PowerCutKernel(Kernel):
    """K(t) = t**exponent on (0, cut], zero beyond."""
    exponent: complex = 0.0
    cut: float = 1.0

    @property
    def support(self):
        return (0.0, self.cut)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape, dtype=complex)
        mask = (t > 0.0) & (t <= self.cut)
        out[mask] = np.exp(complex(self.exponent) * np.log(t[mask]))
        if np.all(out.imag == 0.0):
            return out.real
        return out


@dataclass(frozen=True)
class LogSingularKernel(Kernel):
    """K(t) = ln|1 - 1/t|, singular at t = 1, decaying like -1/t at infinity.

    Evaluated through log1p branches so the slow tail keeps full precision
    (naively 1 - 1/t rounds to 1 once t exceeds ~1e16).
    """
    singular_points = (1.0,)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape, dtype=float)
        hi = t > 2.0
        lo = (t > 0.0) & (t < 0.5)
        mid = ~hi & ~lo
        with np.errstate(divide="ignore", invalid="ignore"):
            out[hi] = np.log1p(-1.0 / t[hi])
            out[lo] = np.log1p(-t[lo]) - np.log(t[lo])
            out[mid] = np.log(np.abs(t[mid] - 1.0)) - np.log(t[mid])
        return out

    def breakpoints(self):
        return [1.0]


def _bump_derivative_polys(n_max):
    """Polynomials P_k with d^k/dx^k exp(-1/(1-x^2)) = P_k(x)/(1-x^2)^(2k) * exp(...).

    Recurrence: P_{k+1} = (P_k' (1-x^2) + 4 k x P_k)(1-x^2) - 2 x P_k.
    """
    from numpy.polynomial import polynomial as P
    one_minus = np.array([1.0, 0.0, -1.0])   # 1 - x^2
    two_x = np.array([0.0, 2.0])
    polys = [np.array([1.0])]
    for k in range(n_max):
        pk = polys[-1]
        term = P.polymul(P.polyadd(P.polymul(P.polyder(pk), one_minus),
                                   P.polymul(np.array([0.0, 4.0 * k]), pk)),
                         one_minus)
        term = P.polysub(term, P.polymul(two_x, pk))
        polys.append(term)
    return polys


@dataclass(frozen=True)
class SmoothBumpKernel(Kernel):
    """C-infinity bump exp(1 - 1/(1-x^2)) on [lo, hi], x the affine map to [-1,1].

    ``derivative(j)`` returns an exact evaluator of K^(j) for j <= n_max.
    """
    lo: float = 1.0
    hi: float = 2.0
    n_max: int = 6
    _polys: tuple = field(default=None, compare=False, repr=False)

    @property
    def support(self):
        return (self.lo, self.hi)

    def _poly(self, k):
        if self._polys is None:
            object.__setattr__(self, "_polys", tuple(_bump_derivative_polys(self.n_max + 1)))
        return self._polys[k]

    def _x(self, t):
        t = np.asarray(t, dtype=float)
        return (2.0 * t - (self.lo + self.hi)) / (self.hi - self.lo)

    def __call__(self, t):
        return self.derivative(0)(t)

    def derivative(self, j):
        if j > self.n_max:
            raise ValueError("derivatives available up to order %d" % self.n_max)
        poly = self._poly(j)
        chain = (2.0 / (self.hi - self.lo)) ** j

        def evaluate(t):
            x = self._x(t)
            out = np.zeros(x.shape, dtype=float)
            inside = np.abs(x) < 1.0
            if inside.any():
                xi = x[inside]
                u = 1.0 - xi * xi
                vals = np.polynomial.polynomial.polyval(xi, poly)
                out[inside] = (math.e * chain * vals * np.exp(-1.0 / u)
                               / u ** (2 * j))
            return out

        return evaluate


@dataclass(frozen=True)
class TableKernel(Kernel):
    """Piecewise-linear kernel through (node, value) pairs; zero outside."""
    nodes: tuple = ()
    values: tuple = ()

    def __post_init__(self):
        nodes = tuple(float(x) for x in self.nodes)
        if len(nodes) < 2 or any(b <= a for a, b in zip(nodes, nodes[1:])):
            raise ValueError("nodes must strictly increase")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    @property
    def support(self):
        return (self.nodes[0], self.nodes[-1])

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return np.interp(t, self.nodes, self.values, left=0.0, right=0.0)

    def breakpoints(self):
        return list(self.nodes)


def trapezoid_kernel(lo, hi, ramp=None):
    """Convenience: trapezoid bump as a TableKernel."""
    ramp = ramp if ramp is not None else (hi - lo) / 4.0
    return TableKernel(nodes=(lo, lo + ramp, hi - ramp, hi),
                       values=(0.0, 1.0, 1.0, 0.0))
