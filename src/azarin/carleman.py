"""Carleman transform of a measure on the real line.

G_plus(z) integrates e^{itz} over [0, oo) for Im z > 0, G_minus(z) is minus
the integral over (-oo, 0] for Im z < 0; an atom at the origin is halved on
both sides (the primed-integral convention).  Points of the real axis where
the two halves fail to glue form the spectrum; numerically we flag the
points where the jump |G_plus(x+ih) - G_minus(x-ih)| refuses to decay as
h drops.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RealMeasure", "CarlemanTransform", "carleman_bound_report",
    "spectrum_jump_scan", "JumpScanReport",
]


@dataclass(frozen=True)
class RealMeasure:
    """Atoms plus oscillatory-exponential density pieces on the line.

    Density pieces are (lo, hi, coef, freq) meaning coef * e^{i freq x} dx
    on (lo, hi); lo = None / hi = None stand for -oo / +oo.  The unit-mass
    hypothesis |mu|([a, b]) <= M for b - a <= 1 holds with
    M = sum |atoms| + sum |coef|.
    """
    atoms: tuple = ()
    pieces: tuple = ()

    def mass_bound(self):
        return (sum(abs(complex(w)) for _, w in self.atoms)
                + sum(abs(complex(c)) for _, _, c, _ in self.pieces))


class CarlemanTransform:

    def __init__(self, measure):
        self.measure = measure
        from .numerics import _XGK, _WGK
        self._nodes = _XGK
        self._weights = _WGK

    def _panel_integral(self, fn, a, b, freq):
        """Oscillation-aware fixed panels, GK15 nodes per panel."""
        if b <= a:
            return 0.0 + 0.0j
        width = min(1.0, 2.0 * math.pi / (abs(freq) + 1.0) / 3.0)
        n = max(2, int(math.ceil((b - a) / width)))
        edges = np.linspace(a, b, n + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        pts = mid[:, None] + half[:, None] * self._nodes[None, :]
        vals = fn(pts.ravel()).reshape(pts.shape)
        return complex(np.sum(half[:, None] * vals * self._weights[None, :]))

    def value(self, z):
        """G_plus for Im z > 0, G_minus for Im z < 0."""
        z = complex(z)
        y = z.imag
        if y == 0.0:
            raise ValueError("the transform is defined off the real axis")
        sign = 1.0 if y > 0.0 else -1.0
        # length beyond which the damping e^{-|t y|} is negligible
        span = (36.0 + math.log1p(self.measure.mass_bound())) / abs(y)
        total = 0.0 + 0.0j
        for x, w in self.measure.atoms:
            x = float(x)
            w = complex(w)
            if x == 0.0:
                total += 0.5 * w
            elif sign > 0 and x > 0 and x * abs(y) < 60.0:
                total += w * cmath.exp(1j * x * z)
            elif sign < 0 and x < 0 and abs(x) * abs(y) < 60.0:
                total += w * cmath.exp(1j * x * z)
        for lo, hi, coef, freq in self.measure.pieces:
            coef = complex(coef)
            freq = float(freq)
            if sign > 0:
                a = 0.0 if lo is None else max(0.0, float(lo))
                b = span if hi is None else min(float(hi), span)
            else:
                a = -span if lo is None else max(float(lo), -span)
                b = 0.0 if hi is None else min(0.0, float(hi))
            if b <= a:
                continue

            def fn(t, coef=coef, freq=freq):
                return coef * np.exp(1j * (freq + z) * t)

            total += self._panel_integral(fn, a, b, freq + z.real)
        return total if sign > 0 else -total


@dataclass(frozen=True)
class CarlemanBoundReport:
    max_ratio: float
    passed: bool
    worst_point: complex


def carleman_bound_report(ct, bound_constant, x_grid=None, y_grid=None,
                          slack=1e-6):
    """Check |G(z)| <= M (1 + 1/|y|) over a grid off the real axis."""
    if x_grid is None:
        x_grid = np.linspace(-50.0, 50.0, 41)
    if y_grid is None:
        y_grid = np.concatenate([np.geomspace(0.05, 10.0, 12),
                                 -np.geomspace(0.05, 10.0, 12)])
    worst = 0.0
    worst_pt = complex(0.0, 1.0)
    for x in x_grid:
        for y in y_grid:
            z = complex(float(x), float(y))
            val = abs(ct.value(z))
            cap = bound_constant * (1.0 + 1.0 / abs(y))
            ratio = val / cap
            if ratio > worst:
                worst = ratio
                worst_pt = z
    return CarlemanBoundReport(max_ratio=worst, passed=worst <= 1.0 + slack,
                               worst_point=worst_pt)


@dataclass(frozen=True)
class JumpScanReport:
    flagged: tuple
    rows: tuple
    heights: tuple


def spectrum_jump_scan(ct, x_window, step=0.05,
                       heights=(0.16, 0.08, 0.04, 0.02, 0.01),
                       noise_floor=1e-6):
    """Boundary-jump diagnostic for the spectrum.

    For each x on the grid the jump |G_plus(x+ih) - G_minus(x-ih)| is
    tracked along the decreasing height ladder; x is flagged when the jump
    fails to decay (grows from the largest to the smallest height) and
    sits above the noise floor.
    """
    lo, hi = x_window
    n = int(round((hi - lo) / step)) + 1
    xs = np.linspace(lo, hi, n)
    heights = tuple(sorted(heights, reverse=True))
    rows = []
    flagged = []
    for x in xs:
        jumps = []
        for h in heights:
            up = ct.value(complex(x, h))
            dn = ct.value(complex(x, -h))
            jumps.append(abs(up - dn))
        rows.append((float(x), tuple(jumps)))
        if jumps[-1] > max(noise_floor, jumps[0]):
            flagged.append(float(x))
    return JumpScanReport(flagged=tuple(flagged), rows=tuple(rows),
                          heights=heights)
