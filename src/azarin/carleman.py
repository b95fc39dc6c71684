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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "RealMeasure", "CarlemanTransform", "carleman_bound_report",
    "spectrum_jump_scan", "JumpScanReport",
]

_JUMP_HEIGHTS = (0.16, 0.08, 0.04, 0.02, 0.01)


@dataclass(frozen=True)
class RealMeasure:
    """Atoms plus oscillatory-exponential density pieces on the line.

    Density pieces are (lo, hi, coef, freq) meaning coef * e^{i freq x} dx
    on (lo, hi); lo = None / hi = None stand for -oo / +oo.  The unit-mass
    hypothesis |mu|([a, b]) <= M for b - a <= 1 holds with
    M = sum |atoms| + sum |coef|, so that sum is a valid ``bound_constant``
    for ``carleman_bound_report``.
    """
    atoms: tuple = ()
    pieces: tuple = ()


class CarlemanTransform:

    def __init__(self, measure):
        self.measure = measure

    def value(self, z):
        """G_plus for Im z > 0, G_minus for Im z < 0.

        Each density piece is summed in closed form.  On the summed side
        let near be the piece's end nearer the origin and far its other
        end; with w = freq + z, the integral of e^{iwt} from near to far is
        e^{iw near} * expm1(iw (far - near)) / (iw), and an infinite far
        end makes expm1 exactly -1.  Im w = Im z damps away from the origin
        on that side, so neither factor overflows and nothing is truncated.
        """
        z = complex(z)
        if z.imag == 0.0:
            raise ValueError("the transform is defined off the real axis")
        sign = 1.0 if z.imag > 0.0 else -1.0
        total = 0.0 + 0.0j
        for x, w in self.measure.atoms:
            x = float(x)
            if x == 0.0:
                total += 0.5 * complex(w)
            elif sign * x > 0.0:
                total += complex(w) * cmath.exp(1j * x * z)
        for lo, hi, coef, freq in self.measure.pieces:
            if sign > 0:
                near = 0.0 if lo is None else max(0.0, float(lo))
                far = hi
            else:
                near = 0.0 if hi is None else min(0.0, float(hi))
                far = lo
            iw = 1j * (float(freq) + z)
            if far is None:
                tail = -1.0
            elif sign * (float(far) - near) > 0.0:
                tail = complex(np.expm1(iw * (float(far) - near)))
            else:
                continue
            total += sign * complex(coef) * cmath.exp(iw * near) * tail / iw
        return total if sign > 0 else -total


class CarlemanBoundReport(NamedTuple):
    max_ratio: float
    passed: bool
    worst_point: complex


def carleman_bound_report(ct, bound_constant):
    """Check |G(z)| <= M (1 + 1/|y|), within 1e-6, over a grid off the real axis."""
    heights = np.geomspace(0.05, 10.0, 12)
    ys = np.concatenate([heights, -heights])
    worst = 0.0
    worst_pt = complex(0.0, 1.0)
    for x in np.linspace(-50.0, 50.0, 41):
        for y in ys:
            z = complex(float(x), float(y))
            val = abs(ct.value(z))
            cap = bound_constant * (1.0 + 1.0 / abs(y))
            ratio = val / cap
            if ratio > worst:
                worst = ratio
                worst_pt = z
    return CarlemanBoundReport(max_ratio=worst, passed=worst <= 1.0 + 1e-6,
                               worst_point=worst_pt)


class JumpScanReport(NamedTuple):
    flagged: tuple
    rows: tuple
    heights: tuple


def spectrum_jump_scan(ct, x_window):
    """Boundary-jump diagnostic for the spectrum.

    For each x on the grid of step 0.05 the jump
    |G_plus(x+ih) - G_minus(x-ih)| is tracked down the heights
    ``_JUMP_HEIGHTS``; x is flagged when the jump fails to decay (grows
    from the largest to the smallest height) and sits above 1e-6.
    """
    lo, hi = x_window
    n = int(round((hi - lo) / 0.05)) + 1
    xs = np.linspace(lo, hi, n)
    rows = []
    flagged = []
    for x in xs:
        jumps = []
        for h in _JUMP_HEIGHTS:
            up = ct.value(complex(x, h))
            dn = ct.value(complex(x, -h))
            jumps.append(abs(up - dn))
        rows.append((float(x), tuple(jumps)))
        if jumps[-1] > max(1e-6, jumps[0]):
            flagged.append(float(x))
    return JumpScanReport(flagged=tuple(flagged), rows=tuple(rows),
                          heights=_JUMP_HEIGHTS)
