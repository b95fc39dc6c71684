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
_JUMP_STEP = 0.05
# the most x of one jump scan, each of which takes 10 transform values
_JUMP_POINTS = 2 ** 20
# a jump scan takes the transform in one ``values`` call per block of this many x
_JUMP_BLOCK = 4096


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

    @np.errstate(under="ignore")   # a far atom's term is 0, as in ``value``
    def values(self, zs):
        """``value`` at each z of an array, by the closed form derived there;
        each term is taken only on its own side of the axis, where it decays."""
        zs = np.asarray(zs, dtype=complex)
        if np.any(zs.imag == 0.0):
            raise ValueError("the transform is defined off the real axis")
        out = np.empty(zs.shape, dtype=complex)
        above = zs.imag > 0.0
        for sign, side in ((1.0, above), (-1.0, ~above)):
            z = zs[side]
            total = np.zeros(z.shape, dtype=complex)
            for x, w in self.measure.atoms:
                if x == 0.0:
                    total += 0.5 * complex(w)
                elif sign * x > 0.0:
                    total += complex(w) * np.exp(1j * x * z)
            for lo, hi, coef, freq in self.measure.pieces:
                near, far = ((0.0 if lo is None else max(0.0, float(lo)), hi)
                             if sign > 0 else
                             (0.0 if hi is None else min(0.0, float(hi)), lo))
                iw = 1j * (float(freq) + z)
                if far is None:
                    tail = -1.0
                elif sign * (float(far) - near) > 0.0:
                    tail = np.expm1(iw * (float(far) - near))
                else:
                    continue
                total += sign * complex(coef) * np.exp(iw * near) * tail / iw
            out[side] = total if sign > 0 else -total
        return out


class CarlemanBoundReport(NamedTuple):
    max_ratio: float
    passed: bool
    worst_point: complex


def carleman_bound_report(ct, bound_constant):
    """Check |G(z)| <= M (1 + 1/|y|), within 1e-6, over a grid off the real axis."""
    heights = np.geomspace(0.05, 10.0, 12)
    ys = np.concatenate([heights, -heights])
    zs = np.linspace(-50.0, 50.0, 41)[:, None] + 1j * ys
    vals = ct.values(zs)
    ratios = (np.hypot(vals.real, vals.imag)
              / (bound_constant * (1.0 + 1.0 / np.abs(ys)))).ravel()
    # the first strict maximum in x-major order; a NaN ratio never wins
    k = int(np.argmax(np.where(ratios > 0.0, ratios, 0.0)))
    worst, worst_pt = ((float(ratios[k]), complex(zs.flat[k])) if ratios[k] > 0.0
                       else (0.0, 1j))
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
    from the largest to the smallest height) and sits above 1e-6.  A
    window of more than ``_JUMP_POINTS`` grid points is a ValueError,
    raised before the grid is built.
    """
    lo, hi = x_window
    count = (hi - lo) / _JUMP_STEP   # inf past the float range, never an error
    if not count + 1.0 <= _JUMP_POINTS:
        raise ValueError("%.3g points at step %g is more than %d"
                         % (count + 1.0, _JUMP_STEP, _JUMP_POINTS))
    xs = np.linspace(lo, hi, int(round(count)) + 1)
    hs = np.array(_JUMP_HEIGHTS)
    rows, flagged = [], []
    for start in range(0, len(xs), _JUMP_BLOCK):
        block = xs[start:start + _JUMP_BLOCK]
        vals = ct.values(block[:, None] + 1j * np.concatenate([hs, -hs]))
        gap = vals[:, :len(hs)] - vals[:, len(hs):]
        jumps = np.hypot(gap.real, gap.imag)
        rows.extend(zip(block.tolist(), map(tuple, jumps.tolist())))
        # fmax, as Python's max, passes over a NaN first jump
        flagged.extend(block[jumps[:, -1] > np.fmax(1e-6, jumps[:, 0])].tolist())
    return JumpScanReport(flagged=tuple(flagged), rows=tuple(rows),
                          heights=_JUMP_HEIGHTS)
