"""Constructive Radon measures on (0, oo).

A measure is a finite list of atoms plus piecewise densities, optionally
extended to the whole half-line by a self-similar rule mu(T E) = T**rho mu(E).
Everything is sign/complex-explicit, so the total variation is available
piecewise without any abstract decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .numerics import DEFAULT_QUAD, WindowError, improper_quad, log_quad

__all__ = [
    "UnitFactor", "LogFactor", "LogPerturbFactor", "ZeroScaleFactor",
    "DensityPiece", "TabulatedPiece", "SelfSimilarTail", "RadonMeasure",
    "TestFunction", "MetricFamily", "azarin_scale", "upper_density",
    "lower_density", "class_membership", "DensityEstimate",
]


# ---------------------------------------------------------------------------
# density factors and pieces


class UnitFactor:
    def __call__(self, t):
        return np.ones_like(np.asarray(t, dtype=float))


@dataclass(frozen=True)
class LogFactor:
    power: int = 1

    def __call__(self, t):
        return np.log(np.asarray(t, dtype=float)) ** self.power


@dataclass(frozen=True)
class LogPerturbFactor:
    """Slowly decaying perturbation 1 + 1/ln(e+t) (or 1 + 1/(1+ln(e+t)))."""
    style: str = "inv_log"

    def __post_init__(self):
        if self.style not in ("inv_log", "inv_log1p"):
            raise ValueError("unknown perturbation style %r" % self.style)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.style == "inv_log":
            return 1.0 + 1.0 / np.log(math.e + t)
        return 1.0 + 1.0 / (1.0 + np.log(math.e + t))


@dataclass(frozen=True)
class ZeroScaleFactor:
    """The zero-part scale W(t) of a proximate order."""
    zero_part: object

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return np.exp(self.zero_part.log_scale(np.log(t)))


_UNIT = UnitFactor()


@dataclass(frozen=True)
class DensityPiece:
    """Density coef * t**exponent * factor(arg_scale * t) on (lo, hi]."""
    lo: float
    hi: float  # math.inf allowed
    coef: complex = 1.0 + 0.0j
    exponent: complex = 0.0 + 0.0j
    factor: object = _UNIT
    arg_scale: float = 1.0

    def density(self, t):
        t = np.asarray(t, dtype=float)
        mask = (t > self.lo) & (t <= self.hi)
        out = np.zeros(t.shape, dtype=complex)
        if mask.any():
            ts = t[mask]
            out[mask] = (self.coef * np.exp(self.exponent * np.log(ts))
                         * self.factor(self.arg_scale * ts))
        return out

    def scaled(self, t, scale_value):
        return replace(
            self,
            lo=self.lo / t,
            hi=self.hi / t if not math.isinf(self.hi) else math.inf,
            coef=self.coef * t ** (self.exponent + 1.0) / scale_value,
            arg_scale=self.arg_scale * t,
        )

    def dilated(self, factor, mass_factor):
        """Image under E -> factor*E carrying mass_factor (self-similar step)."""
        return replace(
            self,
            lo=self.lo * factor,
            hi=self.hi * factor if not math.isinf(self.hi) else math.inf,
            coef=self.coef * mass_factor / factor ** (self.exponent + 1.0),
            arg_scale=self.arg_scale / factor,
        )

    def closed_form_mass(self, a, b):
        """Exact integral over (a, b] for pure power pieces, else None."""
        if not isinstance(self.factor, UnitFactor):
            return None
        a = max(a, self.lo)
        b = min(b, self.hi)
        if b <= a:
            return 0.0 + 0.0j
        s = self.exponent
        if s == -1.0 + 0.0j:
            return self.coef * (math.log(b) - math.log(a))
        p = s + 1.0
        return self.coef * (np.exp(p * math.log(b)) - np.exp(p * math.log(a))) / p

    def breakpoints(self):
        pts = [self.lo]
        if not math.isinf(self.hi):
            pts.append(self.hi)
        return pts


@dataclass(frozen=True)
class TabulatedPiece:
    """Density tabulated on a log grid with cubic interpolation in ln t."""
    lo: float
    hi: float
    log_nodes: tuple
    values: tuple
    _spline: object = field(default=None, compare=False, repr=False)

    def _interp(self):
        if self._spline is None:
            from scipy.interpolate import CubicSpline
            spline = CubicSpline(np.asarray(self.log_nodes),
                                 np.asarray(self.values, dtype=complex))
            object.__setattr__(self, "_spline", spline)
        return self._spline

    def density(self, t):
        t = np.asarray(t, dtype=float)
        mask = (t > self.lo) & (t <= self.hi)
        out = np.zeros(t.shape, dtype=complex)
        if mask.any():
            out[mask] = self._interp()(np.log(t[mask]))
        return out

    def scaled(self, t, scale_value):
        lt = math.log(t)
        return TabulatedPiece(
            lo=self.lo / t, hi=self.hi / t,
            log_nodes=tuple(x - lt for x in self.log_nodes),
            values=tuple(v * t / scale_value for v in self.values),
        )

    def dilated(self, factor, mass_factor):
        lf = math.log(factor)
        return TabulatedPiece(
            lo=self.lo * factor, hi=self.hi * factor,
            log_nodes=tuple(x + lf for x in self.log_nodes),
            values=tuple(v * mass_factor / factor for v in self.values),
        )

    def closed_form_mass(self, a, b):
        return None

    def breakpoints(self):
        return [self.lo, self.hi]


@dataclass(frozen=True)
class SelfSimilarTail:
    """Extension rule mu(T E) = T**rho mu(E) from a base window [base_lo, T*base_lo)."""
    period: float
    rho: float
    base_lo: float = 1.0

    def image_range(self, lo, hi):
        """Indices k with T^k * base window intersecting (lo, hi]."""
        lt = math.log(self.period)
        k_lo = math.floor((math.log(lo) - math.log(self.base_lo * self.period)) / lt)
        k_hi = math.ceil((math.log(hi) - math.log(self.base_lo)) / lt)
        return range(k_lo, k_hi + 1)


class RadonMeasure:
    """Atoms + piecewise densities, optionally self-similarly extended."""

    def __init__(self, atoms=(), pieces=(), tail=None, window=(0.0, math.inf)):
        atoms = sorted(((float(x), complex(w)) for x, w in atoms),
                       key=lambda a: a[0])
        if any(x <= 0.0 for x, _ in atoms):
            raise ValueError("atom locations must be positive")
        self.atom_x = np.array([x for x, _ in atoms], dtype=float)
        self.atom_w = np.array([w for _, w in atoms], dtype=complex)
        self.pieces = tuple(pieces)
        self.tail = tail
        self.window = (float(window[0]), float(window[1]))
        if tail is not None:
            hi = tail.base_lo * tail.period
            if self.atom_x.size and not (np.all(self.atom_x >= tail.base_lo)
                                         and np.all(self.atom_x < hi)):
                raise ValueError("self-similar base atoms must lie in the base window")
            self.window = (0.0, math.inf)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def zero():
        return RadonMeasure()

    @staticmethod
    def from_atoms(atoms, **kw):
        return RadonMeasure(atoms=atoms, **kw)

    @staticmethod
    def power_density(exponent, coef=1.0, interval=(0.0, math.inf), factor=_UNIT):
        lo, hi = interval
        hi = math.inf if hi is None else hi
        return RadonMeasure(pieces=(DensityPiece(lo=float(lo), hi=float(hi),
                                                 coef=complex(coef),
                                                 exponent=complex(exponent),
                                                 factor=factor),))

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other):
        if self.tail is not None or other.tail is not None:
            if self.tail != other.tail:
                if self.is_trivial():
                    return other
                if other.is_trivial():
                    return self
                raise ValueError("cannot add measures with different tail rules")
        return RadonMeasure(
            atoms=list(zip(self.atom_x, self.atom_w)) + list(zip(other.atom_x, other.atom_w)),
            pieces=self.pieces + other.pieces,
            tail=self.tail,
            window=(max(self.window[0], other.window[0]),
                    min(self.window[1], other.window[1])),
        )

    def __mul__(self, c):
        c = complex(c)
        out = RadonMeasure.__new__(RadonMeasure)
        out.atom_x = self.atom_x
        out.atom_w = self.atom_w * c
        out.pieces = tuple(replace(p, coef=p.coef * c) if isinstance(p, DensityPiece)
                           else TabulatedPiece(p.lo, p.hi, p.log_nodes,
                                               tuple(v * c for v in p.values))
                           for p in self.pieces)
        out.tail = self.tail
        out.window = self.window
        return out

    __rmul__ = __mul__

    def __sub__(self, other):
        return self + (other * (-1.0))

    def is_trivial(self):
        return self.atom_x.size == 0 and not self.pieces

    # -- window bookkeeping -----------------------------------------------------

    def _check_window(self, lo, hi):
        if self.tail is not None:
            return
        if lo < self.window[0] or hi > self.window[1]:
            raise WindowError(
                "query (%g, %g] exceeds the representable window (%g, %g]"
                % (lo, hi, self.window[0], self.window[1]))

    # -- pointwise data ---------------------------------------------------------

    def atoms_in(self, lo, hi):
        """Atoms with location in (lo, hi], self-similar images included."""
        if self.tail is None:
            i = np.searchsorted(self.atom_x, lo, side="right")
            j = np.searchsorted(self.atom_x, hi, side="right")
            return self.atom_x[i:j], self.atom_w[i:j]
        if self.atom_x.size == 0:
            return np.empty(0), np.empty(0, dtype=complex)
        xs, ws = [], []
        T, rho = self.tail.period, self.tail.rho
        for k in self.tail.image_range(lo, hi):
            pos = self.atom_x * T ** float(k)
            wts = self.atom_w * T ** (rho * float(k))
            mask = (pos > lo) & (pos <= hi)
            xs.append(pos[mask])
            ws.append(wts[mask])
        xs = np.concatenate(xs) if xs else np.empty(0)
        ws = np.concatenate(ws) if ws else np.empty(0, dtype=complex)
        order = np.argsort(xs, kind="stable")
        return xs[order], ws[order]

    def _tail_pieces(self, lo, hi):
        T, rho = self.tail.period, self.tail.rho
        out = []
        for k in self.tail.image_range(lo, hi):
            factor = T ** float(k)
            mass_factor = T ** (rho * float(k))
            for p in self.pieces:
                out.append(p.dilated(factor, mass_factor))
        return out

    def _pieces_in(self, lo, hi):
        if self.tail is None:
            return [p for p in self.pieces if p.lo < hi and p.hi > lo]
        return [p for p in self._tail_pieces(lo, hi) if p.lo < hi and p.hi > lo]

    def density(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape, dtype=complex)
        lo = float(t.min()) if t.size else 1.0
        hi = float(t.max()) if t.size else 1.0
        for p in self._pieces_in(lo * 0.999999, hi * 1.000001):
            out += p.density(t)
        return out

    def abs_density(self, t):
        return np.abs(self.density(t))

    def breakpoints_in(self, lo, hi):
        pts = set()
        for p in self._pieces_in(lo, hi):
            for x in p.breakpoints():
                if lo < x < hi:
                    pts.add(float(x))
        return sorted(pts)

    def has_density(self):
        return bool(self.pieces)

    # -- integration ------------------------------------------------------------

    def mass(self, lo, hi, quad=DEFAULT_QUAD):
        """mu((lo, hi]) with 0 < lo < hi (finite)."""
        if not (0.0 < lo < hi < math.inf):
            raise ValueError("mass requires a compact (lo, hi] in (0, oo)")
        self._check_window(lo, hi)
        xs, ws = self.atoms_in(lo, hi)
        total = complex(np.sum(ws)) if ws.size else 0.0 + 0.0j
        for p in self._pieces_in(lo, hi):
            cf = p.closed_form_mass(lo, hi)
            if cf is not None:
                total += cf
            else:
                a = max(lo, p.lo)
                b = min(hi, p.hi)
                total += log_quad(p.density, a, b, quad,
                                  split_points=self.breakpoints_in(a, b))
        return total

    def abs_mass(self, lo, hi, quad=DEFAULT_QUAD):
        """|mu|((lo, hi]) from the explicit representation."""
        if not (0.0 < lo < hi < math.inf):
            raise ValueError("abs_mass requires a compact (lo, hi] in (0, oo)")
        self._check_window(lo, hi)
        xs, ws = self.atoms_in(lo, hi)
        total = float(np.sum(np.abs(ws))) if ws.size else 0.0
        if self.has_density():
            val = log_quad(self.abs_density, lo, hi, quad,
                           split_points=self.breakpoints_in(lo, hi))
            total += val.real
        return total

    def improper_mass(self, lo=0.0, hi=math.inf, quad=DEFAULT_QUAD, absolute=False):
        """mu over (lo, hi) with improper endpoints, Cauchy-window evaluated."""
        dens = self.abs_density if absolute else self.density

        def atom_terms(a, b):
            xs, ws = self.atoms_in(a, b)
            if not ws.size:
                return 0.0 + 0.0j
            if absolute:
                return complex(np.sum(np.abs(ws)))
            return complex(np.sum(ws))

        hull = self.hull()
        eff_lo = lo if lo > 0.0 else (hull[0] if hull[0] > 0.0 else 0.0)
        eff_hi = hi if not math.isinf(hi) else (hull[1] if not math.isinf(hull[1]) else None)
        if eff_lo != 0.0 and eff_hi is not None and eff_hi <= eff_lo:
            return 0.0 + 0.0j
        val = improper_quad(dens, eff_lo if eff_lo > 0.0 else 0.0, eff_hi, quad,
                            split_points=(), extra_terms=atom_terms)
        return val

    def hull(self):
        """Smallest (lo, hi) outside which the measure is known to vanish."""
        if self.tail is not None:
            return (0.0, math.inf)
        lo, hi = math.inf, 0.0
        if self.atom_x.size:
            lo = min(lo, float(self.atom_x[0]))
            hi = max(hi, float(self.atom_x[-1]))
        for p in self.pieces:
            lo = min(lo, p.lo if p.lo > 0 else 0.0)
            hi = max(hi, p.hi)
        if lo is math.inf:
            return (1.0, 1.0)
        return (lo, hi)

    # -- pairings ----------------------------------------------------------------

    def pair(self, f, quad=DEFAULT_QUAD):
        """(mu, f) = sum f(x_i) w_i + integral of f * density."""
        self._check_window(*f.support)
        return self.dilation_integrals(f, [1.0], [1.0], f.lo, f.hi, quad)[0]

    def dilation_integrals(self, g, scales, norms, lo, hi, quad=DEFAULT_QUAD):
        """Integrals of g(u) over u in (lo, hi] against mu(s u)/n.

        One value per scale s of ``scales`` and norm n of ``norms``: the
        atoms x with x/s in (lo, hi] add g(x/s) w/n, and the density adds
        the integral of g(u) (s/n) density(s u) du, split at
        ``g.breakpoints()`` and at the measure's breakpoints in u and graded
        at ``g.singular_points``.  A run of consecutive scales with the same
        measure breakpoints in u shares one vector ``log_quad``, so no
        column is split at another's breakpoints; a run of one scale
        integrates a scalar.  Pairings, flow pairings and kernel transform
        windows are all this integral.
        """
        out = [0.0 + 0.0j] * len(scales)
        if self.atom_x.size:
            for i, (s, n) in enumerate(zip(scales, norms)):
                xs, ws = self.atoms_in(s * lo, s * hi)
                if ws.size:
                    out[i] = complex(np.sum(g(xs / s) * (ws / n)))
        if not self.has_density():
            return out
        g_splits = [b for b in g.breakpoints() if lo < b < hi]
        sing = [p for p in g.singular_points if lo <= p <= hi]
        bps = self.breakpoints_in(min(scales) * lo, max(scales) * hi)
        m_splits = [[b / s for b in bps if s * lo < b < s * hi] for s in scales]
        for rows, splits in _split_runs(m_splits):
            n = rows.stop - rows.start
            if n == 1:
                s = scales[rows.start]
                gain = s / norms[rows.start]

                def integrand(u):
                    return self.density(u * s) * (g(u) * gain)
            else:
                s = np.asarray(scales[rows], dtype=float)
                gain = s / np.asarray(norms[rows], dtype=float)

                def integrand(u):
                    return (self.density(np.multiply.outer(u, s))
                            * (g(u)[:, None] * gain))

            parts = log_quad(integrand, lo, hi, quad,
                             split_points=g_splits + splits, singular_points=sing)
            for i, part in enumerate(parts.tolist() if n > 1 else [parts],
                                     rows.start):
                out[i] += part
        return out

    # -- Azarin transform ----------------------------------------------------------

    def scaled(self, order, t):
        """The transform mu_t(E) = mu(tE)/V(t)."""
        t = float(t)
        if t <= 0.0:
            raise ValueError("scaling parameter must be positive")
        v = float(order.scale(t))
        atoms = [(x / t, w / v) for x, w in zip(self.atom_x, self.atom_w)]
        pieces = tuple(p.scaled(t, v) for p in self.pieces)
        tail = None
        if self.tail is not None:
            tail = SelfSimilarTail(self.tail.period, self.tail.rho,
                                   self.tail.base_lo / t)
        out = RadonMeasure(atoms=atoms, pieces=pieces, tail=tail)
        if self.tail is None:
            out.window = (self.window[0] / t, self.window[1] / t
                          if not math.isinf(self.window[1]) else math.inf)
        return out

    # -- structure ----------------------------------------------------------------

    def is_positive(self):
        if np.any(np.abs(self.atom_w.imag) > 0) or np.any(self.atom_w.real < 0):
            return False
        for p in self.pieces:
            if isinstance(p, DensityPiece):
                if p.exponent.imag != 0.0 or p.coef.imag != 0.0 or p.coef.real < 0.0:
                    return False
                if isinstance(p.factor, LogFactor):
                    if p.lo < 1.0:
                        return False
            else:
                vals = np.asarray(p.values, dtype=complex)
                if np.any(np.abs(vals.imag) > 1e-300) or np.any(vals.real < 0.0):
                    return False
        return True

    def is_real(self):
        if np.any(np.abs(self.atom_w.imag) > 0):
            return False
        for p in self.pieces:
            if isinstance(p, DensityPiece):
                if p.exponent.imag != 0.0 or p.coef.imag != 0.0:
                    return False
            elif np.any(np.abs(np.asarray(p.values, dtype=complex).imag) > 1e-300):
                return False
        return True


def azarin_scale(measure, order, t):
    return measure.scaled(order, t)


# ---------------------------------------------------------------------------
# test functions and the metric


@dataclass(frozen=True)
class TestFunction:
    """Trapezoid bump: support [lo, hi], linear ramps of width ``ramp``.

    It declares breakpoints (its knots) and singular points as a kernel
    does, so a measure pairs with it and transforms by it alike.
    """
    lo: float
    hi: float
    ramp: float = None
    amplitude: float = 1.0

    __test__ = False  # not a pytest collection target
    singular_points = ()

    def __post_init__(self):
        if not (0.0 < self.lo < self.hi):
            raise ValueError("support must be a compact interval in (0, oo)")
        ramp = self.ramp if self.ramp is not None else (self.hi - self.lo) / 4.0
        if not (0.0 < ramp <= (self.hi - self.lo) / 2.0):
            raise ValueError("ramp width must fit in the support")
        object.__setattr__(self, "ramp", float(ramp))

    @property
    def support(self):
        return (self.lo, self.hi)

    @property
    def knots(self):
        return (self.lo, self.lo + self.ramp, self.hi - self.ramp, self.hi)

    def breakpoints(self):
        return list(self.knots)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        k = self.knots
        return np.interp(x, k, [0.0, self.amplitude, self.amplitude, 0.0],
                         left=0.0, right=0.0)


def _dyadic_triples(count):
    """Fixed enumeration of (j, p, q): sorted by j+p+q, then j, then p."""
    out = []
    weight = 3
    while len(out) < count:
        for j in range(0, weight - 2):
            for p in range(1, weight):
                q = weight - j - p
                if q <= p:
                    break
                out.append((j, p, q))
                if len(out) == count:
                    return out
        weight += 1
    return out


def _split_runs(splits):
    """Runs of consecutive columns with the same split points.

    A run shares one vector integral, so no column is split at another
    column's breakpoints.  Returns a list of (slice, split points).
    """
    runs = []
    start = 0
    for stop in range(1, len(splits) + 1):
        if stop == len(splits) or splits[stop] != splits[start]:
            runs.append((slice(start, stop), splits[start]))
            start = stop
    return runs


class MetricFamily:
    """The pinned countable family of dyadic trapezoid bumps.

    Member n (1-based) carries weight 2**-n in the metric

        d(mu1, mu2) = sum_n |(mu1-mu2)(phi_n)| / (2**n (1 + |...|)),

    truncated at ``n_members``; the discarded tail is bounded by
    2**-n_members, far below every tolerance used here.
    """

    def __init__(self, n_members=64, quad=DEFAULT_QUAD):
        self.n_members = int(n_members)
        self.quad = quad
        self.members = tuple(
            TestFunction(lo=p * 2.0 ** -j, hi=q * 2.0 ** -j)
            for j, p, q in _dyadic_triples(self.n_members)
        )
        self.weights = 0.5 ** np.arange(1, self.n_members + 1)

    @property
    def tail_bound(self):
        return 2.0 ** -self.n_members

    def support_hull(self):
        return (min(f.lo for f in self.members), max(f.hi for f in self.members))

    def pairings(self, measure, quad=None):
        quad = quad or self.quad
        return np.array([measure.pair(f, quad) for f in self.members],
                        dtype=complex)

    def flow_pairings(self, measure, order, ts, quad=None):
        """mu_t = mu(t .)/V(t) for each t in ``ts`` and their pairings.

        Returns the list of scaled measures and the ``(len(ts), n_members)``
        array of their pairings, equal to pairing each mu_t in turn.  Member
        f's column is the dilation integral of f against the unscaled
        measure at scales ``ts`` and norms V(ts), so consecutive samples
        with the same breakpoints in f's support share one vector integral.
        Window checks run sample by sample, as ``pair`` does.
        """
        quad = quad or self.quad
        ts = np.asarray(ts, dtype=float)
        scaled = [measure.scaled(order, t) for t in ts]
        for s in scaled:
            for f in self.members:
                s._check_window(*f.support)
        norms = np.asarray(order.scale(ts), dtype=float)
        out = np.zeros((ts.size, self.n_members), dtype=complex)
        for n, f in enumerate(self.members):
            out[:, n] = measure.dilation_integrals(f, ts, norms, f.lo, f.hi, quad)
        return scaled, out

    def distance_from_pairings(self, p1, p2):
        diff = np.abs(np.asarray(p1) - np.asarray(p2))
        return float(np.sum(self.weights * diff / (1.0 + diff)))

    def distance(self, m1, m2, quad=None):
        return self.distance_from_pairings(self.pairings(m1, quad),
                                           self.pairings(m2, quad))


# ---------------------------------------------------------------------------
# densities and membership


@dataclass(frozen=True)
class DensityEstimate:
    value: float
    alpha: float
    samples: tuple
    resolution: float


def _density_ratios(measure, order, alpha, r_grid, quad):
    if not measure.is_real():
        raise ValueError("upper/lower densities require a real measure")
    ratios = []
    for r in r_grid:
        r = float(r)
        if alpha > 0.0:
            m = measure.mass(r, (1.0 + alpha) * r, quad).real
        elif alpha == 0.0:
            m = 0.0
        else:
            m = -measure.mass((1.0 + alpha) * r, r, quad).real
        ratios.append(m / float(order.scale(r)))
    return np.array(ratios)


def _top_decade(r_grid, values, decades=1.0):
    r = np.asarray(r_grid, dtype=float)
    cut = r.max() / 10.0 ** decades
    return values[r >= cut]


def _density_estimate(measure, order, alpha, r_grid, quad, pick):
    """The top-decade ``pick`` (np.max or np.min) of the density ratios."""
    if alpha <= -1.0:
        raise ValueError("alpha must exceed -1")
    ratios = _density_ratios(measure, order, alpha, r_grid, quad)
    top = _top_decade(r_grid, ratios)
    res = float(np.max(top) - np.min(top)) if top.size > 1 else 0.0
    value = float(pick(top)) if top.size else 0.0
    if alpha == 0.0:
        value = 0.0
    return DensityEstimate(value=value, alpha=float(alpha),
                           samples=tuple(ratios), resolution=res)


def upper_density(measure, order, alpha, r_grid, quad=DEFAULT_QUAD):
    """limsup estimate of (mu(r + alpha r) - mu(r)) / V(r).

    The limsup is approximated by the running max over the top decade of
    the grid; alpha = 0 returns 0 by convention.
    """
    return _density_estimate(measure, order, alpha, r_grid, quad, np.max)


def lower_density(measure, order, alpha, r_grid, quad=DEFAULT_QUAD):
    """liminf estimate (running min over the top decade)."""
    return _density_estimate(measure, order, alpha, r_grid, quad, np.min)


@dataclass(frozen=True)
class MembershipReport:
    sup_ratio: float
    bounded: bool
    decade_ratio: float
    samples: tuple


def _edge_growth(r_grid, ratios, edge):
    """Ratio of the extreme decade's sup against its neighbour decade."""
    r_max = r_grid.max()
    r_min = r_grid.min()
    if edge == "hi":
        outer = ratios[r_grid >= r_max / 10.0]
        inner = ratios[(r_grid >= r_max / 100.0) & (r_grid < r_max / 10.0)]
    else:
        outer = ratios[r_grid <= r_min * 10.0]
        inner = ratios[(r_grid <= r_min * 100.0) & (r_grid > r_min * 10.0)]
    outer_max = float(np.max(outer)) if outer.size else 0.0
    inner_max = float(np.max(inner)) if inner.size else outer_max
    if inner_max <= 0.0:
        return math.inf if outer_max > 1e-12 else 1.0
    return outer_max / inner_max


def class_membership(measure, order, which="tail", r_grid=None, quad=DEFAULT_QUAD,
                     growth_slack=1.10):
    """Estimate sup |mu|([r, e r]) / V(r) and decide boundedness.

    ``which`` = "tail" checks r >= 1 (the class controlled at infinity);
    ``which`` = "global" extends the grid to small r and requires a flat
    trend at both ends.  The verdict is bounded iff the edge decade's sup
    does not grow against its neighbour by more than ``growth_slack``.
    """
    if r_grid is None:
        lo = 1.0 if which == "tail" else 1e-6
        r_grid = np.geomspace(lo, 1e8, 120)
    r_grid = np.asarray(r_grid, dtype=float)
    ratios = []
    for r in r_grid:
        ratios.append(measure.abs_mass(r, math.e * r, quad) / float(order.scale(r)))
    ratios = np.array(ratios)
    decade_ratio = _edge_growth(r_grid, ratios, "hi")
    bounded = decade_ratio <= growth_slack
    if which == "global":
        low_ratio = _edge_growth(r_grid, ratios, "lo")
        bounded = bounded and low_ratio <= growth_slack
        decade_ratio = max(decade_ratio, low_ratio)
    return MembershipReport(sup_ratio=float(np.max(ratios)), bounded=bounded,
                            decade_ratio=decade_ratio, samples=tuple(ratios))
