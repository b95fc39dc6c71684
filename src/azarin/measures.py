"""Constructive Radon measures on (0, oo).

A measure is a finite list of atoms plus piecewise densities, optionally
extended to the whole half-line by a self-similar rule mu(T E) = T**rho mu(E).
Everything is sign/complex-explicit, so the total variation is available
piecewise without any abstract decomposition.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .kernels import Kernel, trapezoid_kernel
from .numerics import (DEFAULT_QUAD, CubicTable, DivergenceError, WindowError,
                       _cauchy_windows, _gk_eval, _horner, _sorted_unique, log_quad)

__all__ = [
    "UnitFactor", "LogFactor", "LogPerturbFactor", "ZeroScaleFactor",
    "DensityPiece", "TabulatedPiece", "SelfSimilarTail", "RadonMeasure",
    "MetricFamily", "upper_density",
    "lower_density", "class_membership", "DensityEstimate",
]

_GROWTH_SLACK = 1.10
_UNION_ENTRIES = 1536     # the most entries that one linear_integrals run forms
_UNION_CELLS = 16384      # the most (node, scale) cells of one block of the union GK pass


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


class _One(Kernel):
    """g = 1, the integrand of a mass as a dilation integral.

    Not an indicator of (a, b]: atoms weigh g(x / s), and an indicator
    would drop the atom at x = s b whenever x / s rounds up past b.
    """
    piecewise_linear = True

    def __call__(self, u):
        return np.ones(np.shape(u))


_ONE = _One()


@dataclass(frozen=True)
class DensityPiece:
    """Density coef * t**exponent * factor(arg_scale * t) on (lo, hi]: float64
    values when coef and exponent are real (``is_real``), complex otherwise."""
    lo: float
    hi: float  # math.inf allowed
    coef: complex = 1.0 + 0.0j
    exponent: complex = 0.0 + 0.0j
    factor: object = _UNIT
    arg_scale: float = 1.0

    def is_real(self):
        return not (self.coef.imag or self.exponent.imag)

    def at(self, t):
        """The formula at each t, inside (lo, hi] or not."""
        real = self.is_real()
        c, s = (self.coef.real, self.exponent.real) if real else (self.coef, self.exponent)
        return c * np.exp(s * np.log(t)) * self.factor(self.arg_scale * t)

    def scaled(self, t, scale_value):
        return replace(
            self,
            lo=self.lo / t,
            hi=self.hi / t if not math.isinf(self.hi) else math.inf,
            coef=self.coef * t ** (self.exponent + 1.0) / scale_value,
            arg_scale=self.arg_scale * t,
        )


@dataclass(frozen=True)
class TabulatedPiece:
    """Density tabulated on a log grid with not-a-knot cubic interpolation
    in ln t, built on first use.

    Against a continuous piecewise-linear g the dilation integral is exact
    (``linear_integrals``).  On knot interval k the density is the cubic
    P_k(d), d = x - x_k in x = ln t, and

        int P_k(d) e^{c x} dx = e^{c x} Q_c(d),
        Q_c = P/c - P'/c^2 + P''/c^3 - P'''/c^4,

    for c = 1 and c = 2.  The Q_c coefficients and the moments of the whole
    knot intervals form a table built on first use.
    """
    lo: float
    hi: float
    log_nodes: tuple
    values: tuple
    _spline: object = field(default=None, compare=False, repr=False)
    _moments: object = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        nodes = np.asarray(self.log_nodes, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        if nodes.shape != values.shape:
            raise ValueError("log_nodes and values must have the same length")
        if nodes.size < 2:
            raise ValueError("a table needs at least 2 nodes")
        if not (np.isfinite(nodes).all() and np.isfinite(values).all()):
            raise ValueError("table nodes and values must be finite")
        if not (np.diff(nodes) > 0.0).all():
            raise ValueError("log_nodes must strictly increase")

    def _interp(self):
        if self._spline is None:
            spline = CubicTable.fit(self.log_nodes,
                                    np.asarray(self.values, dtype=complex))
            object.__setattr__(self, "_spline", spline)
        return self._spline

    def at(self, t):
        """The cubic at each t, inside (lo, hi] or not."""
        return self._interp()(np.log(t))

    def _moment_table(self):
        """(x, q, whole): the knots, the Q_1 and Q_2 coefficient rows of each
        knot interval (shape (2, n-1, 4), highest power first) and E_c over
        each whole interval (shape (2, n-1); see ``_exp_moments``)."""
        if self._moments is None:
            spline = self._interp()
            p3, p2, p1, p0 = spline.coef.T
            c = np.array([[1.0], [2.0]])
            q = np.stack([p3 / c,
                          p2 / c - 3.0 * p3 / c ** 2,
                          p1 / c - 2.0 * p2 / c ** 2 + 6.0 * p3 / c ** 3,
                          p0 / c - p1 / c ** 2 + 2.0 * p2 / c ** 3 - 6.0 * p3 / c ** 4],
                         axis=-1)
            h = np.diff(spline.x)
            whole = _exp_moments(q, np.zeros_like(h), h)
            object.__setattr__(self, "_moments", (spline.x, q, whole))
        return self._moments

    def linear_integrals(self, u, scales, norms, linear=True):
        """The integrals (C0, C1) over each [u_j, u_{j+1}] of the ascending
        array ``u`` of 1 and u - u_j against this density at s u times s/n,
        for each scale s and norm n: two (len(u) - 1, len(scales)) arrays,
        so a g linear on the piece, g(u_j) + beta (u - u_j), integrates to
        g(u_j) C0 + beta C1.  Without ``linear`` (a constant g) C1 is None.

        In x = ln(s u) the piece's u is e^x / s.  Each knot interval that a
        piece meets inside (lo, hi], clipped to [x_a, x_b], adds
        e^{x_a} E_1 / n to C0 and e^{x_a} ((u_a - u_j) E_1 + u_a (E_2 - E_1)) / n
        to C1, u_a = e^{x_a}/s, with the moments E_c of ``_exp_moments``.
        Whole knot intervals take E_c from the table.  Each piece sums its
        own intervals; no value is a difference of running sums, which
        would cancel where the density decays along the table.  The
        (piece, scale, knot interval) entries are formed for one run of
        consecutive scales at a time, of at most ``_UNION_ENTRIES`` entries
        or of one scale, so the temporaries stay bounded; each (piece, scale)
        sums its own entries in the same order whatever the runs.
        """
        x, q, whole = self._moment_table()
        s = np.asarray(scales, dtype=float)
        q, whole = (q, whole) if linear else (q[:1], whole[:1])   # a constant g needs no E_2
        ln_lo = math.log(self.lo) if self.lo > 0.0 else -math.inf
        xs = np.log(np.multiply.outer(u, s))             # (piece end, scale)
        xa = np.maximum(xs[:-1], ln_lo)
        xb = np.minimum(xs[1:], math.log(self.hi))
        # the knot intervals that hold [xa, xb]: xa's as CubicTable picks
        # it, xb's from the left, so that an end on a knot adds no interval
        ka = np.searchsorted(x[1:-1], xa, side="right")
        kb = np.searchsorted(x[1:-1], xb, side="left")
        counts = np.where(xb > xa, kb - ka + 1, 0)
        before = [0] + np.cumsum(counts.sum(axis=0)).tolist()   # entries of earlier scales
        sums = np.empty((len(q), u.size - 1, s.size), dtype=complex)
        start = 0
        while start < s.size:
            stop = max(start + 1, bisect_right(before, before[start] + _UNION_ENTRIES) - 1)
            a, b, ia, ib, count = (v[:, start:stop].ravel() for v in (xa, xb, ka, kb, counts))
            # one entry per (piece, scale, knot interval), grouped by (piece, scale)
            cell = np.repeat(np.arange(count.size), count)
            k = np.arange(cell.size) - np.repeat(np.cumsum(count) - count, count) + ia[cell]
            first = k == ia[cell]
            last = k == ib[cell]
            left = np.where(first, a[cell], x[k])
            cut = first | last
            e = whole[:, k]
            kc = k[cut]
            e[:, cut] = _exp_moments(q[:, kc], left[cut] - x[kc],
                                     np.where(last, b[cell], x[k + 1])[cut] - x[kc])
            piece, col = np.divmod(cell, stop - start)
            ta = np.exp(left)
            terms = [ta * e[0]]
            if linear:
                ua = ta / s[start:stop][col]
                terms.append(ta * ((ua - u[piece]) * e[0] + ua * (e[1] - e[0])))
            for row, v in zip(sums, terms):
                row[:, start:stop] = (np.bincount(cell, v.real, count.size) + 1j
                                      * np.bincount(cell, v.imag, count.size)).reshape(u.size - 1, -1)
            start = stop
        sums /= np.asarray(norms, dtype=float)
        return sums[0], sums[1] if linear else None

    def scaled(self, t, scale_value):
        lt = math.log(t)
        return TabulatedPiece(
            lo=self.lo / t, hi=self.hi / t,
            log_nodes=tuple(x - lt for x in self.log_nodes),
            values=tuple(v * t / scale_value for v in self.values),
        )


def _exp_moments(q, da, db):
    """E_c = e^{-c x_a} int_{x_a}^{x_b} P(x) e^{c x} dx for the rows c = 1, 2
    of the Q_c coefficients ``q`` (..., 4), with d_a and d_b the ends in the
    local coordinate: expm1(c D) Q_c(d_b) + Q_c(d_b) - Q_c(d_a), D = d_b - d_a.
    The difference of Q_c is D times its divided difference, so that a
    short interval does not cancel."""
    c = np.arange(1.0, q.shape[0] + 1.0)[:, None]
    span = db - da
    dq = span * (q[..., 0] * (da * da + da * db + db * db)
                 + q[..., 1] * (da + db) + q[..., 2])
    return np.expm1(c * span) * _horner(q, db) + dq


@dataclass(frozen=True)
class SelfSimilarTail:
    """Extension rule mu(T E) = T**rho mu(E) from a base window [base_lo, T*base_lo).

    The base atoms lie in that window and the base pieces (lo, hi] inside
    [base_lo, T*base_lo]; no image is built.  Image k of an atom x is x T^k
    with weight T^{k rho}, of a piece (lo, hi] is (lo T^k, hi T^k] with
    density T^{k (rho - 1)} times the piece at t / T^k.  Each T^k of an
    image edge is a ``powers`` entry, so an edge is the same product
    wherever it is formed.  T and rho must be finite, T > 1, base_lo > 0.
    """
    period: float
    rho: float
    base_lo: float = 1.0

    def __post_init__(self):
        if not 1.0 < self.period < math.inf:
            raise ValueError("self-similar period T must be finite and > 1")
        if not 0.0 < self.base_lo < math.inf:
            raise ValueError("self-similar base_lo must be finite and > 0")
        if not math.isfinite(self.rho):
            raise ValueError("self-similar rho must be finite")

    def image_range(self, lo, hi):
        """Indices k with T^k * base window intersecting (lo, hi]."""
        if not (0.0 < lo and hi < math.inf):
            raise ValueError("a self-similar measure has infinitely many images "
                             "on the unbounded range (%g, %g]" % (lo, hi))
        lt = math.log(self.period)
        k_lo = math.floor((math.log(lo) - math.log(self.base_lo * self.period)) / lt)
        k_hi = math.ceil((math.log(hi) - math.log(self.base_lo)) / lt)
        return range(k_lo, k_hi + 1)

    def powers(self, ks, exponent=1.0):
        """T**(exponent k) for each k of ``ks``, by Python's float power."""
        return np.array([self.period ** (exponent * float(k)) for k in ks])


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
            # a scaled piece's ends and its scaled window are rounded apart
            if not all(p.lo >= tail.base_lo * (1.0 - 1e-12)
                       and p.hi <= hi * (1.0 + 1e-12) for p in self.pieces):
                raise ValueError("self-similar base pieces must lie in the base window")
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

    def _check_window(self, lo, hi, t=1.0):
        """A WindowError unless (lo, hi] lies in the window of mu_t, the
        window divided by t (a self-similar measure has no window)."""
        if self.tail is not None:
            return
        w_lo, w_hi = self.window[0] / t, self.window[1] / t
        if lo < w_lo or hi > w_hi:
            raise WindowError(
                "query (%g, %g] exceeds the representable window (%g, %g]"
                % (lo, hi, w_lo, w_hi))

    # -- pointwise data ---------------------------------------------------------

    def atoms_in(self, lo, hi):
        """Atoms with location in (lo, hi], self-similar images included."""
        if self.tail is None:
            i = np.searchsorted(self.atom_x, lo, side="right")
            j = np.searchsorted(self.atom_x, hi, side="right")
            return self.atom_x[i:j], self.atom_w[i:j]
        ks = self.tail.image_range(lo, hi)
        xs = np.multiply.outer(self.tail.powers(ks), self.atom_x).ravel()
        ws = np.multiply.outer(self.tail.powers(ks, self.tail.rho), self.atom_w).ravel()
        inside = (xs > lo) & (xs <= hi)
        xs, ws = xs[inside], ws[inside]
        order = np.argsort(xs, kind="stable")
        return xs[order], ws[order]

    def density(self, t):
        """The density at each t: the sum over the pieces (lo, hi] that hold t.

        Under a self-similar tail, t in image k of a base piece,
        lo T^k < t <= hi T^k, takes T^{k (rho - 1)} times the piece at
        t / T^k.  Each t tries k = floor(ln(t / base_lo) / ln T) and both
        its neighbours, so that rounding in the log drops no point; the
        edge products decide which image holds it.  Float64 when every piece
        is a real ``DensityPiece`` (complex only in ``adaptive_quad``'s sums).
        """
        t = np.asarray(t, dtype=float)
        tail, u, f = self.tail, t, 1.0
        if tail is not None:
            ks, which = np.unique(np.floor(np.log(t / tail.base_lo) / math.log(tail.period)),
                                  return_inverse=True)
            ks = np.add.outer([-1.0, 0.0, 1.0], ks)
            which = which.reshape(t.shape)
            f = tail.powers(ks.ravel()).reshape(ks.shape)[:, which]
            u = t / f
        real = all(isinstance(p, DensityPiece) and p.is_real() for p in self.pieces)
        out = np.zeros(u.shape, dtype=float if real else complex)
        for p in self.pieces:
            inside = (t > p.lo * f) & (t <= p.hi * f)
            if inside.all():
                out += p.at(u)
            elif inside.any():
                out[inside] += p.at(u[inside])
        if tail is None:
            return out
        return np.sum(np.power(tail.period, (tail.rho - 1.0) * ks)[:, which] * out, axis=0)

    def abs_density(self, t):
        return np.abs(self.density(t))

    def breakpoints_in(self, lo, hi):
        """The piece ends in (lo, hi), self-similar images included, sorted."""
        ends = [e for p in self.pieces for e in (p.lo, p.hi)]
        if self.tail is not None:
            ends = [e * f for f in self.tail.powers(self.tail.image_range(lo, hi)).tolist()
                    for e in ends]
        return sorted({e for e in ends if lo < e < hi})

    def _split_tables(self):
        """The ``TabulatedPiece``s of a measure with no tail, and the rest."""
        table = [self.tail is None and isinstance(p, TabulatedPiece) for p in self.pieces]
        rest = RadonMeasure.__new__(RadonMeasure)
        rest.__dict__.update(vars(self), pieces=tuple(p for p, t in zip(self.pieces, table) if not t))
        return [p for p, t in zip(self.pieces, table) if t], rest

    # -- integration ------------------------------------------------------------

    def masses(self, a, b, rs, quad=DEFAULT_QUAD, absolute=False):
        """mu((a r, b r]) for each r of ``rs``, as one dilation integral.

        The integral of the constant 1 over u in (a, b] at scales ``rs``, so
        the masses share segments as pairings do.  Returns a complex array,
        or with ``absolute`` the real array of |mu|((a r, b r]).
        """
        lo, hi = a * min(rs, default=1.0), b * max(rs, default=1.0)
        if not (0.0 < a < b and 0.0 < lo and hi < math.inf):
            raise ValueError("mass requires compact (a r, b r] in (0, oo)")
        return self._masses([(a, b)], rs, quad, absolute)[0]

    def _masses(self, windows, rs, quad, absolute):
        """The masses of each window (a, b] at each r: an (m, len(rs)) array."""
        if len(rs):
            self._check_window(min(windows)[0] * min(rs), max(b for _, b in windows) * max(rs))
        out = np.array(self.dilation_integrals(_ONE, rs, [1.0] * len(rs), windows,
                                               quad, absolute), dtype=complex)
        return out.real if absolute else out

    def cumulative_masses(self, c, ts, quad=DEFAULT_QUAD):
        """mu((c, t]) at each t of ``ts`` above c, -mu((t, c]) below, 0 at c.

        One ``_masses`` over the sorted distinct edges of ``ts`` and c; the
        window masses are summed outward from c on each side, so no value
        is a difference of running sums.  Returns a complex array of the
        shape of ``ts``; every t must lie in (0, oo), and c too, or c = 0
        for mu((0, t]): one ``improper_mass`` up to the least t plus the
        window masses from there.
        """
        ts = np.asarray(ts, dtype=float)
        if c == 0.0 and not ts.size:
            return np.zeros(ts.shape, dtype=complex)
        if c == 0.0 and ts.min() > 0.0:
            c = float(ts.min())
            rest = self.cumulative_masses(c, ts, quad)
            return self.improper_mass(0.0, c, quad) + rest
        edges, where = np.unique(np.append(ts, c), return_inverse=True)
        if not (0.0 < edges[0] and edges[-1] < math.inf):
            raise ValueError("cumulative masses require c and t in (0, oo)")
        w = (self._masses(list(zip(edges.tolist(), edges[1:].tolist())), [1.0], quad,
                          False)[:, 0] if edges.size > 1 else np.zeros(0, dtype=complex))
        k = where[-1]
        out = np.concatenate([-np.cumsum(w[:k][::-1])[::-1], [0.0], np.cumsum(w[k:])])
        return out[where[:-1]].reshape(ts.shape)

    def mass(self, lo, hi, quad=DEFAULT_QUAD, absolute=False):
        """mu((lo, hi]) with 0 < lo < hi (finite); |mu| with ``absolute``."""
        return self.masses(lo, hi, [1.0], quad, absolute)[0].item()

    def improper_mass(self, lo=0.0, hi=math.inf, quad=DEFAULT_QUAD, absolute=False):
        """mu over (lo, hi) with improper endpoints, Cauchy-window evaluated.

        Each step of Cauchy rings is one mass integral over its windows,
        atoms included, so the atoms enter the Cauchy criterion.  Raises DivergenceError with the partial sums.
        An end at 0 or oo moves to the hull; the lower one to half its edge,
        so that an atom on the edge stays inside (lo, hi].
        """
        hull = self.hull()
        lo = lo if lo > 0.0 else 0.5 * hull[0]
        hi = hi if not math.isinf(hi) else hull[1]
        if lo != 0.0 and hi <= lo:
            return 0.0 + 0.0j

        def ring(windows, live):
            return self._masses(windows, [1.0], quad, absolute)

        totals, partials, failed, _, _ = _cauchy_windows(ring, lo, hi, (1.0,), quad)
        if failed:
            raise DivergenceError(
                "improper integral failed Cauchy criterion at %s" % failed[0],
                partials=partials[0])
        return totals[0]

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
        return self.dilation_integrals(f, [1.0], [1.0], [f.support], quad)[0][0]

    def dilation_integrals(self, g, scales, norms, windows, quad=DEFAULT_QUAD,
                           absolute=False):
        """Integrals of the kernel g(u) over each window (a, b] of ``windows``
        (pairs that need not touch) against mu(s u)/n, or |mu|(s u)/n: one
        row per window, one value per scale s of ``scales`` and norm n of
        ``norms``, the lists of one array that adds the atoms, the tables
        and then the rest of the density (empty rows for no scales).

        The atoms x with x/s in (a, b] add g(x/s) w/n; they are found by one
        ``atoms_in`` per scale over the hull of the windows and binned by window.
        The density adds the integral of g(u) (s/n) density(s u) du, split
        at ``g.breakpoints()`` and at the measure's breakpoints in u and
        graded at ``g.singular_points``.  A run of consecutive scales with
        the same measure breakpoints in u shares one vector ``log_quad`` over
        all windows: the run's scales share each window's segments, so no
        column is split at another's breakpoints, and each window keeps its
        own, so none is refined for another.  Pairings, the flow pairings
        not taken on the union knots, kernel transform windows and masses
        are all this integral.  With
        ``absolute`` the atoms weigh |w| and the density is |density|.

        A ``piecewise_linear`` g (a continuous ``TableKernel`` such as a
        trapezoid, or g = 1 behind ``masses``) pairs the ``TabulatedPiece``s
        of a measure with no tail exactly: a piece of g adds g(u_j) C0 + beta C1
        (``TabulatedPiece.linear_integrals``).  The rest of the density then takes the path
        above, split only at its own breakpoints.  Other kernels, ``absolute``
        and tables under a self-similar tail keep the quadrature, whose GK
        segments may straddle spline knots.  A self-similar measure gives
        its atoms, density and breakpoints from the base window
        (``atoms_in``, ``density``, ``breakpoints_in``), building no image.
        """
        lo, hi = min(windows)[0], max(b for _, b in windows)
        out = np.zeros((len(windows), len(scales)), dtype=complex)
        if not len(scales):
            return out.tolist()
        if self.atom_x.size:
            for i, (s, n) in enumerate(zip(scales, norms)):
                xs, ws = self.atoms_in(s * lo, s * hi)
                if ws.size:
                    ws = np.abs(ws) if absolute else ws
                    terms = g(xs / s) * (ws / n)
                    cuts = np.searchsorted(xs, np.multiply(s, windows), side="right")
                    for row, (start, stop) in enumerate(cuts.tolist()):
                        if stop > start:
                            out[row, i] = np.sum(terms[start:stop])
        g_splits = [b for b in g.breakpoints() if lo < b < hi]
        tables, rest = self._split_tables() if g.piecewise_linear and not absolute else ((), self)
        if tables:
            u = np.array(sorted({x for w in windows for x in w} | set(g_splits)))
            gu = g(u)
            beta = (np.diff(gu) / np.diff(u))[:, None]
            # each piece [u_k, u_k+1] to its window, or to a spare row
            w = np.array(windows)
            k = np.argsort(w[:, 0])
            k = k[np.searchsorted(w[k, 0], u[:-1], side="right") - 1]
            rows = np.where(u[1:] <= w[k, 1], k, len(out))
            parts = np.zeros((len(out) + 1, len(scales)), dtype=complex)
            for p in tables:
                c0, c1 = p.linear_integrals(u, scales, norms, beta.any())
                np.add.at(parts, rows, gu[:-1, None] * c0 + (0.0 if c1 is None else beta * c1))
            out += parts[:-1]
        if not rest.pieces:
            return out.tolist()
        sing = [p for p in g.singular_points if lo <= p <= hi]
        density = rest.abs_density if absolute else rest.density
        bps = rest.breakpoints_in(min(scales) * lo, max(scales) * hi)
        runs = (_split_runs([[b / s for b in bps if s * lo < b < s * hi] for s in scales])
                if bps else [(slice(0, len(scales)), [])])
        for cols, splits in runs:
            s = np.asarray(scales[cols], dtype=float)
            gain = s / np.asarray(norms[cols], dtype=float)

            def integrand(u):
                return density(np.multiply.outer(u, s)) * (g(u)[:, None] * gain)

            out[:, cols] += log_quad(integrand, windows, quad,
                                     split_points=g_splits + splits, singular_points=sing)
        return out.tolist()

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
        if not self.is_real() or np.any(self.atom_w.real < 0):
            return False
        for p in self.pieces:
            if isinstance(p, DensityPiece):
                if p.coef.real < 0.0 or isinstance(p.factor, LogFactor) and p.lo < 1.0:
                    return False
            elif np.any(np.real(p.values) < 0.0):
                return False
        return True

    def is_real(self):
        return not np.any(np.abs(self.atom_w.imag) > 0) and all(
            p.is_real() if isinstance(p, DensityPiece)
            else not np.any(np.abs(np.imag(p.values)) > 1e-300) for p in self.pieces)


# ---------------------------------------------------------------------------
# the metric family of test functions


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

    Member n (1-based), ``trapezoid_kernel(p 2**-j, q 2**-j)`` for the n-th
    triple (j, p, q) of ``_dyadic_triples``, carries weight 2**-n in the metric

        d(mu1, mu2) = sum_n |(mu1-mu2)(phi_n)| / (2**n (1 + |...|)),

    truncated at ``n_members`` = 64; the discarded tail is bounded by
    2**-n_members, far below every tolerance used here.
    """

    def __init__(self):
        self.n_members = 64
        self.members = tuple(
            trapezoid_kernel(p * 2.0 ** -j, q * 2.0 ** -j)
            for j, p, q in _dyadic_triples(self.n_members)
        )
        self.weights = 0.5 ** np.arange(1, self.n_members + 1)
        first = {}   # member n pairs as member _first[n], the first equal one
        self._first = [first.setdefault(f, n) for n, f in enumerate(self.members)]
        # member n is _g[n, a] + _b[n, a] (u - u_a) on union knot interval a
        u = self._knots = _sorted_unique([f.nodes for f in self.members])
        g = np.array([f(u) for f in self.members])
        self._g, self._b = g[:, :-1], np.diff(g) / np.diff(u)

    def support_hull(self):
        return (min(f.support[0] for f in self.members), max(f.support[1] for f in self.members))

    def pairings(self, measure, quad=DEFAULT_QUAD):
        return np.array([measure.pair(f, quad) for f in self.members],
                        dtype=complex)

    def flow_pairings(self, measure, order, ts, quad=DEFAULT_QUAD):
        """Pairings of mu_t = mu(t .)/V(t) at each t in ``ts``, no mu_t built.

        Returns the ``(len(ts), n_members)`` array, equal to pairing each
        mu_t in turn, against the unscaled measure at scales ``ts`` and
        norms V(ts).  Every member is G + B (u - u_a) on union knot interval
        a, G and B its values and slopes there, so the tables and the
        density pair all members at once as ``(G @ C0 + B @ C1).T``, C0 and
        C1 the integrals of 1 and u - u_a on each interval against
        mu(s u) s/V(s).  Tables of a measure with no tail take C0 and C1
        from one ``linear_integrals``, bounded in memory by its runs of
        scales.  The density takes them from ``_union_density``'s fixed GK15
        pass, when the measure without its tables has no atoms, no tail and
        no breakpoint in ``(min(ts) u_0, max(ts) u_72)``; a member that
        pass leaves over budget, and every member of any other measure,
        takes the dilation integral of f at scales ``ts`` instead: samples
        with the same breakpoints in f's support share one vector
        integral, and a member equal to an earlier one copies its column.
        The products are one over all scales, since BLAS rounds a row by
        its place in the batch.  The window check is one test over all
        samples and members; the first failing pair in sample-major order
        raises through ``_check_window`` at its scale t, as pairing sample
        by sample would.
        """
        ts = np.asarray(ts, dtype=float)
        norms = np.asarray(order.scale(ts), dtype=float)
        if measure.tail is None and ts.size:
            lo, hi = np.array([f.support for f in self.members]).T
            window = np.array(measure.window) / ts[:, None]
            bad = (lo < window[:, :1]) | (hi > window[:, 1:])
            if bad.any():
                i, n = divmod(int(np.argmax(bad)), self.n_members)
                measure._check_window(*self.members[n].support, ts[i])
        tables, rest = measure._split_tables()
        out = np.zeros((ts.size, self.n_members), dtype=complex)
        loop = sorted(set(self._first)) if not rest.is_trivial() else []
        u = self._knots
        if (loop and ts.size and rest.tail is None and not rest.atom_x.size
                and not rest.breakpoints_in(ts.min() * u[0], ts.max() * u[-1])):
            values, ok = self._union_density(rest, ts, norms, quad)
            out[:, ok] = values[:, ok]
            loop = [n for n in loop if not ok[n]]
        for n in loop:
            f = self.members[n]
            out[:, n] = rest.dilation_integrals(f, ts, norms, [f.support], quad)[0]
        for c0, c1 in (p.linear_integrals(u, ts, norms) for p in tables):
            out += (self._g @ c0 + self._b @ c1).T
        return out[:, self._first]

    def _union_density(self, rest, ts, norms, quad):
        """The density of ``rest`` paired with every member at once: the
        ``(len(ts), n_members)`` values and the mask of the members within
        budget at every scale.

        One fixed GK15 pass in u over the union knot intervals gives C0 and
        C1 on each interval a and scale s, and E0 and E1, their GK15 - GK7
        differences.  Member n is accepted where its bound
        ``|G| @ E0 + |B| @ E1`` is at most ``tol * |value| + abs_tol``: by the
        triangle inequality at least as strict as ``adaptive_quad``'s summed
        estimate on the same segments.  The pass runs in blocks of scales
        of at most ``_UNION_CELLS`` (node, scale) cells, which bounds its
        temporaries.
        """
        lo, hi = self._knots[:-1], self._knots[1:]
        left = np.repeat(lo, 15)   # the left knot of each GK15 node
        step = max(1, _UNION_CELLS // left.size)
        blocks = []
        for start in range(0, ts.size, step):
            s = ts[start:start + step]
            gain = s / norms[start:start + step]

            def integrand(x):
                d = rest.density(np.multiply.outer(x, s)) * gain
                return np.stack([d, (x - left)[:, None] * d], axis=1)

            blocks.append(_gk_eval(integrand, lo, hi))
        c, e = (np.concatenate(v, axis=-1) for v in zip(*blocks))
        values = self._g @ c[:, 0] + self._b @ c[:, 1]
        bound = np.abs(self._g) @ e[:, 0] + np.abs(self._b) @ e[:, 1]
        return values.T, (bound <= quad.tol * np.abs(values) + quad.abs_tol).all(axis=1)

    def distance_from_pairings(self, p1, p2):
        """The metric between pairing vectors along the last axis, broadcast
        over the leading axes: a float for two vectors, an array otherwise.
        Each value has the bits of the two vectors' own call."""
        diff = np.abs(np.asarray(p1) - np.asarray(p2))
        d = np.sum(self.weights * diff / (1.0 + diff), axis=-1)
        return float(d) if d.ndim == 0 else d

    def distance(self, m1, m2, quad=DEFAULT_QUAD):
        return self.distance_from_pairings(self.pairings(m1, quad),
                                           self.pairings(m2, quad))


# ---------------------------------------------------------------------------
# densities and membership


class DensityEstimate(NamedTuple):
    value: float
    alpha: float
    samples: tuple
    resolution: float


def _density_ratios(measure, order, alpha, r_grid, quad):
    if not measure.is_real():
        raise ValueError("upper/lower densities require a real measure")
    r_grid = np.asarray(r_grid, dtype=float)
    if alpha > 0.0:
        m = measure.masses(1.0, 1.0 + alpha, r_grid, quad).real
    elif alpha == 0.0:
        m = np.zeros(r_grid.size)
    else:
        m = -measure.masses(1.0 + alpha, 1.0, r_grid, quad).real
    return m / order.scale(r_grid)


def _density_estimate(measure, order, alpha, r_grid, quad, pick):
    """The top-decade ``pick`` (np.max or np.min) of the density ratios."""
    if alpha <= -1.0:
        raise ValueError("alpha must exceed -1")
    ratios = _density_ratios(measure, order, alpha, r_grid, quad)
    r = np.asarray(r_grid, dtype=float)
    top = ratios[r >= r.max() / 10.0]
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


class MembershipReport(NamedTuple):
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


def class_membership(measure, order, which="tail", r_grid=None, quad=DEFAULT_QUAD):
    """Estimate sup |mu|([r, e r]) / V(r) and decide boundedness.

    ``which`` = "tail" checks r >= 1 (the class controlled at infinity);
    ``which`` = "global" extends the grid to small r and requires a flat
    trend at both ends.  The verdict is bounded iff the edge decade's sup
    does not grow against its neighbour by more than ``_GROWTH_SLACK``.
    """
    if r_grid is None:
        lo = 1.0 if which == "tail" else 1e-6
        r_grid = np.geomspace(lo, 1e8, 120)
    r_grid = np.asarray(r_grid, dtype=float)
    ratios = (measure.masses(1.0, math.e, r_grid, quad, absolute=True)
              / order.scale(r_grid))
    decade_ratio = _edge_growth(r_grid, ratios, "hi")
    bounded = decade_ratio <= _GROWTH_SLACK
    if which == "global":
        low_ratio = _edge_growth(r_grid, ratios, "lo")
        bounded = bounded and low_ratio <= _GROWTH_SLACK
        decade_ratio = max(decade_ratio, low_ratio)
    return MembershipReport(sup_ratio=float(np.max(ratios)), bounded=bounded,
                            decade_ratio=decade_ratio, samples=tuple(ratios))
