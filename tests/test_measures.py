import functools
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from scipy.integrate import fixed_quad, quad
from scipy.interpolate import CubicSpline

from azarin import measures
from azarin.catalog import builtin_config
from azarin.configio import parse_measure, parse_order
from azarin.dynamics import geometric_schedule, sample_trajectory
from azarin.kernels import (ExpKernel, IndicatorKernel, LogSingularKernel,
                            trapezoid_kernel)
from azarin.measures import (DensityPiece, LogFactor, LogPerturbFactor,
                             RadonMeasure, SelfSimilarTail, TabulatedPiece,
                             class_membership, lower_density, upper_density)
from azarin.numerics import DEFAULT_QUAD, QuadControl, WindowError, log_quad
from azarin.orders import LogPowerZero, ProximateOrder
from azarin.transforms import KernelTransform, averaged_measure

O1 = ProximateOrder(1.0)


def periodic(T=2.0, rho=1.0):
    return RadonMeasure(atoms=[(1.0, 1.0)], tail=SelfSimilarTail(T, rho, 1.0))


class TestMass:
    def test_linear_density(self):
        m = RadonMeasure.power_density(1.0)  # density t on (0, oo)
        assert m.mass(1.0, 2.0) == pytest.approx(1.5, abs=1e-12)

    def test_periodic_atoms(self):
        assert periodic().mass(1.0, 8.0) == pytest.approx(14.0, abs=1e-12)

    def test_zero_measure(self):
        assert RadonMeasure.zero().mass(1.0, 2.0) == 0.0

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            RadonMeasure.zero().mass(2.0, 1.0)
        # an end at 0 or oo would drop the density part without a word
        m = RadonMeasure.power_density(0.0)
        for a, b, rs in [(0.0, 2.0, [1.0]), (1.0, 1.0, [1.0]), (1.0, 2.0, [0.0, 1.0]),
                         (1.0, 2.0, [1.0, math.inf]), (1.0, math.inf, [1.0])]:
            with pytest.raises(ValueError):
                m.masses(a, b, rs)

    def test_window_error(self):
        m = RadonMeasure(atoms=[(1.0, 1.0)], window=(0.5, 10.0))
        with pytest.raises(WindowError):
            m.mass(1.0, 100.0)

    def test_abs_mass_of_signed(self):
        m = RadonMeasure.from_atoms([(1.0, 1.0), (2.0, -3.0)])
        assert m.mass(0.5, 3.0) == pytest.approx(-2.0)
        assert m.mass(0.5, 3.0, absolute=True) == pytest.approx(4.0)

    def test_improper_mass_decreasing_tail(self):
        # negative-order lattice: the upward tail sums to a geometric series
        m = RadonMeasure(atoms=[(1.0, 1.0)], tail=SelfSimilarTail(2.0, -1.0, 1.0))
        got = m.improper_mass(0.9, math.inf)
        want = sum(2.0 ** -k for k in range(0, 60))
        assert got.real == pytest.approx(want, rel=1e-9)

    def test_improper_mass_divergence(self):
        from azarin.numerics import DivergenceError
        m = RadonMeasure(atoms=[(1.0, 1.0)], tail=SelfSimilarTail(2.0, -1.0, 1.0))
        with pytest.raises(DivergenceError):
            m.improper_mass(0.0, 1.5)   # weights blow up toward the origin

    def test_improper_mass_atoms_enter_cauchy_criterion(self):
        # atoms 2^-k with weights 4^-k: a finite list, and the same lattice
        # extended by mu(2E) = 4 mu(E), whose window at zero is improper and
        # is accepted by Cauchy rings that hold nothing but atoms
        ks = np.arange(1, 40)
        finite = RadonMeasure.from_atoms(list(zip(2.0 ** -ks, 4.0 ** -ks)))
        assert abs(finite.improper_mass(0.0, 1.0) - np.sum(4.0 ** -ks)) < 1e-12
        lattice = RadonMeasure(atoms=[(0.5, 0.25)],
                               tail=SelfSimilarTail(2.0, 2.0, 0.5))
        assert abs(lattice.improper_mass(0.0, 0.75) - 1.0 / 3.0) < 1e-12

    def test_improper_mass_keeps_the_hull_edge_atoms(self):
        # the hull's lower edge is an atom; (0, oo) must still hold it
        m = RadonMeasure.from_atoms([(1.0, 1.0), (2.0, 3.0)])
        assert m.improper_mass() == pytest.approx(4.0, abs=1e-15)
        assert m.improper_mass(0.0, 1.5) == pytest.approx(1.0, abs=1e-15)


class TestCumulativeMasses:
    """mu((c, t]) above c, -mu((t, c]) below, 0 at c, for each t."""

    def _budget(self, measure, t, c, ctrl=DEFAULT_QUAD):
        lo, hi = sorted((t, c))
        size = measure.mass(lo, hi, absolute=True) if hi > lo else 0.0
        return ctrl.tol * size + ctrl.abs_tol

    def test_power_density_closed_form(self):
        m = RadonMeasure.power_density(-0.5)   # mu((a, b]) = 2 (sqrt b - sqrt a)
        c = 2.0
        ts = np.array([0.01, 0.5, 1.0, 2.0, 3.0, 10.0, 1e4])
        got = m.cumulative_masses(c, ts)
        want = 2.0 * (np.sqrt(ts) - math.sqrt(c))
        assert got.dtype == complex and got.shape == ts.shape
        for t, g, w in zip(ts, got, want):
            assert abs(g - w) <= self._budget(m, t, c)

    def test_atoms_on_a_point_and_on_c(self):
        # half-open windows: an atom on c counts only below it, one on t
        # counts above c
        m = RadonMeasure.from_atoms([(2.0, 1.0), (3.0, 5.0), (0.5, 1j)])
        got = m.cumulative_masses(2.0, [0.5, 1.0, 2.0, 3.0, 4.0])
        assert got.tolist() == [-1.0, -1.0, 0.0, 5.0, 5.0]

    def test_points_around_c_in_any_order(self):
        m = RadonMeasure(atoms=[(1.5, 2.0), (4.0, -1.0 + 1.0j)],
                         pieces=(DensityPiece(1.0, 5.0, coef=1.0, exponent=1.0),))

        def head(x):   # mu((0, x]) in closed form
            atoms = np.sum(m.atom_w[m.atom_x <= x])
            return atoms + (min(max(x, 1.0), 5.0) ** 2 - 1.0) / 2.0

        c = 2.5
        ts = np.array([4.0, 2.5, 1.2, 4.0, 0.5, 6.0, 2.5, 1.5])
        got = m.cumulative_masses(c, ts)
        for t, g in zip(ts, got):
            assert abs(g - (head(t) - head(c))) <= 2.0 * self._budget(m, t, c)
            one = m.mass(c, t) if t > c else -m.mass(t, c) if t < c else 0.0
            assert abs(g - one) <= 2.0 * self._budget(m, t, c)
        assert got[1] == got[6] == 0.0
        assert got[0] == got[3]
        # a 2-D ts is the same edges, so the same values in its shape
        square = m.cumulative_masses(c, ts.reshape(2, 4))
        assert square.shape == (2, 4)
        assert np.array_equal(square, got.reshape(2, 4))

    def test_period_two_self_similar_against_mass(self):
        m = RadonMeasure(atoms=[(1.0, 1.0), (1.5, 2.0 - 1.0j)],
                         pieces=(DensityPiece(1.0, 1.5, coef=0.5, exponent=0.3),
                                 DensityPiece(1.25, 2.0, coef=1.0 - 0.5j,
                                              exponent=complex(-0.4, 2.0))),
                         tail=SelfSimilarTail(2.0, 1.5, 1.0))
        c = 3.0
        ts = np.concatenate([np.geomspace(0.01, 300.0, 11),
                             [0.75, 1.5, 3.0, 6.0, 2.5 * 2.0 ** 6]])
        got = m.cumulative_masses(c, ts)
        for t, g in zip(ts, got):
            one = m.mass(c, t) if t > c else -m.mass(t, c) if t < c else 0.0
            assert abs(g - one) <= 2.0 * self._budget(m, t, c)

    def test_a_lone_c_makes_no_call(self, dilation_calls):
        m = RadonMeasure.from_atoms([(2.0, 1.0)])
        assert m.cumulative_masses(2.0, 2.0).shape == ()
        assert m.cumulative_masses(2.0, [2.0, 2.0]).tolist() == [0.0, 0.0]
        assert m.cumulative_masses(2.0, []).shape == (0,)
        assert dilation_calls == []
        m.cumulative_masses(2.0, [1.0, 3.0, 2.0, 5.0])
        assert len(dilation_calls) == 1

    def test_c_at_zero_is_the_mass_from_the_origin(self):
        # mu((0, t]): the improper mass up to the least t, then the windows
        m = RadonMeasure(atoms=[(0.5, 2.0)],
                         pieces=(DensityPiece(0.0, 3.0, coef=1.0, exponent=-0.5),))
        ts = np.array([4.0, 0.25, 0.5, 1.0, 3.0])
        want = 2.0 * np.sqrt(np.minimum(ts, 3.0)) + 2.0 * (ts >= 0.5)
        got = m.cumulative_masses(0.0, ts)
        assert got.shape == ts.shape
        assert np.all(np.abs(got - want) <= 1e-9 * want)

    # c = 0 is the origin (mu((0, t]) above), so its case rejects t = 0
    @pytest.mark.parametrize("c, ts", [(0.0, [0.0]), (1.0, [0.0]), (1.0, [-1.0]),
                                       (1.0, [math.inf]), (math.inf, [1.0]),
                                       (1.0, [math.nan])])
    def test_ends_outside_the_half_line_are_rejected(self, c, ts):
        with pytest.raises(ValueError):
            RadonMeasure.power_density(0.0).cumulative_masses(c, ts)


def test_no_scales_give_empty_arrays(fam):
    # a density's breakpoints are sought over the scales' range, which an
    # empty list does not have; the window (a, b] is still checked
    m = RadonMeasure.power_density(-0.5)
    assert fam.flow_pairings(m, ProximateOrder(0.5), []).shape == (0, fam.n_members)
    got = m.masses(1.0, 2.0, [])
    assert got.shape == (0,) and got.dtype == complex
    assert m.masses(1.0, 2.0, [], absolute=True).shape == (0,)
    with pytest.raises(ValueError):
        m.masses(0.0, 2.0, [])
    assert m.cumulative_masses(0.0, []).shape == (0,)
    assert m.dilation_integrals(trapezoid_kernel(0.5, 2.0), [], [],
                                [(0.5, 1.0), (1.0, 2.0)]) == [[], []]


@st.composite
def mass_cases(draw):
    """A signed or complex measure, a window (a, b] and scales r.

    Power pieces with complex exponents start and end inside the windows;
    some atoms sit exactly on a r or b r for a drawn r.
    """
    a = draw(st.sampled_from([0.5, 1.0, 1.7]))
    b = a * draw(st.sampled_from([1.25, 2.0, math.e, 7.0]))
    rs = sorted(draw(st.lists(st.floats(0.2, 40.0), min_size=1, max_size=5)))
    pieces = []
    for _ in range(draw(st.integers(0, 3))):
        lo = draw(st.floats(0.05, 200.0))
        hi = draw(st.one_of(st.just(math.inf),
                            st.floats(1.01, 30.0).map(lambda q: lo * q)))
        pieces.append(DensityPiece(
            lo, hi, coef=complex(draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))),
            exponent=complex(draw(st.floats(-1.5, 1.0)), draw(st.floats(-3.0, 3.0)))))
    atoms = []
    for _ in range(draw(st.integers(0, 4))):
        edge = draw(st.sampled_from(["a", "b", None]))
        r = draw(st.sampled_from(rs))
        x = {"a": a * r, "b": b * r}.get(edge) or draw(st.floats(0.05, 300.0))
        atoms.append((x, complex(draw(st.floats(-3.0, 3.0)),
                                 draw(st.floats(-1.0, 1.0)))))
    return RadonMeasure(atoms=atoms, pieces=tuple(pieces)), a, b, rs


def _scipy_density_mass(measure, lo, hi, absolute):
    points = measure.breakpoints_in(lo, hi)
    dens = measure.abs_density if absolute else measure.density
    parts = [quad(lambda t, part=part: part(dens(np.array([t]))[0]), lo, hi,
                  points=points or None, epsabs=0.0, epsrel=1e-13, limit=200)[0]
             for part in (np.real, np.imag)]
    return complex(*parts)


@given(mass_cases(), st.booleans())
def test_masses_match_scalar_mass_and_scipy(case, absolute):
    measure, a, b, rs = case
    ctrl = DEFAULT_QUAD
    got = measure.masses(a, b, rs, absolute=absolute)
    assert got.dtype == (float if absolute else complex)
    for r, value in zip(rs, got):
        lo, hi = a * r, b * r
        # half-open (a r, b r]: an atom at a r is out, one at b r is in
        inside = (measure.atom_x > lo) & (measure.atom_x <= hi)
        w = measure.atom_w[inside]
        atoms = np.sum(np.abs(w) if absolute else w)
        dens = _scipy_density_mass(measure, lo, hi, absolute)
        budget = ctrl.tol * abs(dens) + ctrl.abs_tol + 1e-15 * np.sum(np.abs(w))
        assert abs(value - (atoms + dens)) <= budget
        assert abs(value - measure.mass(lo, hi, absolute=absolute)) <= 2.0 * budget


_KERNELS = {
    "test_function": lambda lo, hi: trapezoid_kernel(lo, hi, (hi - lo) / 3.0),
    "one": lambda lo, hi: measures._ONE,
    "exp": lambda lo, hi: ExpKernel(),
    "log_singular": lambda lo, hi: LogSingularKernel(),
    "indicator": lambda lo, hi: IndicatorKernel((3.0 * lo + hi) / 4.0, (lo + 3.0 * hi) / 4.0),
}


def _table(draw, scales, g, period=None):
    """A TabulatedPiece over 2-9 knots 0.1-0.6 apart in ln t, its values
    amp * e^{k x} (1 + w) with k of either sign (growing or decaying along
    the table) and a wiggle w, so that the cubic's third derivative jumps
    at the knots.  Sometimes a knot is log(s b) for a kink b of g and a
    scale s, so that the kink lies exactly on it; its interval (lo, hi]
    may reach past the end knots, where the end cubics extrapolate.

    With a ``period``, 2-7 knots run in ln t from a to b, a between -0.2
    and 0.3 and b between 0.7 and 1.2 times ln period, and (lo, hi] is the
    part of the base window [1, period] of a self-similar tail between the
    end knots."""
    if period is None:
        x = np.cumsum([draw(st.floats(-1.0, 1.5))]
                      + draw(st.lists(st.floats(0.1, 0.6), min_size=1, max_size=8)))
        kinks = g.breakpoints()
    else:
        span = math.log(period)
        a, b = draw(st.floats(-0.2, 0.3)) * span, draw(st.floats(0.7, 1.2)) * span
        gaps = np.cumsum([0.0] + draw(st.lists(st.floats(0.2, 1.0), min_size=1,
                                               max_size=6)))
        x = a + (b - a) * gaps / gaps[-1]
        kinks = []
    if kinks and draw(st.booleans()):
        s, b = draw(st.sampled_from(scales)), draw(st.sampled_from(kinks))
        knot = np.log(np.array([s * b]))[0]
        if np.all(np.abs(x - knot) > 0.05):
            x = np.sort(np.append(x, knot))
    k = complex(draw(st.floats(-2.5, 2.5)), draw(st.floats(-2.0, 2.0)))
    amp = complex(draw(st.floats(0.5, 2.0)), draw(st.floats(-1.0, 1.0)))
    wiggle = draw(st.lists(st.floats(-0.3, 0.3), min_size=x.size, max_size=x.size))
    values = [amp * np.exp(k * xi) * (1.0 + w) for xi, w in zip(x, wiggle)]
    if period is not None:
        lo, hi = max(1.0, math.exp(x[0])), min(period, math.exp(x[-1]))
        return TabulatedPiece(lo, hi, tuple(x.tolist()), tuple(values))
    lo = math.exp(x[0]) * draw(st.sampled_from([1.0, 0.8, 1.05]))
    hi = math.exp(x[-1]) * draw(st.sampled_from([1.0, 1.25, 0.97]))
    return TabulatedPiece(lo, hi, tuple(x.tolist()), tuple(values))


@st.composite
def dilation_cases(draw, self_similar, absolute, tables=False):
    """A measure (atoms, complex power pieces, with ``self_similar`` a tail
    of period 1.25, 2 or 3), a g over the windows of ``edges`` and sorted
    scales with a duplicate and scales that put s lo or s hi exactly on an
    atom or a piece end.

    Locations are multiples of 1/16 and lo, hi and the inner edges powers
    of 2, so the scale x / lo is exact and s lo lands on x exactly.  With
    no tail, no ``absolute`` and a piecewise-linear g (a test function, or
    g = 1 over several windows as ``masses`` takes it), up to two
    ``TabulatedPiece``s join, and the window (lo, 1.25 lo] may be narrower
    than a knot interval.  With ``tables`` there is at least one table and
    g is one of those two.  With a tail, up to one table inside the base
    window joins for any g and ``absolute``; it takes the quadrature, and
    the oracle evaluates its images with scipy's spline.
    """
    period = draw(st.sampled_from([1.25, 2.0, 3.0])) if self_similar else None
    top = 512 if period is None else int(16 * period)
    loc = st.integers(4 if period is None else 16, top).map(lambda m: m / 16.0)
    atoms = draw(st.lists(loc.filter(lambda x: period is None or x < period),
                          max_size=5, unique=True))
    weight = st.tuples(st.integers(-16, 16), st.integers(-16, 16)).map(
        lambda p: complex(p[0], p[1]) / 8.0)
    kind = draw(st.sampled_from(["one", "test_function"] if tables else sorted(_KERNELS)))
    n_tables = 0
    if self_similar:
        n_tables = draw(st.integers(0, 1))
    elif not absolute and kind in ("one", "test_function"):
        n_tables = draw(st.integers(1 if tables else 0, 2))
    pieces = []
    for _ in range(draw(st.integers(0 if atoms or n_tables else 1, 3))):
        a, b = sorted(draw(st.lists(loc, min_size=2, max_size=2, unique=True)))
        pieces.append(DensityPiece(a, b, coef=draw(weight) + 0.5,
                                   exponent=complex(draw(st.floats(-0.9, 1.0)),
                                                    draw(st.floats(-3.0, 3.0)))))
    tail = None if period is None else \
        SelfSimilarTail(period, draw(st.sampled_from([0.5, 1.0, 1.5])), 1.0)
    lo = draw(st.sampled_from([0.25, 0.5, 1.0]))
    hi = draw(st.sampled_from([2.0, 4.0] + ([1.25 * lo] if n_tables else [])))
    edges = [lo, hi]
    if kind == "one" and hi > 2.0 * lo:
        inner = [lo * 2.0 ** k for k in range(1, int(math.log2(hi / lo)))]
        edges = [lo] + draw(st.lists(st.sampled_from(inner), min_size=1, unique=True)
                            .map(sorted)) + [hi]
    g = _KERNELS[kind](lo, hi)
    # points on which s lo or s hi may land: atoms and piece ends, with
    # their self-similar images
    images = [1.0] if period is None else [period ** k for k in range(-2, 4)]
    marks = sorted({x * f for x in list(atoms) + [e for p in pieces for e in (p.lo, p.hi)]
                    for f in images})
    scales = draw(st.lists(st.integers(4, 32).map(lambda m: m / 8.0),
                           min_size=1, max_size=3))
    ends = [e for e in (lo, hi) if math.frexp(e)[0] == 0.5]   # s e lands exactly
    for _ in range(draw(st.integers(0, 3)) if marks else 0):
        scales.append(draw(st.sampled_from(marks)) / draw(st.sampled_from(ends)))
    scales.append(draw(st.sampled_from(scales)))   # a duplicate
    scales = sorted(scales)
    # an atom on a singular point of g has no finite pairing
    assume(all(abs(x * f - s * p) > 1e-9 * s for x in atoms for s in scales
               for p in g.singular_points
               for f in ([1.0] if period is None else [period ** k for k in range(-40, 40)])))
    pieces += [_table(draw, scales, g, period) for _ in range(n_tables)]
    measure = RadonMeasure(atoms=[(x, draw(weight)) for x in atoms],
                           pieces=tuple(pieces), tail=tail)
    norms = [1.0 + 0.25 * draw(st.integers(0, 4)) for _ in scales]
    return measure, kind, g, edges, scales, norms


@functools.lru_cache(maxsize=16)
def _scipy_spline(log_nodes, values):
    return CubicSpline(log_nodes, values)


def _oracle_density(measure, t):
    """The density at t by hand: each self-similar image of each piece.  The
    image k of (lo, hi] is (lo T^k, hi T^k], both products formed by
    Python's float power; it carries T^{k (rho - 1)} times the piece at
    t / T^k, a ``DensityPiece`` by its power formula and a
    ``TabulatedPiece`` by scipy's not-a-knot ``CubicSpline`` in ln t."""
    out = 0.0j
    tail = measure.tail
    ks = [0]
    if tail is not None:
        k = math.floor(math.log(t / tail.base_lo) / math.log(tail.period))
        ks = range(k - 2, k + 3)
    for k in ks:
        f = 1.0 if tail is None else tail.period ** k
        gain = 1.0 if tail is None else tail.period ** ((tail.rho - 1.0) * k)
        for p in measure.pieces:
            if not p.lo * f < t <= p.hi * f:
                continue
            if isinstance(p, DensityPiece):
                out += gain * p.coef * (t / f) ** p.exponent
            else:
                spline = _scipy_spline(p.log_nodes, p.values)
                out += gain * complex(spline(math.log(t / f)))
    return out


def _oracle_table(p, g, s, n, lo, hi):
    """The dilation integral of a ``TabulatedPiece`` over (lo, hi] and the
    integral of its modulus: scipy's not-a-knot ``CubicSpline`` through the
    table, with 40-point Gauss-Legendre ``fixed_quad`` between consecutive
    points of the window, g's kinks, the piece's ends and the knots, all in
    u = t / s, where the integrand is smooth."""
    spline = CubicSpline(p.log_nodes, p.values)
    cuts = [u for u in [lo, hi] + list(g.breakpoints())
            + [p.lo / s, p.hi / s] + [math.exp(x) / s for x in p.log_nodes]
            if lo <= u <= hi and p.lo / s <= u <= p.hi / s]
    cuts = sorted(set(cuts))

    def integrand(u):
        return g(u) * (s / n) * spline(np.log(s * u))

    value = sum(fixed_quad(integrand, a, b, n=40)[0] for a, b in zip(cuts, cuts[1:]))
    size = sum(fixed_quad(lambda u: np.abs(integrand(u)), a, b, n=40)[0]
               for a, b in zip(cuts, cuts[1:]))
    return complex(value), size


def _oracle_dilation(measure, g, s, n, lo, hi, absolute):
    """(atoms, density, tables, tables' modulus) parts of the dilation
    integral over (lo, hi] at scale s, norm n: a direct atom sum over the
    half-open (lo, hi], scipy ``quad`` of ``_oracle_density`` split at every
    breakpoint of g and of the measure, and ``_oracle_table`` per table of
    a tail-free measure (under a tail the tables are in the density)."""
    tail = measure.tail
    dense = measure if tail is not None else RadonMeasure(
        pieces=[p for p in measure.pieces if isinstance(p, DensityPiece)])
    ks = [0] if tail is None else range(-40, 40)
    atoms, ends = 0.0j, set()
    for k in ks:
        f = 1.0 if tail is None else tail.period ** k
        mass = 1.0 if tail is None else tail.period ** (tail.rho * k)
        for x, w in zip(measure.atom_x.tolist(), measure.atom_w.tolist()):
            if lo < x * f / s <= hi:
                w = abs(w) if absolute else w
                atoms += complex(g(np.array([x * f / s]))[0]) * mass * w / n
        ends |= {e * f / s for p in measure.pieces for e in (p.lo, p.hi)}
    cuts = sorted({lo, hi} | {b for b in list(g.breakpoints()) + list(g.singular_points)
                              if lo < b < hi} | {e for e in ends if lo < e < hi})

    def integrand(u):
        d = _oracle_density(dense, s * u)
        return complex(g(np.array([u]))[0]) * (s / n) * (abs(d) if absolute else d)

    dens = sum(quad(integrand, a, b, epsabs=1e-14, epsrel=1e-12, limit=200,
                    complex_func=True)[0] for a, b in zip(cuts, cuts[1:]))
    tables = [_oracle_table(p, g, s, n, lo, hi) for p in measure.pieces
              if isinstance(p, TabulatedPiece) and tail is None]
    return (atoms, complex(dens), sum(v for v, _ in tables),
            sum(size for _, size in tables))


def _assert_matches_oracle(case, absolute):
    """Tables are paired exactly, so they are held at 1e-12 relative; the
    power pieces, atoms and kernels at the quadrature budget."""
    measure, kind, g, edges, scales, norms = case
    ctrl = DEFAULT_QUAD
    got = measure.dilation_integrals(g, scales, norms, list(zip(edges, edges[1:])),
                                     ctrl, absolute)
    for lo, hi, row in zip(edges, edges[1:], got):
        for s, n, value in zip(scales, norms, row):
            atoms, dens, tab, size = _oracle_dilation(measure, g, s, n, lo, hi,
                                                      absolute)
            budget = (ctrl.tol * abs(dens) + ctrl.abs_tol + 1e-14 * abs(atoms)
                      + 1e-12 * abs(tab) + 1e-14 * size)
            assert abs(value - (atoms + dens + tab)) <= budget, (kind, s, lo, hi)


@pytest.mark.parametrize("self_similar", [False, True])
@given(data=st.data())
def test_dilation_integrals_match_scipy(self_similar, data):
    absolute = data.draw(st.booleans())
    _assert_matches_oracle(data.draw(dilation_cases(self_similar, absolute)), absolute)


@given(data=st.data())
def test_tabulated_dilation_integrals_match_scipy(data):
    _assert_matches_oracle(data.draw(dilation_cases(False, False, tables=True)), False)


def test_dilation_integrals_next_to_a_kernel_singularity():
    # the graded panels at ln u = 0 narrow to ~5e-17, below the float
    # spacing of u, so GK nodes landed on u == 1.0, where ln|1 - 1/u| is
    # -inf, and the pairing was NaN
    measure = RadonMeasure(pieces=(
        DensityPiece(0.4375, 3.4375, 1.75 - 0.5j,
                     complex(0.1422679230488736, 2.7782266273985243)),
        DensityPiece(0.5625, 3.5625, -1.5 + 1.125j,
                     complex(0.9041403151242323, -0.4950895466129275))))
    case = (measure, "log_singular", LogSingularKernel(), [0.25, 2.0], [0.5], [1.0])
    _assert_matches_oracle(case, False)
    got = measure.dilation_integrals(LogSingularKernel(), [0.5], [1.0], [(0.25, 2.0)])
    oracle = 0.6672759076328754 + 0.8680010343942202j   # scipy quad
    assert abs(got[0][0] - oracle) <= DEFAULT_QUAD.tol * abs(oracle) + DEFAULT_QUAD.abs_tol


def _edge_measures():
    """Self-similar measures with T = 2 and T = 1.25, base_lo 1 and scaled."""
    two = RadonMeasure(atoms=[(1.0, 1.0), (1.5, 2.0 - 1.0j)],
                       pieces=(DensityPiece(1.0, 1.5, coef=0.5, exponent=0.3),
                               DensityPiece(1.25, 2.0, coef=1.0 - 0.5j,
                                            exponent=complex(-0.4, 2.0))),
                       tail=SelfSimilarTail(2.0, 1.5, 1.0))
    fine = RadonMeasure(atoms=[(1.0, 1.0), (1.1, 0.5)],
                        pieces=(DensityPiece(1.0, 1.25, coef=0.5, exponent=0.3),
                                DensityPiece(1.0, 1.1, coef=2.0,
                                             exponent=complex(-0.5, 1.0))),
                        tail=SelfSimilarTail(1.25, 1.0, 1.0))
    return [two, fine, two.scaled(O1, 3.7), fine.scaled(O1, 100.0 * math.pi)]


def _edge_windows(measure):
    """Windows over many periods and windows whose ends are image edges."""
    T, base = measure.tail.period, measure.tail.base_lo
    x, (p, q) = measure.atom_x, measure.pieces
    return [(1e-3, 1e8), (base, base * T), (base * T ** -3, base * T ** 4),
            (x[1] * T ** 2, x[0] * T ** 9), (p.hi * T ** -2, q.lo * T ** 3),
            (q.hi * T ** 5, p.lo * T ** 7)]


class TestDensityDtype:
    """A real density is float64; a complex piece keeps it complex."""
    t = np.geomspace(1e-3, 1e6, 2001)

    def test_real_power_density(self):
        factor, s = LogPerturbFactor(), -0.3
        got = RadonMeasure.power_density(s, factor=factor).density(self.t)
        assert got.dtype == np.float64
        ulp = np.spacing(got)
        # the complex formula, as it was evaluated before
        old = np.exp(complex(s) * np.log(self.t)) * factor(self.t)
        assert np.all(np.abs(got - old.real) <= 2 * ulp)
        # e^{s ln t} carries the rounding of ln t, |s ln t| ulp
        want = self.t ** s * factor(self.t)
        assert np.all(np.abs(got - want) <= (2 + np.abs(s * np.log(self.t))) * ulp)

    def test_complex_exponent_density_is_unchanged(self):
        p = DensityPiece(0.0, math.inf, coef=1.0 + 0.0j, exponent=complex(-0.5, 3.0))
        got = RadonMeasure(pieces=(p,)).density(self.t)
        want = p.coef * np.exp(p.exponent * np.log(self.t)) * p.factor(p.arg_scale * self.t)
        assert got.dtype == np.complex128
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("third", [
        DensityPiece(2.0, 40.0, coef=-0.7, exponent=0.5, factor=LogFactor()),
        DensityPiece(2.0, 40.0, coef=0.5j, exponent=complex(0.1, 2.0)),
    ], ids=["real", "complex"])
    def test_whole_array_piece_matches_masked_sum(self, third):
        pieces = (DensityPiece(0.0, math.inf, coef=1.5, exponent=-0.4,
                               factor=LogPerturbFactor()),
                  DensityPiece(1.0, 3.0, coef=0.3, exponent=0.2), third)
        want = np.zeros(self.t.shape, dtype=np.result_type(*[p.coef for p in pieces]))
        for p in pieces:
            inside = (self.t > p.lo) & (self.t <= p.hi)
            want[inside] += p.at(self.t[inside])
        got = RadonMeasure(pieces=pieces).density(self.t)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@pytest.mark.parametrize("measure", _edge_measures(),
                         ids=["T2", "T1.25", "T2-scaled", "T1.25-scaled"])
class TestSelfSimilarImages:
    """The image-edge rule of a self-similar measure: image k of a base
    piece (lo, hi] is (lo T^k, hi T^k], of an atom x is x T^k, each product
    formed by Python's float power."""

    def test_density(self, measure):
        T, base = measure.tail.period, measure.tail.base_lo
        ends = [base] + [e for p in measure.pieces for e in (p.lo, p.hi)]
        edges = [e * T ** k for e in ends for k in range(-80, 120)]
        edges = np.array([t for t in edges if 1e-3 <= t <= 1e8])
        ts = np.concatenate([edges, np.geomspace(1e-3, 1e8, 2001)])
        got = measure.density(ts)
        want = np.array([_oracle_density(measure, t) for t in ts])
        assert np.array_equal(got == 0, want == 0)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))
        # a point alone falls in the same image as in the array
        alone = np.array([measure.density(edges[i:i + 1])[0] for i in range(edges.size)])
        assert np.array_equal(alone == 0, got[:edges.size] == 0)
        assert np.all(np.abs(alone - got[:edges.size]) <= 1e-13 * np.abs(got[:edges.size]))

    def test_breakpoints(self, measure):
        T = measure.tail.period
        ends = {e for p in measure.pieces for e in (p.lo, p.hi)}
        images = {e * T ** k for e in ends for k in range(-150, 150)}
        for lo, hi in _edge_windows(measure):
            assert measure.breakpoints_in(lo, hi) == sorted(x for x in images
                                                            if lo < x < hi)

    def test_atoms(self, measure):
        T, rho = measure.tail.period, measure.tail.rho
        images = sorted(((x * T ** k, w * T ** (rho * k)) for k in range(-150, 150)
                         for x, w in zip(measure.atom_x.tolist(),
                                         measure.atom_w.tolist())),
                        key=lambda a: a[0])
        for lo, hi in _edge_windows(measure):
            want = [(x, w) for x, w in images if lo < x <= hi]
            xs, ws = measure.atoms_in(lo, hi)
            assert xs.tolist() == [x for x, _ in want]
            want_w = np.array([w for _, w in want], dtype=complex)
            assert np.all(np.abs(ws - want_w) <= 1e-13 * np.abs(want_w))


class TestBaseWindow:
    @pytest.mark.parametrize("piece", [
        DensityPiece(1.0, 8.0), DensityPiece(1.0, math.inf), DensityPiece(0.5, 2.0),
        DensityPiece(0.0, 1.5), TabulatedPiece(1.5, 3.0, (0.0, 1.0), (1.0, 2.0))])
    def test_pieces_past_the_base_window_are_rejected(self, piece):
        # (1, 8] under T = 2 gave density 2 at t = 5 alone and 3, the sum
        # over its images k = 0, 1, 2, next to t = 0.6
        with pytest.raises(ValueError, match="base pieces must lie in the base window"):
            RadonMeasure(pieces=(piece,), tail=SelfSimilarTail(2.0, 1.0, 1.0))

    def test_scaled_images_are_accepted(self):
        # 1.25 / t and (1 / t) * 1.25 differ in the last bit for 30 of these t
        m = RadonMeasure(atoms=[(1.0, 1.0)],
                         pieces=(DensityPiece(1.0, 1.25, coef=0.5, exponent=0.3),),
                         tail=SelfSimilarTail(1.25, 1.0, 1.0))
        for t in geometric_schedule(1e2, 1e8, 176):
            scaled = m.scaled(O1, t)
            assert scaled.scaled(O1, 3.7).pieces[0].hi == scaled.pieces[0].hi / 3.7


class TestPair:
    def test_trapezoid_area(self):
        f = trapezoid_kernel(1.0, 3.0, 0.5)
        leb = RadonMeasure.power_density(0.0)
        assert leb.pair(f) == pytest.approx(1.5, rel=1e-10)

    def test_atom_on_plateau(self):
        f = trapezoid_kernel(1.0, 3.0, 0.5)
        assert RadonMeasure.from_atoms([(2.0, 5.0)]).pair(f) == pytest.approx(5.0)

    def test_linearity_in_measure(self):
        f = trapezoid_kernel(0.5, 4.0)
        a = RadonMeasure.power_density(0.3, coef=2.0)
        b = RadonMeasure.from_atoms([(1.3, 1.0 - 2.0j)])
        lhs = (a + b).pair(f)
        assert lhs == pytest.approx(a.pair(f) + b.pair(f), rel=1e-11)

    def test_total_variation_bound(self, rng):
        f = trapezoid_kernel(0.5, 4.0)
        for _ in range(10):
            atoms = [(float(x), complex(w0, w1)) for x, w0, w1 in
                     zip(rng.uniform(0.6, 3.5, 3), rng.normal(size=3),
                         rng.normal(size=3))]
            m = RadonMeasure(atoms=atoms,
                             pieces=(DensityPiece(0.0, math.inf,
                                                  coef=complex(rng.normal()),
                                                  exponent=complex(rng.uniform(-1, 1))),))
            bound = m.mass(0.5, 4.0, absolute=True) * 1.0
            assert abs(m.pair(f)) <= bound * (1 + 1e-9)

    def test_pairing_uniform_continuity(self):
        # ramp sequence converging uniformly to a sharper trapezoid
        m = RadonMeasure.power_density(-0.5)
        target = trapezoid_kernel(1.0, 3.0, 0.25)
        gaps = []
        for ramp in (0.4, 0.3, 0.26, 0.251):
            approx = trapezoid_kernel(1.0, 3.0, ramp)
            gaps.append(abs(m.pair(approx) - m.pair(target)))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 5e-3


class TestAzarinScale:
    def test_scale_invariant_power_measure(self):
        # density x^{rho-1} with V = r^rho is a fixed point of the flow
        o = ProximateOrder(1.5)
        m = RadonMeasure.power_density(0.5)
        f = trapezoid_kernel(0.5, 4.0)
        for t in (3.0, 41.7):
            assert m.scaled(o, t).pair(f) == pytest.approx(m.pair(f), rel=1e-11)

    def test_periodic_exact_recurrence(self, fam):
        m = periodic()
        t = 1.37 * 2.0 ** 36
        a = fam.pairings(m.scaled(O1, t))
        b = fam.pairings(m.scaled(O1, t * 2.0))
        assert fam.distance_from_pairings(a, b) == 0.0

    def test_point_mass_maps_to_unit(self):
        R = 77.0
        o = ProximateOrder(1.5)
        m = RadonMeasure.from_atoms([(R, R ** 1.5)])
        s = m.scaled(o, R)
        assert s.atom_x[0] == pytest.approx(1.0)
        assert s.atom_w[0] == pytest.approx(1.0)

    def test_composition_law_constant_order(self, fam):
        o = ProximateOrder(0.7)
        m = RadonMeasure.power_density(-0.4, coef=1.2)
        t1, t2 = 5.0, 11.0
        once = m.scaled(o, t1).scaled(o, t2)
        direct = m.scaled(o, t1 * t2)
        assert fam.distance_from_pairings(fam.pairings(once),
                                          fam.pairings(direct)) < 1e-12

    def test_flow_is_continuous_in_t(self, fam):
        # d(mu_{t_k}, mu_t) -> 0 as t_k -> t
        m = RadonMeasure.power_density(-0.5, factor=LogPerturbFactor())
        o = ProximateOrder(0.5)
        base = fam.pairings(m.scaled(o, 100.0))
        gaps = []
        for dt in (10.0, 1.0, 0.1):
            p = fam.pairings(m.scaled(o, 100.0 + dt))
            gaps.append(fam.distance_from_pairings(p, base))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[-1] < 1e-3


def _pairings_one_by_one(fam, measure, order, ts, quad=DEFAULT_QUAD):
    return np.array([fam.pairings(measure.scaled(order, t), quad) for t in ts])


def _per_member_path(fam, measure, ts, norms, quad_ctrl=DEFAULT_QUAD):
    """Each member's own dilation integral against a measure with no tables."""
    return np.array([measure.dilation_integrals(f, ts, norms, [f.support], quad_ctrl)[0]
                     for f in fam.members]).T


# densities that the union pass pairs with every member
_UNION_DENSITIES = [
    (RadonMeasure.power_density(-0.3, factor=LogPerturbFactor("inv_log1p")),
     ProximateOrder(0.7)),
    (RadonMeasure.power_density(complex(-0.5, 3.0)), ProximateOrder(0.5)),
    (RadonMeasure.power_density(0.2), ProximateOrder(1.2)),
]


def _knot_split_pairing(scaled, f):
    """scipy ``quad`` of f against a scaled averaged measure, split at the
    spline knots and f's kinks."""
    knots = [math.exp(x) for x in scaled.pieces[0].log_nodes]
    lo, hi = f.support
    points = sorted({u for u in knots if lo < u < hi} | set(f.nodes[1:-1]))
    want, _ = quad(lambda u: (f(u) * scaled.density(np.array([u]))[0]).real,
                   lo, hi, points=points, epsabs=0.0, epsrel=1e-13, limit=500)
    return want


def _roundtrip_transform():
    """A fresh transform whose values the roundtrip_regular flow averages."""
    measure = RadonMeasure.power_density(-0.3, factor=LogPerturbFactor("inv_log1p"))
    return KernelTransform(ExpKernel(), measure, ProximateOrder(0.7))


@pytest.fixture(scope="module")
def roundtrip_averaged(fam):
    """The averaged measure, order and schedule of the roundtrip_regular flow."""
    transform = _roundtrip_transform()
    ts = geometric_schedule(1e2, 1e8, 176)
    lo, hi = fam.support_hull()
    smoothed = averaged_measure(transform, (ts.min() * lo / 4.0, ts.max() * hi * 4.0))
    return smoothed, transform.order.shifted(1.0), ts


def _traced_peak(call):
    """The peak of the memory that ``call()`` allocates, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFlowPairings:
    """``MetricFamily.flow_pairings`` against pairing each mu_t in turn."""

    @pytest.mark.parametrize("measure, order", [
        (RadonMeasure.power_density(-0.5), ProximateOrder(0.5)),
        (RadonMeasure.power_density(-0.3, factor=LogPerturbFactor("inv_log1p")),
         ProximateOrder(0.7)),
        (RadonMeasure.power_density(complex(-0.5, 2.0), interval=(0.0, 50.0),
                                    factor=LogFactor()),
         ProximateOrder(0.5, LogPowerZero(1.0, 0.5))),
        (RadonMeasure(atoms=[(1.0, 1.0)],
                      pieces=(DensityPiece(1.0, 1.25, coef=0.5, exponent=0.3),),
                      tail=SelfSimilarTail(1.25, 1.0, 1.0)), O1),
    ], ids=["power", "perturbed-power", "log-complex-order", "self-similar"])
    def test_density_measures_agree(self, fam, measure, order):
        ts = geometric_schedule(1.0, 1e4, 9)
        want = _pairings_one_by_one(fam, measure, order, ts)
        got = fam.flow_pairings(measure, order, ts)
        traj = sample_trajectory(measure, order, ts, fam)
        assert [s.measure.pieces for s in traj] == [measure.scaled(order, t).pieces
                                                    for t in ts]
        assert got.shape == (ts.size, fam.n_members)
        assert np.all(np.abs(got - want) <= 1e-9 * np.abs(want))

    @pytest.mark.parametrize("ts, n_runs", [
        (geometric_schedule(1.0, 1e4, 9), 9),
        ([2.0 ** k for k in range(8)], 1),
    ], ids=["generic", "lattice"])
    def test_split_runs_share_only_equal_split_points(self, monkeypatch, ts, n_runs):
        # a period-2 flow sampled on powers of 2 repeats its breakpoints
        m = RadonMeasure(pieces=(DensityPiece(1.0, 2.0),),
                         tail=SelfSimilarTail(2.0, 1.0, 1.0))
        f = trapezoid_kernel(0.25, 8.0)
        calls = []

        def counting_log_quad(g, windows, quad, **kw):
            out = log_quad(g, windows, quad, **kw)
            calls.append((np.size(out[0]), sorted(set(kw["split_points"]))))
            return out

        monkeypatch.setattr(measures, "log_quad", counting_log_quad)
        m.dilation_integrals(f, ts, [1.0] * len(ts), [f.support])
        assert len(calls) == n_runs
        assert sum(n for n, _ in calls) == len(ts)
        start = 0
        for n, splits in calls:
            for t in ts[start:start + n]:
                scaled = m.scaled(O1, t)
                assert splits == sorted(set(scaled.breakpoints_in(*f.support))
                                        | set(f.nodes[1:-1]))
            start += n

    @pytest.mark.parametrize("measure, order", [
        (RadonMeasure(atoms=[(1.5, 2.0), (7.0, -0.5j), (300.0, 1.0)],
                      pieces=(DensityPiece(0.5, 3.0, coef=1.0, exponent=-0.4),
                              DensityPiece(3.0, math.inf, coef=0.3, exponent=0.2))),
         ProximateOrder(0.8)),
        (RadonMeasure(atoms=[(1.0, 1.0)],
                      pieces=(DensityPiece(1.0, 1.25, coef=0.5, exponent=0.3),),
                      tail=SelfSimilarTail(1.25, 1.0, 1.0)), O1),
    ], ids=["atoms-and-breakpoint", "self-similar"])
    def test_flow_is_transform_by_member_over_scale(self, fam, measure, order):
        # the transform at r is V(r) (mu_r, K): a member is a kernel too
        ts = geometric_schedule(1.0, 1e3, 11)
        got = fam.flow_pairings(measure, order, ts) * order.scale(ts)[:, None]
        for n in range(0, fam.n_members, 3):
            want = KernelTransform(fam.members[n], measure).values(ts)
            assert np.all(np.abs(got[:, n] - want) <= 1e-12 * np.abs(want))

    def test_equal_members_copy_their_columns(self, fam, quad_calls):
        pairs = [(n, fam.members.index(f)) for n, f in enumerate(fam.members)]
        dups = [(n, m) for n, m in pairs if m < n]
        assert dups == [(17, 0), (29, 2), (39, 1), (45, 6), (59, 5)]
        measure, ts = RadonMeasure.power_density(-0.3), geometric_schedule(1.0, 1e4, 9)
        got = fam.flow_pairings(measure, ProximateOrder(0.7), ts)
        assert len(quad_calls) <= fam.n_members - len(dups)
        for n, m in dups:
            assert np.array_equal(got[:, n], got[:, m])

    def test_tabulated_averaged_measure_agrees(self, fam, roundtrip_averaged):
        # both paths pair the spline exactly, knot interval by knot interval
        measure, order, ts = roundtrip_averaged
        sub = ts[::10]
        want = _pairings_one_by_one(fam, measure, order, sub)
        got = fam.flow_pairings(measure, order, sub)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

    def test_matches_scipy_on_averaged_flow(self, fam, roundtrip_averaged):
        measure, order, ts = roundtrip_averaged
        f, t = fam.members[13], ts[160]   # support [1, 6], t = 3.06e7
        want = _knot_split_pairing(measure.scaled(order, t), f)
        got = fam.flow_pairings(measure, order, ts)[160, 13]
        assert abs(got - want) <= 1e-10 * abs(want)

    def test_pair_meets_knot_split_scipy_on_averaged_measure(self, fam,
                                                             roundtrip_averaged):
        # GK segments that straddle the spline knots missed this by 1.9e-9
        measure, order, ts = roundtrip_averaged
        f = fam.members[13]
        scaled = measure.scaled(order, ts[160])
        want = _knot_split_pairing(scaled, f)
        assert abs(scaled.pair(f) - want) <= 1e-12 * abs(want)

    def test_union_knot_pass_meets_one_by_one_on_a_mixed_measure(self, fam):
        # the narrow table's (3.3, 7.1] clips the union knot intervals of
        # every member whose support holds it at small t
        def table(lo, hi, x, k):
            x = np.asarray(x)
            values = np.exp(k * x) * (1.0 + 0.2 * np.sin(3.0 * x))
            return TabulatedPiece(lo, hi, tuple(x.tolist()), tuple(values.tolist()))

        m = RadonMeasure(
            atoms=[(0.75, 1.0 + 2.0j), (2.5, -0.5j), (40.0, 0.25 - 1.0j)],
            pieces=(table(0.01, 1e4, np.linspace(math.log(0.01), math.log(1e4), 41),
                          complex(-0.3, 0.7)),
                    table(3.3, 7.1, [1.1, 1.4, 1.6, 1.8, 2.1], complex(0.4, -1.0)),
                    DensityPiece(0.5, 50.0, coef=0.7 - 0.2j, exponent=0.3)))
        order, ts = ProximateOrder(0.6), geometric_schedule(1.0, 1e3, 11)
        want = _pairings_one_by_one(fam, m, order, ts)
        got = fam.flow_pairings(m, order, ts)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

    def test_union_knot_pass_meets_per_member_sums(self, fam, roundtrip_averaged):
        # each member's dilation integral sums linear_integrals on its own knots
        measure, order, ts = roundtrip_averaged
        norms = order.scale(ts)
        want = np.array([measure.dilation_integrals(f, ts, norms, [f.support])[0]
                         for f in fam.members]).T
        got = fam.flow_pairings(measure, order, ts)
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))

    @pytest.mark.parametrize("linear, norms", [(True, "array"), (False, "scalar")])
    def test_scale_runs_are_bit_identical(self, monkeypatch, linear, norms):
        # runs of one scale, of a few and of all: each (piece, scale) sums
        # the same entries in the same order; at 1e-4 and 1e5 every piece
        # misses the table (cells of no entry)
        x = np.linspace(math.log(0.5), math.log(400.0), 33)
        values = np.exp(complex(-0.3, 0.8) * x) * (1.0 + 0.2 * np.sin(2.0 * x))
        table = TabulatedPiece(0.5, 400.0, tuple(x.tolist()), tuple(values.tolist()))
        u = np.array([0.25, 0.5, 1.0, 2.5, 4.0, 6.0])
        scales = np.concatenate([geometric_schedule(0.1, 20.0, 12), [1e-4, 1e5],
                                 geometric_schedule(30.0, 300.0, 11)])
        n = np.linspace(1.0, 3.0, scales.size) if norms == "array" else 2.5
        runs = []
        for entries in (1, 40, sys.maxsize):
            monkeypatch.setattr(measures, "_UNION_ENTRIES", entries)
            runs.append(table.linear_integrals(u, scales, n, linear))
        assert not runs[0][0][:, 12:14].any() and runs[0][0][:, 14].all()
        for c0, c1 in runs:
            assert c0.tobytes() == runs[-1][0].tobytes()
            assert (c1 is None) if not linear else c1.tobytes() == runs[-1][1].tobytes()

    def test_union_knot_pass_is_bounded_in_memory(self, fam, roundtrip_averaged):
        # all 28k (piece, scale, knot interval) entries at once held 7.9 MiB
        measure, order, ts = roundtrip_averaged
        fam.flow_pairings(measure, order, ts)   # builds the moment table
        assert _traced_peak(lambda: fam.flow_pairings(measure, order, ts)) <= 2 * 2 ** 20

    def test_wide_transform_batch_is_bounded_in_memory(self, roundtrip_averaged):
        # the averaged measure's 319 values; 16 rings x 319 columns held 3.6 MiB
        piece = roundtrip_averaged[0].pieces[0]
        rs = np.geomspace(piece.lo, piece.hi, len(piece.log_nodes))
        assert rs.size == 319
        assert _traced_peak(lambda: _roundtrip_transform().values(rs)) <= 2 * 2 ** 20

    def test_tabulated_flow_takes_one_moments_pass(self, fam, roundtrip_averaged,
                                                   moments_calls, dilation_calls):
        # one pass per table on the union knots, not one per distinct member
        measure, order, ts = roundtrip_averaged
        fam.flow_pairings(measure, order, ts)
        assert len(moments_calls) == len(measure.pieces) == 1
        assert dilation_calls == []

    def test_tabulated_flow_takes_no_gk_batch(self, fam, roundtrip_averaged,
                                              gk_batches_everywhere):
        measure, order, ts = roundtrip_averaged
        fam.flow_pairings(measure, order, ts)
        assert gk_batches_everywhere == []

    @pytest.mark.parametrize("measure, order", _UNION_DENSITIES,
                             ids=["perturbed-power", "complex-power", "power"])
    def test_union_density_pass_meets_scipy_and_the_per_member_path(
            self, fam, measure, order, quad_calls):
        ts = np.array([1e2, 1e5, 1e8])
        norms = order.scale(ts)
        got = fam.flow_pairings(measure, order, ts)
        assert quad_calls == []   # every member from the union pass
        per_member = _per_member_path(fam, measure, ts, norms)
        assert np.all(np.abs(got - per_member) <= 1e-14 * np.abs(per_member))
        for n, f in enumerate(fam.members):
            points = f.nodes[1:-1]
            for i, (s, v) in enumerate(zip(ts, norms)):
                want, _ = quad(lambda u: f(u) * measure.density(s * u) * s / v,
                               *f.support, points=points, complex_func=True,
                               epsabs=0.0, epsrel=2e-14, limit=200)
                assert abs(got[i, n] - want) <= 1e-13 * abs(want), (n, s)

    @pytest.mark.parametrize("measure, order, ts", [
        (RadonMeasure(atoms=[(1.5, 2.0), (700.0, -0.5j)],
                      pieces=RadonMeasure.power_density(-0.3).pieces),
         ProximateOrder(0.7), geometric_schedule(1e2, 1e5, 7)),
        (RadonMeasure.power_density(-0.3, interval=(0.0, 1e5)),
         ProximateOrder(0.7), geometric_schedule(1e2, 1e8, 7)),
        (RadonMeasure(pieces=(DensityPiece(1.0, 1.25, coef=0.5, exponent=0.3),),
                      tail=SelfSimilarTail(1.25, 1.0, 1.0)),
         O1, geometric_schedule(1.0, 1e3, 5)),
    ], ids=["atoms", "breakpoint-inside", "self-similar"])
    def test_density_outside_the_union_pass_is_the_per_member_path(
            self, fam, measure, order, ts):
        want = _per_member_path(fam, measure, ts, order.scale(ts))
        assert np.array_equal(fam.flow_pairings(measure, order, ts), want)

    def test_members_over_budget_take_the_per_member_path(self, fam):
        # a member left out of the union pass keeps the bits of its own call
        (measure, order), ts = _UNION_DENSITIES[1], geometric_schedule(1e2, 1e8, 7)
        tight, norms = QuadControl(tol=1e-14, abs_tol=0.0), order.scale(ts)
        ok = fam._union_density(measure, ts, norms, tight)[1]
        assert ok.any() and not ok.all()
        got = fam.flow_pairings(measure, order, ts, tight)
        want = _per_member_path(fam, measure, ts, norms, tight)
        assert np.array_equal(got[:, ~ok], want[:, ~ok])
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))

    def test_union_density_pass_is_bounded_in_memory(self, fam):
        # one block of all 176 scales held 9.1 MiB, the per-member loop 0.57
        cfg = builtin_config("roundtrip_regular")
        measure, order = parse_measure(cfg["measure"]), parse_order(cfg["order"])
        ts = geometric_schedule(1e2, 1e8, 176)
        fam.flow_pairings(measure, order, ts)
        assert _traced_peak(lambda: fam.flow_pairings(measure, order, ts)) <= 2.5 * 2 ** 20

    def test_union_density_blocks_are_bit_identical(self, fam, monkeypatch):
        measure, order = _UNION_DENSITIES[1]
        ts = geometric_schedule(1e2, 1e8, 40)
        runs = []
        for cells in (1, 3000, sys.maxsize):
            monkeypatch.setattr(measures, "_UNION_CELLS", cells)
            runs.append(fam.flow_pairings(measure, order, ts).tobytes())
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("measure", [
        periodic(),
        RadonMeasure.from_atoms([(math.exp(n * n), math.exp(n * n))
                                 for n in range(1, 5)]),
        RadonMeasure.from_atoms([(0.5, 1.0), (3.0, -2.0j), (40.0, 0.25)]),
    ], ids=["periodic", "sparse", "complex"])
    def test_atom_only_measures_are_bit_equal(self, fam, measure):
        order = ProximateOrder(0.8)
        ts = geometric_schedule(1.0, 1e3, 11)
        assert np.array_equal(fam.flow_pairings(measure, order, ts),
                              _pairings_one_by_one(fam, measure, order, ts))

    def test_window_error_is_the_first_one_by_one(self, fam):
        # at t = 100 the members reaching past u = 5 leave the window, at
        # t = 1000 also the first member: sample-major order reports t = 100
        m = RadonMeasure(pieces=RadonMeasure.power_density(-0.5).pieces,
                         window=(1e-3, 500.0))
        ts = [1.0, 10.0, 100.0, 1000.0]
        with pytest.raises(WindowError) as want:
            _pairings_one_by_one(fam, m, O1, ts)
        with pytest.raises(WindowError) as got:
            fam.flow_pairings(m, O1, ts)
        assert str(got.value) == str(want.value)
        assert "(1e-05, 5]" in str(got.value)

    @pytest.mark.parametrize("t", [1.0, 7.0, 100.0, 1e5])
    def test_window_check_at_a_scale_is_that_of_mu_t(self, t):
        # the check at scale t takes the window of mu_t, no mu_t built; a
        # self-similar measure has no window at any scale
        m = RadonMeasure(pieces=RadonMeasure.power_density(-0.5).pieces,
                         window=(1e-3, 500.0))
        for lo, hi in [(1e-4, 1.0), (0.5, 2.0), (0.01, 30.0)]:
            try:
                m.scaled(O1, t)._check_window(lo, hi)
            except WindowError as err:
                with pytest.raises(WindowError, match=re.escape(str(err))):
                    m._check_window(lo, hi, t)
            else:
                m._check_window(lo, hi, t)
        periodic()._check_window(1e-300, 1e300, t)


class TestMetric:
    def test_identity(self, fam):
        m = RadonMeasure.power_density(0.5)
        assert fam.distance(m, m) == 0.0

    def test_point_mass_against_zero_brute_force(self, fam):
        d = fam.distance(RadonMeasure.from_atoms([(1.0, 1.0)]),
                         RadonMeasure.zero())
        brute = 0.0
        for n, f in enumerate(fam.members, start=1):
            v = abs(float(f(np.array([1.0]))[0]))
            brute += 0.5 ** n * v / (1.0 + v)
        assert d == pytest.approx(brute, abs=1e-15)

    def test_symmetry_and_triangle(self, fam, rng):
        def random_measure():
            atoms = [(float(x), complex(w)) for x, w in
                     zip(rng.uniform(0.3, 6.0, 2), rng.normal(size=2))]
            return RadonMeasure(
                atoms=atoms,
                pieces=(DensityPiece(0.0, math.inf,
                                     coef=complex(rng.normal(), rng.normal()),
                                     exponent=complex(rng.uniform(-0.8, 0.8),
                                                      rng.uniform(-2, 2))),))

        for _ in range(12):
            p1, p2, p3 = (fam.pairings(random_measure()) for _ in range(3))
            d12 = fam.distance_from_pairings(p1, p2)
            d21 = fam.distance_from_pairings(p2, p1)
            d13 = fam.distance_from_pairings(p1, p3)
            d32 = fam.distance_from_pairings(p3, p2)
            assert d12 == d21
            assert d12 <= d13 + d32 + 1e-12

    def test_bounded_by_one(self, fam):
        huge = RadonMeasure.from_atoms([(1.5, 1e9)])
        assert fam.distance(huge, RadonMeasure.zero()) < 1.0

    def test_knots_are_np_unique(self, fam):
        want = np.unique([f.nodes for f in fam.members])
        assert fam._knots.tobytes() == want.tobytes()

    def test_family_is_dyadic_trapezoids(self, fam):
        assert len(fam.members) == 64
        first = fam.members[0]
        assert first.support == (1.0, 2.0)
        assert first.nodes[1] - first.nodes[0] == pytest.approx(0.25)
        for f in fam.members:
            # endpoints are dyadic rationals p 2^-j
            for v in f.support:
                scaled = v * 2.0 ** 10
                assert scaled == int(scaled)


class TestDensities:
    def test_power_density_upper(self):
        # density V(t)/t with V = r^rho: N(alpha) = ((1+alpha)^rho - 1)/rho
        o = ProximateOrder(1.5)
        m = RadonMeasure.power_density(0.5)
        grid = np.geomspace(1e2, 1e6, 24)
        for alpha in (0.5, 1.0):
            want = ((1 + alpha) ** 1.5 - 1.0) / 1.5
            est = upper_density(m, o, alpha, grid)
            assert est.value == pytest.approx(want, rel=1e-9)
            assert lower_density(m, o, alpha, grid).value == pytest.approx(
                want, rel=1e-9)

    def test_alpha_zero_convention(self):
        m = RadonMeasure.power_density(0.0)
        est = upper_density(m, O1, 0.0, np.geomspace(10, 1e4, 10))
        assert est.value == 0.0

    def test_negative_alpha(self):
        m = RadonMeasure.power_density(0.0)
        est = upper_density(m, O1, -0.5, np.geomspace(10, 1e4, 10))
        assert est.value == pytest.approx(-0.5, rel=1e-9)

    def test_lattice_jump(self):
        # periodic atoms: mu((r, 2r]) / r peaks at lattice points
        grid = 2.0 ** np.arange(8, 21)
        est = upper_density(periodic(), O1, 1.0, grid)
        assert est.value == pytest.approx(2.0, rel=1e-12)

    def test_requires_real_measure(self):
        m = RadonMeasure.from_atoms([(1.0, 1.0j)])
        with pytest.raises(ValueError):
            upper_density(m, O1, 1.0, np.geomspace(10, 100, 5))

    def test_combination_inequalities(self):
        # N(a+b) <= N(a) + (1+a)^rho N(b/(1+a)) and companions, at the
        # stated tolerance of twice the grid limsup resolution
        o = ProximateOrder(1.0)
        grid = np.geomspace(300.0, 1e6, 160)
        perturbed = RadonMeasure.power_density(0.0, factor=LogPerturbFactor())
        for m in (RadonMeasure.power_density(0.0), perturbed, periodic()):
            for a, b in ((0.5, 0.5), (1.0, 2.0), (0.25, 1.0)):
                n_ab = upper_density(m, o, a + b, grid)
                n_a = upper_density(m, o, a, grid)
                n_b2 = upper_density(m, o, b / (1 + a), grid)
                l_ab = lower_density(m, o, a + b, grid)
                l_a = lower_density(m, o, a, grid)
                l_b2 = lower_density(m, o, b / (1 + a), grid)
                tol = 2.0 * max(n_ab.resolution, n_a.resolution,
                                n_b2.resolution, 1e-9)
                assert n_ab.value <= n_a.value + (1 + a) * n_b2.value + tol
                assert n_ab.value >= n_a.value + (1 + a) * l_b2.value - tol
                assert l_ab.value >= l_a.value + (1 + a) * l_b2.value - tol
                assert l_ab.value <= l_a.value + (1 + a) * n_b2.value + tol


class TestClassMembership:
    def test_power_density_constant_ratio(self):
        o = ProximateOrder(1.5)
        m = RadonMeasure.power_density(0.5)
        rep = class_membership(m, o, which="tail")
        assert rep.bounded
        assert rep.sup_ratio == pytest.approx((math.e ** 1.5 - 1) / 1.5, rel=1e-9)

    def test_log_density_unbounded_for_flat_scale(self):
        m = RadonMeasure(pieces=(DensityPiece(1.0, math.inf, coef=1.0,
                                              exponent=-1.0, factor=LogFactor()),))
        rep = class_membership(m, ProximateOrder(0.0), which="tail")
        assert not rep.bounded

    def test_zero_measure(self):
        rep = class_membership(RadonMeasure.zero(), O1, which="tail")
        assert rep.bounded
        assert rep.sup_ratio == 0.0

    def test_global_vs_tail(self):
        # measure heavy near the origin: fine at infinity, not globally
        m = RadonMeasure.power_density(-2.0, interval=(0.0, 1.0)) + \
            RadonMeasure.power_density(0.0, interval=(1.0, None))
        assert class_membership(m, O1, which="tail").bounded
        assert not class_membership(m, O1, which="global").bounded

    def test_matches_scipy_on_averaged_measure(self, fam):
        # the exp_average_flow builtin's averaged measure and r grid; the
        # oracle splits (r, e r) at the spline knots, which the measure's
        # breakpoints do not list
        lo, hi = fam.support_hull()
        window = (1e2 * lo / 4.0, 1e6 * hi * 4.0)
        order = ProximateOrder(0.7)
        smoothed = averaged_measure(
            KernelTransform(ExpKernel(), RadonMeasure.power_density(-0.3), order),
            window)
        shifted = order.shifted(1.0)
        r_grid = np.geomspace(window[0] * 4.0, window[1] / 8.0, 40)
        rep = class_membership(smoothed, shifted, r_grid=r_grid)
        knots = np.exp(smoothed.pieces[0].log_nodes)
        for r, got in zip(r_grid, rep.samples):
            points = [k for k in knots if r < k < math.e * r]
            want, _ = quad(lambda t: abs(smoothed.density(np.array([t]))[0]),
                           r, math.e * r, points=points, epsabs=0.0, epsrel=1e-13,
                           limit=500)
            want /= float(shifted.scale(r))
            assert abs(got - want) <= 1e-10 * want


class TestPositivityFlags:
    def test_is_positive(self):
        assert periodic().is_positive()
        assert not RadonMeasure.from_atoms([(1.0, -1.0)]).is_positive()
        assert not RadonMeasure.power_density(complex(0, 1)).is_positive()

    def test_is_real(self):
        assert RadonMeasure.power_density(-0.5, coef=-2.0).is_real()
        assert not RadonMeasure.power_density(complex(-0.5, 3.0)).is_real()
