import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

from azarin import carleman
from azarin.carleman import (CarlemanTransform, RealMeasure,
                             carleman_bound_report, spectrum_jump_scan)

LEBESGUE = RealMeasure(pieces=((None, None, 1.0, 0.0),))


class TestValue:
    def test_lebesgue_closed_form(self):
        ct = CarlemanTransform(LEBESGUE)
        for x in np.linspace(-5.0, 5.0, 7):
            for y in (0.1, 1.0, 4.0, -0.1, -2.0):
                z = complex(x, y)
                assert abs(ct.value(z) - 1j / z) < 1e-10

    def test_lebesgue_quadrature_oracle(self):
        # independent coarse Riemann check of the damped integral
        ct = CarlemanTransform(LEBESGUE)
        z = 0.7 + 0.9j
        ts = np.linspace(0.0, 60.0, 600001)
        riemann = np.trapezoid(np.exp(1j * ts * z), ts)
        assert abs(ct.value(z) - riemann) < 1e-6

    def test_halved_atom_at_origin(self):
        ct = CarlemanTransform(RealMeasure(atoms=((0.0, 1.0),)))
        assert ct.value(2.0 + 1.0j) == pytest.approx(0.5)
        assert ct.value(2.0 - 1.0j) == pytest.approx(-0.5)

    def test_linearity(self):
        a = RealMeasure(pieces=((None, None, 1.0, 0.0),))
        b = RealMeasure(atoms=((1.0, 2.0),))
        both = RealMeasure(atoms=((1.0, 2.0),), pieces=((None, None, 1.0, 0.0),))
        z = 0.3 + 0.5j
        assert CarlemanTransform(both).value(z) == pytest.approx(
            CarlemanTransform(a).value(z) + CarlemanTransform(b).value(z))

    def test_real_axis_rejected(self):
        with pytest.raises(ValueError):
            CarlemanTransform(LEBESGUE).value(1.0 + 0.0j)


def _quad_side(coef, freq, z, a, b):
    """scipy's integral of coef * e^{i (freq + z) t} over finite (a, b)."""
    def g(t):
        return coef * cmath.exp(1j * (freq + z) * t)
    re = quad(lambda t: g(t).real, a, b, limit=500,
              epsabs=0.0, epsrel=1e-12)[0]
    im = quad(lambda t: g(t).imag, a, b, limit=500,
              epsabs=0.0, epsrel=1e-12)[0]
    return complex(re, im)


def _quad_tail(coef, freq, z, near):
    """scipy's integral of coef * e^{i (freq + z) t} from near to +-oo.

    With t = near + d s (d = +1 above the axis, -1 below) the integrand is
    coef e^{i w near} e^{-|Im z| s} e^{i d (freq + Re z) s}; scipy's Fourier
    weights handle the slow damping that defeats plain quad at Im z = 1e-3.
    """
    d = 1.0 if z.imag > 0 else -1.0
    omega = d * (freq + z.real)
    damp = abs(z.imag)
    re = quad(lambda s: math.exp(-damp * s), 0.0, np.inf, weight="cos",
              wvar=omega)[0]
    im = quad(lambda s: math.exp(-damp * s), 0.0, np.inf, weight="sin",
              wvar=omega)[0]
    return coef * cmath.exp(1j * (freq + z) * near) * complex(re, im)


def _close(got, want, rel):
    assert np.isfinite(got)
    assert abs(got - want) <= rel * abs(want)


class TestQuadOracle:
    """Pieces and atoms against scipy.integrate.quad, not the closed form."""

    @pytest.mark.parametrize("piece, z", [
        ((-3.0, 2.0, 0.8 - 0.3j, 1.7), 0.4 + 0.7j),
        ((-3.0, 2.0, 0.8 - 0.3j, 1.7), 0.4 - 0.7j),
        ((-3.0, 2.0, 0.8 - 0.3j, 1.7), -2.0 + 3.0j),
        ((-3.0, 2.0, 0.8 - 0.3j, 1.7), -2.0 - 3.0j),
        ((-3.0, 2.0, 0.8 - 0.3j, 1.7), 0.5 + 1e-3j),
        ((-3.0, 2.0, 0.8 - 0.3j, 1.7), 0.5 - 1e-3j),
        # freq + Re z is (almost) 0, so iw is (almost) the small Im z alone
        ((-4.0, 3.0, 1.0, -1.3), 1.3 + 1e-9 + 0.5j),
        ((-4.0, 3.0, 1.0, -1.3), 1.3 - 1e-9 - 0.5j),
        ((-4.0, 3.0, 1.0, -1.3), 1.3 + 1e-3j),
        ((-4.0, 3.0, 1.0, -1.3), 1.3 - 1e-3j),
        # anchoring at -200 would take e^{-2000} * e^{1990}, i.e. 0 * inf
        ((-200.0, -1.0, 1.0, 0.5), 0.3 - 10.0j),
    ])
    def test_finite_piece(self, piece, z):
        lo, hi, coef, freq = piece
        ct = CarlemanTransform(RealMeasure(pieces=(piece,)))
        if z.imag > 0:
            want = _quad_side(coef, freq, z, max(lo, 0.0), hi)
        else:
            want = -_quad_side(coef, freq, z, lo, min(hi, 0.0))
        _close(ct.value(z), want, 1e-12)

    @pytest.mark.parametrize("piece, near, z", [
        ((1.0, None, -0.6, 2.5), 1.0, 0.5 + 1e-3j),
        ((1.0, None, -0.6, 2.5), 1.0, 0.5 + 0.8j),
        ((1.0, None, -0.6, 2.5), 1.0, -1.0 + 4.0j),
        ((None, -0.5, 0.4j, 2.0), -0.5, 0.5 - 1e-3j),
        ((None, -0.5, 0.4j, 2.0), -0.5, 0.5 - 0.8j),
        ((None, -0.5, 0.4j, 2.0), -0.5, -1.0 - 4.0j),
    ])
    def test_half_infinite_piece(self, piece, near, z):
        _, _, coef, freq = piece
        ct = CarlemanTransform(RealMeasure(pieces=(piece,)))
        sign = 1.0 if z.imag > 0 else -1.0
        _close(ct.value(z), sign * _quad_tail(coef, freq, z, near), 1e-10)

    @pytest.mark.parametrize("x, z", [(30.0, 0.5 + 2.5j), (-30.0, 0.5 - 2.5j)])
    def test_strongly_damped_atom(self, x, z):
        # x |Im z| = 75: the atom is tiny but not zero
        ct = CarlemanTransform(RealMeasure(atoms=((x, 2.0),)))
        sign = 1.0 if z.imag > 0 else -1.0
        _close(ct.value(z), sign * 2.0 * cmath.exp(1j * x * z), 1e-13)


class TestBound:
    def test_lebesgue_within_unit_bound(self):
        rep = carleman_bound_report(CarlemanTransform(LEBESGUE), 1.0)
        assert rep.passed

    def test_atom_at_origin_within_bound(self):
        ct = CarlemanTransform(RealMeasure(atoms=((0.0, 1.0),)))
        rep = carleman_bound_report(ct, 1.0)
        assert rep.passed
        assert rep.max_ratio <= 0.5

    def test_declared_constant_too_small_fails(self):
        ct = CarlemanTransform(RealMeasure(pieces=((None, None, 3.0, 0.0),)))
        rep = carleman_bound_report(ct, 1.0)
        assert not rep.passed


class TestJumpScan:
    def test_lebesgue_flags_origin_only(self):
        rep = spectrum_jump_scan(CarlemanTransform(LEBESGUE), (-1.0, 1.0))
        assert rep.flagged == (0.0,)

    def test_oscillatory_measure_flags_frequency(self):
        ct = CarlemanTransform(RealMeasure(pieces=((None, None, 1.0, -3.0),)))
        rep = spectrum_jump_scan(ct, (2.0, 4.0))
        assert len(rep.flagged) >= 1
        assert all(abs(x - 3.0) <= 0.05 for x in rep.flagged)

    def test_zero_measure_flags_nothing(self):
        rep = spectrum_jump_scan(CarlemanTransform(RealMeasure()), (-1.0, 1.0))
        assert rep.flagged == ()


# --- the array path against the scalar one ----------------------------------

MEASURES = {
    "atom-at-origin": RealMeasure(atoms=((0.0, 1.0),)),
    "atoms-both-sides": RealMeasure(atoms=((0.0, 0.5 - 0.25j), (1.5, -0.3),
                                           (-2.25, 0.7j))),
    "finite-piece": RealMeasure(pieces=((-3.0, 2.0, 0.8 - 0.3j, 1.7),)),
    "right-of-origin": RealMeasure(pieces=((0.5, 4.0, 1.0, -1.3),)),
    "half-infinite": RealMeasure(pieces=((1.0, None, -0.6, 2.5),
                                         (None, -0.5, 0.4j, 2.0))),
    "whole-line": LEBESGUE,
    "oscillating": RealMeasure(pieces=((None, None, 1.0, -3.0),)),
    "mixed": RealMeasure(atoms=((0.0, 1.0), (1.5, -0.3)),
                         pieces=((None, None, 1.0, 0.0),
                                 (-2.0, 3.0, 0.5 - 0.2j, 1.3))),
}


def _random_zs(seed, n=400):
    rng = np.random.default_rng(seed)
    heights = 10.0 ** rng.uniform(-3.0, 1.0, n)
    return rng.uniform(-20.0, 20.0, n) + 1j * rng.choice([-1.0, 1.0], n) * heights


def loop_bound_report(ct, bound_constant):
    """The scalar-loop bound report that ``carleman_bound_report`` replaced."""
    heights = np.geomspace(0.05, 10.0, 12)
    ys = np.concatenate([heights, -heights])
    worst = 0.0
    worst_pt = complex(0.0, 1.0)
    for x in np.linspace(-50.0, 50.0, 41):
        for y in ys:
            z = complex(float(x), float(y))
            ratio = abs(ct.value(z)) / (bound_constant * (1.0 + 1.0 / abs(y)))
            if ratio > worst:
                worst = ratio
                worst_pt = z
    return worst, worst <= 1.0 + 1e-6, worst_pt


def loop_jump_scan(ct, x_window):
    """The scalar-loop jump scan that ``spectrum_jump_scan`` replaced."""
    lo, hi = x_window
    xs = np.linspace(lo, hi, int(round((hi - lo) / 0.05)) + 1)
    rows, flagged = [], []
    for x in xs:
        jumps = [abs(ct.value(complex(x, h)) - ct.value(complex(x, -h)))
                 for h in (0.16, 0.08, 0.04, 0.02, 0.01)]
        rows.append((float(x), tuple(jumps)))
        if jumps[-1] > max(1e-6, jumps[0]):
            flagged.append(float(x))
    return tuple(flagged), tuple(rows)


class TestValues:
    @pytest.mark.parametrize("name", sorted(MEASURES))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_values_match_value(self, name, seed):
        ct = CarlemanTransform(MEASURES[name])
        zs = _random_zs(seed)
        got = ct.values(zs)
        want = np.array([ct.value(z) for z in zs])
        assert got.dtype == complex and got.shape == zs.shape
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))

    def test_shape_is_kept(self):
        ct = CarlemanTransform(MEASURES["mixed"])
        zs = _random_zs(2, 12).reshape(3, 4)
        got = ct.values(zs)
        assert got.shape == (3, 4)
        for z, g in zip(zs.ravel(), got.ravel()):
            assert abs(g - ct.value(z)) <= 1e-15 * abs(ct.value(z))

    def test_far_atoms_raise_no_floating_point_error(self):
        # e^{-1e3 |Im z|} underflows to 0 on the side an atom reaches; on the
        # other side it would be e^{+1e3 |Im z|} and overflow
        ct = CarlemanTransform(RealMeasure(atoms=((1e3, 1.0), (-1e3, 2.0), (0.0, 1.0)),
                                           pieces=((None, None, 1.0, 0.0),)))
        zs = _random_zs(3)
        with np.errstate(all="raise"):
            got = ct.values(zs)
        want = np.array([ct.value(z) for z in zs])
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))

    @pytest.mark.parametrize("zs", [[1.0 + 1.0j, 2.0], [0.0j], [[1j, 3.0 - 0.0j]]])
    def test_real_axis_rejected(self, zs):
        with pytest.raises(ValueError, match="off the real axis"):
            CarlemanTransform(LEBESGUE).values(zs)


class TestArrayChecks:
    @pytest.mark.parametrize("name", sorted(MEASURES))
    @pytest.mark.parametrize("bound_constant", [0.3, 1.0, 3])
    def test_bound_report_matches_the_loop(self, name, bound_constant):
        ct = CarlemanTransform(MEASURES[name])
        rep = carleman_bound_report(ct, bound_constant)
        ratio, passed, worst_point = loop_bound_report(ct, bound_constant)
        # numpy's complex product and quotient may round apart from Python's
        assert rep.max_ratio == pytest.approx(ratio, rel=1e-15, abs=0.0)
        assert (rep.passed, rep.worst_point) == (passed, worst_point)
        assert type(rep.max_ratio) is float and type(rep.passed) is bool
        assert type(rep.worst_point) is complex

    def test_bound_ties_keep_the_first_maximum(self):
        # |G| = 1/2 everywhere: the ratio peaks at |y| = 10 for every x, and
        # the first of those in x-major order is (-50, 10)
        ct = CarlemanTransform(RealMeasure(atoms=((0.0, 1.0),)))
        rep = carleman_bound_report(ct, 1.0)
        assert rep.worst_point == complex(-50.0, 10.0)
        assert (rep.max_ratio, rep.passed, rep.worst_point) == loop_bound_report(ct, 1.0)

    def test_bound_of_the_zero_measure(self):
        rep = carleman_bound_report(CarlemanTransform(RealMeasure()), 1.0)
        assert tuple(rep) == (0.0, True, 1j) == loop_bound_report(
            CarlemanTransform(RealMeasure()), 1.0)
        assert type(rep.max_ratio) is float

    @pytest.mark.parametrize("name", sorted(MEASURES))
    @pytest.mark.parametrize("window", [(-1.0, 1.0), (2.0, 4.0), (-3.0, 3.0),
                                        (0.5, 0.5)])
    def test_jump_scan_matches_the_loop(self, name, window):
        ct = CarlemanTransform(MEASURES[name])
        rep = spectrum_jump_scan(ct, window)
        flagged, rows = loop_jump_scan(ct, window)
        assert rep.flagged == flagged
        assert [x for x, _ in rep.rows] == [x for x, _ in rows]
        for (x, got), (_, want) in zip(rep.rows, rows):
            assert all(type(g) is float for g in got)
            # a jump is a difference: relative to the values it is taken from
            scale = [abs(ct.value(complex(x, h))) + abs(ct.value(complex(x, -h)))
                     for h in rep.heights]
            assert np.all(np.abs(np.subtract(got, want)) <= 1e-15 * np.array(scale))

    def test_jump_scan_blocks_change_nothing(self, monkeypatch):
        ct = CarlemanTransform(MEASURES["mixed"])
        whole = spectrum_jump_scan(ct, (-2.0, 2.0))
        monkeypatch.setattr(carleman, "_JUMP_BLOCK", 3)
        blocks = spectrum_jump_scan(ct, (-2.0, 2.0))
        assert len(whole.rows) == 81
        assert blocks == whole
