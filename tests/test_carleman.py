import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

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
