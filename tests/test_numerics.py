import math

import numpy as np
import pytest

from azarin.numerics import (DivergenceError, QuadControl, adaptive_quad,
                             golden_section_min, improper_quad, log_quad,
                             panel_integrate)


def test_adaptive_polynomials_exact():
    val = adaptive_quad(lambda x: x ** 3 - 2 * x + 1, -1.0, 2.0)
    assert abs(val - (15.0 / 4.0 - 3.0 + 3.0)) < 1e-12


def test_adaptive_oscillatory():
    val = adaptive_quad(lambda x: np.sin(x), 0.0, math.pi)
    assert abs(val - 2.0) < 1e-10


def test_adaptive_complex_integrand():
    val = adaptive_quad(lambda x: np.exp(1j * x), 0.0, math.pi / 2.0)
    assert abs(val - (1.0 + 1j)) < 1e-10


def test_split_points_respected():
    def f(x):
        return np.where(x < 1.0, 1.0, 3.0)

    val = adaptive_quad(f, 0.0, 2.0, split_points=[1.0])
    assert abs(val - 4.0) < 1e-12


def test_graded_endpoint_singularity():
    # integrable log singularity at 0
    val = adaptive_quad(lambda x: np.log(x), 0.0, 1.0, singular_points=[0.0])
    assert abs(val - (-1.0)) < 1e-8


def test_log_quad_power():
    val = log_quad(lambda t: t ** 1.5, 0.5, 8.0)
    want = (8.0 ** 2.5 - 0.5 ** 2.5) / 2.5
    assert abs(val - want) < 1e-9 * want


def test_improper_exponential():
    val = improper_quad(lambda t: np.exp(-t), 0.0, None)
    assert abs(val - 1.0) < 1e-9


def test_improper_both_ends():
    # integral of t^{-1/2} e^{-t} = Gamma(1/2)
    val = improper_quad(lambda t: np.exp(-t) / np.sqrt(t), 0.0, None)
    assert abs(val - math.sqrt(math.pi)) < 1e-8


def test_improper_divergence_carries_partials():
    with pytest.raises(DivergenceError) as err:
        improper_quad(lambda t: 1.0 / t, 0.0, 1.0)
    assert len(err.value.partials) > 2


def test_float_range_exit_accepts_after_one_calm_ring():
    # with 1e100-fold rings each end leaves the float range after two rings:
    # exp(-t) has one calm ring per end and is accepted
    wide = QuadControl(expansion=1e100)
    val = improper_quad(lambda t: np.exp(-t), 0.0, None, wide)
    assert abs(val - 1.0) < 1e-9


def test_float_range_exit_rejects_without_a_calm_ring():
    wide = QuadControl(expansion=1e100)
    with pytest.raises(DivergenceError) as err:
        improper_quad(lambda t: 1.0 / t, 1.0, None, wide)
    # core (1, 4], then two rings of log(1e100) each before 4e300 > 1e300
    assert len(err.value.partials) == 3


def test_extra_terms_enter_cauchy_criterion():
    atoms = np.array([2.0 ** -k for k in range(1, 40)])
    weights = np.array([4.0 ** -k for k in range(1, 40)])

    def extra(a, b):
        mask = (atoms > a) & (atoms <= b)
        return complex(np.sum(weights[mask]))

    val = improper_quad(lambda t: np.zeros_like(t), 0.0, 1.0, extra_terms=extra)
    assert abs(val - np.sum(weights)) < 1e-12


def test_panel_integrate():
    edges = np.linspace(0.0, 1.0, 11)
    assert abs(panel_integrate(lambda x: x * x, edges) - 1.0 / 3.0) < 1e-12


def test_golden_section_min():
    x, v = golden_section_min(lambda x: (x - 1.3) ** 2 + 0.25, 0.0, 2.0)
    assert abs(x - 1.3) < 1e-8
    assert abs(v - 0.25) < 1e-12
