import math

import numpy as np
import pytest

from scipy.integrate import quad, quad_vec

from azarin.numerics import (DEFAULT_QUAD, DivergenceError, QuadControl,
                             QuadratureError, adaptive_quad, golden_section_min,
                             improper_quad, log_quad)


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


# a negligible absolute floor, so that each column is held to its relative budget
FINE = QuadControl(abs_tol=1e-30)


def _columns(*fns):
    return lambda x: np.stack([g(x) for g in fns], axis=1)


def _oracle(g, a, b, points=None):
    return quad_vec(g, a, b, epsabs=0.0, epsrel=1e-13, points=points)[0]


def _assert_columns(got, fns, a, b, points=None, rtol=1e-9):
    assert got.shape == (len(fns),)
    for val, g in zip(got, fns):
        want = _oracle(g, a, b, points)
        assert abs(val - want) <= rtol * abs(want), (val, want)


def test_vector_integrand_smooth_columns():
    # the second column is 1e-12 the size of the first and oscillates
    fns = [np.exp, lambda x: 1e-12 * np.cos(40.0 * x) * np.exp(-x),
           lambda x: np.sin(3.0 * x) + 1j * x ** 2]
    _assert_columns(adaptive_quad(_columns(*fns), 0.0, 2.0, FINE), fns, 0.0, 2.0)


def test_vector_integrand_kink_at_split_point():
    fns = [lambda x: np.ones_like(x), lambda x: 1e-12 * np.abs(x - 0.3) ** 1.5,
           lambda x: np.abs(x - 0.3)]
    got = adaptive_quad(_columns(*fns), 0.0, 1.0, FINE, split_points=[0.3])
    _assert_columns(got, fns, 0.0, 1.0, points=[0.3])


def test_vector_columns_keep_their_own_budget():
    # a kink off the split points in the small column only: a budget shared
    # with the constant column would stop after the first batch
    fns = [lambda x: np.ones_like(x), lambda x: 1e-12 * np.sqrt(np.abs(x - 0.3))]
    got = adaptive_quad(_columns(*fns), 0.0, 1.0, FINE)
    _assert_columns(got, fns, 0.0, 1.0, points=[0.3])


def test_log_quad_vector_integrand():
    fns = [lambda t: t ** -0.3, lambda t: 1e-12 * np.abs(np.log(t / 3.0)) * t ** 0.5]
    got = log_quad(_columns(*fns), 0.5, 8.0, FINE, split_points=[3.0])
    _assert_columns(got, fns, 0.5, 8.0, points=[3.0])


def test_vector_column_that_cannot_converge_raises():
    with pytest.raises(QuadratureError) as err:
        adaptive_quad(_columns(np.ones_like, lambda x: 1.0 / x), 0.0, 1.0)
    assert err.value.estimate.shape == (2,)


def _scipy_quad(g, a, b, points=None):
    return quad(lambda x: float(g(np.array([x]))[0]), a, b, points=points,
                epsabs=0.0, epsrel=1e-13, limit=500)[0]


def _log_gap(x):
    return np.log(np.abs(x - 0.7))


@pytest.mark.parametrize("g, a, b, singular, ctrl", [
    (_log_gap, 0.0, 2.0, [0.7], DEFAULT_QUAD),
    # a bisection at an x^-1/2 end shrinks its error only by sqrt(2), so
    # 1e-10 is out of reach within the segment and depth caps
    (lambda x: x ** -0.5, 0.0, 1.0, [0.0], QuadControl(tol=1e-8)),
], ids=["interior-log", "endpoint-inverse-sqrt"])
def test_singular_integrands_match_scipy(g, a, b, singular, ctrl):
    got = adaptive_quad(g, a, b, ctrl, singular_points=singular)
    want = _scipy_quad(g, a, b, points=[p for p in singular if a < p < b] or None)
    assert abs(got - want) <= 10 * ctrl.tol * abs(want), (got, want)


def test_vector_log_singular_column_beside_tiny_smooth_column():
    # the summed test accepts the log column long before its narrowest
    # segments meet their length share; the 1e-12 column keeps its own budget
    fns = [_log_gap, lambda x: 1e-12 * np.exp(x)]
    got = adaptive_quad(_columns(*fns), 0.0, 2.0, FINE, singular_points=[0.7])
    assert got.shape == (2,)
    for val, g in zip(got, fns):
        want = _scipy_quad(g, 0.0, 2.0, points=[0.7])
        assert abs(val - want) <= 10 * FINE.tol * abs(want), (val, want)


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


def test_golden_section_min():
    x, v = golden_section_min(lambda x: (x - 1.3) ** 2 + 0.25, 0.0, 2.0)
    assert abs(x - 1.3) < 1e-8
    assert abs(v - 0.25) < 1e-12
