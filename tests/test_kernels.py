import math

import numpy as np
import pytest

from azarin.kernels import (ExpKernel, IndicatorKernel, LogSingularKernel,
                            PowerCutKernel, SmoothBumpKernel, StepKernel,
                            TableKernel, trapezoid_kernel)


def test_exp_kernel():
    k = ExpKernel()
    assert k(np.array([0.5]))[0] == pytest.approx(math.exp(-0.5))
    assert k.support == (0.0, math.inf)


def test_indicator_half_open():
    k = IndicatorKernel(0.5, 2.0)
    vals = k(np.array([0.5, 0.6, 2.0, 2.1]))
    assert list(vals) == [0.0, 1.0, 1.0, 0.0]


def test_step_kernel_combination():
    k = StepKernel(steps=((1.0, 0.0, 1.0), (-2.0, 0.0, 0.5)))
    vals = k(np.array([0.3, 0.8, 1.5]))
    assert vals[0] == pytest.approx(-1.0)
    assert vals[1] == pytest.approx(1.0)
    assert vals[2] == 0.0
    assert k.support == (0.0, 1.0)


def test_step_kernel_with_exponent():
    k = StepKernel(steps=((2.0, 0.0, 1.0, 1.0),))
    assert k(np.array([0.25]))[0] == pytest.approx(0.5)


def test_power_cut():
    k = PowerCutKernel(-0.5)
    assert k(np.array([0.25]))[0] == pytest.approx(2.0)
    assert k(np.array([1.5]))[0] == 0.0


def test_log_singular_points():
    k = LogSingularKernel()
    assert k.singular_points == (1.0,)
    assert k(np.array([2.0]))[0] == pytest.approx(math.log(0.5))


def test_table_kernel_is_trapezoid():
    k = trapezoid_kernel(1.0, 3.0)
    assert isinstance(k, TableKernel)
    assert k(np.array([1.25]))[0] == pytest.approx(0.5)
    assert k(np.array([2.0]))[0] == 1.0
    assert k(np.array([3.5]))[0] == 0.0


def test_table_kernel_is_piecewise_linear_when_continuous():
    assert trapezoid_kernel(1.0, 3.0).piecewise_linear
    assert TableKernel((0.0, 1.0), (0.0, 0.0)).piecewise_linear
    assert not TableKernel((1.0, 2.0), (1.0, 1.0)).piecewise_linear
    assert not TableKernel((1.0, 2.0), (0.0, 1.0)).piecewise_linear
    assert not ExpKernel().piecewise_linear


class TestSmoothBump:
    def test_peak_and_support(self):
        k = SmoothBumpKernel(1.0, 2.0)
        assert k(np.array([1.5]))[0] == pytest.approx(1.0)
        assert k(np.array([1.0]))[0] == 0.0
        assert k(np.array([2.0]))[0] == 0.0

    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_derivatives_match_finite_differences(self, j):
        k = SmoothBumpKernel(1.0, 2.0)
        d = k.derivative(j)
        lower = k.derivative(j - 1)
        h = 1e-6
        for t in (1.2, 1.5, 1.83):
            fd = (lower(np.array([t + h]))[0] - lower(np.array([t - h]))[0]) / (2 * h)
            got = d(np.array([t]))[0]
            assert got == pytest.approx(fd, rel=2e-5, abs=1e-4)

    def test_derivatives_vanish_at_edges(self):
        k = SmoothBumpKernel(1.0, 2.0)
        for j in range(0, 5):
            vals = k.derivative(j)(np.array([0.9, 1.0, 2.0, 2.2]))
            assert np.all(vals == 0.0)

    def test_order_cap(self):
        k = SmoothBumpKernel(1.0, 2.0, n_max=3)
        with pytest.raises(ValueError):
            k.derivative(4)
