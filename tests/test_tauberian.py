import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from azarin.dynamics import estimate_limit_set, geometric_schedule, sample_trajectory
from azarin.kernels import (ExpKernel, IndicatorKernel, LogSingularKernel,
                            PowerCutKernel, StepKernel)
from azarin.measures import (DensityPiece, LogPerturbFactor, RadonMeasure,
                             SelfSimilarTail)
from azarin.numerics import DivergenceError
from azarin.orders import ProximateOrder
from azarin.special import lanczos_gamma
from azarin.tauberian import (_SymbolQuadrature, mellin_symbol,
                              mellin_symbol_table, tauberian_roundtrip,
                              verify_exponential_solution, wiener_zero_scan)

LATTICE = StepKernel(steps=((1.0, 0.0, 1.0), (-2.0, 0.0, 0.5)))
LAM1 = 2.0 * math.pi / math.log(2.0)


class TestSymbol:
    def test_exp_at_zero(self):
        assert mellin_symbol(ExpKernel(), 1.0, 0.0) == pytest.approx(1.0, rel=1e-9)

    def test_exp_matches_gamma_oracle(self):
        got = mellin_symbol(ExpKernel(), 1.0, 2.0)
        want = lanczos_gamma(1.0 + 2.0j)
        assert abs(got - want) < 1e-10
        assert abs(got) ** 2 == pytest.approx(
            2.0 * math.pi / math.sinh(2.0 * math.pi), rel=1e-8)

    def test_lattice_closed_form(self):
        lam = 3.7
        want = (1.0 - 2.0 ** (-1j * lam)) / (1.0 + 1j * lam)
        assert abs(mellin_symbol(LATTICE, 1.0, lam) - want) < 1e-10

    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.7])
    def test_log_singular_closed_form(self, rho):
        # integral of ln|1 - 1/t| t^(s-1) dt = pi cot(pi s) / s, 0 < Re s < 1
        lams = np.linspace(-20.0, 20.0, 161)
        s = rho + 1j * lams
        want = np.pi / np.tan(np.pi * s) / s
        got = np.array(mellin_symbol_table(LogSingularKernel(), rho, lams).values)
        assert np.max(np.abs(got - want)) <= 5e-10 * np.max(np.abs(want))

    @given(st.floats(min_value=0.01, max_value=25.0))
    def test_conjugate_symmetry_real_kernel(self, lam):
        a = mellin_symbol(LATTICE, 1.0, lam)
        b = mellin_symbol(LATTICE, 1.0, -lam)
        assert abs(a - b.conjugate()) <= 1e-10

    def test_table_matches_scalar(self):
        lams = np.linspace(-5.0, 5.0, 11)
        table = mellin_symbol_table(LATTICE, 1.0, lams)
        for lam, v in zip(table.lambda_grid, table.values):
            assert abs(v - mellin_symbol(LATTICE, 1.0, lam)) < 1e-10

    @pytest.mark.parametrize("lo", [0.0, 0.01])
    def test_accepts_at_hard_support_edge(self, lo):
        # a finite support end is the edge of the core window, so it takes
        # no rings: the last panel up to ln 10 (and ln 0.01) need not be calm
        lams = np.linspace(-3.0, 3.0, 7)
        table = mellin_symbol_table(IndicatorKernel(lo, 10.0), 1.0, lams)
        want = (10.0 ** (1.0 + 1j * lams) - lo ** (1.0 + 1j * lams)) \
            / (1.0 + 1j * lams)
        assert np.max(np.abs(np.asarray(table.values) - want)) < 1e-10

    def test_support_above_default_core(self):
        # the support (5, 10] is the whole core window: one GK15 set of 7
        # panels, none of them below the support
        lams = np.linspace(-20.0, 20.0, 81)
        sq = _SymbolQuadrature(IndicatorKernel(5.0, 10.0), 1.0, 20.0)
        assert sq.xs.size <= 105
        assert math.log(5.0) < sq.xs.min() and sq.xs.max() < math.log(10.0)
        s = 1.0 + 1j * lams
        want = (10.0 ** s - 5.0 ** s) / s
        assert np.max(np.abs(sq.values(lams) - want)) < 1e-10 * np.max(np.abs(want))

    def test_rings_are_calm_by_absolute_mass(self):
        # K(t) t**(rho-1) = t**(-1 + i b) on (0, 1]: in x = ln t every ring of
        # width ln 4 holds a whole period of e^{i b x}, so its signed integral
        # vanishes while its absolute mass stays ln 4
        rho = 0.5
        b = 2.0 * math.pi / math.log(4.0)
        with pytest.raises(DivergenceError, match="zero"):
            mellin_symbol(PowerCutKernel(complex(-rho, b)), rho, 0.0)


class TestZeroScan:
    def test_lattice_zeros(self):
        rep = wiener_zero_scan(LATTICE, 1.0, window=(-20.0, 20.0), step=0.01)
        expected = [k * LAM1 for k in (-2, -1, 0, 1, 2)]
        assert len(rep.zeros) == len(expected)
        got = sorted(z for z, _ in rep.zeros)
        for g, e in zip(got, sorted(expected)):
            assert abs(g - e) <= 1e-6
        assert not rep.nonvanishing

    def test_exp_nonvanishing(self):
        rep = wiener_zero_scan(ExpKernel(), 1.0, window=(-20.0, 20.0), step=0.01)
        assert rep.nonvanishing
        assert rep.zeros == ()

    def test_vanishing_constant_detected(self):
        # kernel tuned so the symbol value at lambda = 0 is zero
        k = StepKernel(steps=((1.0, 0.0, 1.0), (-1.0 / (math.e - 1.0), 1.0, math.e)))
        val = mellin_symbol(k, 1.0, 0.0)
        assert abs(val) < 1e-10
        rep = wiener_zero_scan(k, 1.0, window=(-3.0, 3.0), step=0.01)
        assert any(abs(z) < 1e-6 for z, _ in rep.zeros)


class TestExponentialSolutions:
    # the measure-side kernel for the lattice problem carries weight t
    KT = StepKernel(steps=((1.0, 0.0, 1.0, 1.0), (-2.0, 0.0, 0.5, 1.0)))

    def test_lattice_solution(self):
        rep = verify_exponential_solution(self.KT, 0.0, [LAM1], [1.0],
                                          [1.0, math.e, math.e ** 2])
        assert rep.passed
        assert rep.max_residual <= 1e-6

    def test_zero_frequency_solution(self):
        # 0 is a symbol zero of the same kernel
        rep = verify_exponential_solution(self.KT, 0.0, [0.0], [1.0],
                                          [1.0, math.e])
        assert rep.passed

    def test_negative_control(self):
        rep = verify_exponential_solution(self.KT, 0.0, [1.0], [1.0],
                                          [1.0, math.e, math.e ** 2])
        assert not rep.passed
        assert rep.max_residual > 1e-3


class TestAffineFamilyStructure:
    def test_limit_densities_fit_exceptional_family(self, fam):
        # kernel with nonzero mean and one symmetric zero pair in-window:
        # K = chi_(0,1] + 2 chi_(0,1/2] has symbol (1 + 2^{-i lam})/(1+i lam)
        kernel = StepKernel(steps=((1.0, 0.0, 1.0), (2.0, 0.0, 0.5)))
        lam0 = math.pi / math.log(2.0)
        assert abs(mellin_symbol(kernel, 1.0, lam0)) < 1e-10
        c1 = mellin_symbol(kernel, 1.0, 0.0)
        assert abs(c1 - 2.0) < 1e-9
        # measure with density (1 + 0.25 t^{-i lam0}) dt
        m = RadonMeasure.power_density(0.0) + \
            RadonMeasure.power_density(complex(0.0, -lam0), coef=0.25)
        o = ProximateOrder(1.0)
        tr_vals = [KernelTransform_value(kernel, m, r) for r in (3.0, 17.0)]
        for r, v in zip((3.0, 17.0), tr_vals):
            assert v == pytest.approx(2.0 * r, rel=1e-9)  # averaged side regular
        sched = np.sort(np.array([2.0 ** (j / 8.0) * 2.0 ** p
                                  for j in range(8) for p in range(24, 27)]))
        est = estimate_limit_set(sample_trajectory(m, o, sched, fam), fam,
                                 transient_fraction=0.0, top_decades=30.0)
        basis = [
            fam.pairings(RadonMeasure.power_density(0.0)),
            fam.pairings(RadonMeasure.power_density(complex(0.0, -lam0))),
            fam.pairings(RadonMeasure.power_density(complex(0.0, lam0))),
        ]
        A = np.column_stack(basis)
        for p in est.representative_pairings:
            coef, res, *_ = np.linalg.lstsq(A, p, rcond=None)
            fitted = A @ coef
            rel = np.linalg.norm(p - fitted) / np.linalg.norm(p)
            assert rel <= 0.01
            assert coef[0] == pytest.approx(1.0, abs=1e-6)  # c/c1 = 2/2


def KernelTransform_value(kernel, measure, r):
    from azarin.transforms import KernelTransform
    return KernelTransform(kernel, measure).value(r)


class TestRoundtrip:
    def test_regular_perturbed_measure(self):
        o = ProximateOrder(0.7)
        m = RadonMeasure(pieces=(DensityPiece(0.0, math.inf, coef=1.0,
                                              exponent=-0.3,
                                              factor=LogPerturbFactor("inv_log1p")),))
        rep = tauberian_roundtrip(ExpKernel(), o, m)
        assert rep.passed
        assert rep.ratio_error <= 0.02
        assert abs(rep.symbol_at_zero - lanczos_gamma(0.7)) < 1e-8

    def test_periodic_negative_control(self):
        per = RadonMeasure(atoms=[(1.0, 1.0)], tail=SelfSimilarTail(2.0, 1.0, 1.0))
        rep = tauberian_roundtrip(ExpKernel(), ProximateOrder(1.0), per)
        assert not rep.passed
        assert rep.failed_stage == "averaged-regularity"

    def test_unbounded_measure_fails_membership(self):
        from azarin.measures import LogFactor
        bad = RadonMeasure(pieces=(DensityPiece(1.0, math.inf, coef=1.0,
                                                exponent=-1.0,
                                                factor=LogFactor()),))
        rep = tauberian_roundtrip(ExpKernel(), ProximateOrder(0.0), bad,
                                  schedule=geometric_schedule(1e2, 1e6, 24))
        assert not rep.passed
        assert rep.failed_stage == "class-membership"

    def test_averaged_consistency_with_kernel_transforms(self, fam):
        # stage (i) regular: recovered mu-limit reproduces the averaged
        # density through the kernel transform within 1%
        o = ProximateOrder(0.7)
        m = RadonMeasure.power_density(-0.3)
        from azarin.transforms import (KernelTransform, averaged_measure,
                                       verify_averaged_limit_densities)
        tr = KernelTransform(ExpKernel(), m, o)
        sched = geometric_schedule(1e2, 1e5, 24)
        hull = fam.support_hull()
        s = averaged_measure(tr, (sched.min() * hull[0] / 4.0,
                                  sched.max() * hull[1] * 4.0))
        s_est = estimate_limit_set(
            sample_trajectory(s, o.shifted(1.0), sched, fam), fam)
        mu_est = estimate_limit_set(sample_trajectory(m, o, sched, fam), fam)
        rep = verify_averaged_limit_densities(tr, s_est, mu_est, tol=0.01)
        assert rep.passed
