import math

import numpy as np
import pytest
from scipy.integrate import quad

from azarin import measures
from azarin.dynamics import geometric_schedule
from azarin.kernels import ExpKernel
from azarin.measures import (DensityPiece, LogFactor, LogPerturbFactor,
                             RadonMeasure, SelfSimilarTail, TestFunction,
                             azarin_scale, class_membership, lower_density,
                             upper_density)
from azarin.numerics import QuadControl, WindowError, log_quad
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

    def test_window_error(self):
        m = RadonMeasure(atoms=[(1.0, 1.0)], window=(0.5, 10.0))
        with pytest.raises(WindowError):
            m.mass(1.0, 100.0)

    def test_abs_mass_of_signed(self):
        m = RadonMeasure.from_atoms([(1.0, 1.0), (2.0, -3.0)])
        assert m.mass(0.5, 3.0) == pytest.approx(-2.0)
        assert m.abs_mass(0.5, 3.0) == pytest.approx(4.0)

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


class TestPair:
    def test_trapezoid_area(self):
        f = TestFunction(1.0, 3.0, ramp=0.5)
        leb = RadonMeasure.power_density(0.0)
        assert leb.pair(f) == pytest.approx(1.5, rel=1e-10)

    def test_atom_on_plateau(self):
        f = TestFunction(1.0, 3.0, ramp=0.5)
        assert RadonMeasure.from_atoms([(2.0, 5.0)]).pair(f) == pytest.approx(5.0)

    def test_zero_amplitude(self):
        f = TestFunction(1.0, 3.0, ramp=0.5, amplitude=0.0)
        assert RadonMeasure.power_density(0.0).pair(f) == 0.0

    def test_linearity_in_measure(self):
        f = TestFunction(0.5, 4.0)
        a = RadonMeasure.power_density(0.3, coef=2.0)
        b = RadonMeasure.from_atoms([(1.3, 1.0 - 2.0j)])
        lhs = (a + b).pair(f)
        assert lhs == pytest.approx(a.pair(f) + b.pair(f), rel=1e-11)

    def test_total_variation_bound(self, rng):
        f = TestFunction(0.5, 4.0)
        for _ in range(10):
            atoms = [(float(x), complex(w0, w1)) for x, w0, w1 in
                     zip(rng.uniform(0.6, 3.5, 3), rng.normal(size=3),
                         rng.normal(size=3))]
            m = RadonMeasure(atoms=atoms,
                             pieces=(DensityPiece(0.0, math.inf,
                                                  coef=complex(rng.normal()),
                                                  exponent=complex(rng.uniform(-1, 1))),))
            bound = m.abs_mass(0.5, 4.0) * 1.0
            assert abs(m.pair(f)) <= bound * (1 + 1e-9)

    def test_pairing_uniform_continuity(self):
        # ramp sequence converging uniformly to a sharper trapezoid
        m = RadonMeasure.power_density(-0.5)
        target = TestFunction(1.0, 3.0, ramp=0.25)
        gaps = []
        for ramp in (0.4, 0.3, 0.26, 0.251):
            approx = TestFunction(1.0, 3.0, ramp=ramp)
            gaps.append(abs(m.pair(approx) - m.pair(target)))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 5e-3


class TestAzarinScale:
    def test_scale_invariant_power_measure(self):
        # density x^{rho-1} with V = r^rho is a fixed point of the flow
        o = ProximateOrder(1.5)
        m = RadonMeasure.power_density(0.5)
        f = TestFunction(0.5, 4.0)
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


def _pairings_one_by_one(fam, measure, order, ts, quad=None):
    return np.array([fam.pairings(measure.scaled(order, t), quad) for t in ts])


@pytest.fixture(scope="module")
def roundtrip_averaged(fam):
    """The averaged measure, order and schedule of the roundtrip_regular flow."""
    measure = RadonMeasure.power_density(-0.3, factor=LogPerturbFactor("inv_log1p"))
    order = ProximateOrder(0.7)
    ts = geometric_schedule(1e2, 1e8, 176)
    lo, hi = fam.support_hull()
    smoothed = averaged_measure(KernelTransform(ExpKernel(), measure, order),
                                (ts.min() * lo / 4.0, ts.max() * hi * 4.0))
    return smoothed, order.shifted(1.0), ts


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
        scaled, got = fam.flow_pairings(measure, order, ts)
        assert [s.pieces for s in scaled] == [measure.scaled(order, t).pieces
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
        f = TestFunction(0.25, 8.0)
        calls = []

        def counting_log_quad(g, lo, hi, quad, **kw):
            out = log_quad(g, lo, hi, quad, **kw)
            calls.append((np.size(out), sorted(set(kw["split_points"]))))
            return out

        monkeypatch.setattr(measures, "log_quad", counting_log_quad)
        m.dilation_integrals(f, ts, [1.0] * len(ts), f.lo, f.hi)
        assert len(calls) == n_runs
        assert sum(n for n, _ in calls) == len(ts)
        start = 0
        for n, splits in calls:
            for t in ts[start:start + n]:
                scaled = m.scaled(O1, t)
                assert splits == sorted(set(scaled.breakpoints_in(f.lo, f.hi))
                                        | set(f.knots[1:-1]))
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
        got = fam.flow_pairings(measure, order, ts)[1] * order.scale(ts)[:, None]
        for n in range(0, fam.n_members, 3):
            want = KernelTransform(fam.members[n], measure).values(ts)
            assert np.all(np.abs(got[:, n] - want) <= 1e-12 * np.abs(want))

    def test_tabulated_averaged_measure_agrees(self, fam, roundtrip_averaged):
        measure, order, ts = roundtrip_averaged
        # at the default tolerance the one-by-one path misses this spline
        # density by up to 2e-9 (see test_matches_scipy_on_averaged_flow),
        # so both paths run at a tolerance where it resolves it
        fine = QuadControl(tol=1e-12)
        sub = ts[::10]
        want = _pairings_one_by_one(fam, measure, order, sub, fine)
        _, got = fam.flow_pairings(measure, order, sub, fine)
        assert np.all(np.abs(got - want) <= 1e-9 * np.abs(want))

    def test_matches_scipy_on_averaged_flow(self, fam, roundtrip_averaged):
        measure, order, ts = roundtrip_averaged
        f, t = fam.members[13], ts[160]   # support [1, 6], t = 3.06e7
        scaled = measure.scaled(order, t)
        knots = [math.exp(x) for x in scaled.pieces[0].log_nodes]
        points = sorted({u for u in knots if f.lo < u < f.hi} | set(f.knots[1:-1]))
        want, _ = quad(lambda u: (f(u) * scaled.density(np.array([u]))[0]).real,
                       f.lo, f.hi, points=points, epsabs=0.0, epsrel=1e-13,
                       limit=500)
        got = fam.flow_pairings(measure, order, ts)[1][160, 13]
        assert abs(got - want) <= 1e-10 * abs(want)

    @pytest.mark.parametrize("measure", [
        periodic(),
        RadonMeasure.from_atoms([(math.exp(n * n), math.exp(n * n))
                                 for n in range(1, 5)]),
        RadonMeasure.from_atoms([(0.5, 1.0), (3.0, -2.0j), (40.0, 0.25)]),
    ], ids=["periodic", "sparse", "complex"])
    def test_atom_only_measures_are_bit_equal(self, fam, measure):
        order = ProximateOrder(0.8)
        ts = geometric_schedule(1.0, 1e3, 11)
        assert np.array_equal(fam.flow_pairings(measure, order, ts)[1],
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

    def test_tail_bound(self, fam):
        assert fam.tail_bound == 2.0 ** -64

    def test_family_is_dyadic_trapezoids(self, fam):
        assert len(fam.members) == 64
        first = fam.members[0]
        assert (first.lo, first.hi) == (1.0, 2.0)
        assert first.ramp == pytest.approx(0.25)
        for f in fam.members:
            # endpoints are dyadic rationals p 2^-j
            for v in (f.lo, f.hi):
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


class TestPositivityFlags:
    def test_is_positive(self):
        assert periodic().is_positive()
        assert not RadonMeasure.from_atoms([(1.0, -1.0)]).is_positive()
        assert not RadonMeasure.power_density(complex(0, 1)).is_positive()

    def test_is_real(self):
        assert RadonMeasure.power_density(-0.5, coef=-2.0).is_real()
        assert not RadonMeasure.power_density(complex(-0.5, 3.0)).is_real()


def test_azarin_scale_alias():
    m = RadonMeasure.power_density(0.0)
    out = azarin_scale(m, O1, 10.0)
    assert isinstance(out, RadonMeasure)
