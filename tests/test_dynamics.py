import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from azarin.dynamics import (_single_linkage, convergence_trend, estimate_limit_set,
                             geometric_schedule, positive_regularity_criterion,
                             sample_trajectory, verify_regular_limit_form)
from azarin.measures import (DensityPiece, LogPerturbFactor, RadonMeasure,
                             SelfSimilarTail, upper_density)
from azarin.orders import ProximateOrder, TabulatedZero

O1 = ProximateOrder(1.0)


def slow_drift_order(rho=0.5):
    xs = np.linspace(0.0, 60.0, 2401)
    etas = (1.0 - xs ** 2) / ((1.0 + xs ** 2) * (1.0 + xs + xs ** 2))
    return ProximateOrder(rho, TabulatedZero(xs=tuple(xs), etas=tuple(etas)))


def periodic():
    return RadonMeasure(atoms=[(1.0, 1.0)], tail=SelfSimilarTail(2.0, 1.0, 1.0))


def sparse():
    return RadonMeasure(atoms=[(math.exp(n * n), math.exp(n * n))
                               for n in range(1, 13)])


def sparse_schedule():
    xs = sorted(math.exp(n * n) for n in range(5, 11))
    out = []
    for a, b in zip(xs[:-1], xs[1:]):
        out += [a, math.sqrt(a * b)]
    out.append(xs[-1])
    return np.array(sorted(out))


class TestTrajectory:
    def test_fixed_point_density(self, fam):
        m = RadonMeasure.power_density(0.0)
        traj = sample_trajectory(m, O1, geometric_schedule(10, 1e4, 12), fam)
        base = traj[0].pairings
        for s in traj[1:]:
            assert fam.distance_from_pairings(s.pairings, base) < 1e-11

    def test_periodic_schedule_constant(self, fam):
        m = periodic()
        tau = 1.3
        sched = np.array([tau * 2.0 ** k for k in range(20, 32)])
        traj = sample_trajectory(m, O1, sched, fam)
        base = traj[0].pairings
        for s in traj[1:]:
            assert fam.distance_from_pairings(s.pairings, base) == 0.0

    def test_one_vector_integral_per_member(self, fam, gk_batches_everywhere):
        # the roundtrip_regular flow: a per-sample pairing loop would take
        # one GK batch per (sample, member), 176 * 64 of them
        m = RadonMeasure.power_density(-0.3, factor=LogPerturbFactor("inv_log1p"))
        traj = sample_trajectory(m, ProximateOrder(0.7),
                                 geometric_schedule(1e2, 1e8, 176), fam)
        assert len(traj) == 176
        assert 0 < len(gk_batches_everywhere) <= 4 * fam.n_members

    def test_only_representatives_are_built(self, fam, monkeypatch):
        # the flow is pairings only; mu_t is built once per cluster, for its
        # representative, where 176 + clusters were built before
        calls = []
        scaled = RadonMeasure.scaled

        def counted(self, order, t):
            calls.append(t)
            return scaled(self, order, t)

        monkeypatch.setattr(RadonMeasure, "scaled", counted)
        m, order = RadonMeasure.power_density(complex(-0.5, 3.0)), ProximateOrder(0.5)
        traj = sample_trajectory(m, order, geometric_schedule(1e2, 1e8, 176), fam)
        est = estimate_limit_set(traj, fam, eps_cluster=1e-3)
        assert len(traj) == 176 and len(est.clusters) > 1
        assert calls == est.representative_ts
        for rep, t in zip(est.representatives, est.representative_ts):
            assert rep.pieces == scaled(m, order, t).pieces

    def test_schedule_validation(self, fam):
        with pytest.raises(ValueError):
            sample_trajectory(periodic(), O1, [0.5, 2.0], fam)
        with pytest.raises(ValueError):
            sample_trajectory(periodic(), O1, [4.0, 2.0], fam)


class TestLimitSetRecovery:
    def test_slow_drift_single_cluster(self, fam):
        order = slow_drift_order()
        m = RadonMeasure(pieces=(DensityPiece(0.0, math.inf, coef=1.0,
                                              exponent=-0.5,
                                              factor=LogPerturbFactor("inv_log")),))
        traj = sample_trajectory(m, order, geometric_schedule(1e3, 1e6, 48), fam)
        est = estimate_limit_set(traj, fam, eps_cluster=1e-3)
        assert est.regular
        target = fam.pairings(RadonMeasure.power_density(-0.5))
        d = fam.distance_from_pairings(est.limit_pairings[0], target)
        assert d <= 1e-3
        fit = verify_regular_limit_form(est, order)
        assert fit.passed
        assert fit.coefficient == pytest.approx(1.0, abs=2e-3)

    def test_oscillating_density_traces_circle(self, fam):
        lam0 = 3.0
        order = ProximateOrder(0.5)
        m = RadonMeasure.power_density(complex(-0.5, lam0))
        traj = sample_trajectory(m, order, geometric_schedule(1e3, 1e6, 48), fam)
        est = estimate_limit_set(traj, fam, eps_cluster=1e-3)
        assert len(est.clusters) > 1
        for t_star, p in zip(est.representative_ts, est.representative_pairings):
            phase = complex(np.exp(1j * lam0 * math.log(t_star)))
            nu = RadonMeasure.power_density(complex(-0.5, lam0), coef=phase)
            d = fam.distance_from_pairings(p, fam.pairings(nu))
            assert d < 1e-3

    def test_periodic_family(self, fam):
        m = periodic()
        taus = [2.0 ** (k / 16.0) for k in range(16)]
        sched = np.sort(np.array([tau * 2.0 ** k for tau in taus
                                  for k in range(34, 37)]))
        traj = sample_trajectory(m, O1, sched, fam)
        est = estimate_limit_set(traj, fam, eps_cluster=1e-3,
                                 transient_fraction=0.0, top_decades=30.0)
        assert len(est.clusters) == 16
        for tau in taus:
            p = fam.pairings(m.scaled(O1, tau))
            d = min(fam.distance_from_pairings(p, q)
                    for q in est.representative_pairings)
            assert d <= 2e-3

    def test_distances_are_distance_from_pairings_bit_for_bit(self, fam):
        # 48 samples: six blocks of rows, the last one short
        m = RadonMeasure.power_density(complex(-0.5, 3.0))
        traj = sample_trajectory(m, ProximateOrder(0.5),
                                 geometric_schedule(1e3, 1e6, 48), fam)
        est = estimate_limit_set(traj, fam, transient_fraction=0.0,
                                 top_decades=100.0)
        want = np.array([[fam.distance_from_pairings(a.pairings, b.pairings)
                          for b in est.samples] for a in est.samples])
        assert np.array_equal(est.distances, want)

    def test_broadcast_distances_are_scalar_calls_bit_for_bit(self, fam, rng):
        # pairings over many decades of size, so that every term of the
        # metric, 1/(1 + |diff|) included, takes its own rounding
        def pairings(*shape):
            size = 10.0 ** rng.uniform(-12, 3, shape + (fam.n_members,))
            return size * np.exp(2j * np.pi * rng.uniform(size=size.shape))

        a, b = pairings(5), pairings(7)
        d = fam.distance_from_pairings(a[:, None], b[None])
        want = [[fam.distance_from_pairings(p, q) for q in b] for p in a]
        assert d.shape == (5, 7)
        assert d.tobytes() == np.array(want).tobytes()
        rows = fam.distance_from_pairings(a, b[:5])
        assert rows.tobytes() == np.array(want).diagonal().tobytes()
        assert type(fam.distance_from_pairings(a[0], b[0])) is float
        assert type(fam.distance_from_pairings(list(a[0]), list(b[0]))) is float

    def test_trend_steps_are_scalar_calls_bit_for_bit(self, fam):
        traj = sample_trajectory(periodic(), O1, geometric_schedule(1e2, 1e8, 40), fam)
        kept = traj[4:]
        want = [fam.distance_from_pairings(x.pairings, y.pairings)
                for x, y in zip(kept[:-1], kept[1:])]
        steps = convergence_trend(traj, fam).steps
        assert np.array(steps).tobytes() == np.array(want).tobytes()

    def test_sparse_two_clusters_with_zero(self, fam):
        traj = sample_trajectory(sparse(), O1, sparse_schedule(), fam)
        est = estimate_limit_set(traj, fam, transient_fraction=0.0,
                                 top_decades=100.0)
        assert len(est.clusters) == 2
        assert est.zero_cluster.count(True) == 1

    def test_nonempty(self, fam):
        traj = sample_trajectory(periodic(), O1,
                                 geometric_schedule(10, 1e5, 16), fam)
        est = estimate_limit_set(traj, fam)
        assert len(est.clusters) >= 1

    def test_needs_ten_samples(self, fam):
        traj = sample_trajectory(periodic(), O1,
                                 geometric_schedule(10, 100, 4), fam)
        with pytest.raises(ValueError):
            estimate_limit_set(traj, fam)

    def test_subsequence_stability(self, fam):
        # two interleaved schedules give matching representatives
        order = slow_drift_order()
        m = RadonMeasure(pieces=(DensityPiece(0.0, math.inf, coef=1.0,
                                              exponent=-0.5,
                                              factor=LogPerturbFactor("inv_log")),))
        full = geometric_schedule(1e3, 1e6, 48)
        a = sample_trajectory(m, order, full[0::2], fam)
        b = sample_trajectory(m, order, full[1::2], fam)
        ea = estimate_limit_set(a, fam, eps_cluster=1e-3)
        eb = estimate_limit_set(b, fam, eps_cluster=1e-3)
        d = fam.distance_from_pairings(ea.limit_pairings[0], eb.limit_pairings[0])
        assert d <= 2e-3


class TestRegularForm:
    def test_requires_regular(self, fam):
        est = estimate_limit_set(sample_trajectory(periodic(), O1,
                                                   np.sort(np.array([1.3 * 2.0 ** k for k in range(20, 30)] + [1.7 * 2.0 ** k for k in range(20, 30)])), fam),
                                 fam, transient_fraction=0.0, top_decades=30.0)
        assert not est.regular
        with pytest.raises(ValueError):
            verify_regular_limit_form(est, O1)

    def test_zero_trajectory_fits_zero(self, fam):
        z = RadonMeasure.zero()
        traj = sample_trajectory(z, O1, geometric_schedule(10, 1e4, 12), fam)
        est = estimate_limit_set(traj, fam)
        assert est.regular and est.zero_cluster[0]
        fit = verify_regular_limit_form(est, O1)
        assert fit.passed
        assert abs(fit.coefficient) < 1e-12


class TestPositiveRegularity:
    def test_positive_order_branch(self, dilation_calls):
        m = RadonMeasure.power_density(0.0)
        rep = positive_regularity_criterion(m, O1, np.geomspace(1e2, 1e6, 20))
        assert len(dilation_calls) == 1   # one mass integral for the grid
        assert rep.branch == "head"
        assert rep.regular
        assert rep.limit_estimate == pytest.approx(1.0, rel=1e-3)

    def test_periodic_oscillates(self):
        rep = positive_regularity_criterion(periodic(), O1,
                                            np.geomspace(1e2, 1e6, 20))
        assert not rep.regular
        assert rep.oscillation > 0.01

    def test_zero_order_branch(self):
        m = RadonMeasure.power_density(-1.0)
        rep = positive_regularity_criterion(m, ProximateOrder(0.0),
                                            np.geomspace(1e2, 1e6, 10))
        assert rep.branch == "window"
        assert rep.regular
        assert rep.limit_estimate == pytest.approx(1.0, rel=1e-6)

    def test_negative_order_branch(self):
        m = RadonMeasure.power_density(-1.5)
        rep = positive_regularity_criterion(m, ProximateOrder(-0.5),
                                            np.geomspace(1e2, 1e5, 8))
        assert rep.branch == "tail"
        assert rep.regular
        assert rep.limit_estimate == pytest.approx(2.0, rel=1e-6)
        # mu((r, oo)) / V(r) = 2 at every r; the Cauchy rings of
        # mu((r_max, oo)) stop at an absolute error of ~1e-10
        assert np.allclose(rep.samples, 2.0, rtol=5e-8, atol=0.0)

    def test_signed_measure_rejected(self):
        m = RadonMeasure.from_atoms([(1.0, -1.0)])
        with pytest.raises(ValueError):
            positive_regularity_criterion(m, O1, np.geomspace(10, 100, 5))


class TestTrend:
    def test_stationary_converges(self, fam):
        m = RadonMeasure.power_density(0.0)
        traj = sample_trajectory(m, O1, geometric_schedule(10, 1e6, 24), fam)
        rep = convergence_trend(traj, fam)
        assert rep.converged

    def test_periodic_plateau_detected(self, fam):
        # irrational spacing keeps the flow visiting distinct phases
        traj = sample_trajectory(periodic(), O1,
                                 geometric_schedule(1e2, 1e8, 80), fam)
        rep = convergence_trend(traj, fam)
        assert not rep.converged
        assert rep.ratio > 0.5


class TestSigmaEnvelope:
    def test_periodic_envelope_holds(self, fam):
        m = periodic()
        grid = 2.0 ** np.arange(8, 22)  # lattice-aligned so peaks are seen

        def n1(alpha):
            return upper_density(m, O1, alpha, grid).value

        # inf over q > 1 of N1(q - 1) / |q**rho - 1| at rho = 1, with q
        # restricted to powers of the lattice period, where the aligned grid
        # estimator of the limsup is exact
        sigma = min(n1(q - 1) / abs(q - 1) for q in (2, 4, 8))
        assert sigma == pytest.approx(2.0, rel=1e-9)
        taus = [2.0 ** (k / 16.0) for k in range(16)]
        sched = np.sort(np.array([tau * 2.0 ** k for tau in taus
                                  for k in range(34, 37)]))
        est = estimate_limit_set(sample_trajectory(m, O1, sched, fam), fam,
                                 transient_fraction=0.0, top_decades=30.0)
        for rep in est.representatives:
            r = 1.9
            assert rep.mass(1e-9, r, absolute=True) <= sigma * r * (1 + 1e-9)

    def test_reweighting_reduces_to_constant_order(self, fam):
        # d(lambda) = d(mu)/W turns the general flow into the constant one:
        # the two trajectories merge and share the extrapolated limit; here
        # d(mu) = t**-0.3 W(t) dt, so d(lambda) = t**-0.3 dt
        from azarin.measures import ZeroScaleFactor
        from azarin.orders import LogLogZero
        zp = LogLogZero(2.0)
        full = ProximateOrder(0.7, zp)
        const = ProximateOrder(0.7)
        mu = RadonMeasure.power_density(-0.3, factor=ZeroScaleFactor(zp))
        lam = RadonMeasure.power_density(-0.3)
        gaps = []
        for t in (1e2, 1e4, 1e6):
            gaps.append(fam.distance_from_pairings(
                fam.pairings(mu.scaled(full, t)),
                fam.pairings(lam.scaled(const, t))))
        assert gaps[0] > gaps[1] > gaps[2]
        sched = geometric_schedule(1e2, 1e8, 32)
        e_mu = estimate_limit_set(sample_trajectory(mu, full, sched, fam), fam,
                                  eps_cluster=5e-2)
        e_lam = estimate_limit_set(sample_trajectory(lam, const, sched, fam), fam)
        d = fam.distance_from_pairings(e_mu.limit_pairings[0],
                                       e_lam.limit_pairings[0])
        assert d < 5e-3

    def test_variation_dominates_limits(self):
        # |nu| <= limit of |mu|_t on intervals (variation trajectory bound)
        m = RadonMeasure(atoms=[(1.0, 1.0), (4.0, -2.0)],
                         pieces=(DensityPiece(0.0, math.inf, coef=-0.5,
                                              exponent=0.0),))
        abs_m = RadonMeasure(atoms=[(1.0, 1.0), (4.0, 2.0)],
                             pieces=(DensityPiece(0.0, math.inf, coef=0.5,
                                                  exponent=0.0),))
        t = 37.5
        nu = m.scaled(O1, t)
        nu_hat = abs_m.scaled(O1, t)
        for (a, b) in ((0.7, 1.6), (0.02, 0.2)):
            assert abs(nu.mass(a, b)) <= nu_hat.mass(a, b).real + 1e-12


def _union_find(dist, eps):
    """Single linkage by union-find over the upper triangle of ``dist``:
    the reference for ``_single_linkage``."""
    n = dist.shape[0]
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n):
        for j in range(i + 1, n):
            if dist[i, j] <= eps:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values(), key=lambda g: min(g))


_EPS = 1e-3
# entries at and next to eps, far ones, NaN and inf
_ENTRIES = st.sampled_from([0.0, 0.5 * _EPS, _EPS, math.nextafter(_EPS, 1.0), 0.5,
                            2.0, math.inf, math.nan, math.nan])


@given(n=st.integers(1, 16), data=st.data())
def test_single_linkage_is_union_find(n, data):
    upper = np.array(data.draw(st.lists(_ENTRIES, min_size=n * n, max_size=n * n)))
    upper = np.triu(upper.reshape(n, n), 1)
    dist = upper + upper.T
    np.fill_diagonal(dist, data.draw(st.sampled_from([0.0, math.nan])))
    got = _single_linkage(dist, _EPS)
    assert got == _union_find(dist, _EPS)
    assert all(type(i) is int for group in got for i in group)


def test_single_linkage_of_a_long_chain():
    # a path through the indices in a scrambled order: one component,
    # reached only link by link
    n = 60
    order = np.random.default_rng(7).permutation(n)
    dist = np.full((n, n), 1.0)
    dist[order[:-1], order[1:]] = dist[order[1:], order[:-1]] = _EPS
    assert _single_linkage(dist, _EPS) == [list(range(n))]
    dist[order[29], order[30]] = dist[order[30], order[29]] = math.nan
    assert _single_linkage(dist, _EPS) == _union_find(dist, _EPS)
    assert len(_single_linkage(dist, _EPS)) == 2
