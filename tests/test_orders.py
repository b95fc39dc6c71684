import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from azarin.catalog import _slow_drift_eta
from azarin.numerics import SingularPointError
from azarin import orders
from azarin.orders import (LogLogZero, LogPowerZero, ProximateOrder,
                           TabulatedZero, _grid_supremum, log_potter_factor,
                           poisson_smoothed_scale, potter_bound_report,
                           potter_decay_scan, potter_factor, potter_factor_lower)

LP = ProximateOrder(0.0, LogPowerZero(1.0, 0.5))
LL = ProximateOrder(0.0, LogLogZero(2.0))


def tabulated_family():
    # slope grid of a mild symmetric scale, with deterministic "noise"
    xs = np.linspace(0.0, 40.0, 801)
    etas = 0.4 * np.exp(-xs / 6.0) * (1.0 + 0.05 * np.sin(7.0 * xs))
    return ProximateOrder(0.0, TabulatedZero(xs=tuple(xs), etas=tuple(etas)))


FAMILIES = [ProximateOrder(0.0), LP, LL, tabulated_family()]


class TestScale:
    def test_power_case(self):
        assert ProximateOrder(2.0).scale(3.0) == pytest.approx(9.0, abs=1e-12)

    def test_log_of_log_at_e(self):
        assert LL.scale(math.e) == pytest.approx(2.0, abs=1e-12)

    def test_log_power_closed_form(self):
        assert LP.scale(math.exp(4.0)) == pytest.approx(math.exp(2.0), rel=1e-12)

    def test_scale_is_one_at_one(self):
        for order in FAMILIES:
            assert float(order.scale(1.0)) == 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            LP.scale(0.0)
        with pytest.raises(ValueError):
            LP.scale(-2.0)

    def test_symmetry_of_zero_scale(self):
        for order in FAMILIES:
            for r in (1.7, 31.0, 4096.0):
                assert float(order.zero_scale(r)) == pytest.approx(
                    float(order.zero_scale(1.0 / r)), rel=1e-12)

    def test_zero_part_decays_on_dyadic_grid(self):
        # rho_hat(10^k) decreasing in magnitude toward zero
        for order in FAMILIES[1:]:
            rs = 10.0 ** np.arange(1, 9)
            rho_hat = np.log(order.zero_scale(rs)) / np.log(rs)
            mags = np.abs(rho_hat)
            assert np.all(np.diff(mags) < 1e-12)
            assert mags[-1] < mags[0]


class TestLogDerivative:
    def test_constant_order(self):
        assert ProximateOrder(2.0).log_derivative(7.0) == pytest.approx(2.0)

    def test_log_power(self):
        # d/dx x^(1/2) at x = 4
        assert LP.log_derivative(math.exp(4.0)) == pytest.approx(0.25, rel=1e-12)

    def test_log_of_log(self):
        assert LL.log_derivative(math.e) == pytest.approx(1.0, rel=1e-12)

    def test_singular_at_one(self):
        with pytest.raises(SingularPointError):
            LP.log_derivative(1.0)

    def test_matches_finite_difference(self):
        h = 1e-6
        for order in FAMILIES:
            for r in (0.37, 5.5, 900.0):
                fd = (order.log_scale(r * math.exp(h))
                      - order.log_scale(r * math.exp(-h))) / (2.0 * h)
                assert float(order.log_derivative(r)) == pytest.approx(
                    float(fd), rel=1e-5, abs=1e-7)

    def test_slow_variation_condition(self):
        # r ln r rho'(r) = log_derivative - rho_hat -> 0 (slowly) on a
        # doubling grid: monotone decay and a halved final value suffice
        for order in FAMILIES[1:]:
            rs = 10.0 ** np.array([2.0, 4.0, 8.0, 16.0, 32.0])
            rho_hat = np.log(order.zero_scale(rs)) / np.log(rs)
            drift = np.abs(np.asarray(order.log_derivative(rs)) - rho_hat)
            assert drift[-1] < drift[-2] < drift[-3]
            assert drift[-1] < 0.5 * np.max(drift)


class TestPotterFactor:
    def test_flat_family(self):
        assert potter_factor(ProximateOrder(3.0), 5.0) == 1.0

    def test_at_one_exact(self):
        for order in FAMILIES:
            assert potter_factor(order, 1.0) == 1.0
            assert potter_factor_lower(order, 1.0) == 1.0

    def test_concave_closed_form(self):
        t = math.exp(9.0)
        assert potter_factor(LP, t) == pytest.approx(math.exp(3.0), rel=1e-12)

    @pytest.mark.parametrize("t", [0.5, 1e-3, 1e-8, 3.7e-20])
    def test_concave_closed_form_below_one(self, t, monkeypatch):
        # h(x + tau) <= h(|x| + |tau|) <= h(x) + h(|tau|) for h even, concave
        # and nondecreasing on [0, oo): the supremum h(|tau|) for t < 1 too,
        # the value of the grid search bit for bit, with no search
        want = _grid_supremum(LP.zero_part, math.log(t))

        def no_search(*args):
            raise AssertionError("the concave case searched a grid")

        monkeypatch.setattr(orders, "_grid_supremum", no_search)
        assert log_potter_factor(LP, math.log(t)) == want
        assert potter_factor(LP, t) == math.exp(want)

    @pytest.mark.parametrize("order", FAMILIES, ids=["flat", "log-power", "log-log",
                                                    "tabulated"])
    def test_array_of_tau_is_one_call_per_tau(self, order):
        taus = np.array([[-3.0, 0.0, 2.5], [2.5, 40.0, -0.1]])
        got = log_potter_factor(order, taus)
        assert got.shape == taus.shape
        want = [log_potter_factor(order, x) for x in taus.ravel().tolist()]
        # a concave order's batched power may differ from the scalar one by rounding
        rtol = 1e-15 if order is LP else 0.0
        assert got.ravel().tolist() == (want if rtol == 0.0
                                        else pytest.approx(want, rel=rtol, abs=0.0))
        assert type(log_potter_factor(order, 2.5)) is float

    def test_search_runs_once_per_distinct_tau(self, monkeypatch):
        searched = []
        inner = orders._grid_supremum

        def counted(zero_part, tau):
            searched.append(tau)
            return inner(zero_part, tau)

        monkeypatch.setattr(orders, "_grid_supremum", counted)
        log_potter_factor(LL, [1.0, -2.0, 1.0, 0.0, -2.0])
        assert searched == [1.0, -2.0]

    @pytest.mark.parametrize("order", FAMILIES, ids=["flat", "log-power", "log-log",
                                                    "tabulated"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_tau_raises_before_any_search(self, order, bad, monkeypatch):
        # the table gave nan with warnings, the log-log grid inf, nan gave nan
        def no_search(*args):
            raise AssertionError("searched at a non-finite tau")

        monkeypatch.setattr(orders, "_grid_supremum", no_search)
        monkeypatch.setattr(orders, "_tabulated_supremum", no_search)
        for tau in (bad, [1.0, bad, 2.0], np.array([[0.5], [bad]])):
            with pytest.raises(ValueError, match="finite ln t, got %r" % bad):
                log_potter_factor(order, tau)
        if bad > 0 or bad != bad:
            with pytest.raises(ValueError, match="got %r" % bad):
                potter_factor(order, bad)

    @pytest.mark.parametrize("order", FAMILIES, ids=["flat", "log-power", "log-log",
                                                    "tabulated"])
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_decay_scan_rejects_non_finite_t(self, order, bad):
        # t = inf ended in "math domain error" from ln(1 / t)
        with pytest.raises(ValueError, match=r"finite t > e, got %r" % bad):
            potter_decay_scan(order, [math.exp(2.0), bad])

    def test_lower_factor_through_reciprocal(self):
        t = math.exp(9.0)
        assert potter_factor_lower(LP, t) == pytest.approx(math.exp(-3.0), rel=1e-6)

    def test_log_of_log_window(self):
        # grid supremum exceeds the scale but stays comparable to it
        got = potter_factor(LL, math.e)
        assert 2.0 - 1e-9 <= got <= 2.0 * 2.0
        assert got == pytest.approx((1.0 + 2.618033988749895) / 1.381966011250105,
                                    rel=1e-6)

    def test_grid_sup_stabilizes_when_widened(self, monkeypatch):
        monkeypatch.setattr(orders, "_GRID_HALF_WIDTH", 40.0)
        a = potter_factor(LL, math.e)
        monkeypatch.setattr(orders, "_GRID_HALF_WIDTH", 80.0)
        b = potter_factor(LL, math.e)
        assert a == pytest.approx(b, rel=1e-8)

    def test_dominates_scale(self):
        for order in FAMILIES:
            for t in np.geomspace(1e-6, 1e6, 50):
                assert potter_factor(order, t) >= float(order.zero_scale(t)) - 1e-9

    def test_lower_below_upper(self):
        for order in FAMILIES:
            for t in (0.2, 3.0, 40.0):
                assert potter_factor_lower(order, t) <= potter_factor(order, t) * (1 + 1e-12)

    def test_submultiplicative(self, rng):
        for order in FAMILIES[1:]:
            ts = np.exp(rng.uniform(-10, 10, size=(100, 2)))
            for t1, t2 in ts:
                g12 = potter_factor(order, t1 * t2)
                bound = potter_factor(order, t1) * potter_factor(order, t2)
                assert g12 <= bound * (1.0 + 1e-6)

    def test_continuity(self):
        t0 = 7.3
        base = potter_factor(LL, t0)
        deltas = [0.1, 0.01, 0.001]
        gaps = [abs(potter_factor(LL, t0 + d) - base) for d in deltas]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-3


def dense_log_potter(xs, etas, tau, step=1e-4):
    """ln sup_x W(e^(x + tau)) / W(e^x) from the slope table on a fine grid.

    The grid G holds every node, its mirror image and 0, with spacing at most
    ``step``, out past the table's end by |tau| + 1; h = ln W is the
    trapezoid integral of the slope there, exact at G.  g is sampled at G
    and G - tau, which hold every kink of h(x) and of h(x + tau).
    """
    xs = np.asarray(xs, dtype=float)
    etas = np.asarray(etas, dtype=float)
    ends = np.append(xs, xs[-1] + abs(tau) + 1.0)
    half = np.concatenate([np.linspace(a, b, int(math.ceil((b - a) / step)) + 1)[:-1]
                           for a, b in zip(ends[:-1], ends[1:])] + [ends[-1:]])
    slope = np.where(half <= xs[-1], np.interp(half, xs, etas), etas[-1])
    h_half = np.concatenate([[0.0], np.cumsum(0.5 * (slope[1:] + slope[:-1])
                                              * np.diff(half))])
    grid = np.concatenate([-half[:0:-1], half])
    h = np.concatenate([h_half[:0:-1], h_half])
    x = np.concatenate([grid, grid - tau])
    x = x[(x >= grid[0]) & (x + tau <= grid[-1])]
    return float(np.max(np.interp(x + tau, grid, h) - np.interp(x, grid, h)))


# slope with a sharp peak at ln r = 1 and eta(0) != 0, so h = ln W has a
# kink at 0; for small |tau| the supremum is a vertex near the peak
KINKED = TabulatedZero(xs=(0.0, 0.5, 1.0, 1.5, 3.0),
                       etas=(0.3, 0.3, 0.8, 0.1, 0.05))
# ends while the slope still falls; it is frozen at 0.2 beyond ln r = 2
MID_SLOPE = TabulatedZero(xs=(0.0, 0.7, 2.0), etas=(0.1, 0.6, 0.2))
# the slope climbs to its frozen value: the supremum is g at +-oo
RISING = TabulatedZero(xs=(0.0, 1.0), etas=(0.1, 0.4))
# slopes of both signs: W rises and falls, and h' = sign(x) eta(|x|) takes
# either sign on either side of 0
_MIXED_XS = np.linspace(0.0, 10.0, 41)
MIXED = TabulatedZero(xs=tuple(_MIXED_XS),
                      etas=tuple(0.3 * np.sin(2.0 * _MIXED_XS) * np.exp(-_MIXED_XS / 4.0)))
# the builtin regular_density order, whose slope is negative past ln r = 1
REGULAR = TabulatedZero(*zip(*_slow_drift_eta()))

# ln potter_factor at the taus of test_edges_keep_their_values, pinned by
# repr from a sort of the merged knots: multiples of the first node spacing
# (merged knots that coincide), +-end and past it, +-1e-13 and +-1e300
EDGE_VALUES = {
    "family": (0.020339248314692592, 0.020339248314692596, 0.06091645345859779,
               0.14083423065094322, 2.3997891971179013, 2.3997891971179013,
               2.4097728517776495, 2.4097728517776495, 4.0703551640319846e-14,
               4.070355164031986e-14, 4.9918273298741734e+296, 4.9918273298741734e+296),
    "kinked": (0.32708333333333334, 0.32708333333333334, 0.65, 0.7875000000000001,
               0.7625000000000001, 0.7625000000000001, 0.8375000000000001,
               0.8375000000000001, 8.004708007547588e-14, 8.004708007547379e-14,
               5e+298, 5e+298),
    "mid_slope": (0.36731182795698925, 0.3673118279569892, 0.7919999999999999,
                  1.3519999999999999, 0.772, 0.772, 0.9720000000000001, 0.972,
                  6.003531005660784e-14, 6.003531005660534e-14, 2e+299, 2e+299),
    "rising": (0.4, 0.4, 1.2000000000000002, 2.8000000000000003, 0.4, 0.4,
               0.6000000000000001, 0.6000000000000001, 3.999578446212276e-14,
               3.9995784462121264e-14, 4e+299, 4e+299),
}


@st.composite
def signed_tables(draw):
    # node spacing >= 0.3 and |eta| <= 0.5 keep |eta'| <= 10/3, so the
    # dense grid's step of 1e-4 misses a vertex by at most 8.4e-9
    n = draw(st.integers(2, 30))
    steps = draw(st.lists(st.floats(0.3, 1.0), min_size=n - 1, max_size=n - 1))
    etas = draw(st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n))
    return TabulatedZero(xs=tuple(np.concatenate([[0.0], np.cumsum(steps)])),
                         etas=tuple(etas))


def one_tau_supremum(zero_part, tau):
    """sup_x h(x + tau) - h(x) for one tau from every merged piece: the
    search that ``orders._tabulated_supremum`` prunes and batches."""
    knots, h_knot, dh_knot, pieces = zero_part._cum[3:7]
    n = knots.size
    probe = np.concatenate([knots + tau, knots - tau])
    rows = np.take(pieces, np.searchsorted(knots, probe, side="right"), axis=0).T
    h, dh, c = orders._on_pieces(probe, rows)
    shifted = probe[n:]
    h_own, dh_own, c_own = orders._on_pieces(shifted + tau, pieces[1:].T)
    g = np.concatenate([h[:n] - h_knot, h_own - h[n:]])
    dg = np.concatenate([dh[:n] - dh_knot, dh_own - dh[n:]])
    fall = 2.0 * np.concatenate([c_own - c[:n], c[n:] - c_own])
    end = pieces[1:, 5]
    width = np.concatenate([np.minimum(end, rows[5, :n] - tau) - knots,
                            np.minimum(rows[5, n:], end - tau) - shifted])
    with np.errstate(invalid="ignore"):
        vertex = (dg > 0.0) & (dg < fall * width)
    best = g.max()
    if vertex.any():
        best = max(best, (g[vertex] + 0.5 * dg[vertex] ** 2 / fall[vertex]).max())
    return float(best)


def chunked(zero_part, taus):
    """log_potter_factor with a cap of one (tau, piece) cell per chunk: one tau
    per block-bound pass and one candidate range per exact pass."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orders, "_POTTER_CELLS", 1)
        return log_potter_factor(ProximateOrder(0.0, zero_part), taus)


def scan_pairs():
    # the benchmark's seed-0 Potter pairs (r, t)
    return np.exp(np.random.default_rng(0).uniform(-20.0, 20.0, size=(120, 2)))


class TestExactPotterSupremum:
    @pytest.mark.parametrize("zero_part", [KINKED, MID_SLOPE, RISING],
                             ids=["kinked", "mid_slope", "rising"])
    @pytest.mark.parametrize("tau", [1e-3, -1e-3, 0.103, -0.103, "end", "-end",
                                     "beyond", "-beyond"])
    def test_matches_dense_grid(self, zero_part, tau):
        end = zero_part.xs[-1]
        tau = {"end": end, "-end": -end, "beyond": 1.7 * end,
               "-beyond": -1.7 * end}.get(tau, tau)
        got = math.log(potter_factor(ProximateOrder(0.0, zero_part), math.exp(tau)))
        want = dense_log_potter(zero_part.xs, zero_part.etas, tau)
        # the grid reads g at every kink; between them it misses a vertex
        # and interpolates h by at most max|eta'| step^2 / 4, so it lies
        # below the supremum up to the rounding of its ~1e5-step sum
        assert got >= want - 1e-11
        assert got == pytest.approx(want, abs=1e-8)

    def test_matches_the_grid_search_on_the_scan_pairs(self):
        ts = scan_pairs()[:, 1]
        order = tabulated_family()
        for t in ts:
            grid = _grid_supremum(order.zero_part, math.log(t))
            assert math.log(potter_factor(order, t)) == pytest.approx(grid, abs=1e-12)

    def test_grid_families_unchanged(self):
        # values of the grid search before the exact tabulated supremum
        l3 = ProximateOrder(0.5, LogLogZero(3.0))
        for t, ll, l3_want in ((math.e, 2.6180339887498945, 4.546455444684994),
                               (0.37, 2.604601724173647, 4.510367444668448),
                               (1e5, 134.54002002930704, 1606.1123245256088)):
            assert potter_factor(LL, t) == ll
            assert potter_factor(l3, t) == l3_want

    @pytest.mark.parametrize("xs, etas", [
        ((0.0, 1.0, 2.0), (0.4, 0.2, float("nan"))),
        ((0.0, 1.0, float("inf")), (0.4, 0.2, 0.1)),
    ])
    def test_rejects_non_finite_tables(self, xs, etas):
        with pytest.raises(ValueError, match="finite"):
            TabulatedZero(xs=xs, etas=etas)

    @pytest.mark.parametrize("zero_part, tau", [
        *((MIXED, tau) for tau in (-2.0, -0.7, 0.5, 1.3, 3.0)),
        *((REGULAR, tau) for tau in (10.0, -10.0, 1.5, -0.3)),
    ], ids=["mixed-2", "mixed-0.7", "mixed0.5", "mixed1.3", "mixed3",
            "regular10", "regular-10", "regular1.5", "regular-0.3"])
    def test_negative_slopes(self, zero_part, tau):
        # h' must keep the sign of the slope table: read as |eta| it moved
        # the supremum by up to 3e-3 here, below and above the true one
        got = log_potter_factor(ProximateOrder(0.0, zero_part), tau)
        assert got == pytest.approx(_grid_supremum(zero_part, tau), abs=1e-12)
        want = dense_log_potter(zero_part.xs, zero_part.etas, tau)
        assert got >= want - 1e-11
        assert got == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("name, zero_part", [
        ("family", tabulated_family().zero_part), ("kinked", KINKED),
        ("mid_slope", MID_SLOPE), ("rising", RISING)])
    def test_edges_keep_their_values(self, name, zero_part):
        step, end = zero_part.xs[1], zero_part.xs[-1]
        taus = [m * step for m in (1, -1, 3, -7)] + [f * end for f in (1.0, -1.0, 1.5, -1.5)]
        order = ProximateOrder(0.0, zero_part)
        for tau, want in zip(taus + [1e-13, -1e-13, 1e300, -1e300], EDGE_VALUES[name]):
            assert log_potter_factor(order, tau) == pytest.approx(want, rel=1e-15, abs=0.0)

    @settings(max_examples=20)
    @given(signed_tables(), st.floats(-50.0, 50.0))
    def test_signed_tables_against_both_searches(self, zero_part, tau):
        got = log_potter_factor(ProximateOrder(0.0, zero_part), tau)
        assert got >= _grid_supremum(zero_part, tau) - 1e-12
        assert got == pytest.approx(dense_log_potter(zero_part.xs, zero_part.etas, tau),
                                    abs=1e-8)

    @pytest.mark.parametrize("zero_part", [tabulated_family().zero_part, KINKED, MIXED, REGULAR],
                             ids=["family", "kinked", "mixed", "regular"])
    def test_batch_matches_the_one_tau_search_at_ties(self, zero_part):
        # knot differences put knots + tau and knots - tau on knots (ties)
        knots = zero_part._cum[3]
        rng = np.random.default_rng(knots.size)
        i, j = rng.integers(0, knots.size, (2, 40))
        end = knots[-1]
        taus = [0.0, -0.0, 1e-13, 3.0 * end, -3.0 * end,
                *rng.uniform(-2.5 * end, 2.5 * end, 40), *(knots[i] - knots[j])]
        ties = sum(np.isin(knots - tau, knots).any() for tau in taus)
        assert ties >= 40
        want = [one_tau_supremum(zero_part, tau) if tau else 0.0 for tau in taus]
        assert log_potter_factor(ProximateOrder(0.0, zero_part), taus).tolist() == want
        assert chunked(zero_part, taus).tolist() == want

    @settings(max_examples=40)
    @given(st.data())
    def test_batch_matches_the_one_tau_search(self, data):
        zero_part = data.draw(signed_tables())
        knots = zero_part._cum[3]
        end = knots[-1]
        tau = st.one_of(
            st.sampled_from(knots).flatmap(lambda a: st.sampled_from(a - knots)),
            st.sampled_from([1e-13, -1e-13, 1e300, -1e300]),
            st.floats(2.0 * end, 3.0 * end).flatmap(lambda a: st.sampled_from([a, -a])),
            st.floats(-50.0, 50.0))
        taus = data.draw(st.lists(tau, min_size=1, max_size=12))
        taus += taus[:3]   # repeated values
        want = [one_tau_supremum(zero_part, x) if x else 0.0 for x in taus]
        assert log_potter_factor(ProximateOrder(0.0, zero_part), taus).tolist() == want
        assert chunked(zero_part, taus).tolist() == want

    @pytest.mark.parametrize("tau", [3.1, -3.1])
    def test_stretched_end_blocks_keep_their_shifted_end_knot(self, tau):
        # (k_0 - tau) + tau rounds above k_0 and (k_end - tau) + tau below
        # k_end: a search for the shifted knots of the end blocks lost the
        # shifted end knot, whose g is the constant -eta_end |tau| past it
        zero_part = TabulatedZero(xs=(0.0, 0.5, 1.5), etas=(-0.4, 0.4, -0.1))
        assert (-1.5 - 3.1) + 3.1 > -1.5
        assert chunked(zero_part, tau) == one_tau_supremum(zero_part, tau) == 0.31000000000000005

    @pytest.mark.parametrize("xs, etas, tau, want", [
        # H peaks at 0.225, inside its first piece: a bound from the piece
        # ends alone dropped every block
        ((0.0, 0.6, 1.6), (0.3, -0.5, 0.1), 2.0, 0.28),
        # x = -0.6 puts x + tau at the peak of H (0.05) and x at its minimum:
        # g there is the block bound itself, 1 ulp above it as evaluated
        ((0.0, 0.1, 0.6), (0.3, -0.3, 0.0), 0.55, 0.0825),
    ], ids=["vertex-inside-a-piece", "rounding-tie"])
    def test_block_bounds_keep_the_maximum(self, xs, etas, tau, want):
        zero_part = TabulatedZero(xs=xs, etas=etas)
        assert chunked(zero_part, tau) == one_tau_supremum(zero_part, tau) == want

    @settings(max_examples=40)
    @given(signed_tables(), st.floats(2.0, 3.0), st.sampled_from([-1.0, 1.0]))
    def test_taus_past_twice_the_table_end(self, zero_part, stretch, sign):
        tau = sign * stretch * zero_part.xs[-1]
        assert chunked(zero_part, [tau, -tau]).tolist() == [one_tau_supremum(zero_part, tau),
                                                            one_tau_supremum(zero_part, -tau)]

    def test_scan_pairs_evaluate_a_few_pieces_per_tau(self, monkeypatch):
        # the one-tau search evaluates h at 3 x 1,601 points per tau
        zero_part = tabulated_family().zero_part
        taus = np.log(scan_pairs()[:, 1])
        points = []
        inner = orders._on_pieces

        def counted(x, rows):
            points.append(np.size(x))
            return inner(x, rows)

        monkeypatch.setattr(orders, "_on_pieces", counted)
        log_potter_factor(ProximateOrder(0.0, zero_part), taus)
        assert sum(points) <= 400 * taus.size

    def test_scan_report_memory(self):
        order, pairs = tabulated_family(), scan_pairs()
        potter_bound_report(order, pairs)
        tracemalloc.start()
        try:
            potter_bound_report(order, pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2 ** 20

    def test_tables_are_read_only(self):
        # the frozen dataclass shares these arrays with every copy of it
        for zero_part in (KINKED, RISING, MIXED):
            assert all(not a.flags.writeable for a in zero_part._cum)


class TestPotterBound:
    @given(st.floats(min_value=-20.0, max_value=20.0),
           st.floats(min_value=-20.0, max_value=20.0))
    def test_log_power_inequality(self, lr, lt):
        r, t = math.exp(lr), math.exp(lt)
        lhs = float(LP.scale(r * t))
        rhs = potter_factor(LP, t) * float(LP.scale(r))
        assert lhs <= rhs * (1.0 + 1e-9)

    def test_flat_equality(self):
        rep = potter_bound_report(ProximateOrder(2.0), [(2.0, 3.0), (0.1, 7.0)])
        assert rep.max_violation == 0.0
        assert rep.passed

    def test_overflowing_pair_is_an_error(self):
        # r t overflowed to inf, the excess was NaN and the report passed
        for order in FAMILIES:
            with pytest.raises(ValueError, match=r"\(1e\+300, 1e\+300\)"):
                potter_bound_report(order, [(2.0, 3.0), (1e300, 1e300)])
            with pytest.raises(ValueError, match="not finite"):
                potter_bound_report(order, [(1e-200, 1e-200)])
            with pytest.raises(ValueError, match=r"\(-1\.0, -2\.0\)"):
                potter_bound_report(order, [(-1.0, -2.0)])

    def test_report_families(self, rng):
        pairs = np.exp(rng.uniform(-20, 20, size=(1000, 2)))
        for order in FAMILIES[1:]:
            rep = potter_bound_report(order, pairs)
            assert rep.passed, (order, rep.max_violation)


class TestDecayScan:
    def test_flat_is_zero(self):
        rows = potter_decay_scan(ProximateOrder(1.0), [math.exp(5.0)])
        assert rows[0][1] == 0.0 and rows[0][2] == 0.0

    def test_log_power_values(self):
        rows = potter_decay_scan(LP, [math.exp(16.0), math.exp(100.0)])
        assert rows[0][1] == pytest.approx(0.25, abs=1e-9)
        assert rows[1][1] == pytest.approx(0.10, abs=1e-9)
        assert rows[1][1] < rows[0][1]

    def test_both_directions_decay(self):
        for order in FAMILIES[1:]:
            rows = potter_decay_scan(order, np.exp([4.0, 16.0, 64.0]))
            fwd = [r[1] for r in rows]
            bwd = [r[2] for r in rows]
            assert abs(fwd[-1]) < abs(fwd[0]) + 1e-12
            assert abs(bwd[-1]) < abs(bwd[0]) + 1e-12

    def test_requires_t_above_e(self):
        with pytest.raises(ValueError):
            potter_decay_scan(LP, [2.0])


# a flat, a concave, a log-log and a tabulated order, as configs write them
PINNED = {
    "flat": ProximateOrder(0.5),
    "log-power": LP,
    "log-log": LL,
    "tabulated": ProximateOrder(0.0, TabulatedZero(xs=(0.0, 1.0, 3.0),
                                                   etas=(0.3, 0.2, 0.05))),
}


class TestPotterPins:
    """Reports of the Potter factor taken one t at a time, as the reference."""

    @pytest.mark.parametrize("name, want", [
        ("flat", (8.881784197001256e-16, (3.0, 1e6), True, 1e-6)),
        ("log-power", (0.0, None, True, 1e-6)),
        ("log-log", (0.0, None, True, 1e-6)),
        ("tabulated", (0.0, None, True, 1e-6)),
    ])
    def test_bound_report(self, name, want):
        # repeated t values, t = 1 among them
        pairs = [(r, t) for r in (0.01, 3.0, 2e5) for t in (1e-4, 0.5, 1.0, 7.0, 1e6)]
        assert potter_bound_report(PINNED[name], pairs) == want

    @pytest.mark.parametrize("name, want, rtol", [
        ("flat", [(0.0, 0.0)] * 3, 0.0),
        ("log-power", [(0.9540645820000014, 0.9540645820000014),
                       (0.38047973310162525, 0.38047973310162525),
                       (0.16666666666666666, 0.16666666666666666)], 1e-15),
        ("log-log", [(0.9555188795292584, 0.9555188795292591),
                     (0.56544327750472, 0.5654432775047199),
                     (0.19912720288118488, 0.19912720288118488)], 0.0),
        ("tabulated", [(0.24518002950778137, 0.24518002950778137),
                       (0.10066768955537939, 0.10066768955537939),
                       (0.05972222222222223, 0.05972222222222223)], 0.0),
    ])
    def test_decay_scan(self, name, want, rtol):
        ts = [3.0, 1e3, math.exp(36.0)]
        rows = potter_decay_scan(PINNED[name], ts)
        assert [row[0] for row in rows] == ts
        got = [row[1:] for row in rows]
        assert got == (want if rtol == 0.0 else pytest.approx(want, rel=rtol, abs=0.0))


class TestPolynomialEnvelope:
    def test_scale_below_symmetric_power_envelope(self):
        # fit the envelope constant on one grid (wide enough to straddle the
        # ratio peak near ln r = 1/eps^2), validate on a finer, wider one
        eps = 0.1
        for order in FAMILIES:
            fit_r = np.exp(np.linspace(-160.0, 160.0, 201))
            env = fit_r ** eps + fit_r ** -eps
            M = float(np.max(np.asarray(order.scale(fit_r)) / env)) * (1 + 1e-3)
            val_r = np.exp(np.linspace(-250.0, 250.0, 337))
            vals = np.asarray(order.scale(val_r))
            assert np.all(vals <= M * (val_r ** eps + val_r ** -eps))


class TestScaleRatioLimit:
    def test_ratio_approaches_power(self):
        for order in (LP, LL):
            for t in (2.0, 10.0):
                errs = []
                for k in range(2, 8):
                    r = 10.0 ** k
                    ratio = float(order.scale(t * r) / order.scale(r))
                    errs.append(abs(ratio - 1.0))  # rho = 0 for both families
                assert all(b <= a + 1e-15 for a, b in zip(errs, errs[1:]))


class TestPoissonSmoothing:
    def test_flat_scale_gives_one(self):
        assert poisson_smoothed_scale(ProximateOrder(0.0), 3.7) == pytest.approx(
            1.0, abs=1e-9)

    def test_closed_form_log_of_log(self):
        # (2r/pi) Int (1+ln^2 t)/(t^2+r^2) dt = 1 + ln^2 r + pi^2/4
        for r in (10.0, 1e4):
            got = poisson_smoothed_scale(LL, r)
            want = 1.0 + math.log(r) ** 2 + math.pi ** 2 / 4.0
            assert got == pytest.approx(want, rel=1e-8)

    def test_ratio_tends_to_one(self):
        vals = [abs(poisson_smoothed_scale(LL, r) / float(LL.scale(r)) - 1.0)
                for r in (1e2, 1e4, 1e6)]
        assert vals[1] < 0.05 and vals[2] < 0.02
        assert vals[2] < vals[1] < vals[0]

    def test_symmetry(self):
        r = 523.0
        assert poisson_smoothed_scale(LL, r) == pytest.approx(
            poisson_smoothed_scale(LL, 1.0 / r), abs=1e-8)

    def test_rejects_nonzero_order(self):
        with pytest.raises(ValueError):
            poisson_smoothed_scale(ProximateOrder(1.0), 2.0)
