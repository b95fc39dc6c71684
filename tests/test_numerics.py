import math

import numpy as np
import pytest

from hypothesis import HealthCheck, given, settings, strategies as st
from scipy.integrate import quad, quad_vec
from scipy.interpolate import CubicSpline

from azarin import numerics
from azarin.kernels import ExpKernel, LogSingularKernel
from azarin.measures import RadonMeasure
from azarin.numerics import (DEFAULT_QUAD, CubicTable, DivergenceError, QuadControl,
                             QuadratureError, _cauchy_windows, adaptive_quad,
                             golden_section_min, improper_quad, log_quad)
from azarin.transforms import KernelTransform


@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=20).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=60)))
def test_sorted_unique_is_np_unique(xs):
    # drawn from a small pool, so that values repeat
    got = numerics._sorted_unique(np.array(xs))
    want = np.unique(np.array(xs))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


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
    got, = log_quad(_columns(*fns), [(0.5, 8.0)], FINE, split_points=[3.0])
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


def _gk_nodes(batches):
    return sum(15 * len(lo) for _, lo, _ in batches)


@pytest.mark.parametrize("g, a, b, singular", [
    (_log_gap, 0.0, 2.0, [0.7]),
    (lambda x: x ** -0.5, 0.0, 1.0, [0.0]),
], ids=["interior-log", "endpoint-inverse-sqrt"])
def test_singular_integrands_match_scipy(g, a, b, singular, gk_batches):
    got = adaptive_quad(g, a, b, DEFAULT_QUAD, singular_points=singular)
    assert _gk_nodes(gk_batches) < 5000
    want = _scipy_quad(g, a, b, points=[p for p in singular if a < p < b] or None)
    assert abs(got - want) <= 10 * DEFAULT_QUAD.tol * abs(want), (got, want)


def test_segment_cap_counts_graded_panels(gk_batches, monkeypatch):
    # each split of the x^-1/2 end segment adds 17 graded panels: the cap
    # stops the refinement before the segments held would pass it, in the
    # second pass, where bisection would take a pass per segment
    cap = 60
    monkeypatch.setattr(numerics, "_MAX_SEGMENTS", cap)
    with pytest.raises(QuadratureError):
        adaptive_quad(lambda x: x ** -0.5, 0.0, 1.0, singular_points=[0.0])
    held = set()
    for _, lo, hi in gk_batches:
        children = list(zip(lo.tolist(), hi.tolist()))
        held = {(a, b) for a, b in held
                if not any(a <= c < b for c, _ in children)} | set(children)
        assert len(held) <= cap
    assert len(gk_batches) == 2


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
    val, = log_quad(lambda t: t ** 1.5, [(0.5, 8.0)])
    want = (8.0 ** 2.5 - 0.5 ** 2.5) / 2.5
    assert abs(val - want) < 1e-9 * want


@pytest.mark.parametrize("cap, value, f, singular", [
    ("_MAX_SEGMENTS", 80, lambda x: x ** -0.5, [0.0]),
    ("_MAX_DEPTH", 11, lambda x: np.abs(x - 0.3), []),
], ids=["segment-cap", "max-depth"])
def test_over_budget_exits_raise(cap, value, f, singular, monkeypatch):
    # both were accepted while within 100 times the budget: 4.8e-10 and
    # 1.1e-9 relative error against a 1e-10 tolerance
    monkeypatch.setattr(numerics, cap, value)
    with pytest.raises(QuadratureError) as err:
        adaptive_quad(f, 0.0, 1.0, singular_points=singular)
    assert err.value.estimate is not None and np.isfinite(err.value.estimate)


@pytest.mark.parametrize("window", [(0.0, 1.0), (1.0, math.inf), (-1.0, 1.0),
                                    (2.0, 1.0), (1.0, 1.0), (math.nan, 1.0)])
def test_log_quad_rejects_windows_outside_the_positive_axis(window):
    with pytest.raises(ValueError):
        log_quad(lambda t: t, [(0.5, 1.0), window])


def _kinked(t):
    # smooth in the first window, a kink at 2.5 in the second, an endpoint
    # log singularity at 8 in the third
    return np.sqrt(np.abs(t - 2.5)) + np.log(np.abs(8.0 - t)) + 1j * t ** 0.3


_WINDOWS = [(0.5, 1.5), (1.5, 4.0), (4.0, 8.0)]


def test_log_quad_is_one_adaptive_quad(quad_calls):
    vals = log_quad(_kinked, _WINDOWS, split_points=[2.5], singular_points=[8.0])
    assert len(quad_calls) == 1
    assert vals.shape == (3,)


def test_log_quad_windows_keep_their_own_segments(gk_batches):
    def segments(windows):
        del gk_batches[:]
        vals = log_quad(_kinked, windows, singular_points=[8.0])
        return vals, sorted((a, b) for _, lo, hi in gk_batches
                            for a, b in zip(lo.tolist(), hi.tolist()))

    together, segs = segments(_WINDOWS)
    alone = [segments([w]) for w in _WINDOWS]
    assert segs == sorted(s for _, part in alone for s in part)
    for val, (want, _) in zip(together, alone):
        assert val == want[0]


@pytest.mark.parametrize("vector", [False, True])
def test_array_intervals_match_scalar_calls(vector):
    f = (_columns(np.cos, lambda x: np.abs(x - 0.5) + 1j * x) if vector
         else lambda x: np.exp(1j * x) * np.abs(x - 0.5))
    a = np.array([[0.0, 1.0], [2.0, 5.0]])
    b = np.array([[1.0, 3.0], [2.0, 4.0]])   # the last two are empty
    got = adaptive_quad(f, a, b, FINE, split_points=[0.5], singular_points=[3.0])
    assert got.shape == a.shape + ((2,) if vector else ())
    for idx in np.ndindex(a.shape):
        want = adaptive_quad(f, a[idx], b[idx], FINE, split_points=[0.5],
                             singular_points=[3.0])
        assert np.all(got[idx] == want)
    assert np.all(got[1] == 0.0)


def _first_segments(a, b, cuts, sing, levels=numerics._GRADED_PANELS):
    """The first pass's segments of ``adaptive_quad``, interval by interval:
    an interval's ends and the cuts and singular points strictly inside it,
    and with a singular point in its closure, the graded panels halving
    toward each singular point that ends one of those pieces."""
    lo, hi = [], []
    for x, y in zip(a, b):
        if not y > x:
            continue
        edges = sorted({x, y} | {p for p in cuts + sing if x < p < y})
        if any(x <= p <= y for p in sing):
            pts = set(edges)
            for u, v in zip(edges[:-1], edges[1:]):
                halves = [(v - u) * 0.5 ** k for k in range(1, levels)]
                pts.update([u + h for h in halves] if u in sing else [])
                pts.update([v - h for h in halves] if v in sing else [])
            edges = sorted(pts)
        lo += edges[:-1]
        hi += edges[1:]
    return lo, hi


_QUARTERS = [k / 4.0 for k in range(-8, 9)]
_POINTS = st.lists(st.one_of(st.sampled_from(_QUARTERS), st.floats(-2.5, 2.5)),
                   max_size=4)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_array_set_up_is_per_interval(data, gk_segments):
    # interval ends are drawn from a grid and from the cuts and singular
    # points, so that these fall inside, on an end and outside of
    # intervals, some of them empty or reversed.
    cuts, sing = data.draw(_POINTS), data.draw(_POINTS)
    end = st.sampled_from(_QUARTERS + cuts + sing)
    bounds = data.draw(st.lists(st.tuples(end, end), min_size=1, max_size=40))
    a, b = (list(ends) for ends in zip(*bounds))

    def f(x):
        return np.cos(8.0 * x) + 1j * x ** 2

    del gk_segments[:]
    got = adaptive_quad(f, a, b, split_points=cuts, singular_points=sing)
    if gk_segments:
        assert gk_segments[0] == _first_segments(a, b, cuts, sing)
    for i, (x, y) in enumerate(bounds):
        want = adaptive_quad(f, x, y, split_points=cuts, singular_points=sing)
        assert got[i] == want, (i, got[i], want)


# the layouts an integrand may return its values in, each a view of the
# same values or, for the broadcast constant, of its first row
_LAYOUTS = {
    "contiguous": lambda v: v,
    "strided": lambda v: np.repeat(v, 2, axis=-1)[..., ::2],
    "transposed": lambda v: np.ascontiguousarray(v.T).T,
    "constant": lambda v: np.broadcast_to(v[0], v.shape),
}


@given(n=st.integers(1, 40), width=st.sampled_from([None, 1, 3]), cplx=st.booleans(),
       layout=st.sampled_from(sorted(_LAYOUTS)), seed=st.integers(0, 2 ** 32 - 1))
def test_gk_sums_are_per_segment(n, width, cplx, layout, seed):
    # a segment's (I15, err) are the bits of its one-segment call, and a
    # scalar integrand's are those of its one-column form.  Values span
    # sixteen decades so that any change in the order of a sum shows.
    # (A column's sums may still depend on the number of columns.)
    rng = np.random.default_rng(seed)
    shape = (15 * n,) if width is None else (15 * n, width)
    vals = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    if cplx:
        vals = vals + 1j * rng.standard_normal(shape)
    vals = _LAYOUTS[layout](vals)
    lo = np.cumsum(rng.random(n))
    hi = lo + rng.random(n) + 0.1
    i15, err = numerics._gk_eval(lambda x: vals, lo, hi)
    assert i15.shape == err.shape == (n,) + shape[1:]
    for s in range(n):
        one = numerics._gk_eval(lambda x: vals[15 * s:15 * s + 15], lo[s:s + 1], hi[s:s + 1])
        assert np.array_equal(one[0][0], i15[s]) and np.array_equal(one[1][0], err[s])
    if width is None:
        col = numerics._gk_eval(lambda x: vals[:, None], lo, hi)
        assert np.array_equal(col[0][:, 0], i15) and np.array_equal(col[1][:, 0], err)


def test_improper_exponential():
    val = improper_quad(lambda t: np.exp(-t), 0.0, None)
    assert abs(val - 1.0) < 1e-9


def test_improper_both_ends():
    # integral of t^{-1/2} e^{-t} = Gamma(1/2)
    val = improper_quad(lambda t: np.exp(-t) / np.sqrt(t), 0.0, None)
    assert abs(val - math.sqrt(math.pi)) < 1e-8


def test_improper_empty_range():
    # finite ends with hi <= lo: no core and no rings
    assert improper_quad(np.exp, 2.0, 1.0) == 0.0
    assert _cauchy_windows(None, 2.0, 1.0, [1.0, 3.0], DEFAULT_QUAD) == (
        [0.0, 0.0], [[], []], {}, [(2.0, 1.0)] * 2, [(0, 0)] * 2)


# Column 0's zero end takes its large ring (16) in its first block and its
# two calm rings after it in its second; its infinity end takes 5 rings.
# Column 1's infinity end takes 44 rings.  Column 2's zero end takes its
# large ring (20) in its second block: its infinity rings are calm on every
# total before that (about 1.5) but not on the final one, on which its
# infinity end takes 20 rings, more than its first block holds.
_LATE = DEFAULT_QUAD.tol * 2.35


_LO, _HI, _STEP = numerics._WINDOW_LO, numerics._WINDOW_HI, numerics._EXPANSION


def _ring_index(window):
    """("zero" or "infinity", k) of ring k of the windows, or None for the
    core."""
    a, b = window
    if window == (_LO, _HI):
        return None
    if b <= _LO:
        return "zero", round(math.log(_LO / b, _STEP)) + 1
    return "infinity", round(math.log(a / _HI, _STEP)) + 1


def _synthetic_part(j, window):
    ring = _ring_index(window)
    if ring is None:
        return (2.0, 1.0, 2.0)[j]
    end, k = ring
    if j == 1:
        return 0.3 ** k if end == "zero" else 0.6 ** k
    if end == "infinity":
        return _LATE if k <= (3, None, 18)[j] else 0.0
    late = (16, None, 20)[j]
    return -0.5 if k == 1 else -1e-9 if k < late else -0.3 if k == late else 0.0


def _one_ring_at_a_time(part, scale=1.0, ctrl=DEFAULT_QUAD):
    """(total, partial sums, failed end or None, window, ring counts) of the
    column whose part on a window is ``part(window)`` and whose edge t has
    left the float range when ``t * scale`` has, each ring taken alone, the
    zero end first."""
    total = part((_LO, _HI))
    partials, failed, window, counts = [total], None, [], []
    for end, edge, step, out in (("zero", _LO, lambda t: t / _STEP, lambda t: t < 1e-300),
                                 ("infinity", _HI, lambda t: t * _STEP,
                                  lambda t: t > 1e300)):
        calm, accepted, taken = 0, False, 0
        for _ in range(numerics._MAX_EXPANSIONS):
            nxt = step(edge)
            if out(nxt * scale):
                accepted = calm >= 1
                break
            part_k = part((min(edge, nxt), max(edge, nxt)))
            edge = nxt
            total += part_k
            partials.append(total)
            taken += 1
            calm_ring = abs(part_k) <= ctrl.tol * (1.0 + abs(total)) + ctrl.abs_tol
            calm = calm + 1 if calm_ring else 0
            if calm >= 2:
                accepted = True
                break
        failed = failed or (None if accepted else end)
        window.append(edge)
        counts.append(taken)
    return total, partials, failed, tuple(window), tuple(counts)


def _per_column(out):
    """``_cauchy_windows``' result ``out`` as one tuple per column, in the
    form of ``_one_ring_at_a_time``."""
    totals, partials, failed, windows, counts = out
    return [(total, sums, failed.get(j), window, taken) for j, (total, sums, window, taken)
            in enumerate(zip(totals, partials, windows, counts))]


def _synthetic_windows(columns, scales=None, block=None, first=None):
    """``_cauchy_windows`` over (0, oo) of the synthetic ``columns``, each a
    function of the window; returns its result and the windows and live
    columns of each call."""
    calls = []

    def ring(windows, live):
        calls.append((windows, live))
        return [[columns[j](w) for j in live] for w in windows]

    extra = {key: value for key, value in (("block", block), ("first", first))
             if value is not None}
    out = _cauchy_windows(ring, 0.0, math.inf, scales or [1.0] * len(columns),
                          DEFAULT_QUAD, **extra)
    return out, calls


def _at_infinity(calls):
    return [any(a >= _HI for a, _ in w) for w, _ in calls]


def _synthetic(columns):
    return [lambda w, c=c: _synthetic_part(c, w) for c in columns]


@pytest.mark.parametrize("columns", [[0], [0, 1]], ids=["alone", "with-a-long-end"])
def test_cauchy_windows_judge_the_infinity_end_on_the_final_total(columns):
    parts = _synthetic(columns)
    out, calls = _synthetic_windows(parts)
    assert _per_column(out) == [_one_ring_at_a_time(part) for part in parts]
    assert len(out[1][0]) == 1 + 18 + 5
    if columns == [0]:
        # steps with infinity windows: the first, whose 16 rings hold the end
        assert _at_infinity(calls) == [True, False]


def test_cauchy_windows_refetch_the_infinity_end():
    parts = _synthetic([2])
    out, calls = _synthetic_windows(parts)
    assert _per_column(out) == [_one_ring_at_a_time(parts[0])]
    assert len(out[1][0]) == 1 + 22 + 20
    # the infinity end's first block, none while the zero end takes its
    # second, then the rings past 16 that the final total needs
    assert _at_infinity(calls) == [True, False, True]


def test_cauchy_windows_batch_fetches_the_infinity_end_after_the_zero_end():
    # the first call holds the core and one ring of each end; the infinity
    # end's later rings come in calls after every call with zero rings
    parts = _synthetic([0, 1, 2])
    out, calls = _synthetic_windows(parts)
    assert calls[0] == ([(_LO, _HI), (_LO / _STEP, _LO), (_HI, _HI * _STEP)], [0, 1, 2])
    at_zero = [any(b <= _LO for _, b in w) for w, _ in calls[1:]]
    last = max(i for i, z in enumerate(at_zero) if z)
    assert _at_infinity(calls[1:]) == [False] * (last + 1) + [True] * (len(at_zero) - last - 1)
    assert _per_column(out) == [_one_ring_at_a_time(part) for part in parts]


@pytest.mark.parametrize("columns", [[2], [0, 1, 2]], ids=["alone", "batch"])
def test_cauchy_windows_drop_each_part_once_judged(columns, monkeypatch):
    # every end, alone and in a batch, keeps no part past the judge that
    # adds it
    ends, dropped = [], []

    class End(numerics._End):
        def __init__(self, *args):
            super().__init__(*args)
            ends.append(self)

        def judge(self, totals):
            wants = super().judge(totals)
            dropped.append(self.parts == [[]] * len(columns))
            return wants

    monkeypatch.setattr(numerics, "_End", End)
    _synthetic_windows(_synthetic(columns))
    assert len(ends) == 2 and len(dropped) > 2 and all(dropped)
    assert all(end.parts == [[]] * len(columns) for end in ends)


def _law_part(law):
    """The part of a synthetic column on a window: ``core`` on the core,
    ``amp q**k cos(omega k)`` on ring k of each end."""
    core, ends = law

    def part(window):
        ring = _ring_index(window)
        if ring is None:
            return core
        amp, q, omega = ends[ring[0] == "infinity"]
        return amp * q ** ring[1] * math.cos(omega * ring[1])

    return part


_END_LAW = st.tuples(st.floats(-2.0, 2.0), st.floats(0.05, 1.05),
                     st.sampled_from([0.0, 0.0, 1.0, math.pi, 2.5]))


@given(st.lists(st.tuples(st.tuples(st.floats(-3.0, 3.0), st.tuples(_END_LAW, _END_LAW)),
                          st.sampled_from([1.0, 1.0, 1e-280, 1e280])),
                min_size=1, max_size=3))
def test_cauchy_windows_blocks_agree(columns):
    # geometric (omega 0) and oscillating rings, some columns leaving the
    # float range at one end: one ring, two rings and full blocks per fetch
    # give the totals, partial sums, failed ends, windows and ring counts of
    # each column alone, one ring at a time
    parts = [_law_part(law) for law, _ in columns]
    scales = [scale for _, scale in columns]
    want = [_one_ring_at_a_time(part, scale) for part, scale in zip(parts, scales)]
    for block in (1, 2, 16):
        assert _per_column(_synthetic_windows(parts, scales, block)[0]) == want


_FIRST = st.tuples(st.integers(1, 120), st.integers(1, 120))


@given(st.tuples(st.floats(-3.0, 3.0), st.tuples(_END_LAW, _END_LAW)),
       st.sampled_from([1.0, 1e-280, 1e280]), _FIRST)
def test_cauchy_windows_first_blocks_agree(law, scale, first):
    # one column's first blocks of any size, past _MAX_EXPANSIONS too, give
    # the totals, partial sums, failed ends, windows and ring counts of the
    # default call; a block=1 caller fetches the same rings whatever first
    parts, scales = [_law_part(law)], [scale]
    assert _synthetic_windows(parts, scales, first=first)[0] == \
        _synthetic_windows(parts, scales)[0]
    assert _synthetic_windows(parts, scales, block=1, first=first) == \
        _synthetic_windows(parts, scales, block=1)


@pytest.mark.parametrize("kernel, r", [(ExpKernel(), 1e-294), (LogSingularKernel(), 1e299)],
                         ids=["float-range", "float-range-at-one-end"])
@given(first=_FIRST)
def test_transform_first_blocks_agree(kernel, r, first):
    # the float-range inputs of the transform ring tests, one r at a time
    tr = KernelTransform(kernel, RadonMeasure.power_density(-0.3))

    def ring(windows, live):
        return tr._window_term([r], windows, [1.0])

    args = ring, 0.0, math.inf, [r], tr.quad
    assert _cauchy_windows(*args, first=first) == _cauchy_windows(*args)


@pytest.mark.parametrize("cells", [1, 3])
@pytest.mark.parametrize("columns", [[2], [0, 1, 2]], ids=["alone", "batch"])
def test_ring_cells_cap_a_batch_and_keep_its_sums(columns, cells, monkeypatch):
    # the rings are judged one at a time, so smaller blocks change nothing
    parts = _synthetic(columns)
    want, wide = _synthetic_windows(parts)
    monkeypatch.setattr(numerics, "_RING_CELLS", cells)
    got, calls = _synthetic_windows(parts)
    assert got == want
    if len(columns) > 1:
        assert max(len(w) * len(live) for w, live in wide) > 3
        assert all(len(w) * len(live) <= max(cells, len(live)) for w, live in calls)


def test_improper_divergence_carries_partials():
    with pytest.raises(DivergenceError) as err:
        improper_quad(lambda t: 1.0 / t, 0.0, 1.0)
    assert len(err.value.partials) > 2


@pytest.fixture
def wide(monkeypatch):
    monkeypatch.setattr(numerics, "_EXPANSION", 1e100)


def test_float_range_exit_accepts_after_one_calm_ring(wide):
    # with 1e100-fold rings each end leaves the float range after two rings:
    # exp(-t) has one calm ring per end and is accepted
    val = improper_quad(lambda t: np.exp(-t), 0.0, None)
    assert abs(val - 1.0) < 1e-9


def test_float_range_exit_rejects_without_a_calm_ring(wide):
    with pytest.raises(DivergenceError) as err:
        improper_quad(lambda t: 1.0 / t, 1.0, None)
    # core (1, 4], then two rings of log(1e100) each before 4e300 > 1e300
    assert len(err.value.partials) == 3


@pytest.fixture
def far(monkeypatch):
    # 1e30-fold rings: 4e30, ..., 4e270 lie in the float range and 4e300 does
    # not, so the blocks of 1, 2 and 4 rings are followed by one cut to 2 rings
    monkeypatch.setattr(numerics, "_EXPANSION", 1e30)


def test_float_range_exit_cuts_a_block_and_rejects(far):
    with pytest.raises(DivergenceError) as err:
        improper_quad(lambda t: 1.0 / t, 1.0, None)
    want = math.log(4.0) + math.log(1e30) * np.arange(10)
    assert np.allclose(err.value.partials, want, rtol=1e-12, atol=0.0)


def test_float_range_exit_accepts_after_one_calm_ring_in_a_block(far):
    # the ring (4e210, 4e240] holds the split point 1e220 and is integrated
    # alone; (4e240, 4e270] is the one calm ring before the float range ends
    def f(t):
        return np.where(t < 1e220, 1.0 / t, 0.0)

    assert improper_quad(f, 1.0, None, split_points=[1e220]) == \
        pytest.approx(math.log(1e220), rel=1e-12)


def test_golden_section_min():
    x, v = golden_section_min(lambda x: (x - 1.3) ** 2 + 0.25, 0.0, 2.0)
    assert abs(x - 1.3) < 1e-8
    assert abs(v - 0.25) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 319])
@pytest.mark.parametrize("grid", ["uniform-log", "non-uniform"])
def test_cubic_table_matches_scipy_cubic_spline(n, grid):
    rng = np.random.default_rng(n)
    if grid == "uniform-log":
        x = np.log(np.geomspace(1e-3, 1e7, n))
    else:
        x = np.cumsum(rng.uniform(0.2, 1.0, n))
    y = np.exp(1.3j * x) * (1.0 + x * x) ** 0.25 + 0.1 * rng.normal(size=n)
    table, spline = CubicTable.fit(x, y), CubicSpline(x, y)
    # the knots, points inside and points up to one end interval beyond
    h0, h1 = x[1] - x[0], x[-1] - x[-2]
    t = np.concatenate([x, rng.uniform(x[0], x[-1], 400),
                        x[0] - h0 * np.array([1.0, 0.5]), x[-1] + h1 * np.array([0.5, 1.0])])
    assert table.coef.shape == (n - 1, 4)
    want = spline(t)
    assert np.max(np.abs(table(t) - want)) <= 1e-14 * np.max(np.abs(want))
    want = spline.antiderivative()(t)
    got = table.antiderivative()(t)
    assert got[0] == 0.0
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
