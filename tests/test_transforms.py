import math

import numpy as np
import pytest

from azarin import numerics, transforms
from azarin.dynamics import estimate_limit_set, geometric_schedule, sample_trajectory
from azarin.kernels import (ExpKernel, IndicatorKernel, LogSingularKernel,
                            PowerCutKernel, SmoothBumpKernel, StepKernel,
                            TableKernel, trapezoid_kernel)
from azarin.measures import (DensityPiece, LogPerturbFactor, RadonMeasure,
                             SelfSimilarTail, TabulatedPiece, ZeroScaleFactor,
                             class_membership)
from azarin.numerics import DivergenceError, _cauchy_windows
from azarin.orders import LogLogZero, LogPowerZero, ProximateOrder, TabulatedZero
from azarin.special import lanczos_gamma
from azarin.transforms import (KernelTransform, PiecewiseFunction,
                               antiderivative_chain, averaged_measure,
                               canonical_antiderivative,
                               check_antiderivative_identity,
                               distribution_function, integrability_report,
                               neutralization_report, normalized_limit_values,
                               order_diagnostic, stable_order_report,
                               verify_averaged_limit_densities)

O1 = ProximateOrder(1.0)
LEB = RadonMeasure.power_density(0.0)


def periodic():
    return RadonMeasure(atoms=[(1.0, 1.0)], tail=SelfSimilarTail(2.0, 1.0, 1.0))


class TestTransformValue:
    def test_exp_lebesgue(self):
        tr = KernelTransform(ExpKernel(), LEB)
        assert tr.value(3.0) == pytest.approx(3.0, rel=1e-9)

    def test_exp_power_density_gamma(self):
        tr = KernelTransform(ExpKernel(), RadonMeasure.power_density(-0.5))
        got = tr.value(4.0)
        assert got == pytest.approx(math.sqrt(math.pi) * 2.0, rel=1e-8)

    def test_indicator(self):
        tr = KernelTransform(IndicatorKernel(0.0, 1.0), LEB)
        assert tr.value(7.0) == pytest.approx(7.0, rel=1e-10)

    def test_linearity(self):
        a = RadonMeasure.power_density(-0.5)
        b = RadonMeasure.from_atoms([(2.0, 1.5 + 0.5j)])
        combined = KernelTransform(ExpKernel(), 2.0 * a + b).value(4.0)
        parts = (2.0 * KernelTransform(ExpKernel(), a).value(4.0)
                 + KernelTransform(ExpKernel(), b).value(4.0))
        assert combined == pytest.approx(parts, rel=1e-10)

    def test_scale_identity_with_pairing(self):
        # transform at r equals V(r) * pairing of the kernel against mu_r
        m = periodic()
        k = trapezoid_kernel(1.0, 3.0)
        r = 1.77 * 2.0 ** 20
        lhs = KernelTransform(k, m, O1).value(r)
        rhs = float(O1.scale(r)) * m.scaled(O1, r).pair(k)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_divergence_carries_partials(self):
        tr = KernelTransform(PowerCutKernel(-1.0), LEB)
        with pytest.raises(DivergenceError) as err:
            tr.value(1.0)
        assert len(err.value.partials) > 1

    def test_log_singular_kernel_cotangent_form(self):
        # integral of ln|1 - r/t| t^{rho-1} dt = r^rho (pi/rho) cot(pi rho)
        from azarin.kernels import LogSingularKernel
        rho, r = 0.3, 2.0
        m = RadonMeasure.power_density(rho - 1.0)
        got = KernelTransform(LogSingularKernel(), m).value(r)
        want = r ** rho * (math.pi / rho) / math.tan(math.pi * rho)
        assert got == pytest.approx(want, rel=1e-8)

    def test_log_singular_value_work(self, monkeypatch):
        # the log singularity of the kernel at t = r: accepting on the summed
        # error estimate stops refinement once the value is within its budget,
        # where a per-segment test refines rounding noise (~1e6 nodes)
        from azarin.kernels import LogSingularKernel
        nodes = []
        gk_eval = numerics._gk_eval

        def counting_gk_eval(f, lo, hi):
            nodes.append(15 * np.size(lo))
            return gk_eval(f, lo, hi)

        monkeypatch.setattr(numerics, "_gk_eval", counting_gk_eval)
        rho, r = 0.7, 10.0
        m = RadonMeasure.power_density(rho - 1.0)
        got = KernelTransform(LogSingularKernel(), m).value(r)
        want = r ** rho * (math.pi / rho) / math.tan(math.pi * rho)
        assert got == pytest.approx(want, rel=1e-8)
        assert sum(nodes) <= 20000

    def test_log_singular_diverges_for_lebesgue(self):
        from azarin.kernels import LogSingularKernel
        with pytest.raises(DivergenceError):
            KernelTransform(LogSingularKernel(), LEB).value(2.0)

    @pytest.mark.parametrize("kernel, measure, want", [
        # measure hull (0, 0.1]: int_0^0.1 e^{-t} t^{-1/2} dt
        (ExpKernel(),
         RadonMeasure(pieces=[DensityPiece(lo=0.0, hi=0.1, exponent=-0.5)]),
         math.sqrt(math.pi) * math.erf(math.sqrt(0.1))),
        # kernel support (0, 0.1] against Lebesgue measure
        (IndicatorKernel(0.0, 0.1), LEB, 0.1),
    ], ids=["measure-end", "kernel-end"])
    def test_finite_end_below_window_lo(self, kernel, measure, want):
        # the finite end clips the window, so only zero is improper; the core
        # is then the ring next to the support's end, (end / expansion, end],
        # and rings grow downward from there
        tr = KernelTransform(kernel, measure)
        seen = []
        term = tr._window_term

        def spy(rs, windows, norms):
            seen.extend(windows)
            return term(rs, windows, norms)

        tr._window_term = spy
        assert tr.value(1.0) == pytest.approx(want, rel=1e-9)
        end = seen[0][1]
        assert end == pytest.approx(0.1, rel=1e-11)
        assert seen[:2] == [(end / 4.0, end), (end / 16.0, end / 4.0)]
        assert all(u_hi <= end for _, u_hi in seen)

    def test_cache_hits(self):
        tr = KernelTransform(ExpKernel(), LEB)
        assert tr.value(2.0) == tr.value(2.0)
        assert 2.0 in tr._cache


def _scipy_transform(kernel, measure, r, lo, hi, points=()):
    """scipy quad of K(t/r) density(t) over (lo, hi), split at ``points``,
    plus the atom sum: the transform at r for a measure charging (lo, hi)."""
    from scipy.integrate import quad

    def part(f, a, b):
        return quad(lambda t: f(kernel(np.array([t / r]))[0]
                                * measure.density(np.array([t]))[0]),
                    a, b, epsabs=0.0, epsrel=1e-12, limit=400)[0]

    edges = [lo] + sorted(p for p in points if lo < p < hi) + [hi]
    total = sum(complex(part(np.real, a, b), part(np.imag, a, b))
                for a, b in zip(edges[:-1], edges[1:]))
    xs, ws = measure.atoms_in(lo, hi)
    return total + complex(np.sum(kernel(xs / r) * ws))


def _self_similar():
    # density 1 on [2^k, 1.5 2^k) and atoms 2^k at 2^k, for every k
    return RadonMeasure(atoms=[(1.0, 1.0)], pieces=(DensityPiece(1.0, 1.5),),
                        tail=SelfSimilarTail(2.0, 1.0, 1.0))


class TestTransformValues:
    """``KernelTransform.values``: many r in one vector integral per ring."""

    @pytest.mark.parametrize("kernel, measure, rs, want", [
        (ExpKernel(), RadonMeasure.power_density(-0.3),
         np.geomspace(1e-2, 1e6, 9), lambda r: math.gamma(0.7) * r ** 0.7),
        (LogSingularKernel(), RadonMeasure.power_density(-0.7), [0.5, 2.0, 30.0],
         lambda r: r ** 0.3 * (math.pi / 0.3) / math.tan(math.pi * 0.3)),
        # finite hull (1, 10]: r = 0.5 sees none of it, the others clip it
        (IndicatorKernel(0.0, 1.0),
         RadonMeasure(pieces=(DensityPiece(1.0, 10.0, exponent=0.5),)),
         [0.5, 2.0, 5.0, 20.0],
         lambda r: (min(r, 10.0) ** 1.5 - 1.0) / 1.5 if r > 1.0 else 0.0),
    ], ids=["exp-power", "log-singular-power", "indicator-finite-hull"])
    def test_closed_forms(self, kernel, measure, rs, want):
        got = KernelTransform(kernel, measure).values(rs)
        assert got.shape == (len(rs),)
        for r, v in zip(rs, got):
            assert v == pytest.approx(want(r), rel=1e-8, abs=1e-300)

    @pytest.mark.parametrize("measure", [
        RadonMeasure(atoms=[(2.0, 1.5), (5.0, -0.5j)],
                     pieces=(DensityPiece(0.0, math.inf, exponent=-0.5),)),
        _self_similar(),
    ], ids=["atoms-and-power", "self-similar"])
    def test_trapezoid_matches_scipy(self, measure):
        # the self-similar columns all have different breakpoints in u
        k = trapezoid_kernel(1.0, 3.0)
        rs = [1.3, 1.7, 2.9, 11.0, 37.0]
        got = KernelTransform(k, measure).values(rs)
        for r, v in zip(rs, got):
            points = [r * x for x in k.breakpoints()] + list(
                measure.breakpoints_in(r, 3.0 * r))
            want = _scipy_transform(k, measure, r, r * (1.0 - 1e-12), 3.0 * r,
                                    points)
            assert v == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("kernel, measure, rs", [
        (ExpKernel(),
         RadonMeasure.power_density(-0.3, factor=LogPerturbFactor("inv_log1p")),
         np.geomspace(1e-3, 1e9, 25)),
        (LogSingularKernel(), RadonMeasure.power_density(-0.7), [0.5, 2.0, 30.0]),
        (IndicatorKernel(0.0, 1.0),
         RadonMeasure(pieces=(DensityPiece(1.0, 10.0, exponent=0.5),)),
         [0.5, 2.0, 5.0, 20.0]),
        (trapezoid_kernel(1.0, 3.0), _self_similar(), [1.3, 1.7, 2.9, 11.0, 37.0]),
        (ExpKernel(),
         RadonMeasure(atoms=[(2.0, 1.5), (5.0, -0.5j)],
                      pieces=(DensityPiece(0.0, math.inf, exponent=-0.5),)),
         [0.1, 1.0, 10.0]),
    ], ids=["exp-perturbed-power", "log-singular", "indicator-finite-hull",
            "trapezoid-self-similar", "exp-atoms"])
    def test_matches_value_one_r_at_a_time(self, kernel, measure, rs):
        got = KernelTransform(kernel, measure).values(rs)
        for r, v in zip(rs, got):
            want = KernelTransform(kernel, measure).value(r)
            assert abs(v - want) <= 1e-9 * abs(want)

    def test_fills_the_cache_and_keeps_duplicates(self):
        tr = KernelTransform(ExpKernel(), LEB)
        got = tr.values([2.0, 3.0, 2.0])
        assert list(got) == [tr.value(2.0), tr.value(3.0), tr.value(2.0)]
        assert set(tr._cache) == {2.0, 3.0}
        for bad in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite r > 0"):
                tr.values([1.0, bad])

    def test_divergence_is_the_first_failing_r(self):
        # every column diverges at zero; the error is the first r's, as
        # value would raise it
        kernel = PowerCutKernel(-1.0)
        with pytest.raises(DivergenceError) as many:
            KernelTransform(kernel, LEB).values([3.0, 1.0])
        with pytest.raises(DivergenceError) as one:
            KernelTransform(kernel, LEB).value(3.0)
        assert str(many.value) == str(one.value)
        assert "at zero" in str(many.value)
        assert len(many.value.partials) == len(one.value.partials) > 1
        assert np.allclose(many.value.partials, one.value.partials, rtol=1e-12)

    def test_averaged_measure_work(self, fam, monkeypatch):
        # roundtrip_regular's averaged measure: its 319 values take ~10^4 GK
        # batches of ~17 nodes one r at a time, and a few dozen when the r
        # share their rings and segments
        batches = []
        gk_eval = numerics._gk_eval

        def counting_gk_eval(f, lo, hi):
            batches.append(np.size(lo))
            return gk_eval(f, lo, hi)

        monkeypatch.setattr(numerics, "_gk_eval", counting_gk_eval)
        measure = RadonMeasure.power_density(-0.3, factor=LogPerturbFactor("inv_log1p"))
        ts = geometric_schedule(1e2, 1e8, 176)
        lo, hi = fam.support_hull()
        tr = KernelTransform(ExpKernel(), measure, ProximateOrder(0.7))
        s = averaged_measure(tr, (ts.min() * lo / 4.0, ts.max() * hi * 4.0))
        assert len(s.pieces[0].values) == len(tr._cache) == 319
        assert len(batches) <= 200


def _one_ring_at_a_time(tr, r):
    """The Cauchy window rule for the transform at one r, each ring one
    two-edge window term: (total, partial sums, failed end or None)."""
    ctrl = tr.quad
    u_lo = max(tr.kernel.support[0], tr.measure.hull()[0] / r * (1.0 - 1e-12))
    u_hi = min(tr.kernel.support[1], tr.measure.hull()[1] / r * (1.0 + 1e-12))
    core_lo = numerics._WINDOW_LO if u_lo == 0.0 else u_lo
    core_hi = numerics._WINDOW_HI if math.isinf(u_hi) else u_hi

    def ring(a, b):
        return tr._window_term([r], [(a, b)], [1.0])[0][0]

    total = ring(core_lo, core_hi)
    partials = [total]
    failed = None
    for improper, edge, step, beyond, end in (
            (u_lo == 0.0, core_lo, lambda t: t / numerics._EXPANSION,
             lambda t: t * r < 1e-300, "zero"),
            (math.isinf(u_hi), core_hi, lambda t: t * numerics._EXPANSION,
             lambda t: t * r > 1e300, "infinity")):
        if not improper:
            continue
        calm, accepted = 0, False
        for _ in range(numerics._MAX_EXPANSIONS):
            nxt = step(edge)
            if beyond(nxt):
                accepted = calm >= 1
                break
            part = ring(min(edge, nxt), max(edge, nxt))
            edge = nxt
            total += part
            partials.append(total)
            calm_ring = abs(part) <= ctrl.tol * (1.0 + abs(total)) + ctrl.abs_tol
            calm = calm + 1 if calm_ring else 0
            if calm >= 2:
                accepted = True
                break
        if not accepted and failed is None:
            failed = end
    return total, partials, failed


# at r = 1 the atom at 1/64 lies on the edge between the rings (1/256, 1/64]
# and (1/64, 1/16] inside one block, and the atom at 16 on the edge between
# the blocks (4, 16] and (16, 256]
ATOMS_AND_BREAKPOINTS = RadonMeasure(
    atoms=[(1.0 / 64.0, 3.0), (0.3, 1.0), (2.0, 0.5j), (16.0, 2.0), (50.0, -1.0)],
    pieces=(DensityPiece(0.0, 1.5, exponent=-0.3),
            DensityPiece(1.5, math.inf, coef=2.0, exponent=-0.6)))


# density t**-0.3 below 1 and t**-1.5 above: the zero end of a large r
# first crosses the steep piece, so its ring count grows with r
TWO_POWERS = RadonMeasure(pieces=(DensityPiece(0.0, 1.0, exponent=-0.3),
                                  DensityPiece(1.0, math.inf, exponent=-1.5)))


class TestRingBlocks:
    """Rings fetched in blocks and integrated as one vector integral per
    block give the totals, ring counts and partial sums of the rule run one
    two-edge ring at a time."""

    @staticmethod
    def _blocks(tr, rs):
        # the rings of ``KernelTransform.values`` for one group of r
        def ring(windows, live):
            return tr._window_term([rs[j] for j in live], windows, [1.0] * len(live))

        return _cauchy_windows(ring, 0.0, math.inf, rs, tr.quad)

    @pytest.mark.parametrize("kernel, measure, rs, taken", [
        (ExpKernel(), RadonMeasure.power_density(-0.3), [1e-2, 1.0, 1e8],
         [(22, 4), (24, 4), (25, 4)]),
        (LogSingularKernel(), RadonMeasure.power_density(-0.3), [1e-2, 1.0, 1e8],
         [(25, 49), (28, 54), (29, 54)]),
        (ExpKernel(), ATOMS_AND_BREAKPOINTS, [0.1, 1.0, 1e4], [(22, 4), (23, 4), (26, 4)]),
        # the parts of the first column are tiny: it is accepted after two
        # calm rings, long before its zero end would leave the float range
        (ExpKernel(), RadonMeasure.power_density(-0.3), [1e-294, 1.0], [(2, 2), (24, 4)]),
        # the first column leaves the float range at the first ring at
        # infinity but takes 29 rings at zero, while the second takes 56 at
        # infinity, which overflow at the first scale: no call holds both
        (LogSingularKernel(), RadonMeasure.power_density(-0.3), [1e299, 1.0],
         [(29, 0), (28, 54)]),
        # both columns reach the float range at zero with no calm ring and
        # are rejected there, after 8 and 15 rings
        (ExpKernel(), RadonMeasure.power_density(-0.99), [1e-294, 1e-290], [(8, 3), (15, 3)]),
        # each column's last ring at zero is its only calm one, and the next
        # edge leaves the float range: accepted (at exponent -0.96612 the
        # first column's last ring is not calm, and it is rejected there)
        (ExpKernel(), RadonMeasure.power_density(-0.96606), [1e-294, 1e-296],
         [(8, 2), (5, 2)]),
    ], ids=["exp", "log-singular", "atoms-and-breakpoints", "float-range",
            "float-range-at-one-end", "float-range-rejected-at-zero",
            "float-range-accepted-at-zero"])
    def test_blocks_match_one_ring_at_a_time(self, kernel, measure, rs, taken):
        tr = KernelTransform(kernel, measure)
        totals, partials, failed, _, counts = self._blocks(tr, rs)
        assert counts == taken
        for j, r in enumerate(rs):
            total, want, end = _one_ring_at_a_time(tr, r)
            assert failed.get(j) == end
            assert len(partials[j]) == len(want) > 3
            assert abs(totals[j] - total) <= 1e-13 * abs(total)
            assert np.allclose(partials[j], want, rtol=1e-13, atol=0.0)
            if end is None:
                value = KernelTransform(kernel, measure).value(r)
                assert abs(value - total) <= 1e-13 * abs(total)

    def test_divergence_partials_match(self):
        tr = KernelTransform(PowerCutKernel(-1.0), LEB)
        with pytest.raises(DivergenceError) as err:
            tr.value(1.0)
        total, want, end = _one_ring_at_a_time(tr, 1.0)
        assert end == "zero" and "at zero" in str(err.value)
        assert len(err.value.partials) == len(want) == 1 + numerics._MAX_EXPANSIONS
        assert np.allclose(err.value.partials, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("rs", [[1e-3, 1e6]])
    def test_ends_finishing_in_different_blocks(self, rs):
        # one ring at a time, r = 1e-3 takes 24 rings at zero (block 5) and
        # 14 at infinity (block 4), r = 1e6 takes 35 (block 6) and 7 (block 3)
        tr = KernelTransform(LogSingularKernel(), TWO_POWERS)
        totals, partials, failed, _, _ = self._blocks(tr, rs)
        assert failed == {}
        for j, r in enumerate(rs):
            total, want, end = _one_ring_at_a_time(tr, r)
            assert end is None
            assert len(partials[j]) == len(want)
            assert abs(totals[j] - total) <= 1e-13 * abs(total)
            assert np.allclose(partials[j], want, rtol=1e-13, atol=0.0)

    def test_divergence_at_infinity_partials_match(self):
        # accepted at zero, rejected at infinity: the partial sums run through
        # the core, the rings taken at zero, then the rings at infinity
        tr = KernelTransform(LogSingularKernel(), LEB)
        with pytest.raises(DivergenceError) as err:
            tr.value(1.0)
        total, want, end = _one_ring_at_a_time(tr, 1.0)
        assert end == "infinity" and "at infinity" in str(err.value)
        assert len(err.value.partials) == len(want) > 3 + numerics._MAX_EXPANSIONS
        assert np.allclose(err.value.partials, want, rtol=1e-13, atol=0.0)

    def test_divergence_at_both_ends_reports_zero(self):
        measure = RadonMeasure(pieces=(DensityPiece(0.0, 1.0, exponent=-1.0),
                                       DensityPiece(1.0, math.inf, exponent=0.5)))
        tr = KernelTransform(LogSingularKernel(), measure)
        with pytest.raises(DivergenceError) as err:
            tr.value(1.0)
        total, want, end = _one_ring_at_a_time(tr, 1.0)
        assert end == "zero" and "at zero" in str(err.value)
        assert self._blocks(tr, [1.0])[2] == {0: "zero"}
        assert len(err.value.partials) == len(want) == 1 + 2 * numerics._MAX_EXPANSIONS
        assert np.allclose(err.value.partials, want, rtol=1e-13, atol=0.0)

    @staticmethod
    def _window_calls(tr):
        """A list that gains the windows of each ``_window_term`` call of ``tr``."""
        calls, term = [], tr._window_term

        def spy(rs, windows, norms):
            calls.append(list(windows))
            return term(rs, windows, norms)

        tr._window_term = spy
        return calls

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    @pytest.mark.parametrize("kernel, measure", [
        (ExpKernel(), RadonMeasure.power_density(-0.3)),
        (LogSingularKernel(), RadonMeasure.power_density(-0.3)),
        (ExpKernel(), ATOMS_AND_BREAKPOINTS),
        (LogSingularKernel(), TWO_POWERS),
        # finite support: the infinity end is finite and takes no rings
        (IndicatorKernel(0.0, 1.0), RadonMeasure.power_density(-0.3)),
    ], ids=["exp", "log-singular", "atoms-and-breakpoints", "two-powers", "indicator"])
    def test_table_is_fresh_values(self, kernel, measure, order):
        # a value's first blocks come from the one before, and only the
        # rings fetched change: the table is bit for bit each r alone
        grid = [10.0 ** (-2.0 + 0.8 * k) for k in range(13)]
        rs = {"ascending": grid, "descending": grid[::-1],
              "shuffled": [grid[k] for k in (6, 0, 12, 3, 9, 1, 11, 5, 2, 8, 4, 10, 7)]}[order]
        tr = KernelTransform(kernel, measure)
        assert [tr.value(r) for r in rs] == [KernelTransform(kernel, measure).value(r)
                                             for r in rs]

    def test_rejected_value_leaves_the_first_blocks(self):
        # r = 1e299 takes 29 rings at zero and leaves the float range at the
        # first ring at infinity, where it is rejected: it raises what it
        # raises alone, and the next value fetches the rings it would have
        # fetched without it (r = 1 took 28 rings at zero)
        kernel, measure = LogSingularKernel(), RadonMeasure.power_density(-0.3)
        tr, ref = KernelTransform(kernel, measure), KernelTransform(kernel, measure)
        assert tr.value(1.0) == ref.value(1.0)
        with pytest.raises(DivergenceError) as got:
            tr.value(1e299)
        with pytest.raises(DivergenceError) as want:
            KernelTransform(kernel, measure).value(1e299)
        assert str(got.value) == str(want.value) and "at infinity" in str(got.value)
        assert got.value.partials == want.value.partials
        calls, ref_calls = self._window_calls(tr), self._window_calls(ref)
        assert tr.value(1e3) == ref.value(1e3)
        assert calls[0] == ref_calls[0]

    def test_second_exp_value_is_one_call(self):
        # the exp zero end takes about 24 rings, more than a 16-ring block:
        # the first value takes two steps, the next fetches them in one
        tr = KernelTransform(ExpKernel(), RadonMeasure.power_density(-0.3))
        calls = self._window_calls(tr)
        tr.value(1e-2)
        assert len(calls) == 2
        tr.value(10.0 ** -1.75)
        assert len(calls) == 3

    def test_log_table_work(self, quad_calls, gk_batches):
        # the seed-0 log-singular table of the benchmark: 2,073
        # adaptive_quad calls when each ring was its own integral, 325 when
        # the ends took their blocks one after the other, 200 (and 450 GK
        # batches) when one column's blocks grew 1, 2, 4, ... and its
        # singular cores were bisected, 125 (and 150) when a window with a
        # singular point was integrated apart from the rings of its step, 29
        # (and 54) when a value's first blocks came from the one before
        rho = 0.7
        tr = KernelTransform(LogSingularKernel(), RadonMeasure.power_density(rho - 1.0))
        grid = [10.0 ** (-2.0 + 0.4 * k) for k in range(25)]
        got = [tr.value(r) for r in grid]
        want = (math.pi / rho) / math.tan(math.pi * rho)
        assert all(abs(v / r ** rho - want) <= 1e-8 * abs(want)
                   for r, v in zip(grid, got))
        assert len(quad_calls) <= 30
        assert len(gk_batches) <= 55

    def test_exp_table_work(self, quad_calls, gk_cells):
        # the seed-0 exp table of the benchmark: 360 adaptive_quad calls
        # when the ends took their blocks one after the other, 200 when one
        # column's blocks grew 1, 2, 4, ...; 89,790 node-columns when the
        # rings of a step shared their segments, 33,570 when each ring had its
        # own; 41 calls and 23,370 node-columns when a value's first blocks
        # came from the one before
        rho = 0.7
        tr = KernelTransform(ExpKernel(), RadonMeasure.power_density(rho - 1.0))
        grid = [10.0 ** (-2.0 + 0.25 * k) for k in range(40)]
        got = [tr.value(r) for r in grid]
        assert all(abs(v / r ** rho - math.gamma(rho)) <= 1e-8 * math.gamma(rho)
                   for r, v in zip(grid, got))
        assert len(quad_calls) <= 42
        assert sum(gk_cells) <= 25_000

    def test_laplace_builtin_work(self, quad_calls, gk_cells, tmp_path):
        # 163 adaptive_quad calls when the clip at the density end of the
        # hull (1, oo) was widened, so that the core held a sliver, 123 when
        # one column's blocks grew 1, 2, 4, ...; 76,305 node-columns when the
        # rings of a step shared their segments, 16,785 when each ring had its
        # own, 10,350 when a value's first blocks came from the one before
        from azarin.cli import main
        assert main(["run", "laplace_vs_counting", "--out-dir", str(tmp_path)]) == 0
        assert len(quad_calls) <= 45
        assert sum(gk_cells) <= 11_000


def _scaled_reference(kernel, measure, order, r, u_window):
    """(total, partial sums, failed end or None) of the integral of K over
    ``u_window`` against mu_r, by the Cauchy window rule on the transform of
    the scaled measure mu_r = ``measure.scaled(order, r)`` at 1, each ring
    one window term of it.  The window is clipped to the kernel support and
    to the hull of mu_r, widened by 1e-12."""
    ref = KernelTransform(kernel, measure.scaled(order, r))
    hull = ref.measure.hull()
    lo = max(kernel.support[0], hull[0] * (1.0 - 1e-12), u_window[0])
    hi = min(kernel.support[1], hull[1] * (1.0 + 1e-12), u_window[1])
    if not math.isinf(hi) and hi <= max(lo, 0.0):
        return 0.0, [], None

    def ring(windows, live):
        return ref._window_term([1.0], windows, [1.0])

    totals, partials, failed, _, _ = _cauchy_windows(ring, lo, hi, [1.0], ref.quad)
    return totals[0], partials[0], failed.get(0)


# atoms at 2 and 16 with breakpoints at 1.5 and 6: at r = 4 the atom at 2
# sits on the edge u = 1/2, at r = 8 on u = 1/4, and the one at 16 on u = 2
EDGE_ATOMS = RadonMeasure(
    atoms=[(2.0, 1.0), (16.0, -0.5j), (0.3, 0.25)],
    pieces=(DensityPiece(0.0, 1.5, exponent=-0.5),
            DensityPiece(1.5, 6.0, coef=2.0, exponent=0.3),
            DensityPiece(6.0, math.inf, coef=0.5, exponent=-1.2)))
# hull (1, oo): the r with 1/r past a head cutoff see none of it
ABOVE_ZERO = RadonMeasure(atoms=[(1.0, 2.0)],
                          pieces=(DensityPiece(1.0, math.inf, exponent=-1.5),))


class TestIntegrals:
    """``KernelTransform.integrals`` at scales r and norms V(r) against the
    transform of each scaled measure mu_r at 1."""

    @pytest.mark.parametrize("kernel, measure, order, rs, u_window", [
        (ExpKernel(), EDGE_ATOMS, ProximateOrder(0.5), [4.0, 8.0, 1.0, 0.5],
         (0.0, 0.5)),
        (ExpKernel(), EDGE_ATOMS, ProximateOrder(0.5), [4.0, 8.0, 1.0, 0.5],
         (0.5, math.inf)),
        (ExpKernel(), EDGE_ATOMS, ProximateOrder(0.5), [8.0, 1.0], (0.25, 2.0)),
        (ExpKernel(), ABOVE_ZERO, ProximateOrder(0.5), [2.0, 8.0, 64.0],
         (0.0, 0.25)),
        (ExpKernel(), ABOVE_ZERO, ProximateOrder(0.5), [2.0, 8.0, 64.0],
         (2.0, math.inf)),
        (ExpKernel(), _self_similar(), O1, [1.3, 5.0, 37.0], (0.0, 0.125)),
        (ExpKernel(), _self_similar(), O1, [1.3, 5.0, 37.0], (4.0, math.inf)),
        (LogSingularKernel(), RadonMeasure.power_density(-0.7), ProximateOrder(0.5),
         [0.5, 2.0, 30.0], (0.0, 0.5)),
        (LogSingularKernel(), RadonMeasure.power_density(-0.7), ProximateOrder(0.5),
         [0.5, 2.0, 30.0], (0.5, math.inf)),
    ], ids=["edge-atoms-head", "edge-atoms-tail", "edge-atoms-both-ends",
            "above-zero-head", "above-zero-tail", "self-similar-head",
            "self-similar-tail", "log-singular-head", "log-singular-tail"])
    def test_matches_scaled_measures(self, kernel, measure, order, rs, u_window):
        tr = KernelTransform(kernel, measure)
        got = tr.integrals(rs, order.scale(rs), u_window)
        assert got.shape == (len(rs),)
        for r, v in zip(rs, got):
            want, _, failed = _scaled_reference(kernel, measure, order, r, u_window)
            assert failed is None
            assert abs(v - want) <= 1e-12 * abs(want)

    def test_edge_atoms_go_to_the_head(self):
        # atoms only: the windows are exact sums, so the atom at u = 1/2
        # counts in (0, 1/2] and not in (1/2, oo)
        m = RadonMeasure.from_atoms([(2.0, 1.0), (16.0, 3.0)])
        tr = KernelTransform(IndicatorKernel(0.0, 8.0), m)
        assert tr.integrals([4.0], 2.0, (0.0, 0.5))[0] == 0.5
        assert tr.integrals([4.0], 2.0, (0.5, math.inf))[0] == 1.5
        assert tr.integrals([4.0], 2.0)[0] == tr.value(4.0) / 2.0 == 2.0

    def test_norm_one_is_values(self):
        kernel, measure = LogSingularKernel(), RadonMeasure.power_density(-0.7)
        rs = [0.5, 2.0, 30.0]
        got = KernelTransform(kernel, measure).integrals(rs, 1.0)
        assert got.tolist() == KernelTransform(kernel, measure).values(rs).tolist()

    def test_divergence_is_the_first_failing_r(self):
        # every column diverges at zero; the partial sums are those of the
        # first r given, which differ between the r as V(r) = r^(1/2)
        kernel, order = PowerCutKernel(-1.0), ProximateOrder(0.5)
        rs = [3.0, 1.0, 7.0]
        tr = KernelTransform(kernel, LEB)
        with pytest.raises(DivergenceError) as err:
            tr.integrals(rs, order.scale(rs), (0.0, 0.5))
        _, want, failed = _scaled_reference(kernel, LEB, order, rs[0], (0.0, 0.5))
        _, other, _ = _scaled_reference(kernel, LEB, order, rs[1], (0.0, 0.5))
        assert failed == "zero" and "at zero" in str(err.value)
        assert len(err.value.partials) == len(want) == 1 + numerics._MAX_EXPANSIONS
        assert np.allclose(err.value.partials, want, rtol=1e-12, atol=0.0)
        assert not np.allclose(err.value.partials, other, rtol=1e-3, atol=0.0)


class TestNoScaledMeasures:
    """The transforms of mu_r come from scales and norms: no mu_r is built."""

    def test_neutralization_report(self, scaled_calls, monkeypatch):
        calls = []
        integrals = KernelTransform.integrals

        def counted(self, *args):
            calls.append(args[2])
            return integrals(self, *args)

        monkeypatch.setattr(KernelTransform, "integrals", counted)
        eps_grid, n_grid = [0.5, 0.25, 0.125], [2.0, 4.0]
        rep = neutralization_report(ExpKernel(), O1, EDGE_ATOMS, eps_grid, n_grid,
                                    np.geomspace(10, 1e4, 6))
        assert len(rep.head_sups) == 3 and len(rep.tail_sups) == 2
        assert scaled_calls == []
        assert calls == [(0.0, e) for e in eps_grid] + [(n, math.inf) for n in n_grid]

    def test_kernel_limit_values(self, scaled_calls):
        from azarin.catalog import builtin_config
        from azarin.runners import REGISTRY
        cfg = builtin_config("periodic_kernel_limits")
        result = REGISTRY["kernel_limit_values"](cfg)
        assert result.verdict
        assert scaled_calls == []

    def test_averaged_limit_densities(self, fam, scaled_calls):
        # the mu clusters enter by their times only: no representative is read
        o = ProximateOrder(0.7)
        tr = KernelTransform(ExpKernel(), RadonMeasure.power_density(-0.3), o)
        sched = geometric_schedule(1e2, 1e4, 12)
        hull = fam.support_hull()
        s = averaged_measure(tr, (sched.min() * hull[0] / 4.0,
                                  sched.max() * hull[1] * 4.0))
        s_est = estimate_limit_set(sample_trajectory(s, o.shifted(1.0), sched, fam),
                                   fam)
        mu_est = estimate_limit_set(sample_trajectory(tr.measure, o, sched, fam), fam)
        mu_est = mu_est._replace(representatives=[])
        scaled_calls.clear()
        rep = verify_averaged_limit_densities(tr, s_est, mu_est)
        assert scaled_calls == []
        assert len(rep.rows) == 5 * len(s_est.clusters) > 0
        assert rep.passed


class TestNormalizedLimits:
    def test_periodic_cluster_values(self):
        m = periodic()
        k = trapezoid_kernel(1.0, 3.0)
        tr = KernelTransform(k, m, O1)
        taus = [2.0 ** (j / 16.0) for j in range(16)]
        sched = np.sort(np.array([tau * 2.0 ** p for tau in taus
                                  for p in range(30, 34)]))
        clusters = normalized_limit_values(tr, sched, eps=1e-6)
        assert len(clusters) == 16
        direct = [KernelTransform(k, m.scaled(O1, tau)).value(1.0)
                  for tau in taus]
        for v in direct:
            assert min(abs(v - c) for c in clusters) < 1e-10

    def test_regular_single_value(self):
        o = ProximateOrder(0.5)
        tr = KernelTransform(ExpKernel(), RadonMeasure.power_density(-0.5), o)
        clusters = normalized_limit_values(tr, np.geomspace(10, 1e4, 12))
        assert len(clusters) == 1
        assert clusters[0] == pytest.approx(lanczos_gamma(0.5), rel=1e-8)

    def test_zero_measure(self):
        tr = KernelTransform(ExpKernel(), RadonMeasure.zero(), O1)
        clusters = normalized_limit_values(tr, np.geomspace(10, 1e3, 10))
        assert clusters == [0.0]

    def test_a_slow_drift_is_one_cluster(self):
        # after the transient each value lies 0.6 eps past the one before:
        # single linkage chains them into one cluster, where grouping each
        # value with those within eps of a first one cut the chain into pieces
        eps = 1e-4
        tr = _StubTransform([5.0] * 4 + [0.6 * eps * k for k in range(16)])
        clusters = normalized_limit_values(tr, np.geomspace(10, 1e4, 20), eps=eps)
        assert len(clusters) == 1
        assert clusters[0] == pytest.approx(4.5 * eps, rel=1e-12)

    @pytest.mark.parametrize("values", [[0.0, 0.9, 1.8], [0.9, 0.0, 1.8]],
                             ids=["in-order", "first-two-swapped"])
    def test_clusters_do_not_depend_on_the_order(self, values):
        # in the given order the greedy rule made [0, 0.9 eps] and [1.8 eps],
        # swapped one cluster of all three; single linkage makes one either way
        eps = 1e-4
        tr = _StubTransform([5.0] + [v * eps for v in values])
        clusters = normalized_limit_values(tr, np.geomspace(10, 1e3, 4), eps=eps)
        assert clusters == [sum(v * eps for v in values) / 3]


class _StubTransform:
    """A transform whose value at the k-th r it is asked for is ``values[k]``,
    at scale 1."""

    def __init__(self, values):
        self.order = ProximateOrder(0.0)
        self._values = values

    def values(self, rs):
        start = len(self._values) - len(rs)
        return np.array(self._values[start:], dtype=complex)


class TestNeutralization:
    def test_finite_kernel_passes(self):
        rep = neutralization_report(trapezoid_kernel(1.0, 3.0), O1, LEB,
                                    [0.5, 0.25, 0.125], [4.0, 8.0, 16.0],
                                    np.geomspace(10, 1e4, 6))
        assert rep.passed
        assert all(v == 0.0 for v in rep.head_sups)

    def test_exp_kernel_passes(self):
        rep = neutralization_report(ExpKernel(), O1, LEB,
                                    [0.5, 0.25, 0.125], [4.0, 8.0, 16.0],
                                    np.geomspace(10, 1e4, 6))
        assert rep.passed

    def test_inverse_kernel_fails_at_zero(self):
        rep = neutralization_report(PowerCutKernel(-1.0), O1, LEB,
                                    [0.5, 0.25], [2.0],
                                    np.geomspace(10, 1e3, 4))
        assert not rep.head_passed
        assert not rep.passed

    def test_sups_match_scipy_with_atoms_and_breakpoints(self):
        # each sup is over r of |integral of e^-t d mu_r| over (0, eps] or
        # (N, oo); the scaled breakpoints and atoms fall inside the windows
        from scipy.integrate import quad
        m = RadonMeasure(atoms=[(0.3, 0.5), (2.5, -0.25), (7.0, 1.0)],
                         pieces=(DensityPiece(0.0, 1.5, coef=1.0, exponent=-0.5),
                                 DensityPiece(1.5, 6.0, coef=2.0, exponent=0.3),
                                 DensityPiece(6.0, math.inf, coef=0.5,
                                              exponent=-0.2)))
        order = ProximateOrder(0.5)
        rs = [2.0, 4.0]
        eps_grid, n_grid = [0.5, 0.25, 0.125], [1.0, 2.0, 4.0]
        rep = neutralization_report(ExpKernel(), order, m, eps_grid, n_grid, rs)

        def restricted(mr, lo, hi):
            def f(t):
                return math.exp(-t) * mr.density(np.array([t]))[0].real

            bps = [b for b in mr.breakpoints_in(0.0, math.inf) if lo < b < hi]
            total = 0.0
            for a, b in zip([lo] + bps, bps + [hi]):
                total += quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
            xs, ws = mr.atoms_in(lo, hi)
            return total + float(np.sum(np.exp(-xs) * ws.real))

        def sup(lo, hi):
            return max(abs(restricted(m.scaled(order, r), lo, hi)) for r in rs)

        assert rep.head_sups == pytest.approx([sup(0.0, e) for e in eps_grid],
                                              rel=1e-9)
        assert rep.tail_sups == pytest.approx([sup(n, math.inf) for n in n_grid],
                                              rel=1e-9)


class TestIntegrability:
    def test_exp_flat_gamma(self):
        rep = integrability_report(ExpKernel(), O1)
        assert rep.l1_converged
        assert rep.l1_value == pytest.approx(1.0, rel=1e-9)
        assert rep.amalgam_converged

    def test_indicator_half_power(self):
        rep = integrability_report(IndicatorKernel(0.0, 1.0), ProximateOrder(0.5))
        assert rep.l1_value == pytest.approx(2.0, rel=1e-8)

    def test_inverse_kernel_diverges(self):
        rep = integrability_report(PowerCutKernel(-1.0), O1)
        assert not rep.l1_converged
        assert not rep.passed

    @pytest.mark.parametrize("kernel, order", [
        (ExpKernel(), O1), (ExpKernel(), ProximateOrder(0.7, LogLogZero(2.0))),
        (LogSingularKernel(), ProximateOrder(0.7))], ids=["flat", "log-log", "singular"])
    def test_one_potter_call_per_gk_batch(self, kernel, order, gk_batches, potter_calls):
        integrability_report(kernel, order)
        assert len(potter_calls) == len(gk_batches) + 1
        assert [np.size(tau) for tau in potter_calls[:-1]] == \
            [15 * len(lo) for _, lo, _ in gk_batches]

    # (kernel, order, report, rtol): pinned values; a concave order's power,
    # numpy's exp of a searched factor (an ulp off math.exp at some
    # arguments) and the divergent amalgam total may move by rounding
    @pytest.mark.parametrize("kernel, order, want, rtol", [
        (ExpKernel(), ProximateOrder(0.7),
         (1.2980553326059772, True, 1.2983414745414934, True, True), 0.0),
        (ExpKernel(), O1, (0.999999999985445, True, 1.0006303403201013, True, True), 0.0),
        (IndicatorKernel(0.0, 1.0), ProximateOrder(0.5),
         (1.9999999998835791, True, 1.5414940772983885, False, True), 0.0),
        (PowerCutKernel(-1.0), O1,
         (134.47055302862913, False, 38.999999999960984, False, False), 1e-15),
        (ExpKernel(), ProximateOrder(0.7, LogPowerZero(1.0, 0.5)),
         (4.558282629329263, True, 4.368263149968528, False, True), 1e-15),
        (ExpKernel(), ProximateOrder(0.7, LogLogZero(2.0)),
         (7.667280375540365, True, 7.606082739209998, False, True), 1e-15),
        # the cell (1/e, 1] holds the singular point: the series stops there
        (LogSingularKernel(), ProximateOrder(0.7),
         (6.5531678965661, True, math.inf, False, False), 0.0),
        (StepKernel(steps=((1.0, 0.0, 1.0), (-2.0, 0.0, 0.5))), O1,
         (0.9999999999854452, True, 0.5819767068473559, True, True), 0.0),
        (SmoothBumpKernel(1.0, 2.0), ProximateOrder(0.5),
         (0.49605285456121745, True, 0.9995271151533365, True, True), 0.0),
        (IndicatorKernel(2.0, 30.0),
         ProximateOrder(0.5, TabulatedZero(xs=(0.0, 1.0, 3.0), etas=(0.3, 0.2, 0.05))),
         (12.54465342347923, True, 14.612264218658536, True, True), 0.0),
        # the series stops near n = 6; e**(39 rho) gamma(e**39) overflows
        (ExpKernel(), ProximateOrder(20.0),
         (1.2164510040883163e+17, True, 2.1623377603028157e+17, True, True), 0.0),
        (ExpKernel(), ProximateOrder(25.0, TabulatedZero(xs=(0.0, 1.0), etas=(20.0, 20.0))),
         (2.6582715747884444e+54, True, 2.8929676122048203e+54, True, True), 0.0),
    ], ids=["exp-0.7", "exp-1", "indicator", "power-cut", "exp-log-power",
            "exp-log-log", "log-singular", "lattice", "bump", "indicator-tabulated",
            "exp-rho-20", "exp-steep-tabulated"])
    def test_report_is_pinned(self, kernel, order, want, rtol):
        got = integrability_report(kernel, order)
        assert got == (want if rtol == 0.0 else pytest.approx(want, rel=rtol, abs=0.0))


class TestAveragedMeasure:
    def test_density_values_are_transform_values(self):
        tr = KernelTransform(ExpKernel(), RadonMeasure.power_density(0.0), O1)
        s = averaged_measure(tr, (1.0, 100.0))
        for t in (2.0, 10.0, 50.0):
            assert complex(s.density(np.array([t]))[0]) == pytest.approx(
                tr.value(t), rel=1e-6)

    def test_exp_power_membership_and_limit(self, fam):
        o = ProximateOrder(0.7)
        tr = KernelTransform(ExpKernel(), RadonMeasure.power_density(-0.3), o)
        sched = geometric_schedule(1e2, 1e5, 24)
        hull = fam.support_hull()
        s = averaged_measure(tr, (sched.min() * hull[0] / 4.0,
                                  sched.max() * hull[1] * 4.0))
        shifted = o.shifted(1.0)
        memb = class_membership(s, shifted,
                                r_grid=np.geomspace(1.0, 1e5, 30))
        assert memb.bounded
        s_est = estimate_limit_set(sample_trajectory(s, shifted, sched, fam),
                                   fam)
        mu_est = estimate_limit_set(
            sample_trajectory(RadonMeasure.power_density(-0.3), o, sched, fam),
            fam)
        rep = verify_averaged_limit_densities(tr, s_est, mu_est)
        assert rep.passed

    def test_zero_measure_averages_to_zero(self):
        tr = KernelTransform(ExpKernel(), RadonMeasure.zero(), O1)
        s = averaged_measure(tr, (1.0, 100.0))
        assert abs(s.density(np.array([5.0]))[0]) == 0.0


class TestCanonicalAntiderivative:
    def test_constant_goes_origin(self):
        F = canonical_antiderivative(PiecewiseFunction(lambda t: np.ones_like(t)),
                                     (0.5, 100.0))
        assert F.label == "origin"
        assert F(np.array([7.0]))[0] == pytest.approx(7.0, rel=1e-9)

    def test_exponential_goes_tail(self):
        F = canonical_antiderivative(PiecewiseFunction(lambda t: np.exp(-t)),
                                     (0.5, 60.0))
        assert F.label == "tail"
        assert F(np.array([2.0]))[0] == pytest.approx(-math.exp(-2.0), rel=1e-8)

    def test_inverse_has_no_canonical(self):
        with pytest.raises(DivergenceError):
            canonical_antiderivative(PiecewiseFunction(lambda t: 1.0 / t),
                                     (0.5, 50.0))

    def test_distribution_function_rules(self):
        mu = RadonMeasure(atoms=[(2.0, 1.0)],
                          pieces=(DensityPiece(1.0, math.inf, coef=1.0,
                                               exponent=1.0),))
        F0 = distribution_function(mu)
        assert F0.label == "head-mass"
        assert F0(np.array([1.5]))[0] == pytest.approx((1.5 ** 2 - 1) / 2)
        assert F0(np.array([3.0]))[0] == pytest.approx(5.0)
        finite = RadonMeasure.from_atoms([(2.0, 3.0)])
        G0 = distribution_function(finite)
        assert G0.label == "neg-tail-mass"
        assert G0(np.array([1.0]))[0] == pytest.approx(-3.0)
        assert G0(np.array([2.5]))[0] == pytest.approx(0.0, abs=1e-12)

    def test_distribution_function_keeps_the_hull_edge_atom(self):
        # the head branch returned 0 at hull[0] and dropped the atom there
        mu = RadonMeasure(atoms=[(1.0, 1.0)],
                          pieces=(DensityPiece(1.0, math.inf, coef=1.0,
                                               exponent=1.0),))
        F0 = distribution_function(mu)
        assert F0.label == "head-mass"
        assert F0(np.array([0.5, 1.0]))[1] == 1.0
        assert F0(np.array([0.5]))[0] == 0.0
        assert F0(np.array([2.0]))[0] == pytest.approx(1.0 + 1.5, rel=1e-12)

    @pytest.mark.parametrize("measure", [
        RadonMeasure(atoms=[(2.0, 1.0)],
                     pieces=(DensityPiece(1.0, math.inf, coef=1.0, exponent=1.0),)),
        RadonMeasure(atoms=[(2.0, 1.0)],
                     pieces=(DensityPiece(1.0, math.inf, coef=1.0, exponent=-2.0),)),
    ], ids=["head-mass", "neg-tail-mass"])
    def test_distribution_function_is_one_mass_integral(self, measure,
                                                         dilation_calls):
        F0 = distribution_function(measure)
        dilation_calls.clear()
        t = np.geomspace(0.5, 100.0, 512)
        F0(t)
        assert len(dilation_calls) == 1

    def test_distribution_function_from_origin(self):
        # a hull starting at 0 made an unused mass probe over (0, 5] raise
        F0 = distribution_function(RadonMeasure.power_density(0.5, interval=(0.0, 5.0)))
        assert F0.label == "neg-tail-mass"
        t = np.array([0.5, 1.0, 2.5, 4.0])
        want = -(2.0 / 3.0) * (5.0 ** 1.5 - t ** 1.5)
        assert np.all(np.abs(F0(t) - want) <= 1e-9 * np.abs(want))

    def test_distribution_function_of_a_density_from_origin(self):
        # the head branch's reference point hull()[0] is 0 here, which the
        # cumulative masses rejected
        F0 = distribution_function(RadonMeasure.power_density(0.0, interval=(0.0, None)))
        assert F0.label == "head-mass"
        t = np.array([1e-3, 0.5, 1.0, 3.0, 100.0])
        assert np.all(np.abs(F0(t) - t) <= 1e-10)

    def test_chain_depth(self):
        mu = RadonMeasure.from_atoms([(2.0, 1.0)])
        chain = antiderivative_chain(mu, 2, (0.5, 20.0))
        assert len(chain) == 3


class TestIdentity:
    def test_atom_plus_density(self):
        mu = RadonMeasure(atoms=[(2.0, 1.0)],
                          pieces=(DensityPiece(1.0, math.inf, coef=1.0,
                                               exponent=1.0),))
        rep = check_antiderivative_identity(SmoothBumpKernel(1.0, 2.0), mu,
                                            [0, 1, 2], [1.0, 3.0, 10.0])
        assert rep.passed
        assert rep.max_rel_error <= 1e-6

    def test_support_from_zero_integrates_from_the_domain(self):
        # the kernel support (0, 2] reaches below the chain's domain, whose
        # lower end now bounds the right-hand side instead of zeroing it
        mu = RadonMeasure(atoms=[(2.0, 1.0)],
                          pieces=(DensityPiece(1.0, math.inf, coef=1.0,
                                               exponent=1.0),))
        rep = check_antiderivative_identity(SmoothBumpKernel(0.0, 2.0), mu,
                                            [0], [1.0, 3.0, 10.0])
        assert rep.passed
        assert rep.max_rel_error <= 1e-13

    @pytest.mark.parametrize("lo, rs", [
        (1.0, [1.5]), (0.0, [1.0, 1.5, 3.0, 10.0]), (0.5, [1.0, 1.5, 3.0, 10.0]),
    ])
    def test_atom_inside_the_scaled_window(self, lo, rs):
        # the atom at 2 lies inside (r lo, 2 r] for r = 1.5 (and r = 1 when
        # lo < 1); F_0 jumps there, at the right end of its panel (1, 2]
        mu = RadonMeasure(atoms=[(2.0, 1.0)],
                          pieces=(DensityPiece(1.0, math.inf, coef=1.0,
                                               exponent=1.0),))
        rep = check_antiderivative_identity(SmoothBumpKernel(lo, 2.0), mu,
                                            [0, 1, 2], rs)
        assert rep.max_rel_error <= 1e-12

    def test_zero_measure(self):
        rep = check_antiderivative_identity(SmoothBumpKernel(1.0, 2.0),
                                            RadonMeasure.zero(), [0, 1], [2.0])
        assert rep.passed

    def test_requires_smooth_kernel(self):
        with pytest.raises(ValueError):
            check_antiderivative_identity(trapezoid_kernel(1.0, 2.0),
                                          RadonMeasure.zero(), [0], [1.0])

    def test_rejects_mass_near_origin(self):
        with pytest.raises(ValueError):
            check_antiderivative_identity(SmoothBumpKernel(1.0, 2.0),
                                          RadonMeasure.from_atoms([(0.5, 1.0)]),
                                          [0], [1.0])


class TestTableKernelClosedForm:
    """A continuous TableKernel pairs a tail-free table in closed form; a
    discontinuous one keeps the quadrature."""
    x = np.linspace(math.log(0.5), math.log(40.0), 23)
    measure = RadonMeasure(pieces=(TabulatedPiece(
        0.5, 40.0, tuple(x),
        tuple(np.exp(-0.4 * x) * (1.0 + 0.5j * np.sin(2.0 * x)) + 0.3 * np.cos(5.0 * x))),))

    def _scipy(self, kernel, s, a, b):
        """scipy quad of K(t/s) density(t) over t in (s a, s b] clipped to the
        table, split at the spline knots and at s times the kernel nodes:
        the dilation integral of K over (a, b] at scale s and norm 1."""
        from scipy.integrate import quad
        lo, hi = max(s * a, 0.5), min(s * b, 40.0)
        cuts = np.exp(self.x).tolist() + [s * n for n in kernel.nodes]
        edges = [lo] + sorted(t for t in cuts if lo < t < hi) + [hi]

        def part(f, a, b):
            return quad(lambda t: f(kernel(np.array([t / s]))[0]
                                    * self.measure.density(np.array([t]))[0]),
                        a, b, epsabs=0.0, epsrel=1e-13, limit=400)[0]

        return sum(complex(part(np.real, a, b), part(np.imag, a, b))
                   for a, b in zip(edges[:-1], edges[1:]))

    @pytest.mark.parametrize("r", [1.0, 2.3, 7.0])
    def test_trapezoid_transform_is_exact(self, r):
        k = trapezoid_kernel(1.0, 3.0)
        want = self._scipy(k, r, 1.0, 3.0)
        assert abs(KernelTransform(k, self.measure).value(r) - want) <= 1e-13 * abs(want)

    def test_discontinuous_kernel_keeps_the_quadrature(self):
        # g jumps at both ends of its support, inside the window (0.5, 3]
        step = TableKernel((1.0, 2.0), (1.0, 1.0))
        rs = [1.0, 2.3, 7.0]
        got, = self.measure.dilation_integrals(step, rs, [1.0] * 3, [(0.5, 3.0)])
        for r, v in zip(rs, got):
            assert v == pytest.approx(self._scipy(step, r, 0.5, 3.0), rel=1e-9)


class TestStableOrder:
    def test_growing_scale_stable(self):
        f = PiecewiseFunction(lambda t: np.sqrt(t))
        rep = stable_order_report(f, ProximateOrder(0.5),
                                  np.geomspace(10, 1e6, 40))
        assert rep.stable
        assert rep.tail_max == pytest.approx(1.0 / 1.5, rel=1e-6)

    def test_oscillation_not_stable(self):
        f = PiecewiseFunction(lambda t: np.cos(t), resolution=0.25)
        rep = stable_order_report(f, ProximateOrder(0.0),
                                  np.geomspace(10, 1e4, 30))
        assert not rep.stable

    def test_zero_not_stable(self):
        f = PiecewiseFunction(lambda t: np.zeros_like(t))
        rep = stable_order_report(f, ProximateOrder(0.0),
                                  np.geomspace(10, 1e4, 20))
        assert not rep.stable

    def test_growth_bound_of_antiderivative(self, rng):
        # |F(r + a r) - F(r)| <= M a r V(r): fit M in-sample, check out-of-sample
        o = ProximateOrder(0.5)
        f = PiecewiseFunction(lambda t: np.sqrt(t))
        F = canonical_antiderivative(f, (1e-3, 2e6))
        fit_pairs = [(float(r), float(a)) for r, a in
                     zip(rng.uniform(10, 1e5, 12), rng.uniform(0.05, 1.0, 12))]
        M = max(abs(F(np.array([r * (1 + a)]))[0] - F(np.array([r]))[0])
                / (a * r * float(o.scale(r))) for r, a in fit_pairs)
        for r, a in [(3e5, 0.4), (7e5, 0.9), (1.3e5, 0.1)]:
            gap = abs(F(np.array([r * (1 + a)]))[0] - F(np.array([r]))[0])
            assert gap <= 1.05 * M * a * r * float(o.scale(r))

    def test_order_increases_by_one(self):
        # rho(F) <= rho(f) + 1, estimated on log grids
        f = PiecewiseFunction(lambda t: np.sqrt(t))
        F = canonical_antiderivative(f, (1e-3, 2e6))
        rs = np.geomspace(1e3, 1e6, 10)
        est_f = np.log(np.abs(f(rs))) / np.log(rs)
        est_F = np.log(np.abs(np.asarray(F(rs)))) / np.log(rs)
        assert est_F[-1] <= est_f[-1] + 1.0 + 0.05


class TestOrderDiagnostic:
    def test_slow_scale_slope_vanishes(self):
        oz = ProximateOrder(0.0, LogLogZero(2.0))
        mz = RadonMeasure(pieces=(DensityPiece(1.0, math.inf, coef=1.0,
                                               exponent=-1.0,
                                               factor=ZeroScaleFactor(oz.zero_part)),))
        tr = KernelTransform(ExpKernel(), mz, oz)
        rep = order_diagnostic(tr, np.geomspace(1e2, 1e8, 10))
        assert rep.slope_vanishes
        assert rep.gap_bound_ok
        assert rep.passed

    def test_lebesgue_slope_is_one(self):
        tr = KernelTransform(ExpKernel(), LEB, O1)
        rep = order_diagnostic(tr, np.geomspace(1e2, 1e6, 6))
        assert not rep.slope_vanishes
        assert rep.final_slope == pytest.approx(1.0, rel=1e-6)

    def test_slopes_equal_the_value_at_a_time_form(self):
        # the central difference of the (cached) values at r e^{+-h} over
        # |value(r)|, bit for bit
        r_grid = np.geomspace(1e2, 1e6, 6)
        tr = KernelTransform(ExpKernel(), LEB, O1)
        rep = order_diagnostic(tr, r_grid)
        h = transforms._LOG_STEP
        want = [abs((tr.value(r * math.exp(h)) - tr.value(r * math.exp(-h)))
                    / (2.0 * h)) / max(abs(tr.value(r)), 1e-300) for r in r_grid]
        assert rep.log_slopes == tuple(want)

    def test_the_whole_grid_is_one_integral(self, monkeypatch):
        calls = []
        integrals = KernelTransform.integrals

        def counted(self, rs, *args):
            calls.append(list(rs))
            return integrals(self, rs, *args)

        monkeypatch.setattr(KernelTransform, "integrals", counted)
        r_grid = np.geomspace(1e2, 1e6, 6)
        order_diagnostic(KernelTransform(ExpKernel(), LEB, O1), r_grid)
        h = transforms._LOG_STEP
        # r-major: r e^h, r e^-h and r for each r, then every 2r
        assert calls == [[float(x) for r in r_grid
                          for x in (r * math.exp(h), r * math.exp(-h), r)]
                         + [float(2.0 * r) for r in r_grid]]

    def test_divergence_is_the_first_one_the_loop_meets(self):
        # every value diverges at zero: the error is that of value(r e^h)
        # at the first r, message, side and partials
        r_grid = np.geomspace(1e2, 1e4, 3)
        with pytest.raises(DivergenceError) as got:
            order_diagnostic(KernelTransform(PowerCutKernel(-1.0), LEB, O1), r_grid)
        with pytest.raises(DivergenceError) as want:
            KernelTransform(PowerCutKernel(-1.0), LEB, O1).value(
                r_grid[0] * math.exp(transforms._LOG_STEP))
        assert str(got.value) == str(want.value) == \
            "transform integral failed the Cauchy criterion at zero"
        assert len(got.value.partials) == len(want.value.partials) > 1
        assert np.allclose(got.value.partials, want.value.partials, rtol=1e-12)
