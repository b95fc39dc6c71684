import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from azarin import tauberian
from azarin.dynamics import estimate_limit_set, geometric_schedule, sample_trajectory
from azarin.kernels import (ExpKernel, IndicatorKernel, LogSingularKernel,
                            PowerCutKernel, StepKernel)
from azarin.measures import (DensityPiece, LogPerturbFactor, RadonMeasure,
                             SelfSimilarTail)
from azarin.numerics import _WGK, _XGK, DivergenceError
from azarin.orders import ProximateOrder
from azarin.special import lanczos_gamma
from azarin.tauberian import (_SymbolQuadrature, mellin_symbol,
                              mellin_symbol_table, tauberian_roundtrip,
                              verify_exponential_solution, wiener_zero_scan)


def lattice(q):
    """chi_(0,1] - q chi_(0,1/q]: symbol zeros at 2 pi k / ln q (rho = 1)."""
    return StepKernel(steps=((1.0, 0.0, 1.0), (-float(q), 0.0, 1.0 / q)))


LATTICE = lattice(2)
LAM1 = 2.0 * math.pi / math.log(2.0)
# the zero-scan grid of the lattice builtin: 4,001 lambdas 0.01 apart
SCAN_GRID = np.linspace(-20.0, 20.0, 4001)


def table_gap(got, want):
    """Largest difference of two symbol tables, relative to the table max."""
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("kernel", [lattice(2), lattice(3), lattice(5), ExpKernel()],
                         ids=["step2", "step3", "step5", "exp"])
def test_panel_nodes_are_np_unique(kernel, monkeypatch):
    # the zero scans' node sets: sorted distinct values, bit for bit np.unique's
    same = []
    inner = tauberian._sorted_unique

    def checked(x):
        got = inner(x)
        same.append(got.tobytes() == np.unique(x).tobytes())
        return got

    monkeypatch.setattr(tauberian, "_sorted_unique", checked)
    _SymbolQuadrature(kernel, 1.0, 20.0)
    assert same and all(same)


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
        # the support (5, 10] is the whole core window: one GK15 set of 2
        # panels (7 while panels were a third of a wavelength), none of them
        # below the support
        lams = np.linspace(-20.0, 20.0, 81)
        sq = _SymbolQuadrature(IndicatorKernel(5.0, 10.0), 1.0, 20.0)
        assert sq.xs.size <= 30
        assert math.log(5.0) < sq.xs.min() and sq.xs.max() < math.log(10.0)
        s = 1.0 + 1j * lams
        want = (10.0 ** s - 5.0 ** s) / s
        assert np.max(np.abs(sq.values(lams) - want)) < 1e-10 * np.max(np.abs(want))

    def test_panels_as_wide_as_gk15_resolves(self):
        # 3,780 nodes while panels were a third of a wavelength
        assert _SymbolQuadrature(LATTICE, 1.0, 20.0).xs.size <= 825

    def test_gk15_resolves_the_panel_phase(self):
        # e^{i k y} on [-1, 1] at the half-phase of the widest panel: 4.6e-15
        # (3.3e-14 at k = 6, 1.0e-12 at k = 7)
        k = tauberian._PANEL_PHASE / 2.0
        got = np.sum(_WGK * np.exp(1j * k * _XGK))
        assert abs(got - 2.0 * math.sin(k) / k) <= 1e-14

    @pytest.mark.parametrize("kernel, rho, grid", [
        (LATTICE, 1.0, SCAN_GRID), (lattice(3), 1.0, SCAN_GRID),
        (lattice(5), 1.0, SCAN_GRID),
        (ExpKernel(), 0.7, np.linspace(-8.0, 8.0, 801)),
        (ExpKernel(), 0.7, np.linspace(-30.0, 30.0, 6001)),
        (LogSingularKernel(), 0.5, SCAN_GRID),
    ], ids=["lattice2", "lattice3", "lattice5", "exp-8", "exp-30",
            "log-singular"])
    def test_panels_match_narrow_panels(self, kernel, rho, grid, monkeypatch):
        # the same windows with panels five times narrower: the tables are
        # the same sum to its rounding (measured gaps at most 1.2e-15), so
        # the wider panels leave the symbol's error where it was, in the
        # truncated zero end
        lam_max, step = float(grid[-1]), float(grid[1] - grid[0])
        sq = _SymbolQuadrature(kernel, rho, lam_max)
        monkeypatch.setattr(tauberian, "_PANEL_PHASE", 2.0)
        narrow = _SymbolQuadrature(kernel, rho, lam_max)
        assert narrow.xs.size > 2 * sq.xs.size
        gap = np.max(np.abs(sq.values(grid, step=step)
                            - narrow.values(grid, step=step)))
        assert gap <= 1e-14 * np.sum(np.abs(sq.wg))

    @pytest.mark.parametrize("call", [
        # inf ended in ZeroDivisionError, nan gave nan+nanj; a nan in a table
        # widened its panels to 0.5 and moved |symbol(200)| = 0.00198 by 0.12
        lambda: mellin_symbol(ExpKernel(), 0.7, math.inf),
        lambda: mellin_symbol(ExpKernel(), 0.7, math.nan),
        lambda: mellin_symbol_table(LATTICE, 1.0, [200.0, math.nan]),
    ], ids=["inf", "nan", "nan-in-table"])
    def test_non_finite_lambda_raises(self, call):
        with pytest.raises(ValueError, match="expected finite lambdas"):
            call()

    @pytest.mark.parametrize("lam_max", [1e12, 1e300, 1.7e308])
    def test_node_budget_raises_before_any_node(self, lam_max, monkeypatch):
        # 1e12 asked numpy for 9.63 TiB, 1e300 for more than an array holds
        built = []
        monkeypatch.setattr(tauberian, "_sorted_unique", built.append)
        with pytest.raises(ValueError, match="needs more than 2097152 nodes"):
            mellin_symbol_table(LATTICE, 1.0, [0.0, lam_max])
        with pytest.raises(ValueError, match="needs more than 2097152 nodes"):
            wiener_zero_scan(LATTICE, 1.0, window=(0.0, lam_max), step=0.01)
        assert built == []

    def test_scan_grid_budget_raises_before_the_grid(self, monkeypatch):
        # the lattice at |lambda| up to 20 has 825 nodes, the grid 4,001
        # lambdas: a budget of exactly their cells admits the scan
        def no_table(*args, **kw):
            raise AssertionError("built the grid table")

        monkeypatch.setattr(tauberian, "_SCAN_CELLS", 4001 * 825)
        assert wiener_zero_scan(LATTICE, 1.0, window=(-20.0, 20.0), step=0.01).table
        monkeypatch.setattr(tauberian, "_SCAN_CELLS", 4001 * 825 - 1)
        monkeypatch.setattr(_SymbolQuadrature, "values", no_table)
        with pytest.raises(tauberian.ScanGridError,
                           match="^4e\\+03 lambdas x 825 symbol nodes is more than 3300824 cells$"):
            wiener_zero_scan(LATTICE, 1.0, window=(-20.0, 20.0), step=0.01)
        assert issubclass(tauberian.ScanGridError, ValueError)

    def test_node_budget_counts_the_rings(self, monkeypatch):
        # at |lambda| up to 20 the lattice's core (0.25, 1] takes 60 of its
        # 825 nodes: a budget of 300 is passed by a ring toward zero
        monkeypatch.setattr(tauberian, "_SYMBOL_NODES", 300)
        with pytest.raises(ValueError, match=r"more than 300 nodes, .* \(-") as err:
            mellin_symbol(LATTICE, 1.0, 20.0)
        lo = float(str(err.value).rsplit("(", 1)[1].split(",")[0])
        assert lo < math.log(0.25)

    def test_node_budget_admits_a_large_lambda(self):
        # |lambda| up to 1e5 on the support (5, 10]: one core of 103,980
        # nodes; measured error 1.5e-13, 3e-14 of sum |w g|
        lam = 1e5
        sq = _SymbolQuadrature(IndicatorKernel(5.0, 10.0), 1.0, lam)
        assert sq.xs.size == 103980
        want = (10.0 ** (1.0 + 1j * lam) - 5.0 ** (1.0 + 1j * lam)) / (1.0 + 1j * lam)
        assert abs(sq.value(lam) - want) <= 1e-13 * np.sum(np.abs(sq.wg))

    @pytest.mark.parametrize("kernel, rho", [
        (LogSingularKernel(), 0.5), (IndicatorKernel(5.0, 10.0), 1.0),
        (IndicatorKernel(0.0, 10.0), 1.0), (LATTICE, 1.0), (lattice(3), 1.0),
        (lattice(5), 1.0)], ids=["log-singular", "indicator(5,10)",
                                 "indicator(0,10)", "lattice2", "lattice3",
                                 "lattice5"])
    def test_factored_table_matches_dense(self, kernel, rho):
        # the three-level grid table against one exp(i lam x) row per lambda
        # (log-singular: 4,050 nodes); every 7th of the 4,001 lambdas meets
        # each of the 16 fine offsets, 16 mid rows and 16 coarse rows
        sq = _SymbolQuadrature(kernel, rho, 20.0)
        factored = sq.values(SCAN_GRID, step=0.01)
        assert table_gap(factored[::7], sq.values(SCAN_GRID[::7])) <= 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 65, 1237, 4001, 4097])
    def test_factored_short_and_ragged_grids(self, n):
        # F = M = round(n^(1/3)) fine offsets and mid rows: one point, partial
        # and exact cubes (64 = 4^3, 4097 = 16^3 + 1), and counts F M does
        # not divide, whose last coarse row runs past the grid
        sq = _SymbolQuadrature(LATTICE, 1.0, 20.0)
        lams = np.linspace(-3.0, 17.0, n)
        got = sq.values(lams, step=20.0 / max(n - 1, 1))
        assert got.shape == (n,)
        assert table_gap(got, sq.values(lams)) <= 1e-13

    def test_row_blocks_match_one_block(self, monkeypatch):
        # a byte cap of two rows builds the 301 dense rows two at a time, a
        # cap below one row one at a time; the grid table takes no cap
        sq = _SymbolQuadrature(LATTICE, 1.0, 20.0)
        lams = np.linspace(-3.0, 17.0, 301)
        dense, factored = sq.values(lams), sq.values(lams, step=20.0 / 300)
        for cap in (1, 2 * 16 * sq.xs.size):
            monkeypatch.setattr(tauberian, "_COARSE_BYTES", cap)
            assert table_gap(sq.values(lams), dense) <= 1e-13
            assert table_gap(sq.values(lams, step=20.0 / 300), factored) <= 1e-13

    @pytest.mark.parametrize("kernel, rho", [
        (LATTICE, 1.0), (ExpKernel(), 0.5), (LogSingularKernel(), 0.3),
    ], ids=["lattice", "exp", "log-singular"])
    def test_ring_blocks_keep_the_nodes_of_one_ring_at_a_time(self, kernel, rho,
                                                              monkeypatch):
        # fetched in blocks of 16 rings, the nodes of the rings past the
        # accepted end are dropped: the node set is that of one ring at a
        # time, bit for bit
        from azarin import numerics
        single = _SymbolQuadrature(kernel, rho, 20.0)
        monkeypatch.setattr(tauberian, "_cauchy_windows",
                            lambda *args, block: numerics._cauchy_windows(*args))
        blocks = _SymbolQuadrature(kernel, rho, 20.0)
        assert np.array_equal(blocks.xs, single.xs)
        assert np.array_equal(blocks.wg, single.wg)

    @pytest.mark.parametrize("kernel, rho, lam_max", [
        (LATTICE, 1.0, 20.0), (ExpKernel(), 0.7, 30.0),
    ], ids=["lattice", "exp"])
    def test_ring_fetches_only_the_rings_taken(self, kernel, rho, lam_max, monkeypatch):
        # the symbol's rings are fixed panels with no adaptive integral to
        # batch: it fetches one ring per end and step, and none is discarded
        from azarin import numerics
        asked, taken = [], []

        def windows(ring, *args, **kw):
            def spy(ws, live):
                asked.extend(ws)
                return ring(ws, live)

            out = numerics._cauchy_windows(spy, *args, **kw)
            taken.extend(out[1][0])
            return out

        monkeypatch.setattr(tauberian, "_cauchy_windows", windows)
        _SymbolQuadrature(kernel, rho, lam_max)
        assert len(asked) == len(taken) > 3

    def test_rings_are_calm_by_absolute_mass(self):
        # K(t) t**(rho-1) = t**(-1 + i b) on (0, 1]: in x = ln t every ring of
        # width ln 4 holds a whole period of e^{i b x}, so its signed integral
        # vanishes while its absolute mass stays ln 4
        rho = 0.5
        b = 2.0 * math.pi / math.log(4.0)
        with pytest.raises(DivergenceError, match="zero"):
            mellin_symbol(PowerCutKernel(complex(-rho, b)), rho, 0.0)


def scan_brackets(kernel, rho):
    """The symbol quadrature of the builtin scan grid and its candidate
    brackets (lambda_{i-1}, lambda_{i+1})."""
    sq = _SymbolQuadrature(kernel, rho, 20.0)
    mags = np.abs(sq.values(SCAN_GRID, step=0.01))
    return sq, [(float(SCAN_GRID[i - 1]), float(SCAN_GRID[i + 1]))
                for i in tauberian._local_minima(mags)]


def count_calls(monkeypatch, name):
    """A list that gains one entry per ``_SymbolQuadrature.<name>`` call."""
    calls, inner = [], getattr(_SymbolQuadrature, name)

    def spy(self, *args):
        calls.append(args)
        return inner(self, *args)

    monkeypatch.setattr(_SymbolQuadrature, name, spy)
    return calls


# the zero rows of the lattice scans on (-20, 20) with step 0.01, as golden
# section on exact ``value`` calls gave them; the |symbol| values are noise
# of the node set (they moved from the fifth digit when panels widened from
# a third of a wavelength, the abscissae did not move)
PINNED_ZEROS = {
    2: ((-18.129440565762103, 5.905029585106856e-11),
        (-9.064720284541988, 6.748109662466125e-11),
        (-2.053029245964731e-09, 1.4231258332580054e-09),
        (9.064720284541988, 6.748109662466125e-11),
        (18.129440565762103, 5.905029585106856e-11)),
    3: ((-17.15760520375497, 3.342220878399665e-11),
        (-11.438403470377114, 8.215649376646348e-11),
        (-5.719201735430885, 1.2709690256438604e-10),
        (-2.053029245964731e-09, 2.2554948943341957e-09),
        (5.719201735430886, 1.2709699607329185e-10),
        (11.438403470377114, 8.215649376646348e-11),
        (17.15760520375497, 3.342220878399665e-11)),
    5: ((-19.519812657365318, 7.72751610460038e-11),
        (-15.615850125407595, 1.2793918119574618e-10),
        (-11.711887593150347, 2.521921398880254e-10),
        (-7.807925063730313, 8.477022818947431e-11),
        (-3.9039625314730633, 7.83264108276232e-11),
        (-2.053029245964731e-09, 3.3042551460581035e-09),
        (3.9039625314730633, 7.83264108276232e-11),
        (7.807925063730314, 8.477054927080573e-11),
        (11.711887593150347, 2.521921398880254e-10),
        (15.615850125407597, 1.2793951239850432e-10),
        (19.519812657365314, 7.727555236746012e-11)),
}


class TestRefinement:
    @pytest.mark.parametrize("kernel, rho, count", [
        (LATTICE, 1.0, 5), (lattice(3), 1.0, 7), (lattice(5), 1.0, 11),
        (ExpKernel(), 0.7, 46), (LogSingularKernel(), 0.5, 1),
        (LogSingularKernel(), 0.7, 1),
    ], ids=["lattice2", "lattice3", "lattice5", "exp", "log-singular-0.5",
            "log-singular-0.7"])
    def test_moment_series_matches_value(self, kernel, rho, count):
        # the exp kernel's candidates are dips of its decaying symbol into
        # the quadrature error (|symbol| <= 4e-11 at |lam| >= 16); measured
        # gaps are at most 3.1e-16 of sum |w g|
        sq, brackets = scan_brackets(kernel, rho)
        assert len(brackets) == count
        scale = np.sum(np.abs(sq.wg))
        for a, b in brackets:
            near = sq.near(a, b)
            for lam in np.linspace(a, b, 9).tolist():
                assert abs(near(lam) - abs(sq.value(lam))) <= 1e-14 * scale

    def test_wide_bracket_takes_exact_value(self, monkeypatch):
        # max |x| = 25 on the lattice: a bracket 0.2 wide reaches 2.5, past
        # the series' cancellation bound, and each point is one ``value``
        sq = _SymbolQuadrature(LATTICE, 1.0, 20.0)
        assert 0.1 * np.max(np.abs(sq.xs)) > tauberian._SERIES_REACH
        calls = count_calls(monkeypatch, "value")
        near = sq.near(LAM1 - 0.1, LAM1 + 0.1)
        for lam in np.linspace(LAM1 - 0.1, LAM1 + 0.1, 5).tolist():
            assert near(lam) == abs(sq.value(lam))
        assert len(calls) == 10

    def test_one_value_pass_per_candidate(self, monkeypatch):
        # golden section refines on the moment series: the only full-node
        # ``value`` pass of a candidate is its reported |symbol|
        values = count_calls(monkeypatch, "value")
        brackets = count_calls(monkeypatch, "near")
        rep = wiener_zero_scan(LATTICE, 1.0, window=(-20.0, 20.0), step=0.01)
        assert len(brackets) == len(rep.zeros) == 5
        assert len(values) <= len(brackets)

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_lattice_zero_rows_pinned(self, q):
        rep = wiener_zero_scan(lattice(q), 1.0, window=(-20.0, 20.0), step=0.01)
        assert repr(rep.zeros) == repr(PINNED_ZEROS[q])

    @given(st.lists(st.integers(0, 3), max_size=40))
    def test_local_minima_match_the_pointwise_rule(self, ints):
        # small integers make flat triples and equal neighbours common
        mags = np.array(ints, dtype=float)
        want = [i for i in range(1, mags.size - 1)
                if mags[i] <= mags[i - 1] and mags[i] <= mags[i + 1]
                and not (mags[i] == mags[i - 1] and mags[i] == mags[i + 1])]
        assert tauberian._local_minima(mags).tolist() == want


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

    def test_grid_spans_window(self):
        # round(2 / 0.3) + 1 = 8 points from -1 to 1: spacing 2/7, not 0.3
        rep = wiener_zero_scan(LATTICE, 1.0, window=(-1.0, 1.0), step=0.3)
        grid = np.asarray(rep.table.lambda_grid)
        assert grid.size == 8 and grid[0] == -1.0 and grid[-1] == 1.0
        assert np.max(np.abs(np.diff(grid) - 2.0 / 7.0)) <= 1e-15
        want = np.asarray(mellin_symbol_table(LATTICE, 1.0, grid).values)
        assert table_gap(np.asarray(rep.table.values), want) <= 1e-13

    def test_step_wider_than_window_gives_one_point(self):
        rep = wiener_zero_scan(LATTICE, 1.0, window=(-1.0, 1.0), step=5.0)
        assert rep.table.lambda_grid == (-1.0,)
        assert abs(rep.table.values[0] - mellin_symbol(LATTICE, 1.0, -1.0)) < 1e-12
        assert rep.zeros == ()

    @pytest.mark.parametrize("window, step, match", [
        ((-1.0, 1.0), 0.0, "step"), ((-1.0, 1.0), -0.1, "step"),
        ((1.0, -1.0), 0.1, "window"), ((-math.inf, 1.0), 0.1, "window")])
    def test_bad_grid_raises(self, window, step, match):
        with pytest.raises(ValueError, match=match):
            wiener_zero_scan(LATTICE, 1.0, window=window, step=step)


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
