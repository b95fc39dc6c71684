"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
every tolerance below is pinned, none are calibrated at runtime.
"""

import math
import time

import numpy as np

from azarin.carleman import (CarlemanTransform, RealMeasure,
                             carleman_bound_report, spectrum_jump_scan)
from azarin.dynamics import (estimate_limit_set, geometric_schedule,
                             sample_trajectory, verify_regular_limit_form)
from azarin.kernels import ExpKernel, SmoothBumpKernel, StepKernel, trapezoid_kernel
from azarin.measures import (DensityPiece, LogPerturbFactor, MetricFamily,
                             RadonMeasure, SelfSimilarTail, class_membership)
from azarin.orders import (LogLogZero, LogPowerZero, ProximateOrder,
                           TabulatedZero, poisson_smoothed_scale, potter_factor,
                           potter_decay_scan)
from azarin.special import lanczos_gamma
from azarin.tauberian import (tauberian_roundtrip,
                              verify_exponential_solution, wiener_zero_scan)
from azarin.transforms import (KernelTransform, averaged_measure,
                               check_antiderivative_identity,
                               normalized_limit_values,
                               verify_averaged_limit_densities)

FAM = MetricFamily()


def verdict(num, ok, detail):
    line = "[criterion %02d] %s  %s" % (num, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


def test_criterion_01_potter_factor_suite(rng):
    start = time.perf_counter()
    order = ProximateOrder(0.0, LogPowerZero(1.0, 0.5))
    ok = potter_factor(order, 1.0) == 1.0
    worst_submult = 0.0
    for t1, t2 in np.exp(rng.uniform(-10.0, 10.0, size=(100, 2))):
        g12 = potter_factor(order, t1 * t2)
        worst_submult = max(worst_submult,
                            g12 / (potter_factor(order, t1)
                                   * potter_factor(order, t2)) - 1.0)
    ok = ok and worst_submult <= 1e-6
    dominance = max(float(order.zero_scale(t)) - potter_factor(order, t)
                    for t in np.geomspace(1e-6, 1e6, 50))
    ok = ok and dominance <= 1e-9
    rows = potter_decay_scan(order, [math.exp(16.0), math.exp(36.0),
                                     math.exp(100.0)])
    decay = [r[1] for r in rows]
    for got, want in zip(decay, (0.25, 1.0 / 6.0, 0.10)):
        ok = ok and abs(got - want) <= 1e-3
    ok = ok and decay[0] > decay[1] > decay[2]
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    verdict(1, ok, "submult %.2e, decay %s, %.2fs" % (worst_submult, decay, elapsed))


def test_criterion_02_poisson_smoothing():
    start = time.perf_counter()
    order = ProximateOrder(0.0, LogLogZero(2.0))
    defects = {}
    ok = True
    for r, bound in ((1e4, 0.05), (1e6, 0.02)):
        got = poisson_smoothed_scale(order, r)
        scale = float(order.scale(r))
        defects[r] = abs(got / scale - 1.0)
        ok = ok and defects[r] < bound
        # independent oracles: dense-Simpson quadrature and the closed form
        xs = np.linspace(-40.0, 40.0, 2 ** 19 + 1)
        u = np.exp(xs)
        integrand = np.asarray(order.scale(r * u)) * u / (u * u + 1.0)
        h = xs[1] - xs[0]
        simpson = (2.0 / math.pi) * h / 3.0 * (
            integrand[0] + integrand[-1] + 4.0 * integrand[1:-1:2].sum()
            + 2.0 * integrand[2:-1:2].sum())
        closed = 1.0 + math.log(r) ** 2 + math.pi ** 2 / 4.0
        ok = ok and abs(got / simpson - 1.0) <= 1e-8
        ok = ok and abs(got / closed - 1.0) <= 1e-8
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    verdict(2, ok, "defects %s, %.2fs" % (defects, elapsed))


def test_criterion_03_limit_set_recovery():
    start = time.perf_counter()
    xs = np.linspace(0.0, 60.0, 2401)
    etas = (1.0 - xs ** 2) / ((1.0 + xs ** 2) * (1.0 + xs + xs ** 2))
    order = ProximateOrder(0.5, TabulatedZero(xs=tuple(xs), etas=tuple(etas)))
    measure = RadonMeasure(pieces=(DensityPiece(0.0, math.inf, coef=1.0,
                                                exponent=-0.5,
                                                factor=LogPerturbFactor("inv_log")),))
    traj = sample_trajectory(measure, order, geometric_schedule(1e3, 1e6, 48), FAM)
    est = estimate_limit_set(traj, FAM, eps_cluster=1e-3)
    target = FAM.pairings(RadonMeasure.power_density(-0.5))
    d = FAM.distance_from_pairings(est.limit_pairings[0], target)
    elapsed = time.perf_counter() - start
    ok = est.regular and d <= 1e-3 and elapsed < 30.0
    verdict(3, ok, "clusters %d, d(limit, target) %.2e, %.2fs"
            % (len(est.clusters), d, elapsed))


def test_criterion_04_periodic_family():
    order = ProximateOrder(1.0)
    measure = RadonMeasure(atoms=[(1.0, 1.0)], tail=SelfSimilarTail(2.0, 1.0, 1.0))
    taus = [2.0 ** (k / 16.0) for k in range(16)]
    exact = max(
        FAM.distance_from_pairings(
            FAM.pairings(measure.scaled(order, tau * 2.0 ** 36)),
            FAM.pairings(measure.scaled(order, tau * 2.0 ** 37)))
        for tau in taus)
    sched = np.sort(np.array([tau * 2.0 ** k for tau in taus
                              for k in range(36, 39)]))
    est = estimate_limit_set(sample_trajectory(measure, order, sched, FAM), FAM,
                             eps_cluster=1e-3, transient_fraction=0.0,
                             top_decades=30.0)
    matching = max(
        min(FAM.distance_from_pairings(FAM.pairings(measure.scaled(order, tau)), q)
            for q in est.representative_pairings)
        for tau in taus)
    ok = exact <= 1e-12 and matching <= 2e-3
    verdict(4, ok, "exact recurrence %.2e, family matching %.2e" % (exact, matching))


def test_criterion_05_sparse_flow():
    order = ProximateOrder(1.0)
    measure = RadonMeasure(atoms=[(math.exp(n * n), math.exp(n * n))
                                  for n in range(1, 13)])
    bump = trapezoid_kernel(0.5, 2.0)
    delta_err = 0.0
    gap_max = 0.0
    for n in range(5, 10):
        r_n = math.exp(n * n)
        got = measure.scaled(order, r_n).pair(bump)
        delta_err = max(delta_err, abs(got - 1.0))
        mid = math.exp((n * n + (n + 1) ** 2) / 2.0)
        gap_max = max(gap_max, float(np.max(np.abs(
            FAM.pairings(measure.scaled(order, mid))))))
    ok = delta_err <= 1e-6 and gap_max <= 1e-8
    verdict(5, ok, "delta error %.2e, gap pairings %.2e" % (delta_err, gap_max))


def test_criterion_06_kernel_limit_values():
    order = ProximateOrder(1.0)
    measure = RadonMeasure(atoms=[(1.0, 1.0)], tail=SelfSimilarTail(2.0, 1.0, 1.0))
    kernel = trapezoid_kernel(1.0, 3.0)
    transform = KernelTransform(kernel, measure, order)
    taus = [2.0 ** (k / 16.0) for k in range(16)]
    sched = np.sort(np.array([tau * 2.0 ** p for tau in taus
                              for p in range(30, 34)]))
    clusters = normalized_limit_values(transform, sched, eps=1e-5)
    direct = [KernelTransform(kernel, measure.scaled(order, tau)).value(1.0)
              for tau in taus]
    worst = max(max(min(abs(v - c) for c in clusters) for v in direct),
                max(min(abs(v - c) for v in direct) for c in clusters))
    ok = worst <= 1e-4
    verdict(6, ok, "two-sided cluster match %.2e over %d clusters"
            % (worst, len(clusters)))


def test_criterion_07_averaged_measure_limits():
    order = ProximateOrder(0.7)
    measure = RadonMeasure.power_density(-0.3)
    transform = KernelTransform(ExpKernel(), measure, order)
    sched = geometric_schedule(1e2, 1e6, 32)
    hull = FAM.support_hull()
    smoothed = averaged_measure(transform, (sched.min() * hull[0] / 4.0,
                                            sched.max() * hull[1] * 4.0))
    shifted = order.shifted(1.0)
    membership = class_membership(smoothed, shifted,
                                  r_grid=np.geomspace(1.0, 5e6, 40))
    s_est = estimate_limit_set(sample_trajectory(smoothed, shifted, sched, FAM),
                               FAM)
    mu_est = estimate_limit_set(sample_trajectory(measure, order, sched, FAM),
                                FAM)
    densities = verify_averaged_limit_densities(transform, s_est, mu_est,
                                                tol=0.01)
    fit = verify_regular_limit_form(s_est, shifted)
    gamma_ref = lanczos_gamma(0.7)
    coef_err = abs(fit.coefficient / gamma_ref - 1.0)
    ok = membership.bounded and s_est.regular and densities.passed \
        and coef_err <= 0.01
    verdict(7, ok, "bounded %s, coefficient error %.2e, density error %.2e"
            % (membership.bounded, coef_err, densities.max_rel_error))


def test_criterion_08_antiderivative_identity():
    measure = RadonMeasure(atoms=[(2.0, 1.0)],
                           pieces=(DensityPiece(1.0, math.inf, coef=1.0,
                                                exponent=1.0),))
    rep = check_antiderivative_identity(SmoothBumpKernel(1.0, 2.0), measure,
                                        [0, 1, 2], [1.0, 3.0, 10.0], tol=1e-6)
    verdict(8, rep.passed, "max relative error %.2e over %d cases"
            % (rep.max_rel_error, len(rep.rows)))


def test_criterion_09_wiener_zero_scan():
    start = time.perf_counter()
    lattice = StepKernel(steps=((1.0, 0.0, 1.0), (-2.0, 0.0, 0.5)))
    rep = wiener_zero_scan(lattice, 1.0, window=(-20.0, 20.0), step=0.01,
                           tol=1e-6)
    spacing = 2.0 * math.pi / math.log(2.0)
    expected = sorted(k * spacing for k in (-2, -1, 0, 1, 2))
    got = sorted(z for z, _ in rep.zeros)
    ok = len(got) == len(expected) and all(
        abs(g - e) <= 1e-6 for g, e in zip(got, expected))
    exp_rep = wiener_zero_scan(ExpKernel(), 1.0, window=(-20.0, 20.0), step=0.01)
    ok = ok and exp_rep.nonvanishing
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    abserr = max(abs(g - e) for g, e in zip(got, expected)) if got else math.inf
    verdict(9, ok, "%d zeros, worst abscissa error %.1e, exp nonvanishing %s, %.2fs"
            % (len(got), abserr, exp_rep.nonvanishing, elapsed))


def test_criterion_10_carleman_suite():
    lebesgue = RealMeasure(pieces=((None, None, 1.0, 0.0),))
    ct = CarlemanTransform(lebesgue)
    zs = [complex(x, y)
          for x in np.linspace(-4.0, 4.0, 10)
          for y in list(np.geomspace(0.05, 5.0, 5))
          + list(-np.geomspace(0.05, 5.0, 5))]
    ref_err = max(abs(ct.value(z) - 1j / z) for z in zs)
    bound = carleman_bound_report(ct, 1.0)
    jumps = spectrum_jump_scan(ct, (-1.0, 1.0))
    osc = CarlemanTransform(RealMeasure(pieces=((None, None, 1.0, -3.0),)))
    jumps_osc = spectrum_jump_scan(osc, (2.0, 4.0))
    ok = (len(zs) == 100 and ref_err <= 1e-8 and bound.passed
          and jumps.flagged == (0.0,)
          and len(jumps_osc.flagged) >= 1
          and all(abs(x - 3.0) <= 0.05 for x in jumps_osc.flagged))
    verdict(10, ok, "reference error %.1e on %d-point grid, flags %s / %s"
            % (ref_err, len(zs), jumps.flagged, jumps_osc.flagged))


def test_criterion_11_tauberian_roundtrip():
    start = time.perf_counter()
    order = ProximateOrder(0.7)
    measure = RadonMeasure(pieces=(DensityPiece(0.0, math.inf, coef=1.0,
                                                exponent=-0.3,
                                                factor=LogPerturbFactor("inv_log1p")),))
    rep = tauberian_roundtrip(ExpKernel(), order, measure, ratio_tol=0.02)
    periodic = RadonMeasure(atoms=[(1.0, 1.0)],
                            tail=SelfSimilarTail(2.0, 1.0, 1.0))
    neg = tauberian_roundtrip(ExpKernel(), ProximateOrder(1.0), periodic)
    elapsed = time.perf_counter() - start
    ok = (rep.passed and rep.ratio_error <= 0.02
          and not neg.passed and neg.failed_stage == "averaged-regularity"
          and elapsed < 120.0)
    verdict(11, ok, "ratio error %.2e, negative control failed at %r, %.1fs"
            % (rep.ratio_error, neg.failed_stage, elapsed))


def test_criterion_12_exponential_solutions():
    kernel = StepKernel(steps=((1.0, 0.0, 1.0, 1.0), (-2.0, 0.0, 0.5, 1.0)))
    lam = 2.0 * math.pi / math.log(2.0)
    samples = [1.0, math.e, math.e ** 2]
    rep = verify_exponential_solution(kernel, 0.0, [lam], [1.0], samples,
                                      tol=1e-6)
    neg = verify_exponential_solution(kernel, 0.0, [1.0], [1.0], samples)
    ok = rep.passed and rep.max_residual <= 1e-6 and neg.max_residual > 1e-3
    verdict(12, ok, "residual %.2e, negative control residual %.2e"
            % (rep.max_residual, neg.max_residual))
