"""Outside-in tracer: bindings, self-check, counting and span arithmetic."""

import math
import time

import numpy as np
import pytest

import azarin
from azarin import catalog, cli, dynamics, measures, numerics, runners, tauberian, transforms
from layers import PER_LAYER, STAGES, SpanTable, layer_metrics
from tracer import Tracer
from workloads import WORKLOADS


@pytest.fixture
def tracer():
    tr = Tracer()
    tr.install()
    yield tr
    tr.uninstall()


def test_every_binding_is_wrapped_and_restored():
    original = numerics.log_quad
    registry_fn = runners.REGISTRY["tauberian_roundtrip"]
    tr = Tracer()
    tr.install()
    try:
        wrapped = numerics.log_quad
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert measures.log_quad is wrapped and transforms.log_quad is wrapped
        assert tauberian.sample_trajectory is dynamics.sample_trajectory
        assert runners.sample_trajectory is dynamics.sample_trajectory
        assert azarin.sample_trajectory is dynamics.sample_trajectory
        assert tauberian.KernelTransform is transforms.KernelTransform
        assert runners.REGISTRY["tauberian_roundtrip"].__wrapped__ is registry_fn
        assert hasattr(measures.MetricFamily.pairings, "__wrapped__")
        assert hasattr(azarin.ExpKernel.__call__, "__wrapped__")
        assert tr.binding_leaks() == []
    finally:
        tr.uninstall()
    assert numerics.log_quad is original and measures.log_quad is original
    assert runners.REGISTRY["tauberian_roundtrip"] is registry_fn
    assert not hasattr(measures.MetricFamily.pairings, "__wrapped__")


def test_self_check_reports_a_binding_that_escaped(tracer):
    original = tracer.originals[id(numerics.log_quad.__wrapped__)][0]
    measures._escaped_alias = original
    try:
        assert "azarin.measures._escaped_alias" in tracer.binding_leaks()
    finally:
        del measures._escaped_alias


def test_must_hit_names_exist(tracer):
    for workload in WORKLOADS.values():
        for name in workload.must_hit:
            assert name in tracer._ids, (workload.name, name)


def test_integrand_counts_match_independent_instrumentation(tracer, monkeypatch):
    seen = {"batches": 0, "nodes": 0}
    gk_eval = numerics._gk_eval

    def counting_gk_eval(f, lo, hi):
        seen["batches"] += 1
        seen["nodes"] += 15 * np.size(lo)
        return gk_eval(f, lo, hi)

    monkeypatch.setattr(numerics, "_gk_eval", counting_gk_eval)
    val = numerics.improper_quad(lambda t: np.exp(-t) * t ** -0.3, 0.0, None)
    assert abs(val - math.gamma(0.7)) < 1e-8
    fam = measures.MetricFamily()
    fam.pairings(measures.RadonMeasure.power_density(-0.3))
    c = tracer.counters
    assert (c["gk_batches"], c["gk_nodes"]) == (seen["batches"], seen["nodes"])
    assert tracer.call_count("measures.RadonMeasure.pair") == 64
    assert tracer.call_count("numerics.improper_quad") == 1
    assert 0 < c["pair_nodes"] < c["gk_nodes"]


def test_exp_average_flow_counts_match_independent_instrumentation(tracer, monkeypatch, tmp_path):
    seen = {"batches": 0, "nodes": 0}
    gk_eval = numerics._gk_eval

    def counting_gk_eval(f, lo, hi):
        seen["batches"] += 1
        seen["nodes"] += 15 * np.size(lo)
        return gk_eval(f, lo, hi)

    monkeypatch.setattr(numerics, "_gk_eval", counting_gk_eval)
    assert cli.main(["run", "exp_average_flow", "--out-dir", str(tmp_path)]) == 0
    c = tracer.counters
    assert (c["gk_batches"], c["gk_nodes"]) == (seen["batches"], seen["nodes"])
    assert tracer.call_count("runners.run_averaged_limit") == 1


def _span(tr, name, seconds, children=()):
    nid = tr.name_id(name)
    i = tr.open(nid)
    for child in children:
        child()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass
    tr.close(i, nid)


def test_self_time_and_stage_split():
    tr = Tracer()
    leaf = lambda name: (lambda: _span(tr, name, 0.002))  # noqa: E731
    ends = ["measures.class_membership", "transforms.integrability_report",
            "tauberian.wiener_zero_scan", "transforms.averaged_measure",
            "dynamics.verify_regular_limit_form", "dynamics.sample_trajectory",
            "dynamics.verify_regular_limit_form", "tauberian.mellin_symbol"]
    _span(tr, "tauberian.tauberian_roundtrip", 0.002, [leaf(n) for n in ends])
    t = SpanTable(tr)
    root = 0
    assert t.parent[root] == -1
    kids = t.children(root)
    assert kids.size == len(ends)
    assert t.self_time[root] == pytest.approx(t.dur[root] - t.dur[kids].sum())
    stages = t.stage_seconds()
    assert list(stages) == list(STAGES)
    assert sum(stages.values()) == pytest.approx(t.dur[root])
    assert stages["averaged-regularity"] > stages["integrability"]


def test_top_time_counts_nested_spans_once():
    tr = Tracer()
    inner = lambda: _span(tr, "numerics.integrand", 0.002)  # noqa: E731
    middle = lambda: _span(tr, "numerics.log_quad", 0.001, [inner])  # noqa: E731
    _span(tr, "numerics.integrand", 0.002, [middle])
    _span(tr, "numerics.integrand", 0.002)
    t = SpanTable(tr)
    top = t.mask("numerics.integrand") & (t.parent == -1)
    assert t.top_s("numerics.integrand") == pytest.approx(float(t.dur[top].sum()))
    assert t.top_s("numerics.integrand") < float(t.dur[t.mask("numerics.integrand")].sum())


def test_layer_metrics_cover_every_per_layer_name():
    tr = Tracer()
    m = layer_metrics(tr, 1.0, 0)
    assert list(m) == [name for name, _, _ in PER_LAYER]
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in m.values())


def test_builtin_outputs_unchanged_under_tracing(tmp_path):
    plain = tmp_path / "plain"
    traced = tmp_path / "traced"
    assert cli.main(["run", "periodic_atoms", "--out-dir", str(plain)]) == 0
    tr = Tracer()
    tr.install()
    try:
        assert cli.main(["run", "periodic_atoms", "--out-dir", str(traced)]) == 0
    finally:
        tr.uninstall()
    for f in plain.iterdir():
        assert (traced / f.name).read_bytes() == f.read_bytes()
    assert catalog.builtin_config("periodic_atoms")["operation"] == "periodic_family_check"
