"""Per-layer metrics computed from one traced pass.

Each metric is (name, unit, better).  Times are in seconds: ``*_s`` sums
the durations of the named spans that are not nested in one another,
``*_self_s`` sums their self times (duration minus child spans).
"""

from __future__ import annotations

import numpy as np

STAGES = ("class-membership", "integrability", "wiener-condition",
          "averaged-regularity", "measure-regularity", "constant-transfer")
# direct children of tauberian_roundtrip whose end closes a stage, in order;
# the last stage ends with the roundtrip itself
_STAGE_ENDS = ("measures.class_membership", "transforms.integrability_report",
               "tauberian.wiener_zero_scan", "dynamics.verify_regular_limit_form",
               "dynamics.verify_regular_limit_form")

PER_LAYER = [
    ("numerics.quad_calls", "count", "lower"),
    ("numerics.gk_batches", "count", "lower"),
    ("numerics.gk_nodes", "count", "lower"),
    ("numerics.nodes_per_batch", "nodes/batch", "higher"),
    ("numerics.quad_self_s", "s", "lower"),
    ("numerics.integrand_s", "s", "lower"),
    ("numerics.improper_calls", "count", "lower"),
    ("numerics.window_terms", "count", "lower"),
    ("numerics.quad_errors", "count", "lower"),
    ("measures.pairings_calls", "count", "lower"),
    ("measures.pairings_s", "s", "lower"),
    ("measures.pair_calls", "count", "lower"),
    ("measures.pair_nodes", "count", "lower"),
    ("measures.pair_self_s", "s", "lower"),
    ("measures.class_membership_s", "s", "lower"),
    ("dynamics.samples", "count", "lower"),
    ("dynamics.sample_trajectory_self_s", "s", "lower"),
    ("dynamics.estimate_limit_set_s", "s", "lower"),
    ("dynamics.fit_s", "s", "lower"),
    ("transforms.value_calls", "count", "lower"),
    ("transforms.values_computed", "count", "lower"),
    ("transforms.cache_hit_ratio", "ratio", "higher"),
    ("transforms.value_s", "s", "lower"),
    ("transforms.window_terms", "count", "lower"),
    ("transforms.nodes_per_value", "nodes/value", "lower"),
    ("transforms.averaged_measure_s", "s", "lower"),
    ("transforms.order_diagnostic_s", "s", "lower"),
    ("kernels.evals", "count", "lower"),
    ("kernels.s", "s", "lower"),
    ("tauberian.zero_scan_s", "s", "lower"),
    ("tauberian.lambdas", "count", "lower"),
    ("tauberian.refine_calls", "count", "lower"),
    ("tauberian.symbol_calls", "count", "lower"),
] + [("tauberian.stage.%s_s" % s, "s", "lower") for s in STAGES] + [
    ("orders.potter_calls", "count", "lower"),
    ("orders.potter_distinct_t", "count", "lower"),
    ("orders.potter_s", "s", "lower"),
    ("orders.scale_calls", "count", "lower"),
    ("carleman.value_calls", "count", "lower"),
    ("carleman.value_s", "s", "lower"),
    ("carleman.bound_report_s", "s", "lower"),
    ("carleman.jump_scan_s", "s", "lower"),
    ("configio.validate_s", "s", "lower"),
    ("runners.dispatch_s", "s", "lower"),
    ("cli.write_s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


class SpanTable:
    """Numpy view of a tracer's spans with per-name aggregates."""

    def __init__(self, tracer):
        a = tracer.arrays()
        self.names = list(tracer.names)
        self.name = a["name"]
        self.start = a["start"]
        self.end = a["end"]
        self.parent = a["parent"]
        self.raised = a["raised"].astype(bool)
        self.dur = self.end - self.start
        n = self.name.size
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                            minlength=n)
        self.self_time = self.dur - child
        raised_child = np.bincount(self.parent[self.raised & has_parent],
                                   minlength=n) > 0
        self.raised_here = self.raised & ~raised_child

    def mask(self, *names):
        return np.isin(self.name, [i for i, nm in enumerate(self.names) if nm in names])

    def self_s(self, *names):
        return float(np.sum(self.self_time[self.mask(*names)]))

    def top_s(self, *names):
        """Summed duration of the named spans that have no named ancestor."""
        hit = self.mask(*names)
        idx = np.flatnonzero(hit)
        up = self.parent[idx]
        nested = np.zeros(idx.size, dtype=bool)
        while np.any(up >= 0):
            live = up >= 0
            nested[live] |= hit[up[live]]
            up[live] = self.parent[up[live]]
        return float(np.sum(self.dur[idx[~nested]]))

    def count_under(self, name, parent_name):
        """Spans of ``name`` whose direct parent is a ``parent_name`` span."""
        child = self.mask(name) & (self.parent >= 0)
        return int(np.count_nonzero(child & self.mask(parent_name)[np.maximum(self.parent, 0)]))

    def children(self, i):
        kids = np.flatnonzero(self.parent == i)
        return kids[np.argsort(self.start[kids], kind="stable")]

    def stage_seconds(self, roundtrip_name="tauberian.tauberian_roundtrip"):
        out = dict.fromkeys(STAGES, 0.0)
        for i in np.flatnonzero(self.mask(roundtrip_name)):
            begin = self.start[i]
            kids = self.children(i)
            k = 0
            for stage, end_name in zip(STAGES, _STAGE_ENDS):
                while k < kids.size and self.names[self.name[kids[k]]] != end_name:
                    k += 1
                if k == kids.size:
                    break
                out[stage] += self.end[kids[k]] - begin
                begin = self.end[kids[k]]
                k += 1
            else:
                out[STAGES[-1]] += self.end[i] - begin
        return out

    def write_seconds(self):
        """Time in ``cli.cmd_run`` after its runner returned: report and CSV output."""
        total = 0.0
        for i in np.flatnonzero(self.mask("cli.cmd_run")):
            runner_ends = [self.end[k] for k in self.children(i)
                           if self.names[self.name[k]].startswith("runners.run_")]
            if runner_ends:
                total += self.end[i] - max(runner_ends)
        return total


def layer_metrics(tracer, overhead_ratio, bytes_written):
    """Every PER_LAYER metric, in order, as name -> value."""
    t = SpanTable(tracer)
    c = tracer.counters
    calls = tracer.call_count
    values_computed = len(tracer.transform_keys)
    value_calls = calls("transforms.KernelTransform.value")

    def layer(prefix, suffix=""):
        return [nm for nm in t.names if nm.startswith(prefix) and nm.endswith(suffix)]

    m = {
        "numerics.quad_calls": calls("numerics.adaptive_quad"),
        "numerics.gk_batches": c["gk_batches"],
        "numerics.gk_nodes": c["gk_nodes"],
        "numerics.nodes_per_batch": c["gk_nodes"] / c["gk_batches"] if c["gk_batches"] else 0.0,
        "numerics.quad_self_s": t.self_s("numerics.adaptive_quad"),
        "numerics.integrand_s": t.top_s("numerics.integrand"),
        "numerics.improper_calls": calls("numerics.improper_quad"),
        "numerics.window_terms": t.count_under("numerics.log_quad", "numerics.improper_quad"),
        "numerics.quad_errors": int(np.count_nonzero(t.raised_here & t.mask(*layer("numerics.")))),
        "measures.pairings_calls": calls("measures.MetricFamily.pairings"),
        "measures.pairings_s": t.top_s("measures.MetricFamily.pairings"),
        "measures.pair_calls": calls("measures.RadonMeasure.pair"),
        "measures.pair_nodes": c["pair_nodes"],
        "measures.pair_self_s": t.self_s("measures.RadonMeasure.pair"),
        "measures.class_membership_s": t.top_s("measures.class_membership"),
        "dynamics.samples": c["samples"],
        "dynamics.sample_trajectory_self_s": t.self_s("dynamics.sample_trajectory"),
        "dynamics.estimate_limit_set_s": t.top_s("dynamics.estimate_limit_set"),
        "dynamics.fit_s": t.top_s("dynamics.verify_regular_limit_form"),
        "transforms.value_calls": value_calls,
        "transforms.values_computed": values_computed,
        "transforms.cache_hit_ratio": 1.0 - values_computed / value_calls if value_calls else 0.0,
        "transforms.value_s": t.top_s("transforms.KernelTransform.value"),
        "transforms.window_terms": calls("transforms.KernelTransform._window_term"),
        "transforms.nodes_per_value": c["value_nodes"] / values_computed if values_computed else 0.0,
        "transforms.averaged_measure_s": t.top_s("transforms.averaged_measure"),
        "transforms.order_diagnostic_s": t.top_s("transforms.order_diagnostic"),
        "kernels.evals": c["kernel_evals"],
        "kernels.s": t.top_s(*layer("kernels.", ".__call__")),
        "tauberian.zero_scan_s": t.top_s("tauberian.wiener_zero_scan"),
        "tauberian.lambdas": c["lambdas"],
        "tauberian.refine_calls": t.count_under("numerics.golden_section_min",
                                                "tauberian.wiener_zero_scan"),
        "tauberian.symbol_calls": (calls("tauberian._SymbolQuadrature.value")
                                   + calls("tauberian._SymbolQuadrature.values")),
    }
    for stage, seconds in t.stage_seconds().items():
        m["tauberian.stage.%s_s" % stage] = seconds
    m.update({
        "orders.potter_calls": calls("orders.potter_factor"),
        "orders.potter_distinct_t": len(tracer.potter_ts),
        "orders.potter_s": t.top_s("orders.potter_factor"),
        "orders.scale_calls": calls("orders.ProximateOrder.scale"),
        "carleman.value_calls": calls("carleman.CarlemanTransform.value"),
        "carleman.value_s": t.top_s("carleman.CarlemanTransform.value"),
        "carleman.bound_report_s": t.top_s("carleman.carleman_bound_report"),
        "carleman.jump_scan_s": t.top_s("carleman.spectrum_jump_scan"),
        "configio.validate_s": t.top_s(*layer("configio.")),
        "runners.dispatch_s": t.self_s(*layer("runners.")),
        "cli.write_s": t.write_seconds(),
        "cli.bytes_written": bytes_written,
        "trace.overhead_ratio": overhead_ratio,
    })
    assert list(m) == [name for name, _, _ in PER_LAYER]
    return m


def per_op_counts(tracer, op_id):
    """Work counts of one operation of the traced pass."""
    t = SpanTable(tracer)
    in_op = tracer.arrays()["op"] == op_id

    def n(name):
        return int(np.count_nonzero(in_op & t.mask(name)))

    return {
        "quad_calls": n("numerics.adaptive_quad"),
        "gk_batches": n("numerics.integrand"),
        "gk_nodes": tracer.op_nodes.get(op_id, 0),
        "pair_calls": n("measures.RadonMeasure.pair"),
        "transform_values": sum(1 for op, _, _ in tracer.transform_keys if op == op_id),
    }
