"""The four workloads: their set-up, operations, oracles and must-hit spans.

A workload object is built in the timed set-up (input generation plus
object construction).  ``references()`` then computes the oracle values
outside any timed region.  ``ops()`` lists the operations of one pass; an
operation runs with ``run(pass_dir)`` (timed) and is judged afterwards with
``evaluate(result)``, which returns (failures, determinism digest, bytes
written).  ``python_share`` is the share of a pass spent in overhead-bound
code at the seed commit; it weights the speed calibration (``calibrate.py``).
Library functions are looked up on their module at call time so the
tracer's rebinding reaches them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from azarin import carleman, cli, configio, orders, tauberian, transforms
from azarin.kernels import ExpKernel, LogSingularKernel
from azarin.measures import MetricFamily, RadonMeasure
from azarin.orders import ProximateOrder

import gates
import inputs


class Op:
    def __init__(self, label, run, evaluate):
        self.label = label
        self.run = run
        self.evaluate = evaluate


class CliOp(Op):
    """``azarin run <config.json>`` in this process, into a fresh directory."""

    def __init__(self, label, cfg, config_dir):
        self.cfg = cfg
        self.path = Path(config_dir) / ("%s.json" % label)
        self.path.write_text(json.dumps(cfg))
        # the CLI validates and parses again; doing it here is the set-up's
        # object construction and rejects a bad generated config early
        configio.validate_config(cfg)
        for key, parse in (("order", configio.parse_order),
                           ("measure", configio.parse_measure),
                           ("kernel", configio.parse_kernel)):
            if key in cfg:
                parse(cfg[key])
        super().__init__(label, self._run, self._evaluate)

    def _run(self, pass_dir):
        out_dir = Path(pass_dir) / self.label
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(["run", str(self.path), "--out-dir", str(out_dir)])
        return rc, out_dir, sink.getvalue()

    def _evaluate(self, result):
        rc, out_dir, log = result
        files = sorted(out_dir.iterdir()) if out_dir.is_dir() else []
        blobs = [(f.name, f.read_bytes()) for f in files]
        report = dict(blobs).get("%s_report.json" % self.path.stem)
        failures = gates.cli_failures(self.label, self.cfg, rc, report)
        if failures and log.strip():
            failures.append("%s: %s" % (self.label, log.strip().splitlines()[-1]))
        digest = b"".join(name.encode() + b"\0" + data + b"\0" for name, data in blobs)
        return failures, digest, sum(len(data) for _, data in blobs)


def _lib_op(label, fn, check):
    """Library call; ``check(value)`` returns failures, repr(value) is the digest."""
    def evaluate(value):
        return check(value), repr(value).encode(), 0
    return Op(label, lambda pass_dir: fn(), evaluate)


class Workload:
    name = ""
    must_hit = ()
    python_share = 1.0

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)
        self.config_dir = self.workdir / "configs"
        self.config_dir.mkdir(parents=True, exist_ok=True)

    def references(self):
        pass

    def ops(self):
        raise NotImplementedError

    def describe(self):
        return {}


class Roundtrip(Workload):
    name = "roundtrip"
    python_share = 0.9   # small GK batches under pairings and transform values
    must_hit = (
        "cli.cmd_run", "configio.validate_config", "configio.parse_measure",
        "runners.run_roundtrip", "tauberian.tauberian_roundtrip",
        "measures.class_membership", "transforms.integrability_report",
        "tauberian.wiener_zero_scan", "tauberian._SymbolQuadrature.values",
        "transforms.averaged_measure", "transforms.KernelTransform.value",
        "transforms.KernelTransform._window_term", "dynamics.sample_trajectory",
        "dynamics.estimate_limit_set", "dynamics.convergence_trend",
        "dynamics.verify_regular_limit_form", "measures.MetricFamily.pairings",
        "measures.RadonMeasure.pair", "measures.RadonMeasure.scaled",
        "numerics.log_quad", "numerics.adaptive_quad", "numerics.integrand",
        "numerics.improper_quad", "kernels.ExpKernel.__call__",
        "tauberian.mellin_symbol", "orders.ProximateOrder.scale",
    )

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.cli_op = CliOp("roundtrip", inputs.roundtrip_config(seed), self.config_dir)
        MetricFamily()  # built by every run; costly construction shows in setup_s

    def ops(self):
        return [self.cli_op]

    def describe(self):
        return {"rho": self.cli_op.cfg["order"]["rho"]}


class Transforms(Workload):
    name = "transforms"
    python_share = 0.1   # the log-singular table (~9k nodes per batch) is ~90%
    must_hit = (
        "transforms.KernelTransform.value", "transforms.KernelTransform._window_term",
        "kernels.ExpKernel.__call__", "kernels.LogSingularKernel.__call__",
        "numerics.log_quad", "numerics.adaptive_quad", "numerics.integrand",
        "cli.cmd_run", "runners.run_order_diagnostic", "transforms.order_diagnostic",
        "measures.RadonMeasure.density",
    )

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.spec = inputs.transform_inputs(seed)
        rho = self.spec["rho"]
        self.measure = RadonMeasure.power_density(round(rho - 1.0, 6))
        self.order = ProximateOrder(rho)
        self.exp_kernel = ExpKernel()
        self.log_kernel = LogSingularKernel()
        self.laplace = CliOp("laplace_vs_counting", self.spec["laplace"], self.config_dir)

    def references(self):
        from scipy.integrate import quad

        rho = self.spec["rho"]

        def f(u):
            k = math.log1p(-1.0 / u) if u > 1.0 else math.log1p(-u) - math.log(u)
            return k * u ** (rho - 1.0)

        mellin = (quad(f, 0.0, 1.0, limit=400, epsabs=0.0, epsrel=1e-12)[0]
                  + quad(f, 1.0, math.inf, limit=400, epsabs=0.0, epsrel=1e-12)[0])
        self.exp_want = [math.gamma(rho) * r ** rho for r in self.spec["exp_grid"]]
        self.log_want = [mellin * r ** rho for r in self.spec["log_grid"]]

    def _table(self, kernel, grid):
        tr = transforms.KernelTransform(kernel, self.measure, self.order)
        return [tr.value(r) for r in grid]

    def ops(self):
        out = []
        for tag, kernel, want, rtol in (
                ("exp", self.exp_kernel, self.exp_want, gates.EXP_TABLE_RTOL),
                ("log", self.log_kernel, self.log_want, gates.LOG_TABLE_RTOL)):
            label = "%s_table" % tag
            grid = self.spec["%s_grid" % tag]
            out.append(_lib_op(
                label,
                lambda kernel=kernel, grid=grid: self._table(kernel, grid),
                lambda got, label=label, grid=grid, want=want, rtol=rtol:
                    gates.table_failures(label, grid, got, want, rtol)))
        out.append(self.laplace)
        return out

    def describe(self):
        return {"rho": self.spec["rho"], "phase": self.spec["phase"]}


class Flows(Workload):
    name = "flows"
    python_share = 0.9   # pairings and trajectories, as in roundtrip
    must_hit = (
        "cli.cmd_run", "cli.write_csv", "configio.validate_config",
        "runners.run_limit_set", "runners.run_oscillating_family",
        "runners.run_periodic_family", "runners.run_sparse_flow",
        "runners.run_kernel_limit_values", "runners.run_averaged_limit",
        "dynamics.sample_trajectory", "dynamics.estimate_limit_set",
        "measures.MetricFamily.pairings", "measures.RadonMeasure.pair",
        "transforms.averaged_measure", "transforms.normalized_limit_values",
        "transforms.KernelTransform.value", "numerics.integrand",
    )

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.cli_ops = [CliOp(label, cfg, self.config_dir)
                        for label, cfg in inputs.flow_configs(seed)]
        MetricFamily()  # built by every run; costly construction shows in setup_s

    def ops(self):
        return self.cli_ops

    def describe(self):
        out = {}
        for op in self.cli_ops:
            params = op.cfg["params"]
            schedule = params.get("schedule")
            if isinstance(schedule, dict):
                out[op.label] = {"start": schedule["start"]}
            elif isinstance(schedule, list):
                out[op.label] = {"first": schedule[0]}
            elif "base_power" in params:
                out[op.label] = {"base_power": params["base_power"]}
        return out


class Scans(Workload):
    name = "scans"
    python_share = 0.8   # Potter and Carleman are scalar; the zero scan is vectorized
    must_hit = (
        "tauberian.wiener_zero_scan", "tauberian._SymbolQuadrature.values",
        "tauberian._SymbolQuadrature.value", "numerics.golden_section_min",
        "kernels.StepKernel.__call__", "orders.potter_bound_report",
        "orders.potter_factor", "orders.ProximateOrder.log_scale",
        "carleman.CarlemanTransform.value", "carleman.carleman_bound_report",
        "carleman.spectrum_jump_scan",
    )
    POTTER_PROBES = 3

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.spec = inputs.scan_inputs(seed)
        self.probe_ts = [t for _, t in self.spec["potter_pairs"][:self.POTTER_PROBES]]

    def references(self):
        spec = self.spec
        self.zeros_want = inputs.expected_zeros(spec["q"], spec["window"])
        zp = spec["potter_order"].zero_part
        self.potter_want = {t: dense_log_potter(zp.xs, zp.etas, math.log(t))
                            for t in self.probe_ts}

    def _zero_scan(self):
        s = self.spec
        rep = tauberian.wiener_zero_scan(s["zero_kernel"], 1.0, window=s["window"],
                                         step=s["step"], tol=1e-6)
        return [z for z, _ in rep.zeros]

    def _potter(self):
        order = self.spec["potter_order"]
        rep = orders.potter_bound_report(order, self.spec["potter_pairs"])
        probes = [math.log(orders.potter_factor(order, t)) for t in self.probe_ts]
        return rep.passed, rep.max_violation, probes

    def _carleman(self):
        c = self.spec["carleman"]
        ct = carleman.CarlemanTransform(c["lebesgue"])
        ref_error = max(abs(ct.value(z) - 1j / z) for z in c["zs"])
        bound = carleman.carleman_bound_report(ct, 1.0)
        jumps = carleman.spectrum_jump_scan(ct, c["jump_window"])
        osc = carleman.CarlemanTransform(c["oscillating"])
        osc_jumps = carleman.spectrum_jump_scan(osc, c["osc_window"])
        return ref_error, bound.passed, jumps.flagged, osc_jumps.flagged

    def _check_potter(self, value):
        passed, _, probes = value
        return gates.potter_failures(
            passed, [(t, got, self.potter_want[t]) for t, got in zip(self.probe_ts, probes)])

    def ops(self):
        return [
            _lib_op("zero_scan_q%d" % self.spec["q"], self._zero_scan,
                    lambda got: gates.zero_failures(got, self.zeros_want)),
            _lib_op("potter_report", self._potter, self._check_potter),
            _lib_op("carleman_suite", self._carleman,
                    lambda got: gates.carleman_failures(*got)),
        ]

    def describe(self):
        return {"q": self.spec["q"], "potter_pairs": len(self.spec["potter_pairs"])}


def dense_log_potter(xs, etas, tau, half_width=60.0, step=1e-3):
    """ln sup_x W(x + tau)/W(x) on a dense grid, from the slope table alone.

    ln W(x) is the integral of the piecewise-linear slope over [0, |x|]
    (slope frozen beyond the table); the trapezoid rule on a grid that holds
    every table node integrates it exactly.
    """
    xs = np.asarray(xs, dtype=float)
    etas = np.asarray(etas, dtype=float)
    span = half_width + abs(tau)
    grid = np.arange(0.0, span + 2.0 * step, step)
    slope = np.where(grid <= xs[-1], np.interp(grid, xs, etas), etas[-1])
    h = np.concatenate([[0.0], np.cumsum(0.5 * (slope[1:] + slope[:-1]) * step)])
    x = np.arange(-half_width, half_width + step, step)
    gain = np.interp(np.abs(x + tau), grid, h) - np.interp(np.abs(x), grid, h)
    return float(gain.max())


WORKLOADS = {w.name: w for w in (Roundtrip, Transforms, Flows, Scans)}
