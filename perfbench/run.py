"""azarin benchmark: one seeded workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload {roundtrip,transforms,flows,scans}
                             --seed N --seconds S --trace {0,1}

Run from a checkout of the repository; the program is imported from its
``src/`` directory.  The process runs the workload's set-up, one cold pass,
then warm passes until they add up to ``--seconds`` (at least three).  Fresh
probe processes time the set-up (three of them) and the set-up plus a cold
pass (two, run between the warm passes).  Each operation starts when
the previous one has finished, in one thread.  With ``--trace 1`` there are
no probes; a traced pass follows the untraced ones and the per-layer
metrics replace the end-to-end metrics.

Timings are reported at a reference machine speed, sampled during each
timed region by ``calibrate.py``; the raw times are in the run record.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run record
(environment, pass times, failures, per-operation counts) and the trace
spans are written under ``.perfbench_out/`` in the checkout.
"""

import os

# Load discipline: one BLAS thread.  Set before numpy is first imported; the
# set-up probes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import compileall  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# flows stays runnable by hand; it is not in BENCHMARK.json (see README.md)
WORKLOADS = ("roundtrip", "transforms", "flows", "scans")
SETUP_PROBES = 3            # fresh processes that time the set-up only
COLD_PROBES = 2             # fresh processes that time the set-up and a cold pass
MIN_WARM_PASSES = 3         # the median of fewer would be a mean, which one outlier moves
PROBE_TIMEOUT_S = 120
MAX_FAILURE_LINES = 20


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", choices=("setup", "cold"), default=None,
                   help="time the set-up (and a cold pass) in this process, print "
                        "the result as JSON and exit")
    p.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def timed_setup(name, seed, workdir):
    """``import azarin`` + input generation + object construction, timed.

    Returns (workload, seconds at the reference speed, raw seconds).
    """
    start = time.perf_counter()
    import azarin  # noqa: F401
    from workloads import WORKLOADS as classes
    workload = classes[name](seed, workdir)
    raw_s = time.perf_counter() - start
    import calibrate
    return workload, calibrate.after(raw_s)[0], raw_s


def probe(args, kind):
    """Run this script as a fresh ``--probe`` process and return its JSON."""
    workdir = OUT / ("probe-%d-%s-%d" % (os.getpid(), kind, time.monotonic_ns()))
    cmd = [sys.executable, str(HERE / "run.py"), "--probe", kind,
           "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", str(workdir)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError("%s probe failed: %s" % (kind, proc.stderr.strip()[-500:]))
    return json.loads(proc.stdout.splitlines()[-1])


def run_probe(args):
    workdir = Path(args.workdir)
    workload, setup_s, setup_raw_s = timed_setup(args.workload, args.seed, workdir)
    out = {"setup_s": setup_s, "setup_raw_s": setup_raw_s}
    if args.probe == "cold":
        workload.references()
        ops = workload.ops()
        timed, results = run_pass(ops, workdir / "pass0", workload.python_share)
        out.update(cold_s=timed.seconds, cold_raw_s=timed.raw_s,
                   evaluated=evaluate_pass(ops, results))
    print(json.dumps(out))
    return 0


def openblas_threads():
    """OpenBLAS's own thread count, read from the loaded library (None if unknown)."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": openblas_threads(),
        "blas_env": {v: os.environ.get(v) for v in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python_threads": threading.active_count(),
    }


def load_violations(env):
    out = []
    if env["openblas_threads"] is not None and env["openblas_threads"] > env["nproc"]:
        out.append("OpenBLAS runs %d threads on %d cpus" % (env["openblas_threads"], env["nproc"]))
    if env["python_threads"] != 1:
        out.append("%d Python threads running" % env["python_threads"])
    return out


def run_pass(ops, pass_dir, python_share=1.0, tracer=None):
    """One closed-loop pass; returns (calibrate.Timed, [(ok, result or error text)])."""
    import calibrate  # after the set-up, like numpy
    pass_dir.mkdir(parents=True, exist_ok=True)
    results = []
    with calibrate.Timed(python_share) as timed:
        for k, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = k
            try:
                results.append((True, op.run(pass_dir)))
            except Exception as exc:  # a failed operation is counted, not fatal
                results.append((False, "%s: %s: %s" % (op.label, type(exc).__name__, exc)))
    return timed, results


def evaluate_pass(ops, results):
    """Per operation: (oracle failures, sha256 of its output bytes, bytes written)."""
    out = []
    for op, (ok, res) in zip(ops, results):
        if ok:
            failures, digest, size = op.evaluate(res)
            out.append((failures, hashlib.sha256(digest).hexdigest(), size))
        else:
            out.append(([res], None, 0))
    return out


def tally(labels, evaluated):
    """Counts over evaluated passes; each output must match the first pass's."""
    import gates
    first = {}
    attempted = failed = 0
    messages = []
    for p, ev in enumerate(evaluated):
        for k, (failures, digest, _) in enumerate(ev):
            attempted += 1
            if digest is not None:
                first.setdefault(k, digest)
                failures = failures + gates.same_bytes(labels[k], first[k], digest)
            if failures:
                failed += 1
                messages.extend("pass %d: %s" % (p, f) for f in failures)
    return attempted, failed, messages


def metric(value, unit):
    return {"value": value, "unit": unit}


def run(args):
    compileall.compile_dir(str(SRC / "azarin"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)
    OUT.mkdir(exist_ok=True)
    setup_probes = [] if args.trace else [probe(args, "setup") for _ in range(SETUP_PROBES)]
    cold_probes = []
    n_cold = 0 if args.trace else COLD_PROBES
    run_dir = OUT / ("%s-seed%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        workload, own_setup, own_setup_raw = timed_setup(args.workload, args.seed, run_dir)
        env = environment()
        violations = load_violations(env)
        if violations:
            print("perfbench: load discipline violated: %s" % "; ".join(violations),
                  file=sys.stderr)
            return 3
        workload.references()
        ops = workload.ops()
        cold, results = run_pass(ops, run_dir / "pass0", workload.python_share)
        evaluated = [evaluate_pass(ops, results)]
        # Warm passes fill --seconds.  The cold probes run between them, at even
        # shares of the window, which also spreads the warm passes over time.
        warm = []       # seconds at the reference speed
        warm_raw = []
        slowdowns = []
        while len(warm) < MIN_WARM_PASSES or sum(warm_raw) < args.seconds:
            timed, results = run_pass(ops, run_dir / ("pass%d" % len(evaluated)),
                                      workload.python_share)
            warm.append(timed.seconds)
            warm_raw.append(timed.raw_s)
            slowdowns.append(timed.slowdown)
            evaluated.append(evaluate_pass(ops, results))
            share = (len(cold_probes) + 1) / (n_cold + 1)
            if len(cold_probes) < n_cold and sum(warm_raw) >= args.seconds * share:
                cold_probes.append(probe(args, "cold"))
        while len(cold_probes) < n_cold:
            cold_probes.append(probe(args, "cold"))
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
            try:
                leaks = tracer.binding_leaks()
                traced, results = run_pass(ops, run_dir / "traced", workload.python_share,
                                           tracer)
            finally:
                tracer.uninstall()
            evaluated.append(evaluate_pass(ops, results))
        evaluated += [p["evaluated"] for p in cold_probes]
        attempted, failed, messages = tally([op.label for op in ops], evaluated)
        violations = load_violations(dict(env, python_threads=threading.active_count()))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    import calibrate  # loaded by timed_setup: numpy must not load before the set-up
    wall_s = statistics.median(warm)
    setup_samples = [p["setup_s"] for p in setup_probes + cold_probes] + [own_setup]
    setup_raw = [p["setup_raw_s"] for p in setup_probes + cold_probes] + [own_setup_raw]
    cold_samples = [cold.seconds] + [p["cold_s"] for p in cold_probes]
    cold_raw = [cold.raw_s] + [p["cold_raw_s"] for p in cold_probes]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": workload.describe(), "environment": env,
        "calibration": {"python_share": workload.python_share,
                        "python_ref_s": calibrate.PYTHON_REF_S,
                        "vector_ref_s": calibrate.VECTOR_REF_S},
        "setup_s_samples": setup_samples, "setup_raw_s_samples": setup_raw,
        "cold_s_samples": cold_samples, "cold_raw_s_samples": cold_raw,
        "warm_pass_s": warm, "warm_pass_raw_s": warm_raw, "warm_slowdown": slowdowns,
        "warm_passes": len(warm),
        "attempted": attempted,
        "failed": failed, "failures": messages, "load_violations": violations,
    }
    correct = failed == 0 and not violations
    if args.trace:
        from layers import PER_LAYER, layer_metrics, per_op_counts
        missed = [name for name in workload.must_hit if tracer.call_count(name) == 0]
        written = sum(size for _, _, size in evaluated[len(warm) + 1])
        values = layer_metrics(tracer, traced.seconds / wall_s, written)
        metrics = {name: metric(values[name], unit) for name, unit, _ in PER_LAYER}
        record.update({
            "traced_pass_s": traced.seconds, "traced_pass_raw_s": traced.raw_s,
            "binding_leaks": leaks, "missed_spans": missed,
            "spans": len(tracer.span_name), "wait_s": "not recorded: one thread, no queues",
            "per_op_counts": {op.label: per_op_counts(tracer, k) for k, op in enumerate(ops)},
        })
        tracer.write(OUT / ("trace-%s-seed%d.npz" % (args.workload, args.seed)))
        correct = correct and not leaks and not missed
        for problem in leaks + ["no calls recorded by %s" % m for m in missed]:
            print("perfbench: binding self-check: %s" % problem, file=sys.stderr)
    else:
        metrics = {
            "wall_s": metric(wall_s, "s"),
            "cold_s": metric(statistics.median(cold_samples), "s"),
            "setup_s": metric(statistics.median(setup_samples), "s"),
            "peak_rss_mib": metric(peak_rss_mib, "MiB"),
            "verified_ratio": metric((attempted - failed) / attempted, "ratio"),
        }
    (OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))).write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")
    for line in messages[:MAX_FAILURE_LINES]:
        print("perfbench: failed: %s" % line, file=sys.stderr)
    print("perfbench: %s seed %d: %d cold passes, %d warm passes, %d operations, %d failed; "
          "python %s, numpy %s, scipy %s, openblas threads %s of %d cpus"
          % (args.workload, args.seed, len(cold_samples), len(warm), attempted, failed,
             env["python"], env["numpy"], env["scipy"], env["openblas_threads"], env["nproc"]))
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "azarin" / "__init__.py").is_file():
        print("perfbench: no azarin sources at %s; run from a full checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.probe:
        return run_probe(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
