"""Outside-in tracer: spans around azarin's layers, installed from the benchmark.

The tracer wraps the public functions and methods of each layer module
(plus the ``__call__`` of every class and ``KernelTransform._window_term``),
and installs each wrapper at every binding of the original: the defining
module, every module that imported the name (``measures.log_quad``,
``runners.sample_trajectory``, ...), the package namespace and module-level
dicts such as ``runners.REGISTRY``.  ``binding_leaks`` then searches the
same places for an original that escaped, so a refactor that adds a new
import site cannot silently drop calls from the trace.

Spans live in memory as parallel arrays (name, start, end, parent,
operation id, raised) and are written out once, at the end.  A span's self
time is its duration minus the durations of its child spans.  Everything
runs in one thread with no queues, so no span ever waits: the tracer
records no waiting time.

The integrand handed to ``numerics.adaptive_quad`` is wrapped as well; each
call is one Gauss-Kronrod batch and its argument size is the node count.
"""

from __future__ import annotations

import importlib
import sys
import time
import types
from array import array

import numpy as np

LAYERS = ("numerics", "orders", "measures", "dynamics", "kernels", "transforms",
          "tauberian", "carleman", "configio", "runners", "cli")
EXTRA_METHODS = {("transforms", "KernelTransform", "_window_term")}
INTEGRAND = "numerics.integrand"


def _public(attr):
    return not attr.startswith("_") or attr == "__call__"


class Tracer:
    """Span recorder plus the wrappers it installs."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_err = array("b")
        self._stack = []
        self.active = []          # per name: number of open spans
        self.calls = []           # per name: number of spans
        self.op_id = -1
        self.counters = {"gk_batches": 0, "gk_nodes": 0, "pair_nodes": 0,
                         "value_nodes": 0, "kernel_evals": 0, "samples": 0,
                         "lambdas": 0}
        self.op_nodes = {}        # operation id -> GK nodes
        self.transform_keys = set()
        self.potter_ts = set()
        self.kernel_ids = []
        self._restore = []
        self.originals = {}       # id(original) -> (original, wrapper)
        self.integrand_id = self.name_id(INTEGRAND)
        self.pair_id = self.name_id("measures.RadonMeasure.pair")
        self.value_id = self.name_id("transforms.KernelTransform.value")

    # -- spans -----------------------------------------------------------------

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.active.append(0)
            self.calls.append(0)
        return nid

    def open(self, nid):
        i = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op_id)
        self.span_err.append(0)
        self.span_end.append(0.0)
        self._stack.append(i)
        self.active[nid] += 1
        self.calls[nid] += 1
        self.span_start.append(time.perf_counter())
        return i

    def close(self, i, nid, raised=False):
        end = time.perf_counter()
        self.span_end[i] = end
        self._stack.pop()
        self.active[nid] -= 1
        if raised:
            self.span_err[i] = 1

    def call_count(self, name):
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    # -- wrappers ----------------------------------------------------------------

    def _wrapper(self, fn, name):
        nid = self.name_id(name)
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        if name.startswith("kernels.") and name.endswith(".__call__"):
            self.kernel_ids.append(nid)
            before = _count_kernel_points
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(tracer, args, kwargs)
            i = tracer.open(nid)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.close(i, nid, True)
                raise
            tracer.close(i, nid)
            if after is not None:
                after(tracer, out)
            return out

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def count_integrand(self, f):
        tracer = self
        nid = self.integrand_id

        def integrand(x):
            n = int(np.size(x))
            c = tracer.counters
            c["gk_batches"] += 1
            c["gk_nodes"] += n
            tracer.op_nodes[tracer.op_id] = tracer.op_nodes.get(tracer.op_id, 0) + n
            if tracer.active[tracer.pair_id]:
                c["pair_nodes"] += n
            if tracer.active[tracer.value_id]:
                c["value_nodes"] += n
            i = tracer.open(nid)
            try:
                out = f(x)
            except BaseException:
                tracer.close(i, nid, True)
                raise
            tracer.close(i, nid)
            return out

        return integrand

    def install(self):
        """Wrap every layer's public callables and rebind them everywhere."""
        modules = [importlib.import_module("azarin." + m) for m in LAYERS]
        for mod in modules:
            short = mod.__name__.split(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and _public(attr) \
                        and obj.__module__ == mod.__name__:
                    self.originals[id(obj)] = (obj, self._wrapper(obj, "%s.%s" % (short, attr)))
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._wrap_class(short, obj)
        for mod in _azarin_modules():
            self._rebind(vars(mod))

    def _wrap_class(self, short, cls):
        for attr, raw in list(vars(cls).items()):
            if not (_public(attr) or (short, cls.__name__, attr) in EXTRA_METHODS):
                continue
            name = "%s.%s.%s" % (short, cls.__name__, attr)
            if isinstance(raw, types.FunctionType):
                new = self._wrapper(raw, name)
            elif isinstance(raw, staticmethod):
                new = staticmethod(self._wrapper(raw.__func__, name))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrapper(raw.__func__, name))
            else:
                continue
            setattr(cls, attr, new)
            self._restore.append((cls, attr, raw))

    def _rebind(self, namespace):
        """Replace originals in a module namespace and its module-level dicts."""
        for key, value in list(namespace.items()):
            hit = self.originals.get(id(value))
            if hit is not None and hit[0] is value:
                namespace[key] = hit[1]
                self._restore.append((namespace, key, value))
            elif isinstance(value, dict) and not str(key).startswith("__"):
                self._rebind(value)

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._restore = []

    def binding_leaks(self):
        """Bindings that still reach an unwrapped original (must be empty)."""
        leaks = []
        for mod in _azarin_modules():
            leaks.extend(self._leaks_in(mod.__name__, vars(mod), depth=0))
            for attr, obj in vars(mod).items():
                if isinstance(obj, type) and obj.__module__.startswith("azarin"):
                    leaks.extend(self._leaks_in("%s.%s" % (mod.__name__, attr),
                                                dict(vars(obj)), depth=0))
        return sorted(set(leaks))

    def _leaks_in(self, where, namespace, depth):
        out = []
        for key, value in namespace.items():
            hit = self.originals.get(id(value))
            if hit is not None and hit[0] is value:
                out.append("%s.%s" % (where, key))
            elif isinstance(value, (dict, list, tuple)) and depth < 2:
                items = value.items() if isinstance(value, dict) else enumerate(value)
                out.extend(self._leaks_in("%s.%s" % (where, key), dict(items),
                                          depth + 1))
            elif isinstance(value, types.FunctionType):
                for d in (value.__defaults__ or ()) + tuple((value.__kwdefaults__ or {}).values()):
                    hit = self.originals.get(id(d))
                    if hit is not None and hit[0] is d:
                        out.append("%s.%s (default argument)" % (where, key))
        return out

    # -- output ------------------------------------------------------------------

    def arrays(self):
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.span_op, dtype=np.int32).copy(),
            "raised": np.frombuffer(self.span_err, dtype=np.int8).copy(),
        }

    def write(self, path):
        spans = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **spans)


def _azarin_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "azarin" or name.startswith("azarin."))]


# -- counting hooks, keyed by span name -------------------------------------


def _wrap_integrand(tracer, args, kwargs):
    if args:
        args = (tracer.count_integrand(args[0]),) + tuple(args[1:])
    else:
        kwargs = dict(kwargs, f=tracer.count_integrand(kwargs["f"]))
    return args, kwargs


def _count_kernel_points(tracer, args, kwargs):
    if not any(tracer.active[k] for k in tracer.kernel_ids):
        t = args[1] if len(args) > 1 else kwargs["t"]
        tracer.counters["kernel_evals"] += int(np.size(t))
    return args, kwargs


def _note_transform_key(tracer, args, kwargs):
    r = args[1] if len(args) > 1 else kwargs["r"]
    tracer.transform_keys.add((tracer.op_id, args[0], float(r)))
    return args, kwargs


def _note_potter_t(tracer, args, kwargs):
    t = args[1] if len(args) > 1 else kwargs["t"]
    tracer.potter_ts.add(float(t))
    return args, kwargs


def _count_lambdas(tracer, args, kwargs):
    lams = args[1] if len(args) > 1 else kwargs.get("lams", kwargs.get("lam"))
    tracer.counters["lambdas"] += int(np.size(lams))
    return args, kwargs


def _count_samples(tracer, out):
    tracer.counters["samples"] += len(out)


_BEFORE = {
    "numerics.adaptive_quad": _wrap_integrand,
    "transforms.KernelTransform.value": _note_transform_key,
    "orders.potter_factor": _note_potter_t,
    "tauberian._SymbolQuadrature.value": _count_lambdas,
    "tauberian._SymbolQuadrature.values": _count_lambdas,
}
_AFTER = {"dynamics.sample_trajectory": _count_samples}
