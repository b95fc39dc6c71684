"""Config schema: JSON descriptors for orders, measures and kernels.

Every run is driven by one JSON document:

    {
      "operation": "<registry name>",
      "order":    {"rho": 0.5, "zero_part": {"kind": "log_power", "A": 1.0,
                                             "alpha": 0.5}},
      "measure":  {"atoms": [[1.0, 1.0]],
                   "densities": [{"interval": [0, null], "kind": "power",
                                  "s": 0.5}],
                   "tail": {"kind": "self_similar", "T": 2, "rho": 1}},
      "kernel":   {"kind": "exp"},
      "params":   {...},
      "outputs":  {"json": "...", "csv": "..."}
    }

Scalars accepting complex values may be given as a number or [re, im].
Validation failures raise ConfigError with a dotted field path.
"""

from __future__ import annotations

import math

from .kernels import (ExpKernel, IndicatorKernel, LogSingularKernel,
                      PowerCutKernel, SmoothBumpKernel, StepKernel,
                      TableKernel, trapezoid_kernel)
from .measures import (DensityPiece, LogFactor, LogPerturbFactor, RadonMeasure,
                       SelfSimilarTail, TabulatedPiece, ZeroScaleFactor)
from .orders import (FlatZero, LogLogZero, LogPowerZero, ProximateOrder,
                     TabulatedZero)

__all__ = ["ConfigError", "parse_order", "parse_measure", "parse_kernel",
           "parse_complex", "number", "require", "tol_key", "validate_config"]


class ConfigError(ValueError):
    pass


def _fail(path, message):
    raise ConfigError("%s: %s" % (path, message))


def require(cfg, key, path):
    if not isinstance(cfg, dict):
        _fail(path, "expected an object")
    if key not in cfg:
        _fail("%s.%s" % (path, key), "missing required field")
    return cfg[key]


def number(value, path):
    """``float(value)``, or a ConfigError at ``path``."""
    try:
        return float(value)
    except (TypeError, ValueError):
        _fail(path, "expected a number")


def _number_field(cfg, key, path):
    """The number in required field ``key`` of the object at ``path``."""
    return number(require(cfg, key, path), "%s.%s" % (path, key))


def _entries(value, path, item=None, length=None):
    """``item(entry, path[i])`` (``number`` by default) of each entry of a
    list, as a tuple."""
    if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
        _fail(path, "expected a list" if length is None
              else "expected a list of %d entries" % length)
    item = item or number
    return tuple(item(v, "%s[%d]" % (path, i)) for i, v in enumerate(value))


def parse_complex(value, path):
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(number(value[0], path), number(value[1], path))
    _fail(path, "expected a number or [re, im] pair")


def parse_order(cfg, path="order"):
    if cfg is None:
        _fail(path, "missing order descriptor")
    rho = _number_field(cfg, "rho", path)
    zp_cfg = cfg.get("zero_part", {"kind": "zero"})
    kind = zp_cfg.get("kind", "zero")
    if kind == "zero":
        zp = FlatZero()
    elif kind == "log_power":
        zp = LogPowerZero(coef=number(zp_cfg.get("A", 1.0), path + ".zero_part.A"),
                          alpha=_number_field(zp_cfg, "alpha", path + ".zero_part"))
    elif kind == "log_of_log_power":
        zp = LogLogZero(alpha=_number_field(zp_cfg, "alpha", path + ".zero_part"))
    elif kind == "tabulated_eta":
        p = path + ".zero_part.points"
        pts = _entries(require(zp_cfg, "points", path + ".zero_part"), p,
                       item=lambda v, q: _entries(v, q, length=2))
        try:
            zp = TabulatedZero(xs=tuple(x for x, _ in pts),
                               etas=tuple(e for _, e in pts))
        except ValueError as exc:
            _fail(p, str(exc))
    else:
        _fail(path + ".zero_part.kind", "unknown kind %r" % kind)
    return ProximateOrder(rho=rho, zero_part=zp)


def _parse_interval(value, path, allow_infinite=True):
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        _fail(path, "expected [lo, hi]")
    lo = number(value[0], path + "[0]")
    hi = math.inf if value[1] is None else number(value[1], path + "[1]")
    if not allow_infinite and math.isinf(hi):
        _fail(path, "interval must be bounded")
    if hi <= lo:
        _fail(path, "interval must be nonempty")
    return lo, hi


def _parse_density(cfg, path):
    kind = cfg.get("kind", "power")
    lo, hi = _parse_interval(cfg.get("interval", [0, None]), path + ".interval")
    coef = parse_complex(cfg.get("coef", 1.0), path + ".coef")
    if kind == "power":
        s = parse_complex(require(cfg, "s", path), path + ".s")
        return DensityPiece(lo=lo, hi=hi, coef=coef, exponent=s)
    if kind == "power_log":
        s = parse_complex(require(cfg, "s", path), path + ".s")
        return DensityPiece(lo=lo, hi=hi, coef=coef, exponent=s,
                            factor=LogFactor(int(number(cfg.get("log_power", 1),
                                                        path + ".log_power"))))
    if kind == "perturbed_power":
        s = parse_complex(require(cfg, "s", path), path + ".s")
        style = cfg.get("style", "inv_log")
        if style not in ("inv_log", "inv_log1p"):
            _fail(path + ".style", "unknown style %r" % style)
        return DensityPiece(lo=lo, hi=hi, coef=coef, exponent=s,
                            factor=LogPerturbFactor(style=style))
    if kind == "order_scale":
        order = parse_order({"rho": cfg.get("rho", 0.0),
                             "zero_part": cfg.get("zero_part", {"kind": "zero"})},
                            path)
        osc = number(cfg.get("oscillation", 0.0), path + ".oscillation")
        exponent = complex(order.rho - 1.0, osc)
        return DensityPiece(lo=lo, hi=hi, coef=coef, exponent=exponent,
                            factor=ZeroScaleFactor(order.zero_part))
    if kind == "table":
        nodes = _entries(require(cfg, "log_nodes", path), path + ".log_nodes")
        values = _entries(require(cfg, "values", path), path + ".values",
                          item=parse_complex)
        return TabulatedPiece(lo=lo, hi=hi, log_nodes=nodes, values=values)
    _fail(path + ".kind", "unknown density kind %r" % kind)


def parse_measure(cfg, path="measure"):
    if cfg is None:
        _fail(path, "missing measure descriptor")
    atoms = []
    for i, entry in enumerate(cfg.get("atoms", [])):
        p = "%s.atoms[%d]" % (path, i)
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            _fail(p, "expected [location, weight]")
        x = number(entry[0], p)
        if x <= 0:
            _fail(p, "location must be positive")
        atoms.append((x, parse_complex(entry[1], p)))
    pieces = [
        _parse_density(d, "%s.densities[%d]" % (path, i))
        for i, d in enumerate(cfg.get("densities", []))
    ]
    tail_cfg = cfg.get("tail", {"kind": "none"})
    kind = tail_cfg.get("kind", "none")
    tail = None
    if kind == "self_similar":
        tail = SelfSimilarTail(period=_number_field(tail_cfg, "T", path + ".tail"),
                               rho=_number_field(tail_cfg, "rho", path + ".tail"),
                               base_lo=number(tail_cfg.get("base_lo", 1.0),
                                              path + ".tail.base_lo"))
    elif kind not in ("none", "formula"):
        _fail(path + ".tail.kind", "unknown tail kind %r" % kind)
    window = cfg.get("window")
    kw = {}
    if window is not None:
        kw["window"] = _parse_interval(window, path + ".window")
    try:
        return RadonMeasure(atoms=atoms, pieces=pieces, tail=tail, **kw)
    except ValueError as exc:
        _fail(path, str(exc))


def parse_kernel(cfg, path="kernel"):
    if cfg is None:
        _fail(path, "missing kernel descriptor")
    kind = require(cfg, "kind", path)
    if kind == "exp":
        return ExpKernel()
    if kind == "indicator":
        lo, hi = _parse_interval(require(cfg, "interval", path),
                                 path + ".interval", allow_infinite=False)
        return IndicatorKernel(lo=lo, hi=hi)
    if kind == "step_combo":
        steps = []
        for i, s in enumerate(require(cfg, "steps", path)):
            p = "%s.steps[%d]" % (path, i)
            if not isinstance(s, (list, tuple)) or len(s) not in (3, 4):
                _fail(p, "expected [coef, lo, hi] or [coef, lo, hi, exponent]")
            steps.append(tuple(number(v, p) for v in s))
        return StepKernel(steps=tuple(steps))
    if kind == "power_cut":
        s = parse_complex(require(cfg, "s", path), path + ".s")
        return PowerCutKernel(exponent=s,
                              cut=number(cfg.get("cut", 1.0), path + ".cut"))
    if kind == "log_singular":
        return LogSingularKernel()
    if kind == "smooth_bump":
        lo, hi = _parse_interval(require(cfg, "interval", path),
                                 path + ".interval", allow_infinite=False)
        return SmoothBumpKernel(lo=lo, hi=hi,
                                n_max=int(number(cfg.get("n_max", 6), path + ".n_max")))
    if kind == "table":
        return TableKernel(nodes=_entries(require(cfg, "nodes", path), path + ".nodes"),
                           values=_entries(require(cfg, "values", path),
                                           path + ".values"))
    if kind == "trapezoid":
        lo, hi = _parse_interval(require(cfg, "interval", path),
                                 path + ".interval", allow_infinite=False)
        ramp = cfg.get("ramp")
        return trapezoid_kernel(lo, hi,
                                None if ramp is None else number(ramp, path + ".ramp"))
    _fail(path + ".kind", "unknown kernel kind %r" % kind)


def tol_key(key):
    """Whether params ``key`` is a ``*tol`` tolerance: ``--tol-override``
    rewrites these, and they (and ``eps_cluster``) must be > 0."""
    return key.endswith("tol")


def validate_config(cfg):
    if not isinstance(cfg, dict):
        raise ConfigError("config: expected a JSON object")
    op = cfg.get("operation")
    if not isinstance(op, str) or not op:
        raise ConfigError("operation: missing operation name")
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params: expected an object")
    for key, value in params.items():
        if tol_key(key) or key == "eps_cluster":
            try:
                ok = float(value) > 0.0
            except (TypeError, ValueError):
                ok = False
            if not ok:
                raise ConfigError("params.%s: tolerance must be > 0" % key)
    return cfg
