"""Config schema: JSON descriptors for orders, measures and kernels.

Every run is driven by one JSON document with the keys ``operation``,
``params``, ``outputs`` and the descriptors ``order``, ``measure`` and
``kernel`` its operation reads (README "Config schema" has an example).
Each object is declared once below, as an ``Obj`` (a closed table of
field -> declaration, plus its constructor) or a ``Kind`` (a tagged union
of them).  An undeclared key, like any other invalid input, is a
ConfigError with a dotted field path.
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from .carleman import RealMeasure
from .kernels import (ExpKernel, IndicatorKernel, LogSingularKernel,
                      PowerCutKernel, SmoothBumpKernel, StepKernel,
                      TableKernel, trapezoid_kernel)
from .measures import (DensityPiece, LogFactor, LogPerturbFactor, RadonMeasure,
                       SelfSimilarTail, TabulatedPiece, ZeroScaleFactor)
from .orders import (FlatZero, LogLogZero, LogPowerZero, ProximateOrder,
                     TabulatedZero)

__all__ = ["ConfigError", "parse_order", "parse_measure", "parse_kernel",
           "parse_complex", "number", "positive", "tol_key", "validate_config", "Count",
           "Field", "Maybe", "Unchecked", "Choice", "List", "Grid", "Interval", "Obj",
           "Kind", "Range", "Window"]

# a signature parameter without a default: a required number
REQUIRED = inspect.Parameter.empty


class ConfigError(ValueError):
    pass


def _fail(path, message):
    raise ConfigError("%s: %s" % (path, message))


def _float(value, path):
    """``float(value)``, NaN and infinities included, or a ConfigError at ``path``."""
    try:
        return float(value)
    except (TypeError, ValueError):
        _fail(path, "expected a number")


def number(value, path):
    """``float(value)`` when it is finite, or a ConfigError at ``path``."""
    x = _float(value, path)
    return x if math.isfinite(x) else _fail(path, "expected a finite number")


def positive(value, path):
    """``float(value)`` when it is finite and > 0, or a ConfigError at ``path``."""
    x = _float(value, path)
    return x if 0.0 < x < math.inf else _fail(path, "expected a finite number > 0")


def parse_complex(value, path, part=number):
    """A number or an [re, im] pair, each part read by ``part``."""
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(part(value[0], path), part(value[1], path))
    try:
        x = float(value)
    except (TypeError, ValueError):
        _fail(path, "expected a number or [re, im] pair")
    return complex(part(x, path))


class Count(int):
    """Declaration: an integer >= 1 (the class itself: a required one)."""


def _integer(value, path, least=None):
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = math.nan
    if not x.is_integer() or (least is not None and x < least):
        _fail(path, "expected an integer%s"
              % ("" if least is None else " >= %d" % least))
    return int(x)


def _read(decl, value, path):
    """``value`` read as the declaration ``decl`` says.

    A float, ``float`` or REQUIRED declares a finite number; a bool or
    ``bool``, a JSON boolean; an int or ``int``, an integer (>= 1 for
    ``Count``); a complex or ``complex``, a finite complex number; a str or
    ``str``, a string; a marker (``Field``) or a function ``(value, path)``,
    what it reads; None, the value as given.  A type or function is
    required, a value is the default of an absent field, and a marker
    declares its own default.
    """
    kind = decl if isinstance(decl, type) else type(decl)
    if decl is REQUIRED or kind is float:
        return number(value, path)
    if kind is bool:   # ahead of int, which bool subclasses
        if not isinstance(value, bool):
            _fail(path, "expected true or false")
        return value
    if issubclass(kind, int):
        return _integer(value, path, least=1 if issubclass(kind, Count) else None)
    if kind is complex:
        return parse_complex(value, path)
    if kind is str:
        if not isinstance(value, str):
            _fail(path, "expected a string")
        return value
    return decl(value, path) if callable(decl) else value


def _get(cfg, key, decl, path):
    """Field ``key`` of the object ``cfg`` at ``path``, read as ``decl`` says."""
    path = "%s.%s" % (path, key) if path else key
    if key in cfg:
        return _read(decl, cfg[key], path)
    if isinstance(decl, Field):
        if decl.value is None:
            return None
        if decl.value is not REQUIRED:
            return decl.read(decl.value, path)
    elif decl is not REQUIRED and not callable(decl):
        return decl
    _fail(path, "missing required field")


class Field:
    """Base of the markers: a marker reads a given value with ``read``, and
    an absent field reads the JSON ``default`` the same way; REQUIRED makes
    absence an error, and None makes absent and null read as None."""

    def __init__(self, default=REQUIRED):
        self.value = default

    def __call__(self, value, path):
        if value is None and self.value is None:
            return None
        return self.read(value, path)


class Maybe(Field):
    """Marker: what ``decl`` declares, or None where absent or null."""

    def __init__(self, decl):
        super().__init__(None)
        self.decl = decl

    def read(self, value, path):
        return _read(self.decl, value, path)


class Range(Field):
    """Marker: a finite number x with lo < x <= hi, ``text`` in a message."""

    def __init__(self, lo, hi, text, default=REQUIRED):
        super().__init__(default)
        self.lo, self.hi, self.text = lo, hi, text

    def read(self, value, path):
        x = number(value, path)
        return x if self.lo < x <= self.hi else _fail(path, "expected " + self.text)


class Unchecked(Field):
    """Marker: a number (with ``complex``, or an [re, im] pair) read as
    given, NaN and infinities included, for a constructor or check that
    rejects them with its own message."""

    def __init__(self, default=REQUIRED, kind=float):
        super().__init__(default)
        self.kind = kind

    def read(self, value, path):
        return (parse_complex(value, path, _float) if self.kind is complex
                else _float(value, path))


class Choice(Field):
    """Marker: one of the strings ``values``, or None where absent or null."""

    def __init__(self, *values):
        super().__init__(None)
        self.values = values

    def read(self, value, path):
        if not isinstance(value, str) or value not in self.values:
            _fail(path, "expected one of %s" % ", ".join(map(repr, self.values)))
        return value


class List(Field):
    """Marker: a list whose entries ``item`` declares (numbers by default),
    of exactly ``length`` entries, or of at least one with ``nonempty``."""

    def __init__(self, default=REQUIRED, item=float, length=None, nonempty=False):
        super().__init__(default)
        self.item = item
        self.length = length
        self.nonempty = nonempty

    def read(self, value, path):
        if not isinstance(value, (list, tuple)) \
                or self.length not in (None, len(value)):
            _fail(path, "expected a list" if self.length is None
                  else "expected a list of %d entries" % self.length)
        if self.nonempty and not value:
            _fail(path, "expected a nonempty list")
        return [_read(self.item, v, "%s[%d]" % (path, i))
                for i, v in enumerate(value)]


class Grid(List):
    """Marker: a nonempty list of numbers (each read as ``item``), or
    ``{start, stop, points}`` spread by ``space``, its ends read as ``item``;
    absent, ``space(start, stop, points)`` of the marker (None without them)."""

    def __init__(self, start=None, stop=None, points=None, space=np.geomspace,
                 item=float):
        super().__init__(None if start is None else
                         {"start": start, "stop": stop, "points": points},
                         item=item, nonempty=True)
        self.spread = Obj({"start": item, "stop": item, "points": Count},
                          lambda start, stop, points: space(start, stop, points))

    def read(self, value, path):
        if isinstance(value, dict):
            return self.spread(value, path)
        if not isinstance(value, list):
            _fail(path, "expected a list of numbers or a {start, stop, points} "
                        "object")
        return np.asarray(super().read(value, path), dtype=float)


class Window(List):
    """Marker: ``[lo, hi]``, two finite numbers with lo <= hi, read as a pair."""

    def __init__(self, default=REQUIRED):
        super().__init__(default, length=2)

    def read(self, value, path):
        lo, hi = super().read(value, path)
        return (lo, hi) if lo <= hi else _fail(path, "expected finite [lo, hi] "
                                                     "with lo <= hi")


class Interval(Field):
    """Marker: ``[lo, hi]`` with lo < hi, read as a pair; a null hi is +oo
    unless ``bounded``."""

    def __init__(self, default=REQUIRED, bounded=False):
        super().__init__(default)
        self.bounded = bounded

    def read(self, value, path):
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            _fail(path, "expected [lo, hi]")
        lo = number(value[0], path + "[0]")
        hi = math.inf if value[1] is None else number(value[1], path + "[1]")
        if self.bounded and math.isinf(hi):
            _fail(path, "interval must be bounded")
        if hi <= lo:
            _fail(path, "interval must be nonempty")
        return lo, hi


class Obj(Field):
    """Marker: an object with the closed set of ``fields`` (name ->
    declaration, read in order), built by ``build(**fields)`` (a dict by
    default).  A ValueError of ``build`` is a ConfigError at the object's
    path; so is any undeclared key, reported after the build."""

    def __init__(self, fields, build=dict, default=REQUIRED):
        super().__init__(default)
        self.fields = fields
        self.build = build

    def read(self, value, path):
        if not isinstance(value, dict):
            _fail(path, "expected an object")
        args = {key: _get(value, key, decl, path)
                for key, decl in self.fields.items()}
        try:
            out = self.build(**args)
        except ConfigError:
            raise
        except ValueError as exc:
            _fail(path, str(exc))
        for key in value:
            if key not in self.fields:
                _fail("%s.%s" % (path, key) if path else key, "unknown field")
        return out


class Kind(Field):
    """Marker: a tagged union, an object whose ``kind`` (``default`` where
    absent) picks the Obj of ``kinds`` that reads its other fields; an
    absent object reads as ``{}``."""

    def __init__(self, kinds, default=str):
        super().__init__({})
        self.kinds = kinds
        self.default = default

    def read(self, value, path):
        if not isinstance(value, dict):
            _fail(path, "expected an object")
        kind = _get(value, "kind", self.default, path)
        if kind not in self.kinds:
            _fail(path + ".kind", "unknown kind %r" % kind)
        return self.kinds[kind]({k: v for k, v in value.items() if k != "kind"},
                                path)


# A constructor below that calls an azarin function looks it up by name when
# it runs, so a rebinding of the module name reaches it.


def _atom(value, path):
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        _fail(path, "expected [location, weight]")
    return number(value[0], path), parse_complex(value[1], path)


def _step(value, path):
    if not isinstance(value, (list, tuple)) or len(value) not in (3, 4):
        _fail(path, "expected [coef, lo, hi] or [coef, lo, hi, exponent]")
    return tuple(number(v, path) for v in value)


ZERO_PART = Kind({
    "zero": Obj({}, FlatZero),
    "log_power": Obj({"A": 1.0, "alpha": float},
                     lambda A, alpha: LogPowerZero(A, alpha)),
    "log_of_log_power": Obj({"alpha": float}, LogLogZero),
    "tabulated_eta": Obj({"points": List(item=List(length=2, item=Unchecked()))},
                         lambda points: TabulatedZero(*zip(*points))),
}, "zero")

ORDER = Obj({"rho": float, "zero_part": ZERO_PART}, ProximateOrder)

_SPAN = {"interval": Interval([0, None]), "coef": 1 + 0j}

DENSITY = Kind({
    "power": Obj(dict(_SPAN, s=complex),
                 lambda interval, coef, s: DensityPiece(*interval, coef, s)),
    "power_log": Obj(dict(_SPAN, s=complex, log_power=1),
                     lambda interval, coef, s, log_power:
                     DensityPiece(*interval, coef, s, LogFactor(log_power))),
    "perturbed_power": Obj(dict(_SPAN, s=complex, style="inv_log"),
                           lambda interval, coef, s, style:
                           DensityPiece(*interval, coef, s, LogPerturbFactor(style))),
    "order_scale": Obj(dict(_SPAN, rho=0.0, zero_part=ZERO_PART, oscillation=0.0),
                       lambda interval, coef, rho, zero_part, oscillation:
                       DensityPiece(*interval, coef, complex(rho - 1.0, oscillation),
                                    ZeroScaleFactor(zero_part))),
    "table": Obj({"interval": Interval([0, None]), "log_nodes": List(item=Unchecked()),
                  "values": List(item=Unchecked(kind=complex))},
                 lambda interval, log_nodes, values:
                 TabulatedPiece(*interval, tuple(log_nodes), tuple(values))),
}, "power")

TAIL = Kind({
    "none": Obj({}, lambda: None),
    "formula": Obj({}, lambda: None),   # the pieces already cover the half-line
    "self_similar": Obj({"T": Unchecked(), "rho": Unchecked(),
                         "base_lo": Unchecked(1.0)},
                        lambda T, rho, base_lo: SelfSimilarTail(T, rho, base_lo)),
}, "none")

MEASURE = Obj({"atoms": List([], item=_atom), "densities": List([], item=DENSITY),
               "tail": TAIL, "window": Interval([0, None])},
              lambda atoms, densities, tail, window:
              RadonMeasure(atoms, densities, tail, window))

_BOUNDED = Interval(bounded=True)

KERNEL = Kind({
    "exp": Obj({}, ExpKernel),
    "indicator": Obj({"interval": _BOUNDED}, lambda interval: IndicatorKernel(*interval)),
    "step_combo": Obj({"steps": List(item=_step)},
                      lambda steps: StepKernel(tuple(steps))),
    "power_cut": Obj({"s": complex, "cut": 1.0},
                     lambda s, cut: PowerCutKernel(s, cut)),
    "log_singular": Obj({}, LogSingularKernel),
    "smooth_bump": Obj({"interval": _BOUNDED, "n_max": 6},
                       lambda interval, n_max: SmoothBumpKernel(*interval, n_max)),
    "table": Obj({"nodes": List(), "values": List()},
                 lambda nodes, values: TableKernel(tuple(nodes), tuple(values))),
    "trapezoid": Obj({"interval": _BOUNDED, "ramp": Maybe(float)},
                     lambda interval, ramp: trapezoid_kernel(*interval, ramp)),
})

# params.line_measure of carleman_suite: a measure on the real line
LINE_MEASURE = Obj(
    {"atoms": List([], item=_atom),
     "pieces": List([], item=Obj({"lo": Maybe(float), "hi": Maybe(float),
                                  "coef": 1 + 0j, "freq": 0.0},
                                 lambda lo, hi, coef, freq: (lo, hi, coef, freq)))},
    lambda atoms, pieces: RealMeasure(atoms=tuple(atoms), pieces=tuple(pieces)),
    default={})

# file names for the JSON report and the single CSV table (None: the default)
OUTPUTS = Obj({"json": Maybe(str), "csv": Maybe(str)}, default={})


def parse_order(cfg, path="order"):
    return ORDER(cfg, path)


def parse_measure(cfg, path="measure"):
    return MEASURE(cfg, path)


def parse_kernel(cfg, path="kernel"):
    return KERNEL(cfg, path)


def tol_key(key):
    """Whether params ``key`` is a ``*tol`` tolerance: ``--tol-override``
    rewrites these, and they (and ``eps_cluster``) must be finite and > 0."""
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
                ok = 0.0 < float(value) < math.inf
            except (TypeError, ValueError):
                ok = False
            if not ok:
                raise ConfigError("params.%s: tolerance must be finite and > 0" % key)
    return cfg
