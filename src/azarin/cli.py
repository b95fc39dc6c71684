"""Batch experiment runner.

    azarin run <config.json | builtin-name> [--out-dir D] [--tol-override X]
    azarin list-builtins

Exit status: 0 when all verdicts pass (or the operation has no pass/fail
semantics), 2 when a verdict fails, 1 on config or runtime errors.
Outputs (a JSON report, plus CSV tables where the operation emits them)
are deterministic; rerunning a config yields byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .catalog import builtin_config, builtin_names
from .configio import OUTPUTS, ConfigError, tol_key, validate_config
from .numerics import DivergenceError, NumericsError
from .runners import REGISTRY, _jsonable


def _format_cell(value):
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return "%.17e" % value
    return str(value)


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _apply_overrides(cfg, args):
    params = cfg.get("params")
    if args.tol_override is None or not isinstance(params, dict):
        return cfg
    return dict(cfg, params={key: args.tol_override if tol_key(key) else value
                             for key, value in params.items()})


def _load_config(source):
    if source in builtin_names():
        return builtin_config(source), source
    path = Path(source)
    if not path.exists():
        raise ConfigError("config: no such file or builtin %r" % source)
    try:
        return json.loads(path.read_text()), path.stem
    except json.JSONDecodeError as exc:
        raise ConfigError("config: invalid JSON (%s)" % exc)


def cmd_run(args):
    try:
        cfg, stem = _load_config(args.config)
        cfg = _apply_overrides(cfg, args)
        validate_config(cfg)
        outputs = OUTPUTS(cfg.get("outputs", {}), "outputs")
        op = cfg["operation"]
        if op not in REGISTRY:
            raise ConfigError("operation: unknown operation %r" % op)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        result = REGISTRY[op](cfg)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 1
    except (NumericsError, DivergenceError, ValueError, OSError) as exc:
        print("run error: %s" % exc, file=sys.stderr)
        return 1

    report_name = outputs["json"] or "%s_report.json" % stem
    report = {
        "operation": op,
        "verdict": (None if result.verdict is None
                    else ("PASS" if result.verdict else "FAIL")),
        "report": _jsonable(result.report),
    }
    report_path = Path(args.out_dir) / report_name
    written = [str(report_path)]
    try:
        report_path.parent.mkdir(parents=True, exist_ok=True)
        report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        for name, header, rows in result.tables:
            csv_name = outputs["csv"] or name if len(result.tables) == 1 else name
            csv_path = Path(args.out_dir) / csv_name
            csv_path.parent.mkdir(parents=True, exist_ok=True)
            write_csv(csv_path, header, rows)
            written.append(str(csv_path))
    except OSError as exc:
        print("run error: %s" % exc, file=sys.stderr)
        return 1
    status = "PASS" if result.verdict in (None, True) else "FAIL"
    print("%s %s -> %s" % (op, status, ", ".join(written)))
    return 0 if result.verdict in (None, True) else 2


def cmd_list_builtins(args):
    for name in builtin_names():
        cfg = builtin_config(name)
        print("%-24s %s" % (name, cfg["operation"]))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="azarin",
        description="Deterministic experiments for scaling limits of measures "
                    "and kernel-transform asymptotics.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a config file or builtin by name")
    p_run.add_argument("config", help="path to a JSON config or a builtin name")
    p_run.add_argument("--out-dir", default="azarin-out",
                       help="directory for emitted JSON/CSV (default azarin-out)")
    p_run.add_argument("--tol-override", type=float, default=None,
                       help="replace the value of every params key ending in "
                            "'tol' that the config sets (top level of params "
                            "only; eps_cluster is left as it is)")
    p_run.set_defaults(fn=cmd_run)
    p_list = sub.add_parser("list-builtins", help="print the builtin registry")
    p_list.set_defaults(fn=cmd_list_builtins)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
