"""Oracle and determinism gates.

Each gate returns a list of failure messages; an empty list means the
operation passed.  Accuracy is a gate, not a compared metric: a result
inside its tolerance passes however its error moved, a result outside it
is a failed operation.
"""

from __future__ import annotations

import json
import math

# Tolerances, fixed before any run.
EXP_TABLE_RTOL = 1e-8        # Gamma(rho) r**rho; worst seen at the seed commit 7e-10
LOG_TABLE_RTOL = 1e-6        # scipy.integrate.quad Mellin integral; seen 2e-8
SYMBOL_RTOL = 1e-8           # exp-kernel symbol at 0 against Gamma(rho)
ZERO_ABSCISSA_TOL = 1e-6     # as the lattice_kernel_zeros builtin
POTTER_LOG_TOL = 1e-6        # ln potter_factor against the dense-grid supremum
CARLEMAN_REF_TOL = 1e-8      # acceptance criterion 10
CARLEMAN_FLAG_TOL = 0.05


def rel_error(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


def table_failures(label, rs, got, want, rtol):
    """Relative-error gate over a table of values."""
    if len(got) != len(want):
        return ["%s: %d values, expected %d" % (label, len(got), len(want))]
    out = []
    for r, g, w in zip(rs, got, want):
        err = rel_error(complex(g), complex(w))
        if not err <= rtol:
            out.append("%s: r=%.6g relative error %.3g > %.3g" % (label, r, err, rtol))
    return out


def zero_failures(got, expected, tol=ZERO_ABSCISSA_TOL):
    """Every expected zero is found once, within ``tol``, and nothing else."""
    got = sorted(got)
    if len(got) != len(expected):
        return ["zero scan: %d zeros, expected %d" % (len(got), len(expected))]
    return ["zero scan: zero at %.12g, expected %.12g" % (g, e)
            for g, e in zip(got, expected) if not abs(g - e) <= tol]


def same_bytes(label, first, now):
    """Determinism: the bytes of a result equal those of the run's first pass."""
    if first == now:
        return []
    return ["%s: output bytes differ from the first pass" % label]


def potter_failures(report_passed, probes, tol=POTTER_LOG_TOL):
    """``probes``: (t, ln potter_factor, ln dense-grid supremum) triples."""
    out = [] if report_passed else ["potter: bound report failed"]
    for t, got, brute in probes:
        # the refined supremum may exceed the grid value, never undercut it
        if not (brute - tol <= got <= brute + tol):
            out.append("potter: t=%.6g ln factor %.12g vs dense grid %.12g"
                       % (t, got, brute))
    return out


def carleman_failures(ref_error, bound_passed, flags, osc_flags):
    out = []
    if not ref_error <= CARLEMAN_REF_TOL:
        out.append("carleman: i/z reference error %.3g" % ref_error)
    if not bound_passed:
        out.append("carleman: bound report failed")
    if tuple(flags) != (0.0,):
        out.append("carleman: Lebesgue jump flags %r" % (flags,))
    if not osc_flags or any(abs(x - 3.0) > CARLEMAN_FLAG_TOL for x in osc_flags):
        out.append("carleman: oscillating jump flags %r" % (osc_flags,))
    return out


def _report_checks(cfg):
    """(field, predicate description, predicate) triples for a CLI report."""
    op = cfg["operation"]
    p = cfg.get("params", {})
    if op == "tauberian_roundtrip":
        rho = cfg["order"]["rho"]
        return [
            ("ratio_error", "<= ratio_tol", lambda r: r["ratio_error"] <= p["ratio_tol"]),
            ("failed_stage", "empty", lambda r: r["failed_stage"] == ""),
            ("symbol_at_zero", "Gamma(rho)",
             lambda r: rel_error(complex(*r["symbol_at_zero"]),
                                 math.gamma(rho)) <= SYMBOL_RTOL),
        ]
    if op == "limit_set_estimate":
        return [("target_distance", "<= tol_d",
                 lambda r: r["target_distance"] <= p["target"]["tol_d"]),
                ("regular", "true", lambda r: r["regular"] is True)]
    if op == "oscillating_family_check":
        return [("max_family_distance", "<= tol_d",
                 lambda r: r["max_family_distance"] <= p["tol_d"])]
    if op == "periodic_family_check":
        return [("exact_invariance_worst", "<= exact_tol",
                 lambda r: r["exact_invariance_worst"] <= p["exact_tol"]),
                ("family_match_worst", "<= 2 eps_cluster",
                 lambda r: r["family_match_worst"] <= 2.0 * p["eps_cluster"])]
    if op == "sparse_flow_check":
        return [("max_delta_error", "<= delta_tol",
                 lambda r: r["max_delta_error"] <= p["delta_tol"]),
                ("max_gap_pairing", "<= null_tol",
                 lambda r: r["max_gap_pairing"] <= p["null_tol"])]
    if op == "kernel_limit_values":
        return [("match_error", "<= tol", lambda r: r["match_error"] <= p["tol"])]
    if op == "averaged_limit_check":
        return [("coefficient_rel_error", "<= coef_tol",
                 lambda r: r["coefficient_rel_error"] <= p["coef_tol"]),
                ("density_match_error", "<= density_tol",
                 lambda r: r["density_match_error"] <= p["density_tol"]),
                ("averaged_bounded", "true", lambda r: r["averaged_bounded"] is True)]
    if op == "order_diagnostic":
        return [("both_directions_ok", "true", lambda r: r["both_directions_ok"] is True),
                ("slope_vanishes", "true", lambda r: r["slope_vanishes"] is True),
                ("gap_bound_ok", "true", lambda r: r["gap_bound_ok"] is True)]
    raise ValueError("no oracle for operation %r" % op)


def cli_failures(label, cfg, rc, report_bytes):
    """Exit status, verdict and the operation's oracle fields of a CLI run."""
    if rc != 0:
        return ["%s: exit status %d" % (label, rc)]
    try:
        doc = json.loads(report_bytes)
    except (TypeError, ValueError) as exc:
        return ["%s: unreadable report (%s)" % (label, exc)]
    out = []
    if doc.get("verdict") != "PASS":
        out.append("%s: verdict %r" % (label, doc.get("verdict")))
    report = doc.get("report", {})
    for field, want, ok in _report_checks(cfg):
        try:
            good = bool(ok(report))
        except (KeyError, TypeError, ValueError):
            good = False
        if not good:
            out.append("%s: %s = %r, expected %s"
                       % (label, field, report.get(field), want))
    return out
