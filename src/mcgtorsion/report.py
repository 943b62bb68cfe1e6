"""Deterministic report emission.

A run produces an envelope {"report": ..., "timings": ...}.  The report
part is byte-stable across identical runs; timings are wall-clock floats
and live outside the comparable portion.  Matrices appear as row-major
integer arrays throughout.
"""

from __future__ import annotations

import json

from .theorem import CHECK_NAMES


def envelope(report, timings):
    return {"report": report, "timings": {k: round(v, 6) for k, v in timings.items()}}


def emit_json(env):
    return json.dumps(env, sort_keys=True, separators=(",", ":")) + "\n"


def _format_identity(det, lines):
    """The two sides of a failing identity: each side's word, if it has one, and matrix."""
    lines.append(f"    lhs: {det['lhs_word']} = {det.get('lhs_matrix')}")
    rhs_word = f"{det['rhs_word']} = " if "rhs_word" in det else ""
    lines.append(f"    rhs: {rhs_word}{det.get('rhs_matrix')}")


def _format_check(name, section, lines):
    status = "ok" if section.get("passed") else "FAIL"
    if name == "relations":
        lines.append(f"[relations] {status}: {section['count']} checks")
        for failure in section.get("failures", []):
            lines.append(f"  FAIL {failure['check']}")
            det = failure.get("details", {})
            if "lhs_word" in det:
                _format_identity(det, lines)
    elif name == "torsion":
        lines.append(
            f"[torsion] {status}: {section['generator_count']} generators, "
            f"order(f2*f1) = {section['f2f1_order']}"
        )
        if "order_failures" in section:
            lines.append(f"  order not as claimed: {', '.join(section['order_failures'])}")
        for cert in section.get("certificates", []):
            lines.append(f"  {cert['name']}: order {cert['order']}")
            action = ", ".join(
                f"{u} -> {'-' if s < 0 else ''}{v}"
                for u, (v, s) in sorted(cert["curve_action"].items())
            )
            if action:
                lines.append(f"    action: {action}")
    elif name == "theorem":
        lines.append(f"[theorem] {status}")
        for key in ("luo", "lantern_assembly", "orbit"):
            sub = section[key]
            lines.append(f"  {sub['check']}: {sub['status']}")
            det = sub.get("details", {})
            if key == "orbit":
                reached, missing = len(det["witnesses"]), det["missing"]
                lines.append(f"    {reached} of {reached + len(missing)} curves reached "
                             "from a1 by the generator words")
                if missing:
                    lines.append(f"    missing: {', '.join(missing)}")
            if sub["status"] == "fail" and "lhs_word" in det:
                _format_identity(det, lines)
    elif name == "modp":
        lines.append(f"[modp] {status}: p = {section['p']}, mode = {section['mode']}")
        if section["mode"] == "exact-order":
            lines.append(
                f"  expected order {section['expected_order']}, "
                f"torsion image order {section['torsion_order']}, "
                f"twist image order {section['lickorish_order']}, "
                f"same subgroup: {section['same_subgroup']}"
            )
        else:
            lines.append(
                f"  transitive on nonzero vectors: {section.get('transitive')} "
                f"({section['orbit']['orbit_size']} of {section['orbit']['nonzero_vectors']})"
            )


def emit_text(env):
    report = env["report"]
    lines = [
        "mcg-verify report",
        f"genus: {report['genus']}",
        f"note: {report['note']}",
        "convention:",
    ]
    for key, value in sorted(report["convention"].items()):
        lines.append(f"  {key}: {value}")
    for name in CHECK_NAMES:
        if name in report["checks"]:
            _format_check(name, report["checks"][name], lines)
    lines.append(f"RESULT: {'PASS' if report['passed'] else 'FAIL'}")
    for name, secs in sorted(env.get("timings", {}).items()):
        lines.append(f"# time {name}: {secs:.3f}s")
    return "\n".join(lines) + "\n"
