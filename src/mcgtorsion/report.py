"""Deterministic report emission.

A run produces an envelope {"report": ..., "timings": ...}.  The report
part is byte-stable across identical runs; timings are wall-clock floats
and live outside the comparable portion.  Matrices appear as row-major
integer arrays throughout.  The text report prints each section with the
text function of its entry in theorem.CHECKS, in that order.
"""

from __future__ import annotations

import json

from .theorem import CHECKS


def envelope(report, timings):
    return {"report": report, "timings": {k: round(v, 6) for k, v in timings.items()}}


def emit_json(env):
    return json.dumps(env, sort_keys=True, separators=(",", ":")) + "\n"


def emit_text(env):
    report = env["report"]
    lines = ["mcg-verify report", f"genus: {report['genus']}", f"note: {report['note']}",
             "convention:"]
    lines += (f"  {key}: {value}" for key, value in sorted(report["convention"].items()))
    for name, check in CHECKS.items():
        if name in report["checks"]:
            lines += check.text(report["checks"][name])
    lines.append(f"RESULT: {'PASS' if report['passed'] else 'FAIL'}")
    for name, secs in sorted(env.get("timings", {}).items()):
        lines.append(f"# time {name}: {secs:.3f}s")
    return "\n".join(lines) + "\n"
