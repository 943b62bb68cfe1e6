"""Output checks for mcg-verify reports, computed without the program.

The expected values come from closed forms, not from mcgtorsion:

- the relation suite has one check per pair of the 3g-1 Lickorish curves,
  plus three chain relations and the lantern relation;
- |Sp(2g, p)| = p^(g^2) * prod_{i=1..g} (p^(2i) - 1);
- Sp(2g, 2) acts transitively on the 2^(2g) - 1 nonzero vectors;
- f2 f1 is the order-g handle shift.

`report_problems` returns every disagreement it finds, so an empty list
means the report is accepted.  `negative_control` tampers with a copy of an
accepted report in one field per check and demands that each copy is
rejected, so a checker that accepts everything cannot go unnoticed.
"""

from __future__ import annotations

import copy
import hashlib
import json
from math import comb

SP6_2_ORDER = 1451520


def sp_order(g, p):
    order = p ** (g * g)
    for i in range(1, g + 1):
        order *= p ** (2 * i) - 1
    return order


def relation_count(g):
    return comb(3 * g - 1, 2) + 4


def report_digest(report):
    """Digest of the byte-stable report part, serialized as the program does."""
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _relations(g, sec, problems):
    if sec.get("count") != relation_count(g):
        problems.append(f"relations count {sec.get('count')} != {relation_count(g)}")
    if sec.get("passed") != (not sec.get("failures")):
        problems.append("relations passed disagrees with its failure list")


def _torsion(g, sec, problems):
    if sec.get("f2f1_order") != g:
        problems.append(f"f2f1_order {sec.get('f2f1_order')} != {g}")


def _theorem(g, sec, problems):
    statuses = [sec.get(k, {}).get("status") for k in ("luo", "lantern_assembly", "orbit")]
    if any(s not in ("pass", "fail", "inconclusive") for s in statuses):
        problems.append(f"theorem statuses {statuses} not all pass/fail/inconclusive")
    if sec.get("passed") != all(s == "pass" for s in statuses):
        problems.append("theorem passed disagrees with its sub-verdicts")


def _modp(g, sec, problems):
    p = sec.get("p")
    if p != 2:
        problems.append(f"modp prime {p} != 2")
        return
    if sec.get("expected_order") != sp_order(g, 2):
        problems.append(f"expected_order {sec.get('expected_order')} != {sp_order(g, 2)}")
    if g == 3:
        for key in ("torsion_order", "lickorish_order"):
            if sec.get(key) != SP6_2_ORDER:
                problems.append(f"{key} {sec.get(key)} != {SP6_2_ORDER}")
        if sec.get("same_subgroup") is not True:
            problems.append("same_subgroup is not true at g=3")
    else:
        orbit = sec.get("orbit", {})
        want = 2 ** (2 * g) - 1
        if orbit.get("orbit_size") != want or orbit.get("nonzero_vectors") != want:
            problems.append(f"transitivity orbit {orbit} != {want} nonzero vectors")


CHECKERS = {"relations": _relations, "torsion": _torsion, "theorem": _theorem, "modp": _modp}


def report_problems(g, checks, exit_code, report):
    """Every way a parsed report for genus g disagrees with the expected values."""
    problems = []
    sections = report.get("checks", {})
    if report.get("genus") != g:
        problems.append(f"genus {report.get('genus')} != {g}")
    if sorted(sections) != sorted(checks):
        problems.append(f"checks {sorted(sections)} != {sorted(checks)}")
    if report.get("passed") != all(s.get("passed") is True for s in sections.values()):
        problems.append("report passed disagrees with its sections")
    if (exit_code == 0) != (report.get("passed") is True):
        problems.append(f"exit status {exit_code} with passed={report.get('passed')}")
    for name, sec in sections.items():
        if name in CHECKERS:
            CHECKERS[name](g, sec, problems)
    return problems


def _tamperings(report):
    """(label, mutate) pairs, one per field the checker must guard."""
    yield "passed", lambda r: r.__setitem__("passed", not r["passed"])
    sections = report["checks"]
    if "relations" in sections:
        yield "relations.count", lambda r: r["checks"]["relations"].__setitem__(
            "count", r["checks"]["relations"]["count"] + 1)
    if "torsion" in sections:
        yield "torsion.f2f1_order", lambda r: r["checks"]["torsion"].__setitem__(
            "f2f1_order", r["checks"]["torsion"]["f2f1_order"] + 1)
    if "theorem" in sections:
        yield "theorem.passed", lambda r: r["checks"]["theorem"].__setitem__(
            "passed", not r["checks"]["theorem"]["passed"])
    if "modp" in sections:
        yield "modp.expected_order", lambda r: r["checks"]["modp"].__setitem__(
            "expected_order", r["checks"]["modp"]["expected_order"] + 1)
        if "orbit" in sections["modp"]:
            yield "modp.orbit_size", lambda r: r["checks"]["modp"]["orbit"].__setitem__(
                "orbit_size", r["checks"]["modp"]["orbit"]["orbit_size"] - 1)
        else:
            yield "modp.same_subgroup", lambda r: r["checks"]["modp"].__setitem__(
                "same_subgroup", not r["checks"]["modp"]["same_subgroup"])


def negative_control(g, checks, exit_code, report):
    """(copies tampered, labels of those NOT rejected) for an accepted report."""
    missed = []
    digest = report_digest(report)
    tamperings = list(_tamperings(report))
    for label, mutate in tamperings:
        tampered = copy.deepcopy(report)
        mutate(tampered)
        if report_digest(tampered) == digest or not report_problems(g, checks, exit_code,
                                                                    tampered):
            missed.append(label)
    return len(tamperings), missed
