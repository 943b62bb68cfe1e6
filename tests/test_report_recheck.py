"""Re-check the emitted torsion certificates from the structured report's own bytes.

The report is parsed with `json` alone, and every check below uses plain
dense integer lists: no SympMatrix and no mcgtorsion arithmetic.  This
cross-checks the sparse I + delta engine on the exact artifacts it emits,
and it is the only re-check of the stated curve actions, which the engine
finds once, by matching images against the named classes.
"""

import copy
import json

import pytest

from mcgtorsion import cli

LADDER = (3, 4, 6, 8, 12, 16)


def _structured_report(g, capsys):
    assert cli.main(["--genus", str(g), "--output", "structured"]) == 0
    return json.loads(capsys.readouterr().out)["report"]


def _mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _apply(m, v):
    return [sum(x * y for x, y in zip(row, v)) for row in m]


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _is_symplectic(m, g):
    # (M^T J M)_ij = sum_k M_ki M_{k+g,j} - M_{k+g,i} M_kj, for J = [[0, I], [-I, 0]]
    n = 2 * g
    j_form = [[(i + g == j) - (j + g == i) for j in range(n)] for i in range(n)]
    form = [[sum(m[k][i] * m[k + g][j] - m[k + g][i] * m[k][j] for k in range(g))
             for j in range(n)] for i in range(n)]
    return form == j_form


def _order(m, bound):
    """The least k <= bound with M^k = I, or None."""
    ident = _identity(len(m))
    power = m
    for k in range(1, bound + 1):
        if power == ident:
            return k
        power = _mul(power, m)
    return None


def _problems(report):
    """Every way the report's certificates fail their own claims; empty when they hold."""
    g = report["genus"]
    convention = report["convention"]
    classes = dict(convention["curve_classes"])
    classes.update(convention["lantern_interior"])
    certs = report["checks"]["torsion"]["certificates"]
    problems = []
    matrices = {}
    for cert in certs:
        name, m = cert["name"], cert["matrix"]
        matrices[name] = m
        if not _is_symplectic(m, g):
            problems.append(f"{name}: M^T J M != J")
        if _order(m, cert["order"]) != cert["order"]:
            problems.append(f"{name}: order is not {cert['order']}")
        for u, (v, sign) in cert["curve_action"].items():
            if _apply(m, classes[u]) != [sign * x for x in classes[v]]:
                problems.append(f"{name}: does not send {u} to {sign:+d} {v}")
    f2f1 = _mul(matrices["f2"], matrices["f1"])
    if _order(f2f1, g) != report["checks"]["torsion"]["f2f1_order"]:
        problems.append("F2 F1 does not have the stated order")
    witnesses = report["checks"]["theorem"]["orbit"]["details"]["witnesses"]
    if sorted(witnesses) != sorted(convention["curve_classes"]):
        problems.append("the orbit witnesses do not cover the 3g - 1 curves")
    for u, word in witnesses.items():
        v = classes["a1"]
        for letter in word:
            v = _apply(matrices[letter], v)
        if v not in (classes[u], [-x for x in classes[u]]):
            problems.append(f"the witness for {u} misses it")
    return problems


@pytest.mark.parametrize("g", LADDER)
def test_emitted_certificates_recheck_from_plain_lists(g, capsys):
    report = _structured_report(g, capsys)
    assert report["checks"]["torsion"]["f2f1_order"] == g
    assert len(report["checks"]["theorem"]["orbit"]["details"]["witnesses"]) == 3 * g - 1
    assert _problems(report) == []


@pytest.mark.parametrize("g", (3, 8))
def test_recheck_negative_control_flipped_entry(g, capsys):
    report = _structured_report(g, capsys)
    for index in range(len(report["checks"]["torsion"]["certificates"])):
        tampered = copy.deepcopy(report)
        matrix = tampered["checks"]["torsion"]["certificates"][index]["matrix"]
        matrix[0][0] += 1
        assert _problems(tampered), f"a flipped entry in certificate {index} went unseen"
        tampered = copy.deepcopy(report)
        cert = tampered["checks"]["torsion"]["certificates"][index]
        u, (v, sign) = sorted(cert["curve_action"].items())[0]
        cert["curve_action"][u] = [v, -sign]
        assert _problems(tampered) == [f"{cert['name']}: does not send {u} to {-sign:+d} {v}"]


@pytest.mark.parametrize("g", (3, 8))
def test_recheck_reads_certificates_by_name(g, capsys):
    # the re-check reads f1 and f2 by name, so the listed order is immaterial
    report = _structured_report(g, capsys)
    report["checks"]["torsion"]["certificates"].reverse()
    assert _problems(report) == []
