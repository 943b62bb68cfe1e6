"""Words over the generator alphabet, evaluation, and the relation checkers.

Composition is functional: in a word the rightmost factor is applied first,
which matches plain left-to-right matrix multiplication of the assigned
matrices.  Words are stored as (symbol, exponent) pairs.

The commutation and braid relations of twists are decided by the
symplectic pairing of the two classes, with no product; the chain and
lantern relations by their products, which check_chain and check_lantern
form from the curves curves.py builds.
"""

from __future__ import annotations

import re
from functools import reduce
from operator import matmul

from .curves import (
    chain_configuration,
    lantern_configuration,
    lickorish_system,
)
from .symplectic import Frozen, identity

_TOKEN_RE = re.compile(r"^(?P<name>[A-Za-z][A-Za-z0-9]*)(?:\^(?P<exp>-?\d+))?$")


def evaluate(word, assignment):
    """Product of assigned matrices, rightmost letter applied first."""
    result = None
    for sym, e in word:
        if sym not in assignment:
            raise ValueError(f"unassigned symbol {sym!r}")
        m = assignment[sym] ** e
        result = m if result is None else result @ m
    if result is None:
        genus = next(iter(assignment.values())).genus if assignment else None
        if genus is None:
            raise ValueError("cannot evaluate the empty word without an assignment")
        return identity(genus)
    return result


def parse_word(text, known=None):
    """Parse whitespace-separated tokens like 'Ta1 Tb2^-1 F3^2', or '<empty>'."""
    if text.strip() == "<empty>":
        return ()
    word = []
    for pos, token in enumerate(text.split(), start=1):
        m = _TOKEN_RE.match(token)
        if m is None:
            raise ValueError(f"token {pos}: cannot parse {token!r}")
        name = m.group("name")
        exp = int(m.group("exp") or 1)
        if exp == 0:
            raise ValueError(f"token {pos}: zero exponent in {token!r}")
        if known is not None and name not in known:
            raise ValueError(f"token {pos}: unknown generator {token!r}")
        word.append((name, exp))
    return tuple(word)


def format_word(word):
    if not word:
        return "<empty>"
    return " ".join(s if e == 1 else f"{s}^{e}" for s, e in word)


def twist_assignment(g):
    """Symbol table Ta_i / Tb_i / Tc_i -> transvection matrices."""
    system = lickorish_system(g)
    return {f"T{u.name}": u.twist for u in system.curves}


class Verdict(Frozen):
    """Outcome of one relation check."""

    def __init__(self, check, status, details=None):
        # status: "pass" | "fail"; written to __dict__, past Frozen.__setattr__
        fields = self.__dict__
        fields["check"] = check
        fields["status"] = status
        fields["details"] = {} if details is None else details

    @property
    def passed(self):
        return self.status == "pass"

    def to_dict(self):
        return {"check": self.check, "status": self.status, "details": self.details}


def _fail_details(word_lhs, word_rhs, lhs, rhs):
    return {
        "lhs_word": word_lhs,
        "rhs_word": word_rhs,
        "lhs_matrix": lhs.to_lists(),
        "rhs_matrix": rhs.to_lists(),
    }


def _equality(name, word_lhs, word_rhs, lhs, rhs):
    """Pass when lhs == rhs, else fail with both words and matrices."""
    if lhs == rhs:
        return Verdict(name, "pass")
    return Verdict(name, "fail", _fail_details(word_lhs, word_rhs, lhs, rhs))


def pairing(u, v):
    """<u, v> = u^T J v of two curves' classes, summed over the nonzero coordinates of u."""
    g = u.cls.genus
    c = v.cls.coords
    return sum(x * c[i + g] if i < g else -x * c[i - g] for i, x in u.support)


def _pair_verdict(u, v, meet):
    """braid(u,v) for curves that meet once, else commute(u,v), decided by <u, v>.

    T_u T_v - T_v T_u = <v, u>(<., v> u + <., u> v), so the twists commute
    exactly when <u, v> = 0; for independent classes the braid relation
    holds exactly when |<u, v>| = 1, and |<u, v>| = 1 makes them independent.
    When the pairing does not fit, the verdict fails with both sides as words
    and matrices, even where the products agree (parallel classes declared
    to meet).
    """
    relation, lhs = ("braid", (u, v, u)) if meet else ("commute", (u, v))
    name = f"{relation}({u.name},{v.name})"
    if abs(pairing(u, v)) == (1 if meet else 0):
        return Verdict(name, "pass")
    rhs = tuple(v if c is u else u for c in lhs)
    words = (" ".join(f"T{c.name}" for c in side) for side in (lhs, rhs))
    matrices = (reduce(matmul, (c.twist for c in side)) for side in (lhs, rhs))
    return Verdict(name, "fail", _fail_details(*words, *matrices))


def check_chain(t, g):
    """(T_1 ... T_t)^{2t+2} = T_d (t even) or (...)^{t+1} = T_d1 T_d2 (t odd).

    Raises ValueError when the t-chain does not fit in genus g.
    """
    config = chain_configuration(t, g)
    q = reduce(matmul, (u.twist for u in config.curves)) ** config.power
    rhs = reduce(matmul, (u.twist for u in config.boundary))
    chain_word = " ".join(f"T{u.name}" for u in config.curves)
    ok = q == rhs
    details = {
        "power": config.power,
        "boundary": {u.name: list(u.cls.coords) for u in config.boundary},
    }
    if not ok:
        details.update(
            _fail_details(f"({chain_word})^{config.power}",
                          " ".join(f"T{u.name}" for u in config.boundary) or "1",
                          q, rhs)
        )
    return Verdict(f"chain(t={t},g={g})", "pass" if ok else "fail", details)


def check_lantern(g):
    """Both lantern forms, plus the commutations of y and z with the boundary.

    The commutations are decided by the pairing, as in relation_suite, which
    checks the other disjoint pairs of the lantern, all Lickorish curves, as
    commute(...) verdicts.  Raises ValueError below genus 3.
    """
    config = lantern_configuration(g)
    roles = config.roles
    ta, tb, tc, td, tx, ty, tz = (roles[r].twist for r in "abcdxyz")
    lhs = ta @ tb @ tc @ td
    rhs = tx @ ty @ tz
    product_ok = lhs == rhs
    rewritten_ok = td == (tx @ ta.inv()) @ (ty @ tb.inv()) @ (tz @ tc.inv())
    commute_ok = all(pairing(roles[r], roles[s]) == 0 for r in "abcd" for s in "yz")
    ok = product_ok and rewritten_ok and commute_ok
    details = {
        "product_form": product_ok,
        "rewritten_form": rewritten_ok,
        "disjoint_commutations": commute_ok,
    }
    if not product_ok:
        details.update(_fail_details("Ta Tb Tc Td", "Tx Ty Tz", lhs, rhs))
    return Verdict(f"lantern(g={g})", "pass" if ok else "fail", details)


def relation_suite(g):
    """Every instantiated relation check for one genus, in a fixed order."""
    system = lickorish_system(g)
    meeting = system.meeting
    verdicts = []
    curves = system.curves
    for i, u in enumerate(curves):
        for v in curves[i + 1 :]:
            pair = (u.name, v.name) if u.name <= v.name else (v.name, u.name)
            verdicts.append(_pair_verdict(u, v, pair in meeting))
    verdicts += [check_chain(t, g) for t in (2, 3, 4)]
    if g >= 3:
        verdicts.append(check_lantern(g))
    return verdicts
