"""Words over the generator alphabet, evaluation, and the relation checkers.

Composition is functional: in a word the rightmost factor is applied first,
which matches plain left-to-right matrix multiplication of the assigned
matrices.  Words are stored as (symbol, exponent) pairs.
"""

from __future__ import annotations

import re

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


def check_commuting(u, v):
    """T_u T_v = T_v T_u, which holds for disjoint curves."""
    return _equality(
        f"commute({u.name},{v.name})",
        f"T{u.name} T{v.name}", f"T{v.name} T{u.name}",
        u.twist @ v.twist, v.twist @ u.twist,
    )


def check_braid(u, v):
    """T_u T_v T_u = T_v T_u T_v, which holds for curves meeting once."""
    return _equality(
        f"braid({u.name},{v.name})",
        f"T{u.name} T{v.name} T{u.name}", f"T{v.name} T{u.name} T{v.name}",
        u.twist @ v.twist @ u.twist, v.twist @ u.twist @ v.twist,
    )


def check_chain(t, g):
    """(T_1 ... T_t)^{2t+2} = T_d (t even) or (...)^{t+1} = T_d1 T_d2 (t odd).

    Raises ValueError when the t-chain does not fit in genus g.
    """
    config = chain_configuration(t, g)
    q = config.twist_product() ** config.power
    rhs = identity(g)
    for u in config.boundary:
        rhs = rhs @ u.twist
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

    The other disjoint pairs of the lantern are Lickorish curves, whose
    commutations relation_suite checks as commute(...) verdicts.  Raises
    ValueError below genus 3.
    """
    config = lantern_configuration(g)
    lhs, rhs = config.product_sides()
    product_ok = lhs == rhs
    lhs2, rhs2 = config.rewritten_sides()
    rewritten_ok = lhs2 == rhs2
    twist = config.twist
    commute_ok = all(twist(r) @ twist(s) == twist(s) @ twist(r) for r in "abcd" for s in "yz")
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
    numbers = system.table.numbers
    verdicts = []
    curves = system.curves
    for i, u in enumerate(curves):
        for v in curves[i + 1 :]:
            k = numbers.get((u.name, v.name) if u.name <= v.name else (v.name, u.name), 0)
            if k == 0:
                verdicts.append(check_commuting(u, v))
            elif k == 1:
                verdicts.append(check_braid(u, v))
    verdicts += [check_chain(t, g) for t in (2, 3, 4)]
    if g >= 3:
        verdicts.append(check_lantern(g))
    return verdicts
