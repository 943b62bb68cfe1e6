"""Words over the generator alphabet, evaluation, and the relation checkers.

Composition is functional: in a word the rightmost factor is applied first,
which matches plain left-to-right matrix multiplication of the assigned
matrices.  Words are stored as (symbol, exponent) pairs; reduction cancels
adjacent equal symbols and also folds exponents of symbols with a declared
finite order (F1, F2 are involutions, F3 has order 3), so that e.g. F1 F1
reduces to the empty word.
"""

from __future__ import annotations

import re

from .curves import (
    chain_configuration,
    lantern_configuration,
    lickorish_system,
)
from .symplectic import Frozen, identity, transvection

DEFAULT_ORDERS = {"F1": 2, "F2": 2, "F3": 3}

_TOKEN_RE = re.compile(r"^(?P<name>[A-Za-z][A-Za-z0-9]*)(?:\^(?P<exp>-?\d+))?$")


def reduce_word(word, orders=None):
    """Freely reduce, folding exponents of known finite-order symbols."""
    if orders is None:
        orders = DEFAULT_ORDERS

    def fold(sym, e):
        k = orders.get(sym)
        if k is None:
            return e
        e %= k
        if 2 * e > k:
            e -= k
        return e

    out = []
    for sym, e in word:
        if not isinstance(e, int) or e == 0:
            raise ValueError(f"word exponents must be nonzero ints, got {e!r}")
        if out and out[-1][0] == sym:
            merged = fold(sym, out[-1][1] + e)
            out.pop()
            if merged:
                out.append((sym, merged))
        else:
            e = fold(sym, e)
            if e:
                out.append((sym, e))
    return tuple(out)


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
        # status: "pass" | "fail" | "precondition"
        self._set_fields(check=check, status=status, details={} if details is None else details)

    @property
    def passed(self):
        return self.status == "pass"

    def to_dict(self):
        return {"check": self.check, "status": self.status, "details": self.details}


def _verdict(check, ok, details=None):
    return Verdict(check, "pass" if ok else "fail", details or {})


def _fail_details(word_lhs, word_rhs, lhs, rhs):
    return {
        "lhs_word": word_lhs,
        "rhs_word": word_rhs,
        "lhs_matrix": lhs.to_lists(),
        "rhs_matrix": rhs.to_lists(),
    }


def check_commuting(u, v, table):
    """T_u T_v = T_v T_u for curves declared disjoint."""
    name = f"commute({u.name},{v.name})"
    if table.get(u.name, v.name) != 0:
        return Verdict(name, "precondition", {"declared": table.get(u.name, v.name)})
    lhs = u.twist @ v.twist
    rhs = v.twist @ u.twist
    if lhs == rhs:
        return _verdict(name, True)
    return Verdict(
        name, "fail",
        _fail_details(f"T{u.name} T{v.name}", f"T{v.name} T{u.name}", lhs, rhs),
    )


def check_braid(u, v, table):
    """T_u T_v T_u = T_v T_u T_v for curves meeting once."""
    name = f"braid({u.name},{v.name})"
    if table.get(u.name, v.name) != 1:
        return Verdict(name, "precondition", {"declared": table.get(u.name, v.name)})
    lhs = u.twist @ v.twist @ u.twist
    rhs = v.twist @ u.twist @ v.twist
    if lhs == rhs:
        return _verdict(name, True)
    return Verdict(
        name, "fail",
        _fail_details(
            f"T{u.name} T{v.name} T{u.name}", f"T{v.name} T{u.name} T{v.name}", lhs, rhs
        ),
    )


def check_chain(t, g):
    """(T_1 ... T_t)^{2t+2} = T_d (t even) or (...)^{t+1} = T_d1 T_d2 (t odd)."""
    name = f"chain(t={t},g={g})"
    try:
        config = chain_configuration(t, g)
    except (ValueError, RuntimeError) as exc:
        return Verdict(name, "precondition", {"error": str(exc)})
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
    return Verdict(name, "pass" if ok else "fail", details)


def check_lantern(g):
    """Both lantern forms, plus the declared-disjoint commutations it uses."""
    name = f"lantern(g={g})"
    try:
        config = lantern_configuration(g)
    except (ValueError, RuntimeError) as exc:
        return Verdict(name, "precondition", {"error": str(exc)})
    lhs, rhs = config.product_sides()
    product_ok = lhs == rhs
    lhs2, rhs2 = config.rewritten_sides()
    rewritten_ok = lhs2 == rhs2
    commute_ok = True
    boundary = ["a", "b", "c", "d"]
    for i, r1 in enumerate(boundary):
        others = boundary[i + 1 :] + ["x", "y", "z"]
        for r2 in others:
            t1, t2 = config.twist(r1), config.twist(r2)
            if t1 @ t2 != t2 @ t1:
                commute_ok = False
    ok = product_ok and rewritten_ok and commute_ok
    details = {
        "product_form": product_ok,
        "rewritten_form": rewritten_ok,
        "disjoint_commutations": commute_ok,
    }
    if not product_ok:
        details.update(_fail_details("Ta Tb Tc Td", "Tx Ty Tz", lhs, rhs))
    return Verdict(name, "pass" if ok else "fail", details)


def check_conjugacy(f, c):
    """f T_c f^{-1} = T_{f(c)}; a theorem of the representation."""
    name = f"conjugacy({getattr(c, 'name', 'class')})"
    cls = c.cls if hasattr(c, "cls") else c
    lhs = f @ transvection(cls) @ f.inv()
    rhs = transvection(f.apply(cls))
    if lhs == rhs:
        return _verdict(name, True)
    return Verdict(name, "fail", _fail_details("f Tc f^-1", "T_f(c)", lhs, rhs))


def relation_suite(g, chain_lengths=(2, 3, 4)):
    """Every instantiated relation check for one genus, in a fixed order."""
    system = lickorish_system(g)
    table = system.table
    verdicts = []
    curves = system.curves
    for i, u in enumerate(curves):
        for v in curves[i + 1 :]:
            k = table.get(u.name, v.name)
            if k == 0:
                verdicts.append(check_commuting(u, v, table))
            elif k == 1:
                verdicts.append(check_braid(u, v, table))
    for t in chain_lengths:
        if 1 <= t <= 2 * g:
            verdicts.append(check_chain(t, g))
    if g >= 3:
        verdicts.append(check_lantern(g))
    return verdicts
