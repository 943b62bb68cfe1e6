"""Words over the generator alphabet, evaluation, and the relation checkers.

Composition is functional: in a word the rightmost factor is applied first,
which matches plain left-to-right matrix multiplication of the assigned
matrices.  Words are stored as (symbol, exponent) pairs, where a symbol is
a letter or, for a parenthesised group, the group's own word.

Each relation is a pair of words, evaluated by equation over the twist
letters of its own curves, so a failing verdict prints the words it
evaluated.  The commutation and braid relations are decided by the
symplectic pairing of the two classes, with no product, and evaluate
their words only to print a failure.
"""

from __future__ import annotations

import re

from .curves import chain_configuration, lantern_configuration, lickorish_system
from .symplectic import Frozen, identity

_TOKEN_RE = re.compile(r"^(?P<open>\(*)(?P<name>[A-Za-z][A-Za-z0-9]*)(?:\^(?P<exp>-?\d+))?"
                       r"(?P<close>(?:\)(?:\^-?\d+)?)*)$")
_CLOSE_RE = re.compile(r"\)(?:\^(-?\d+))?")


def evaluate(word, assignment):
    """Product of assigned matrices, rightmost letter applied first; a group is a factor."""
    result = None
    for sym, e in word:
        if not isinstance(sym, str):
            m = evaluate(sym, assignment)
        elif sym in assignment:
            m = assignment[sym]
        else:
            raise ValueError(f"unassigned symbol {sym!r}")
        m = m ** e
        result = m if result is None else result @ m
    if result is None:
        genus = next(iter(assignment.values())).genus if assignment else None
        if genus is None:
            raise ValueError("cannot evaluate the empty word without an assignment")
        return identity(genus)
    return result


def parse_word(text, known=None):
    """Parse whitespace-separated tokens like 'Ta1 Tb2^-1 (F3 F1)^2', or '<empty>'.

    A group opens with '(' before a letter and closes with ')', with an
    optional nonzero power, after one; groups nest.  Errors name the token.
    """
    if text.strip() == "<empty>":
        return ()
    stack = [(None, [])]  # (position and token that opened the group, its word)
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
        stack += [((pos, token), []) for _ in m.group("open")]
        stack[-1][1].append((name, exp))
        for power in _CLOSE_RE.findall(m.group("close")):
            power = int(power or 1)
            if len(stack) == 1:
                raise ValueError(f"token {pos}: unmatched ')' in {token!r}")
            if power == 0:
                raise ValueError(f"token {pos}: zero exponent in {token!r}")
            group = tuple(stack.pop()[1])
            stack[-1][1].append((group, power))
    if len(stack) > 1:
        pos, token = stack[-1][0]
        raise ValueError(f"token {pos}: unclosed '(' in {token!r}")
    return tuple(stack[0][1])


def format_word(word):
    """The text that parse_word reads back as word."""
    if not word:
        return "<empty>"
    return " ".join((s if isinstance(s, str) else f"({format_word(s)})")
                    + ("" if e == 1 else f"^{e}") for s, e in word)


def twist_letters(curves):
    """Letter T<name> -> twist matrix, for each curve."""
    return {f"T{u.name}": u.twist for u in curves}


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


def equation(lhs, rhs, letters, always=False):
    """The words lhs and rhs evaluated over letters: (whether they agree, details).

    details holds both words and their matrices when the two differ, or
    when always is set; else it is empty, and no dense row is built.
    """
    left, right = (evaluate(parse_word(w), letters) for w in (lhs, rhs))
    holds = left == right
    if holds and not always:
        return True, {}
    return holds, {"lhs_word": lhs, "rhs_word": rhs,
                   "lhs_matrix": left.to_lists(), "rhs_matrix": right.to_lists()}


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
    _, sides = equation(*words, twist_letters((u, v)), always=True)
    return Verdict(name, "fail", sides)


def check_chain(t, g):
    """(T_1 ... T_t)^{2t+2} = T_d (t even) or (...)^{t+1} = T_d1 T_d2 (t odd).

    Raises ValueError when the t-chain does not fit in genus g.
    """
    config = chain_configuration(t, g)
    chain = " ".join(f"T{u.name}" for u in config.curves)
    holds, sides = equation(f"({chain})^{config.power}",
                            " ".join(f"T{u.name}" for u in config.boundary),
                            twist_letters(config.curves + config.boundary))
    details = {
        "power": config.power,
        "boundary": {u.name: list(u.cls.coords) for u in config.boundary},
        **sides,
    }
    return Verdict(f"chain(t={t},g={g})", "pass" if holds else "fail", details)


def check_lantern(g):
    """Both lantern forms, plus the commutations of y and z with the boundary.

    The commutations are decided by the pairing, as in relation_suite, which
    checks the other disjoint pairs of the lantern, all Lickorish curves, as
    commute(...) verdicts.  Raises ValueError below genus 3.
    """
    roles = lantern_configuration(g).roles
    letters = {f"T{r}": u.twist for r, u in roles.items()}
    product_ok, sides = equation("Ta Tb Tc Td", "Tx Ty Tz", letters)
    rewritten_ok, _ = equation("Td", "(Tx Ta^-1) (Ty Tb^-1) (Tz Tc^-1)", letters)
    commute_ok = all(pairing(roles[r], roles[s]) == 0 for r in "abcd" for s in "yz")
    ok = product_ok and rewritten_ok and commute_ok
    details = {
        "product_form": product_ok,
        "rewritten_form": rewritten_ok,
        "disjoint_commutations": commute_ok,
        **sides,
    }
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
