"""Negative controls: one table of tamperings, each with what it must make fail.

A passing report proves the paper's identities only if each of its
verdicts can fail.  A row tampers with one thing: it swaps a listed
generator (conftest.swap_generator), patches a module constant, or wraps a
builder.  At each of its genera, full_theorem_report must then fail exactly
the row's verdicts, each named section:check, or raise the row's
RuntimeError from a build check.  A row may also state detail values of
the verdicts it fails, and one that states a verdict's lhs_word states
them all.  test_printed_words_replay evaluates each word a failed verdict
prints, over the letters that verdict reads, against the matrix printed
beside it.  The meta-tests fail when a verdict kind of a passing report,
or a `raise RuntimeError` in src/mcgtorsion, has no row.
"""

import ast
import re
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from conftest import drop_generator, swap_boundary, swap_class, swap_generator
from mcgtorsion import curves, theorem, torsion, words
from mcgtorsion.chain import StabilizerChain
from mcgtorsion.curves import LickorishSystem, _pad, lickorish_system
from mcgtorsion.symplectic import SympMatrix, alpha, identity
from mcgtorsion.theorem import full_theorem_report, lickorish_words
from mcgtorsion.torsion import build_f1, build_f2, conjugated_involution
from mcgtorsion.words import evaluate, parse_word, relation_suite, twist_letters


class Row(NamedTuple):
    id: str
    genera: tuple
    tamper: Callable  # (monkeypatch, g) -> None
    fails: tuple = ()  # the failed verdicts, formatted with g
    raises: str = ""  # or the build's RuntimeError message, formatted with g
    run: dict = {}  # keywords of full_theorem_report besides g
    details: dict = {}  # failed verdict -> {detail key: value, or a function of g}


def swap(name, **fields):
    """Swap the listed generator name; a callable field value is called with g."""
    return lambda mp, g: swap_generator(
        mp, g, name, **{k: v(g) if callable(v) else v for k, v in fields.items()})


def patch(target, name, value):
    """Set an attribute of a module or class, or an item of a dict."""
    if isinstance(target, dict):
        return lambda mp, g: mp.setitem(target, name, value)
    return lambda mp, g: mp.setattr(target, name, value)


def wrap(target, name, wrapper):
    """Replace target.name by lambda *args: wrapper(real, *args)."""
    def tamper(mp, g):
        real = getattr(target, name)
        mp.setattr(target, name, lambda *args: wrapper(real, *args))
    return tamper


def without(name):
    """List the built set without the named generator."""
    return lambda mp, g: drop_generator(mp, g, name)


def _without_c_twists(mp, g):
    """Give the mod-p certificate the twists of the a_i and b_i alone, which only
    generate SL(2)^g; the theorem verdicts read c_1 from the same system."""
    system = lickorish_system(g)
    kept = tuple(u for u in system.curves if not u.name.startswith("c"))
    wrong = LickorishSystem(g, kept, system.meeting, system.c_signs)
    mp.setattr(theorem, "lickorish_system", lambda _g: wrong)


def _f2_signed_plus(mp, g):
    build_f1(g)  # built, and cached, with the stated sign
    mp.setattr(torsion, "PI_ROTATION_SIGN", 1)


def _flip_c(i):
    """c_i = alpha_i - alpha_{i+1}, through the one builder of the curve system."""
    return wrap(curves, "_build_system",
                lambda real, g, signs: real(g, signs[:i - 1] + ((1, -1),) + signs[i:]))


def _f3_without_handle_g(real, g):
    """f3 with the moved rows of handle g dropped, so it fixes that handle."""
    rows = real(g).delta
    return SympMatrix.from_rows({i: r for i, r in rows.items() if i not in (g - 1, 2 * g - 1)}, g)


def _flip_handles_2_3(g):
    """diag(1, -1, -1 | 1, -1, -1) on handles 1..3."""
    return SympMatrix.from_rows({i: {i: -1} for i in (1, 2, g + 1, g + 2)}, g)


def _f4(g):
    return conjugated_involution(g).matrix.to_lists()


def letters(verdict, g):
    """The letters that the words of a verdict, section:check, are evaluated over.

    Each is read as the verdict reads it, so under a row's tampering it is
    the tampered one: the theorem verdicts read theorem.alphabet, and the
    relations the twists of their own curves, taken from module words.
    """
    section, check = verdict.split(":", 1)
    if section == "theorem":
        return theorem.alphabet(g)
    if check.startswith("lantern"):
        return {f"T{r}": u.twist for r, u in words.lantern_configuration(g).roles.items()}
    if check.startswith("chain"):
        config = words.chain_configuration(int(re.match(r"chain\(t=(\d+)", check)[1]), g)
        return twist_letters(config.curves + config.boundary)
    return twist_letters(words.lickorish_system(g).curves)


def _word(text, verdict="theorem:"):
    """A function of g: the word text over the letters of verdict, as lists."""
    return lambda g: evaluate(parse_word(text), letters(verdict, g)).to_lists()


ROWS = [
    # relations: a class that misses a declared intersection, or meets a declared-disjoint curve
    Row("c1-is-a1+a3", (4,), lambda mp, g: swap_class(mp, g, "c1", _pad((1, 0, 1), g)),
        ("relations:braid(b2,c1)", "relations:commute(b3,c1)"),
        details={"relations:braid(b2,c1)": {
                     "lhs_word": "Tb2 Tc1 Tb2", "rhs_word": "Tc1 Tb2 Tc1",
                     "lhs_matrix": _word("Tb2 Tc1 Tb2", "relations:braid"),
                     "rhs_matrix": _word("Tc1 Tb2 Tc1", "relations:braid")},
                 "relations:commute(b3,c1)": {
                     "lhs_word": "Tb3 Tc1", "rhs_word": "Tc1 Tb3",
                     "lhs_matrix": _word("Tb3 Tc1", "relations:commute"),
                     "rhs_matrix": _word("Tc1 Tb3", "relations:commute")}}),
    # with [b1] = [a1] the braid products agree, but curves declared to meet
    # once cannot have parallel classes
    Row("b1-is-a1", (3,), lambda mp, g: swap_class(mp, g, "b1", alpha(1, g).coords),
        ("relations:braid(a1,b1)", "relations:braid(b1,c1)"),
        details={"relations:braid(a1,b1)": {"lhs_matrix": _word("Ta1^3"),
                                            "rhs_matrix": _word("Ta1^3")}}),
    Row("chain3-bounds-a1", (3, 4), lambda mp, g: swap_boundary(mp, 3, alpha(1, g)),
        ("relations:chain(t=3,g={g})",),
        details={"relations:chain(t=3,g={g})": {
            "power": 4, "lhs_word": "(Ta1 Tb1 Tc1)^4", "rhs_word": "Td1 Td2",
            "lhs_matrix": _word("(Ta1 Tb1 Tc1)^4"), "rhs_matrix": _word("Ta1^2"),
            "boundary": lambda g: {"d1": list(alpha(1, g).coords),
                                   "d2": list((-alpha(1, g)).coords)}}}),
    Row("lantern-y-is-a1+a3-relations", (3, 4), patch(curves.LANTERN_INTERIOR, "y", (1, 0, 1)),
        ("relations:lantern(g={g})",), run={"checks": {"relations"}},
        details={"relations:lantern(g={g})": {
            "product_form": False, "rewritten_form": False, "disjoint_commutations": True,
            "lhs_word": "Ta Tb Tc Td", "rhs_word": "Tx Ty Tz",
            "lhs_matrix": _word("Ta1 Tc2 Ta3 Tc1", "relations:commute"),
            "rhs_matrix": _word("Tx Ty Tz", "relations:lantern")}}),
    # torsion: a false claimed order, and f2 f1 that is not the handle shift
    *(Row(f"order-of-{name.replace(' ', '')}-claimed-{order}", genera,
          swap(name, claimed_order=order), (f"torsion:order({name})",))
      for name, order, genera in (("f1", 4, (3, 4)), ("f2", 4, (3, 4)),
                                  ("Ta1 f2 Ta1^-1", 4, (3, 4)), ("f3", 2, (3, 4)),
                                  ("sigma^-1 f1 sigma", 4, (3,)))),
    Row("f2-is-f1", (4,), swap("f2", matrix=lambda g: build_f1(g).matrix),
        ("torsion:f2f1_order", "theorem:luo", "theorem:orbit"),
        details={"torsion:f2f1_order": {"f2f1_order": 1}}),
    Row("order6-handle-block", (4,), patch(torsion, "ORDER3_BLOCK", ((0, -1), (1, 1))),
        ("torsion:order(f3)",), details={"torsion:order(f3)": {"order_failures": ["f3"]}}),
    # theorem: the Luo decomposition, the lantern assembly and the orbit words
    Row("f2-is-I", (3, 4), swap("f2", matrix=identity),
        ("torsion:order(f2)", "torsion:f2f1_order", "theorem:luo", "theorem:orbit"),
        details={"theorem:luo": {"equal": False, "conjugate_is_involution": True,
                                 "lhs_word": "Ta2 Ta1^-1", "lhs_matrix": _word("Ta2 Ta1^-1"),
                                 "middle_matrix": _f4, "rhs_matrix": _f4}}),
    Row("F4-is-f2", (3, 4, 8), swap("Ta1 f2 Ta1^-1", matrix=lambda g: build_f2(g).matrix),
        ("theorem:luo",),
        details={"theorem:luo": {"equal": False, "conjugate_is_involution": True}}),
    Row("f3-is-I", (3, 4, 5), swap("f3", matrix=identity),
        ("torsion:order(f3)", "theorem:lantern_assembly", "theorem:orbit"),
        details={"theorem:lantern_assembly": {
                     "lhs_word": "Tc1", "lhs_matrix": _word("Tc1"),
                     "rhs_word": "(Ta2 Ta1^-1) (F3 Ta2 Ta1^-1 F3^-1) (F3^2 Ta2 Ta1^-1 F3^-2)",
                     "rhs_matrix": _word("(Ta2 Ta1^-1)^3")},
                 # every curve whose word passes through f3 is missed, each other one reached
                 "theorem:orbit": {
                     "missing": lambda g: sorted(u for u, w in lickorish_words(g).items()
                                                 if "f3" in w),
                     "witnesses": lambda g: {u: list(w) for u, w in lickorish_words(g).items()
                                             if "f3" not in w}}}),
    Row("f2-shifts-by-3", (4, 5, 7),
        swap("f2", matrix=lambda g: torsion._signed_perm(g, lambda i: 3 - i, -1)),
        ("theorem:luo", "theorem:orbit")),
    Row("c3-is-a3-a4", (4, 5), _flip_c(3), ("theorem:orbit",),
        details={"theorem:orbit": {"missing": ["c3"]}}),
    # modp: each mode's keys
    Row("no-f3-exact-order", (3,), without("f3"), ("modp:torsion_order", "modp:same_subgroup"),
        run={"prime": 2, "checks": {"modp"}},
        details={"modp:torsion_order": {
            "mode": "exact-order", "torsion_order": 648,
            "generators": ["f1", "f2", "Ta1 f2 Ta1^-1", "sigma^-1 f1 sigma"]}}),
    Row("no-c-twists", (3,), _without_c_twists, ("modp:lickorish_order", "modp:same_subgroup"),
        run={"prime": 2, "checks": {"modp"}}),
    Row("no-f3-mod2", (4, 6, 8), without("f3"), ("modp:transitive",),
        run={"prime": 2, "checks": {"modp"}},
        details={"modp:transitive": {"orbit": lambda g: {
            "orbit_size": g, "nonzero_vectors": 2 ** (2 * g) - 1}}}),
    # mod 3 the a_i keep their signs apart: 2g vectors at g >= 4; at g = 3,
    # where sigma^-1 f1 sigma joins, the nonzero vectors of each handle, 3 x 8
    Row("no-f3-mod3", (3, 4, 5), without("f3"), ("modp:transitive",),
        run={"prime": 3, "checks": {"modp"}},
        details={"modp:transitive": {"orbit": lambda g: {
            "orbit_size": 24 if g == 3 else 2 * g, "nonzero_vectors": 3 ** (2 * g) - 1}}}),
    # build checks: each raise RuntimeError
    Row("lantern-c-oriented-plus", (3, 4), patch(curves.LANTERN_ORIENTATIONS, "c", 1),
        raises="the oriented lantern boundary is not null-homologous at genus {g}"),
    Row("c2-is-a2-a3", (3, 4), _flip_c(2),
        raises="the oriented lantern boundary is not null-homologous at genus {g}"),
    Row("sift-to-f1", (3,), patch(StabilizerChain, "sift", lambda self, mat: (0,)),
        raises="membership witness does not replay mod p",
        run={"prime": 2, "with_witnesses": True}),
    Row("pi-rotations-signed-plus", (3, 4, 5, 8), patch(torsion, "PI_ROTATION_SIGN", 1),
        raises="f1 does not act by -I on fixed handle 1 at genus {g}"),
    *(Row("f2-signed-plus", (g,), _f2_signed_plus,
          raises=f"f2 does not act by -I on fixed handle {(g + 3) // 2} at genus {g}")
      for g in (3, 5, 7)),
    Row("f3-squared", (3, 4, 6), wrap(torsion, "_assemble_f3", lambda real, g: real(g) @ real(g)),
        raises="f3 does not cycle a1 -> c2 -> a3 -> a1"),
    Row("f3-negates-handles-2-3", (3, 4, 5),
        wrap(torsion, "_assemble_f3", lambda real, g: real(g) @ _flip_handles_2_3(g)),
        raises="f3 does not fix c1 up to sign"),
    Row("lantern-y-is-a1+a3", (3, 4), patch(curves.LANTERN_INTERIOR, "y", (1, 0, 1)),
        raises="f3 does not cycle the lantern interior curves"),
    Row("handle-block-squared", (4, 5, 8),
        patch(torsion, "ORDER3_BLOCK", ((-1, 1), (-1, 0))),
        raises="f3 does not send a4 to a longitude"),
    # ORDER3_BLOCK is shared by every handle >= 4, so only this row breaks the last one alone
    Row("f3-fixes-handle-g", (5, 8), wrap(torsion, "_assemble_f3", _f3_without_handle_g),
        raises="f3 does not send a{g} to a longitude"),
    Row("sigma-is-f1", (3,), patch(torsion, "sigma_matrix", lambda: build_f1(3).matrix),
        raises="sigma moves a1"),
    Row("sigma-is-I", (3,), patch(torsion, "sigma_matrix", lambda: identity(3)),
        raises="tau does not send a3 to a longitude class"),
]

# report keys that hold data; every other key of a section is one verdict
DATA = {
    "relations": {"passed", "count", "failures"},
    "torsion": {"passed", "generator_count", "certificates", "order_failures"},
    "theorem": {"passed"},
    "modp": {"passed", "p", "mode", "expected_order", "generators", "note", "orbit",
             "membership_witnesses"},
}


def verdicts(report):
    """section:check -> passed for each verdict of the report; a relation only when it fails."""
    out = {}
    for section, body in report["checks"].items():
        for key, value in body.items():
            if key in DATA[section]:
                continue
            if key == "f2f1_order":
                value = value == report["genus"]
            elif key in ("torsion_order", "lickorish_order"):
                value = value == body["expected_order"]
            elif isinstance(value, dict):
                value = value["status"] == "pass"
            assert isinstance(value, bool), f"{section}:{key} is neither data nor a verdict"
            out[f"{section}:{key}"] = value
    checks = report["checks"]
    if "relations" in checks:
        out.update((f"relations:{f['check']}", False) for f in checks["relations"]["failures"])
    if "torsion" in checks:
        failures = checks["torsion"].get("order_failures", [])
        out.update((f"torsion:order({c['name']})", c["name"] not in failures)
                   for c in checks["torsion"]["certificates"])
    return out


def details(report, verdict):
    """The details a failed verdict reports; a torsion or modp verdict's are its section."""
    section, check = verdict.split(":", 1)
    body = report["checks"][section]
    if section == "relations":
        (failure,) = [f for f in body["failures"] if f["check"] == check]
        return failure["details"]
    return body[check]["details"] if section == "theorem" else body


@pytest.mark.parametrize("row, g", [pytest.param(row, g, id=f"{row.id}-g{g}")
                                    for row in ROWS for g in row.genera])
def test_control(row, g, monkeypatch, clear_caches):
    row.tamper(monkeypatch, g)
    if row.raises:
        with pytest.raises(RuntimeError) as exc:
            full_theorem_report(g, **row.run)
        assert str(exc.value) == row.raises.format(g=g)
        return
    report, _ = full_theorem_report(g, **row.run)
    failed = {v for v, ok in verdicts(report).items() if not ok}
    assert failed == {v.format(g=g) for v in row.fails}
    assert report["passed"] is False
    assert {s for s, body in report["checks"].items() if not body["passed"]} == {
        v.split(":")[0] for v in failed}
    for verdict, want in row.details.items():
        got = details(report, verdict.format(g=g))
        # a row that states a verdict's words states every detail of it
        assert {k: got[k] for k in (got if "lhs_word" in want else want)} == {
            k: v(g) if callable(v) else v for k, v in want.items()}


@pytest.mark.parametrize("row, g", [pytest.param(row, g, id=f"{row.id}-g{g}")
                                    for row in ROWS if not row.raises for g in row.genera])
def test_printed_words_replay(row, g, monkeypatch, clear_caches):
    # each word a failed verdict prints parses, and over the letters that
    # verdict reads it gives the matrix printed beside it
    row.tamper(monkeypatch, g)
    report, _ = full_theorem_report(g, **row.run)
    for verdict in (v for v, ok in verdicts(report).items() if not ok):
        got = details(report, verdict)
        for side in ("lhs", "rhs"):
            if f"{side}_word" in got:
                word = parse_word(got[f"{side}_word"])
                assert evaluate(word, letters(verdict, g)).to_lists() == got[f"{side}_matrix"]


def kind(verdict):
    """A relation's name without its curves; any other verdict is its own kind."""
    return verdict.split("(")[0] if verdict.startswith("relations:") else verdict


@pytest.mark.parametrize("g, prime", [(3, 2), (4, 2), (4, None)])
def test_every_verdict_kind_has_a_row(g, prime):
    report, _ = full_theorem_report(g, prime=prime)
    assert report["passed"] and all(verdicts(report).values())
    kinds = {kind(v) for v in verdicts(report)}
    kinds |= {kind(f"relations:{v.check}") for v in relation_suite(g)}
    assert not kinds - {kind(v) for row in ROWS for v in row.fails}


def build_checks():
    """A pattern for each `raise RuntimeError(...)` in src/mcgtorsion; f-string fields match .+"""
    for path in sorted(Path(theorem.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and getattr(node.exc.func, "id", None) == "RuntimeError"):
                (message,) = node.exc.args
                parts = message.values if isinstance(message, ast.JoinedStr) else [message]
                yield "".join(re.escape(p.value) if isinstance(p, ast.Constant) else ".+"
                              for p in parts)


def test_every_build_check_has_a_row():
    patterns = list(build_checks())
    assert patterns
    messages = {row.raises.format(g=g) for row in ROWS if row.raises for g in row.genera}
    assert [p for p in patterns if not any(re.fullmatch(p, m) for m in messages)] == []
