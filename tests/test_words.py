import random
import sys
from collections import Counter
from math import comb

import pytest

from conftest import check_braid, check_commuting, check_conjugacy, swap_boundary, swap_class
from mcgtorsion import cli, curves, symplectic, words
from mcgtorsion.curves import (
    LanternConfig,
    NamedCurve,
    chain_configuration,
    lantern_configuration,
    lickorish_system,
)
from mcgtorsion.symplectic import HomologyClass, alpha, beta, identity, transvection
from mcgtorsion.theorem import alphabet
from mcgtorsion.torsion import build_f2, sigma_matrix, theorem_generators
from mcgtorsion.words import (
    check_chain,
    check_lantern,
    evaluate,
    format_word,
    parse_word,
    relation_suite,
)


def test_evaluate_empty_word_is_identity():
    assignment = alphabet(2)
    assert evaluate((), assignment) == identity(2)


def test_evaluate_unassigned_symbol():
    with pytest.raises(ValueError):
        evaluate((("F9", 1),), alphabet(2))


def test_evaluate_is_right_to_left():
    # Ta1 Tb1 means Tb1 applied first: matrix product in word order
    assignment = alphabet(2)
    word = (("Ta1", 1), ("Tb1", 1))
    assert evaluate(word, assignment) == assignment["Ta1"] @ assignment["Tb1"]


def test_evaluate_groups_as_their_expansion():
    letters = alphabet(3)
    for grouped, flat in (("(Ta1 Tb1^-1)^-2 Tc1", "Tb1 Ta1^-1 Tb1 Ta1^-1 Tc1"),
                          ("(F2 (F4 F3)^2)^2", "F2 F4 F3 F4 F3 F2 F4 F3 F4 F3"),
                          ("(Ta2)", "Ta2")):
        assert evaluate(parse_word(grouped), letters) == evaluate(parse_word(flat), letters)


def test_evaluate_homomorphism_on_random_words():
    rng = random.Random(99)
    for g in (2, 3):
        assignment = alphabet(g)
        symbols = sorted(assignment)
        for _ in range(50):
            u = tuple((rng.choice(symbols), rng.randint(-3, 3) or 1)
                      for _ in range(rng.randint(0, 6)))
            v = tuple((rng.choice(symbols), rng.randint(-3, 3) or 1)
                      for _ in range(rng.randint(0, 6)))
            uv = evaluate(u, assignment) @ evaluate(v, assignment)
            assert evaluate(u + v, assignment) == uv


def test_order_g_product_via_words():
    from mcgtorsion.symplectic import element_order

    for g in (3, 4, 5):
        gens = {c.name: c.matrix for c in theorem_generators(g)}
        assignment = {"F1": gens["f1"], "F2": gens["f2"]}
        m = evaluate((("F2", 1), ("F1", 1)), assignment)
        assert element_order(m, 2 * g) == g


def test_conjugated_involution_via_words():
    g = 4
    assignment = alphabet(g)
    m = evaluate(parse_word("Ta1 F2 Ta1^-1", known=set(assignment)), assignment)
    assert (m @ m).is_identity
    assert not m.is_identity
    assert m == assignment["F4"]


@pytest.mark.parametrize("g", (2, 3, 4, 8))
def test_alphabet_letters(g):
    # the twists of every Lickorish curve; the listed generators from genus 3,
    # with tau and sigma at genus 3 alone
    letters = alphabet(g)
    twists = {f"T{u.name}": u.twist for u in lickorish_system(g).curves}
    assert {k: letters[k] for k in twists} == twists
    extra = set(letters) - set(twists)
    gens = {c.name: c.matrix for c in theorem_generators(g)} if g >= 3 else {}
    want = {"F1": "f1", "F2": "f2", "F3": "f3", "F4": "Ta1 f2 Ta1^-1"} if g >= 3 else {}
    if g == 3:
        want["Tau"] = "sigma^-1 f1 sigma"
        assert letters["Sigma"] == sigma_matrix()
        extra.discard("Sigma")
    assert extra == set(want)
    assert all(letters[k] == gens[name] for k, name in want.items())


def test_parse_word_tokens():
    assert parse_word("Ta1 Tb2^-1 F3^2") == (("Ta1", 1), ("Tb2", -1), ("F3", 2))


def test_parse_word_rejects_unknown_with_position():
    with pytest.raises(ValueError, match="token 2"):
        parse_word("Ta1 Junk!", known={"Ta1"})
    with pytest.raises(ValueError, match="token 1"):
        parse_word("Nope", known={"Ta1"})


def test_parse_word_rejects_zero_exponent():
    with pytest.raises(ValueError, match="zero exponent"):
        parse_word("Ta1^0")


def test_parse_word_groups():
    # a group is stored as (its word, its power); groups nest
    a, b, c = ("Ta1", 1), ("Tb1", -1), ("Tc1", 2)
    assert parse_word("(Ta1 Tb1^-1)^3 Tc1^2") == (((a, b), 3), c)
    assert parse_word("((Ta1)^-2 Tb1^-1) Tc1^2") == (((((a,), -2), b), 1), c)
    assert parse_word("(Ta1 (Tb1^-1 Tc1^2)^2)^-1") == (((a, ((b, c), 2)), -1),)
    assert parse_word("((Ta1))") == (((((a,), 1),), 1),)


@pytest.mark.parametrize("text, message", [
    # ungrouped tokens: the messages the CLI has always printed
    ("Ta1 Junk!", "token 2: cannot parse 'Junk!'"),
    ("Ta1^0", "token 1: zero exponent in 'Ta1^0'"),
    ("Ta1 Nope^2", "token 2: unknown generator 'Nope^2'"),
    # groups
    ("Ta1 Tb1)", "token 2: unmatched ')' in 'Tb1)'"),
    ("(Ta1 Tb1)^2)", "token 2: unmatched ')' in 'Tb1)^2)'"),
    ("Ta1 (Tb1 (Ta1 Tb1)^2", "token 2: unclosed '(' in '(Tb1'"),
    ("(Ta1 Tb1)^0", "token 2: zero exponent in 'Tb1)^0'"),
    ("( Ta1 )", "token 1: cannot parse '('"),
])
def test_parse_word_errors_name_the_token(text, message):
    with pytest.raises(ValueError) as exc:
        parse_word(text, known={"Ta1", "Tb1"})
    assert str(exc.value) == message


def test_format_word_round_trip():
    word = (("Ta1", 1), ("Tb2", -1), ("F3", 2))
    assert parse_word(format_word(word)) == word
    assert format_word(((word, 3), ("Tc1", 1))) == "(Ta1 Tb2^-1 F3^2)^3 Tc1"
    assert format_word(()) == "<empty>"
    assert parse_word(format_word(())) == ()


def _oracle_statuses(system):
    """The pairwise verdicts of relation_suite, decided by twist products."""
    out = []
    curves = system.curves
    for i, u in enumerate(curves):
        for v in curves[i + 1 :]:
            meet = tuple(sorted((u.name, v.name))) in system.meeting
            out.append((check_braid if meet else check_commuting)(u, v))
    return out


def test_pairing_verdicts_match_product_oracle():
    for g in range(3, 17):
        oracle = _oracle_statuses(lickorish_system(g))
        suite = relation_suite(g)[: len(oracle)]
        assert [v.check for v in suite] == [v.check for v in oracle]
        assert [v.status for v in suite] == [v.status for v in oracle]
        assert all(v.passed for v in suite)


def test_wrong_class_fails_pairwise_verdicts_like_the_oracle(monkeypatch, capsys):
    # c1 = alpha_1 + alpha_3 misses b2, which it is declared to meet, and
    # meets b3, from which it is declared disjoint (row c1-is-a1+a3 of
    # tests/test_controls.py)
    g = 4
    wrong = swap_class(monkeypatch, g, "c1", (1, 0, 1, 0, 0, 0, 0, 0))
    failed = [v for v in relation_suite(g) if not v.passed]
    oracle = [v for v in _oracle_statuses(wrong) if not v.passed]
    assert [v.check for v in failed] == ["braid(b2,c1)", "commute(b3,c1)"]
    assert [v.to_dict() for v in failed] == [v.to_dict() for v in oracle]
    assert all(v.details["lhs_matrix"] != v.details["rhs_matrix"] for v in failed)
    # the CLI reports the failure with exit status 1, not a traceback
    assert cli.main(["--genus", str(g), "--checks", "relations"]) == 1
    assert "braid(b2,c1)" in capsys.readouterr().out


def test_relation_suite_makes_no_pairwise_product(monkeypatch):
    # the chain and lantern products do not depend on the genus; a pairwise
    # product would grow with the number of curve pairs
    calls = []
    real = symplectic.mul_rows

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(symplectic, "mul_rows", counting)
    counts = []
    for g in (8, 16):
        lickorish_system(g)
        calls.clear()
        assert all(v.passed for v in relation_suite(g))
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_lantern_commutations_fail_on_a_meeting_interior_class(monkeypatch):
    # y = beta_1 meets the boundary curves a1 and c1: the pairing and the
    # product oracle both say the twists do not commute
    g = 3
    config = lantern_configuration(g)
    roles = dict(config.roles, y=NamedCurve("y", beta(1, g)))
    wrong = LanternConfig(g, roles, config.boundary_orientations)
    monkeypatch.setattr(words, "lantern_configuration", lambda genus: wrong)
    verdict = check_lantern(g)
    assert not verdict.passed
    assert verdict.details["disjoint_commutations"] is False
    assert not check_commuting(roles["a"], roles["y"]).passed


def test_check_commuting_disjoint_pairs():
    system = lickorish_system(3)
    assert check_commuting(system.curve("a1"), system.curve("a2")).passed
    assert check_commuting(system.curve("a1"), system.curve("c2")).passed
    assert check_commuting(system.curve("a1"), system.curve("a1")).passed


def test_check_commuting_precondition():
    # a1 and b1 meet once, so they break the precondition: the twists do not commute
    system = lickorish_system(3)
    v = check_commuting(system.curve("a1"), system.curve("b1"))
    assert v.status == "fail"
    assert v.details["lhs_word"] == "Ta1 Tb1"
    assert v.details["rhs_word"] == "Tb1 Ta1"
    assert v.details["lhs_matrix"] != v.details["rhs_matrix"]


def test_check_braid_intersecting_pairs():
    system = lickorish_system(3)
    assert check_braid(system.curve("a1"), system.curve("b1")).passed
    assert check_braid(system.curve("b1"), system.curve("c1")).passed


def test_check_braid_precondition():
    # a1 and a2 are disjoint, which breaks the precondition: braiding would force Ta1 = Ta2
    system = lickorish_system(3)
    v = check_braid(system.curve("a1"), system.curve("a2"))
    assert v.status == "fail"
    assert v.details["lhs_word"] == "Ta1 Ta2 Ta1"
    assert v.details["lhs_matrix"] != v.details["rhs_matrix"]


def test_check_chain_cases():
    for g in range(2, 7):
        for t in range(1, 2 * g + 1):
            v = check_chain(t, g)
            assert v.passed, v.check
            assert set(v.details) == {"power", "boundary"}


def test_check_chain_rejects_every_other_basis_boundary(monkeypatch):
    # every alpha_j but the closed-form alpha_k, and beta_k, break the odd chain relation
    cases = 0
    for g in range(2, 7):
        for t in range(1, 2 * g + 1, 2):
            k = (t + 1) // 2
            others = [alpha(j, g) for j in range(1, g + 1) if j != k] + [beta(k, g)]
            for d in others:
                swap_boundary(monkeypatch, t, d)
                assert check_chain(t, g).status == "fail", (t, g, d)
                cases += 1
    assert cases == 90


def test_check_chain_uninstantiable():
    with pytest.raises(ValueError, match="does not fit"):
        check_chain(5, 2)


def test_check_lantern():
    for g in (3, 4):
        v = check_lantern(g)
        assert v.passed
        assert v.details["product_form"] and v.details["rewritten_form"]
    with pytest.raises(ValueError, match="genus >= 3"):
        check_lantern(2)


def test_check_conjugacy_identity_and_f2():
    g = 3
    system = lickorish_system(g)
    assert check_conjugacy(identity(g), system.curve("a1"))
    f2 = build_f2(g).matrix
    assert check_conjugacy(f2, system.curve("a1"))
    # f2 carries a1 to +/- a2, so the conjugate is the twist along a2
    assert f2 @ system.curve("a1").twist @ f2.inv() == system.curve("a2").twist


def test_conjugacy_property_random():
    rng = random.Random(4242)
    for g in (2, 3, 4):
        assignment = alphabet(g)
        symbols = sorted(assignment)
        for _ in range(100):
            word = tuple(
                (rng.choice(symbols), rng.choice((-2, -1, 1, 2)))
                for _ in range(rng.randint(1, 8))
            )
            f = evaluate(word, assignment)
            coords = [0] * (2 * g)
            while all(x == 0 for x in coords):
                coords = [rng.randint(-2, 2) for _ in range(2 * g)]
            c = HomologyClass(tuple(coords), g)
            assert f @ transvection(c) @ f.inv() == transvection(f.apply(c))


def test_relation_suite_all_pass():
    # the whole genus ladder; from genus 3 on every unordered curve pair is
    # checked, plus three chains and the lantern
    for g in (2, 3, 4, 6, 8, 12, 16, 20, 24, 32):
        verdicts = relation_suite(g)
        assert verdicts, "suite must not be empty"
        assert all(v.passed for v in verdicts)
        if g >= 3:
            assert len(verdicts) == comb(3 * g - 1, 2) + 4


def test_relation_suite_builds_one_twist_per_curve(monkeypatch):
    g = 8
    for cached in (lickorish_system, lantern_configuration, chain_configuration):
        cached.cache_clear()
    lickorish_system(g)
    built = []
    real = curves.transvection

    def counting(cls):
        built.append(cls.coords)
        return real(cls)

    monkeypatch.setattr(curves, "transvection", counting)
    assert all(v.passed for v in relation_suite(g))
    named = list(lickorish_system(g).curves)
    named += [lantern_configuration(g).roles[r] for r in "yz"]
    for t in (2, 3, 4):
        named += chain_configuration(t, g).boundary
    assert built
    assert len(built) <= len(named)
    assert not Counter(built) - Counter(u.cls.coords for u in named)


def test_relation_suite_validates_every_product_without_recoercion(monkeypatch):
    g = 8
    lickorish_system(g)
    lantern_configuration(g)
    for t in (2, 3, 4):
        chain_configuration(t, g)
    # every SympMatrix is made by __init__ or by _from_delta, which products,
    # inverses, transvections and identity use
    made, validated, coerced, results, densified = [], [], [], [], []
    cls = symplectic.SympMatrix
    real_init, real_from_delta = cls.__init__, cls._from_delta.__func__
    real_matmul, real_inv = cls.__matmul__, cls.inv
    real_validate = symplectic.is_symplectic_rows
    real_coerce = symplectic._as_int_tuple
    real_dense = symplectic._dense
    product_code = {real_matmul.__code__, real_inv.__code__, symplectic.transvection.__code__}

    def counting_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        made.append(self)

    def counting_from_delta(klass, delta, genus):
        made.append(real_from_delta(klass, delta, genus))
        return made[-1]

    def spying_matmul(self, other):
        results.append(real_matmul(self, other))
        return results[-1]

    def spying_inv(self):
        results.append(real_inv(self))
        return results[-1]

    def counting_validate(delta, g):
        validated.append(delta)
        return real_validate(delta, g)

    def spying_coerce(seq):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code not in product_code:
            frame = frame.f_back
        coerced.append(frame is not None)
        return real_coerce(seq)

    def spying_dense(delta, n):
        densified.append(delta)
        return real_dense(delta, n)

    monkeypatch.setattr(cls, "__init__", counting_init)
    monkeypatch.setattr(cls, "_from_delta", classmethod(counting_from_delta))
    monkeypatch.setattr(cls, "__matmul__", spying_matmul)
    monkeypatch.setattr(cls, "inv", spying_inv)
    monkeypatch.setattr(symplectic, "is_symplectic_rows", counting_validate)
    monkeypatch.setattr(symplectic, "_as_int_tuple", spying_coerce)
    monkeypatch.setattr(symplectic, "_dense", spying_dense)
    assert all(v.passed for v in relation_suite(g))
    # one symplectic check per matrix made, on the very delta it stores
    assert made and len(validated) == len(made)
    assert sorted(id(m.delta) for m in made) == sorted(map(id, validated))
    assert results and {id(m) for m in results} <= {id(m) for m in made}
    assert not any(coerced), "a product's rows were coerced again"
    assert not densified, "the relation suite built dense rows"
    # rows handed in from outside are still coerced to plain int tuples
    m = symplectic.SympMatrix([[True, 1], [0, 1]])
    assert coerced and not any(coerced)
    assert made[-1] is m and validated[-1] is m.delta
    assert m.delta == {0: {0: 1, 1: 1}}
    assert all(type(x) is int for x in m.delta[0])
    assert all(type(x) is int for x in m.delta[0].values())
    assert type(m.rows) is tuple
    assert all(type(r) is tuple and all(type(x) is int for x in r) for r in m.rows)
    assert densified


def test_relation_suite_counts():
    # every unordered curve pair is checked (commute or braid), plus chains
    # of length 2..4 and, from genus 3 on, the lantern
    g = 3
    verdicts = relation_suite(g)
    n = 3 * g - 1
    expected = n * (n - 1) // 2 + 3 + 1
    assert len(verdicts) == expected
