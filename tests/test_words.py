import random
import sys
from collections import Counter
from math import comb

import pytest

from mcgtorsion import curves, symplectic
from mcgtorsion.curves import chain_configuration, lantern_configuration, lickorish_system
from mcgtorsion.symplectic import HomologyClass, identity, transvection
from mcgtorsion.torsion import build_f2, theorem_generators
from mcgtorsion.words import (
    check_braid,
    check_chain,
    check_commuting,
    check_conjugacy,
    check_lantern,
    evaluate,
    format_word,
    parse_word,
    reduce_word,
    relation_suite,
    twist_assignment,
)


def test_reduce_involution_square_vanishes():
    assert reduce_word((("F1", 1), ("F1", 1))) == ()


def test_reduce_free_cancellation():
    assert reduce_word((("Ta1", 1), ("Ta1", -1))) == ()
    assert reduce_word((("Ta1", 2), ("Ta1", -1))) == (("Ta1", 1),)


def test_reduce_order3_folding():
    assert reduce_word((("F3", 2),)) == (("F3", -1),)
    assert reduce_word((("F3", 1), ("F3", 1), ("F3", 1))) == ()


def test_reduce_rejects_zero_exponent():
    with pytest.raises(ValueError):
        reduce_word((("Ta1", 0),))


def test_reduce_merges_through_cancellation():
    word = (("Ta1", 1), ("Tb1", 1), ("Tb1", -1), ("Ta1", 1))
    assert reduce_word(word) == (("Ta1", 2),)


def test_evaluate_empty_word_is_identity():
    assignment = twist_assignment(2)
    assert evaluate((), assignment) == identity(2)


def test_evaluate_unassigned_symbol():
    with pytest.raises(ValueError):
        evaluate((("F9", 1),), twist_assignment(2))


def test_evaluate_is_right_to_left():
    # Ta1 Tb1 means Tb1 applied first: matrix product in word order
    assignment = twist_assignment(2)
    word = (("Ta1", 1), ("Tb1", 1))
    assert evaluate(word, assignment) == assignment["Ta1"] @ assignment["Tb1"]


def test_evaluate_homomorphism_on_random_words():
    from mcgtorsion.torsion import build_f1

    rng = random.Random(99)
    for g in (2, 3):
        assignment = twist_assignment(g)
        assignment["F1"] = build_f1(g).matrix
        assignment["F2"] = build_f2(g).matrix
        symbols = sorted(assignment)
        for _ in range(50):
            u = tuple((rng.choice(symbols), rng.randint(-3, 3) or 1)
                      for _ in range(rng.randint(0, 6)))
            v = tuple((rng.choice(symbols), rng.randint(-3, 3) or 1)
                      for _ in range(rng.randint(0, 6)))
            uv = evaluate(u, assignment) @ evaluate(v, assignment)
            assert evaluate(u + v, assignment) == uv
            assert evaluate(reduce_word(u + v), assignment) == uv


def test_order_g_product_via_words():
    from mcgtorsion.symplectic import element_order

    for g in (3, 4, 5):
        certs = theorem_generators(g)
        assignment = {"F1": certs[0].matrix, "F2": certs[1].matrix}
        m = evaluate((("F2", 1), ("F1", 1)), assignment)
        assert element_order(m, 2 * g) == g


def test_conjugated_involution_via_words():
    g = 4
    assignment = twist_assignment(g)
    assignment["F2"] = build_f2(g).matrix
    m = evaluate(parse_word("Ta1 F2 Ta1^-1", known=set(assignment)), assignment)
    assert (m @ m).is_identity
    assert not m.is_identity


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


def test_format_word_round_trip():
    word = (("Ta1", 1), ("Tb2", -1), ("F3", 2))
    assert parse_word(format_word(word)) == word
    assert format_word(()) == "<empty>"
    assert parse_word(format_word(())) == ()


def test_check_commuting_disjoint_pairs():
    system = lickorish_system(3)
    table = system.table
    assert check_commuting(system.curve("a1"), system.curve("a2"), table).passed
    assert check_commuting(system.curve("a1"), system.curve("c2"), table).passed
    assert check_commuting(system.curve("a1"), system.curve("a1"), table).passed


def test_check_commuting_precondition():
    system = lickorish_system(3)
    v = check_commuting(system.curve("a1"), system.curve("b1"), system.table)
    assert v.status == "precondition"


def test_check_braid_intersecting_pairs():
    system = lickorish_system(3)
    table = system.table
    assert check_braid(system.curve("a1"), system.curve("b1"), table).passed
    assert check_braid(system.curve("b1"), system.curve("c1"), table).passed


def test_check_braid_precondition():
    system = lickorish_system(3)
    v = check_braid(system.curve("a1"), system.curve("a2"), system.table)
    assert v.status == "precondition"


def test_check_chain_cases():
    assert check_chain(2, 2).passed
    assert check_chain(3, 2).passed
    assert check_chain(4, 2).passed
    assert check_chain(2, 3).passed
    assert check_chain(3, 3).passed


def test_check_chain_uninstantiable():
    assert check_chain(5, 2).status == "precondition"


def test_check_lantern():
    for g in (3, 4):
        v = check_lantern(g)
        assert v.passed
        assert v.details["product_form"] and v.details["rewritten_form"]
    assert check_lantern(2).status == "precondition"


def test_check_conjugacy_identity_and_f2():
    g = 3
    system = lickorish_system(g)
    assert check_conjugacy(identity(g), system.curve("a1")).passed
    f2 = build_f2(g).matrix
    assert check_conjugacy(f2, system.curve("a1")).passed
    # f2 carries a1 to +/- a2, so the conjugate is the twist along a2
    assert f2 @ system.curve("a1").twist @ f2.inv() == system.curve("a2").twist


def test_conjugacy_property_random():
    rng = random.Random(4242)
    for g in (2, 3, 4):
        assignment = twist_assignment(g)
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
    lickorish_system(g)  # the sign solver's candidate curves are not counted
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
