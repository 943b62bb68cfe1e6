import random

import pytest

from conftest import ident, mm, mpow, order_oracle, symplectic_form, symplectic_oracle, tv
from mcgtorsion import symplectic
from mcgtorsion.symplectic import (
    HomologyClass,
    SympMatrix,
    alpha,
    beta,
    element_order,
    identity,
    is_symplectic_rows,
    reduce_mod_p,
    transvection,
    zero_class,
)
from mcgtorsion.torsion import _signed_perm


def test_form_on_basis():
    g = 3
    assert symplectic_form(alpha(1, g), beta(1, g)) == 1
    assert symplectic_form(alpha(1, g), alpha(2, g)) == 0
    assert symplectic_form(beta(1, g), alpha(1, g)) == -1


def test_form_genus_mismatch():
    with pytest.raises(ValueError):
        symplectic_form(alpha(1, 2), alpha(1, 3))


def test_form_antisymmetric_random():
    rng = random.Random(7)
    for _ in range(50):
        g = rng.randint(1, 4)
        x = HomologyClass(tuple(rng.randint(-3, 3) for _ in range(2 * g)), g)
        y = HomologyClass(tuple(rng.randint(-3, 3) for _ in range(2 * g)), g)
        assert symplectic_form(x, y) == -symplectic_form(y, x)


def test_transvection_on_own_class():
    c = alpha(1, 2)
    assert transvection(c).apply(c) == c


def test_transvection_shape_genus1():
    assert transvection(alpha(1, 1)).rows == ((1, -1), (0, 1))
    assert transvection(beta(1, 1)).rows == ((1, 0), (1, 1))


def test_transvection_beta_image():
    g = 2
    img = transvection(alpha(1, g)).apply(beta(1, g))
    assert img.coords == (-1, 0, 1, 0)  # beta_1 - alpha_1


def test_transvection_zero_class_is_identity():
    assert transvection(zero_class(3)).is_identity


def test_mat_mul_identity_and_inverse():
    m = transvection(alpha(1, 2)) @ transvection(beta(2, 2))
    assert identity(2) @ m == m
    assert (m @ m.inv()).is_identity


def test_braid_g1_against_oracle():
    ta = tv((1, 0), 1)
    tb = tv((0, 1), 1)
    lhs = mm(mm(ta, tb), ta)
    rhs = mm(mm(tb, ta), tb)
    assert lhs == rhs
    a, b = transvection(alpha(1, 1)), transvection(beta(1, 1))
    assert (a @ b @ a).to_lists() == lhs


def test_inverse_g1_against_oracle():
    ta = transvection(alpha(1, 1))
    inv = ta.inv()
    assert mm(ta.to_lists(), inv.to_lists()) == ident(2)
    assert inv.rows == ((1, 1), (0, 1))


def test_inverse_transvection_formula():
    # T_c^-1 is the twist the other way: x -> x - <x,c> c
    g = 3
    c = HomologyClass((1, 0, 1, 0, 2, 0), g)
    m = transvection(c).inv()
    x = beta(1, g)
    expected = tuple(
        xv - symplectic_form(x, c) * cv for xv, cv in zip(x.coords, c.coords)
    )
    assert m.apply(x).coords == expected


def test_element_order_identity():
    assert element_order(identity(2), 5) == 1


def test_element_order_g1_product_is_6():
    prod_rows = mm(tv((1, 0), 1), tv((0, 1), 1))
    assert order_oracle(prod_rows, 10) == 6
    m = transvection(alpha(1, 1)) @ transvection(beta(1, 1))
    assert element_order(m, 10) == 6


def test_element_order_transvection_exceeds_every_bound():
    m = transvection(alpha(1, 2))
    for bound in (1, 5, 50):
        assert element_order(m, bound) is None


def test_non_symplectic_rejected():
    with pytest.raises(ValueError):
        SympMatrix(((1, 1), (1, 1)))
    with pytest.raises(ValueError):
        SympMatrix(((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def _dense_rows(delta, g):
    rows = ident(2 * g)
    for i, entries in delta.items():
        rows[i] = [entries.get(j, 0) for j in range(2 * g)]
    return rows


def _edge_deltas(g):
    """(name, delta, symplectic?) for the row layouts the pair walk must get right."""
    ta1, tb1 = transvection(alpha(1, g)).delta, transvection(beta(1, g)).delta
    product = (transvection(alpha(1, g)) @ transvection(beta(1, g))).delta
    assert sorted(product) == [0, g]
    wrong = {i: dict(row) for i, row in product.items()}
    wrong[g][0] += 1
    return [
        ("empty alpha-row", {0: {}}, False),
        ("empty beta-row", {g: {}}, False),
        ("only the beta-row moved (T_b1)", {g: {0: 1, g: 1}}, True),
        ("T_b1 as built", tb1, True),
        ("only the alpha-row moved (T_a1)", ta1, True),
        ("beta-row listed first", {g: product[g], 0: product[0]}, True),
        ("alpha-row listed first", {0: product[0], g: product[g]}, True),
        ("one wrong entry", wrong, False),
        ("one wrong entry, beta-row first", {g: wrong[g], 0: wrong[0]}, False),
    ]


@pytest.mark.parametrize("g", (1, 2, 3))
def test_symplectic_check_edge_cases_match_column_oracle(g):
    for name, delta, expected in _edge_deltas(g):
        assert symplectic_oracle(_dense_rows(delta, g), g) is expected, name
        assert is_symplectic_rows(delta, g) is expected, name
        if not expected:
            with pytest.raises(ValueError):
                SympMatrix(_dense_rows(delta, g))


@pytest.mark.parametrize("g", (1, 2, 3))
def test_both_constructors_reject_with_one_message(g, monkeypatch):
    # SympMatrix(rows) and _from_delta store through one check: the same
    # non-symplectic matrix fails both the same way, after one call each
    calls = []

    def counted(delta, genus):
        calls.append(genus)
        return is_symplectic_rows(delta, genus)

    monkeypatch.setattr(symplectic, "is_symplectic_rows", counted)
    for name, delta, expected in _edge_deltas(g):
        if expected:
            continue
        with pytest.raises(ValueError) as from_rows:
            SympMatrix(_dense_rows(delta, g))
        with pytest.raises(ValueError) as from_delta:
            SympMatrix._from_delta(delta, g)
        assert str(from_rows.value) == str(from_delta.value), name
        assert str(from_rows.value) == "matrix does not preserve the symplectic form"
    rows = transvection(alpha(1, g)).rows
    calls.clear()
    m = SympMatrix(rows)
    m @ m
    assert calls == [g, g]


def test_from_rows_drops_unmoved_rows_and_zero_entries():
    g = 3
    m = SympMatrix.from_rows({0: {0: 1, 3: 0}, 2: {2: 1, 5: -1, 4: 0}, 4: {4: 1}}, g)
    assert m.delta == {2: {2: 1, 5: -1}}
    assert m == transvection(alpha(3, g))
    assert m == SympMatrix(m.to_lists())


@pytest.mark.parametrize("g", (1, 2, 3, 4))
def test_from_rows_of_no_row_is_the_identity(g):
    assert SympMatrix.from_rows({}, g) == identity(g)
    assert SympMatrix.from_rows({}, g).delta == {}


@pytest.mark.parametrize("g", (2, 3, 5))
def test_from_rows_drops_the_rows_of_a_trivial_signed_permutation(g):
    # sign +1 on a handle a permutation fixes gives the rows e_i, which are dropped
    assert _signed_perm(g, lambda i: i, 1).delta == {}
    assert _signed_perm(g, lambda i: i, 1) == identity(g)


def test_from_rows_makes_plain_ints():
    m = SympMatrix.from_rows({0: {0: True, 1: True}, 1: {1: True}}, 1)
    assert m.delta == {0: {0: 1, 1: 1}}
    assert all(type(x) is int for row in m.delta.values() for x in row.values())
    assert m == SympMatrix([[1, 1], [0, 1]])


def test_from_rows_rejects_a_non_symplectic_mapping_and_a_bad_index():
    with pytest.raises(ValueError, match="symplectic"):
        SympMatrix.from_rows({0: {0: 2}}, 1)
    with pytest.raises(ValueError, match="symplectic"):
        SympMatrix.from_rows({2: {5: -1}}, 3)
    for rows, g in (({2: {2: 1}}, 1), ({0: {0: 1, 2: 1}}, 1), ({}, 0), ({0: {-1: 1}}, 1)):
        with pytest.raises(ValueError, match="out of range"):
            SympMatrix.from_rows(rows, g)


def test_determinant_small_genus():
    # symplectic implies det 1; cross-checked explicitly at g=1
    m = transvection(alpha(1, 1)) @ transvection(beta(1, 1))
    a = m.rows
    assert a[0][0] * a[1][1] - a[0][1] * a[1][0] == 1


def test_reduce_mod_p_examples():
    g = 2
    assert reduce_mod_p(identity(g), 2) == tuple(tuple(r) for r in ident(4))
    t = reduce_mod_p(transvection(alpha(1, g)), 2)
    assert t == tuple(tuple(x % 2 for x in row) for row in tv((1, 0, 0, 0), g))
    m = transvection(alpha(1, g)) @ transvection(beta(2, g)).inv()
    for row in reduce_mod_p(m, 3):
        assert all(x in (0, 1, 2) for x in row)


def _random_transvection_word(rng, g, max_len):
    mats = []
    for _ in range(rng.randint(1, max_len)):
        coords = [0] * (2 * g)
        while all(x == 0 for x in coords):
            coords = [rng.randint(-2, 2) for _ in range(2 * g)]
        mats.append(transvection(HomologyClass(tuple(coords), g)))
    return mats


def test_random_words_stay_symplectic_and_invert():
    # products of random transvections: symplectic throughout, and the
    # inverse of the product equals the reversed product of inverses
    rng = random.Random(20240311)
    for trial in range(100):
        g = rng.randint(1, 4)
        mats = _random_transvection_word(rng, g, 20)
        prod = identity(g)
        for m in mats:
            prod = prod @ m  # constructor re-asserts symplectic each step
        rev = identity(g)
        for m in reversed(mats):
            rev = rev @ m.inv()
        assert (prod @ rev).is_identity
        assert prod.inv() == rev


def test_disjoint_classes_commute_and_unit_pairs_braid():
    # pairing 0 forces commuting twists; pairing +/-1 forces the braid identity
    rng = random.Random(555)
    found_commuting = found_braiding = 0
    while found_commuting < 20 or found_braiding < 20:
        g = rng.randint(1, 3)
        c = HomologyClass(tuple(rng.randint(-2, 2) for _ in range(2 * g)), g)
        d = HomologyClass(tuple(rng.randint(-2, 2) for _ in range(2 * g)), g)
        pairing = symplectic_form(c, d)
        tc, td = transvection(c), transvection(d)
        if pairing == 0 and found_commuting < 20:
            assert tc @ td == td @ tc
            found_commuting += 1
        elif abs(pairing) == 1 and found_braiding < 20:
            assert tc @ td @ tc == td @ tc @ td
            found_braiding += 1


def test_conjugation_carries_transvection():
    # M T_c M^-1 = T_{Mc}, here for specific matrices as a unit-level check
    g = 2
    m = transvection(alpha(1, g)) @ transvection(beta(1, g)) @ transvection(alpha(2, g))
    c = HomologyClass((1, -1, 0, 2), g)
    assert m @ transvection(c) @ m.inv() == transvection(m.apply(c))


def test_large_powers_stay_exact():
    # entries grow linearly in the exponent; Python ints keep them exact
    m = transvection(HomologyClass((1, 1, 1, 1), 2))
    big = m ** 40
    assert mpow(m.to_lists(), 40) == big.to_lists()
    assert max(abs(x) for row in big.rows for x in row) >= 40


def test_power_starts_from_the_first_factor(monkeypatch):
    # M ** k multiplies by squaring from M itself, so M ** 1 makes no product
    calls = []
    real = symplectic.mul_rows
    monkeypatch.setattr(symplectic, "mul_rows", lambda a, b: calls.append(1) or real(a, b))
    m = transvection(HomologyClass((1, 1, 0, 2), 2))
    for k, products in ((1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (-1, 0), (-2, 1)):
        calls.clear()
        assert (m ** k).to_lists() == mpow((m if k > 0 else m.inv()).to_lists(), abs(k))
        assert len(calls) == products, k
    calls.clear()
    assert m ** 0 == identity(2) and not calls


def test_homology_class_validation():
    with pytest.raises(ValueError):
        HomologyClass((1, 0, 0), 2)
    with pytest.raises(ValueError):
        HomologyClass((1, 0), 0)


def test_canonical_sign():
    c = HomologyClass((0, -1, 2, 0), 2)
    assert c.canonical().coords == (0, 1, -2, 0)
    assert zero_class(2).canonical().coords == (0, 0, 0, 0)
