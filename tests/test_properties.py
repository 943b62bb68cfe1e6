"""Property tests: the closure oracle against the stabilizer chain, words,
inverses, the exact product, the matrix action and symplectic check against
plain oracles, and the determinism of the sign solver."""

from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import ident, mm, moved_rows, symplectic_oracle, tv
from mcgtorsion import kernels, theorem
from mcgtorsion.chain import StabilizerChain, mul_mod
from mcgtorsion.curves import lantern_configuration, lickorish_system
from mcgtorsion.symplectic import (
    HomologyClass,
    SympMatrix,
    identity,
    is_symplectic_rows,
    mul_rows,
    reduce_mod_p,
    transvection,
)
from mcgtorsion.theorem import convention_record
from mcgtorsion.torsion import build_f1, build_f2, theorem_generators
from mcgtorsion.words import evaluate, format_word, parse_word, reduce_word, twist_assignment

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

G2_TWISTS = [u.twist for u in lickorish_system(2).curves]


@lru_cache(maxsize=None)
def _groups(subset, p):
    mats = [reduce_mod_p(G2_TWISTS[i], p) for i in subset]
    return mats, kernels.modp_closure(mats, p), StabilizerChain(mats, p)


@PROPERTY
@given(
    subset=st.sets(st.integers(0, len(G2_TWISTS) - 1), min_size=1).map(
        lambda s: tuple(sorted(s))),
    p=st.sampled_from((2, 3)),
    data=st.data(),
)
def test_closure_matches_chain_on_g2_twists(subset, p, data):
    mats, closure, chain = _groups(subset, p)
    assert not closure.exceeded
    assert closure.size == chain.order()
    word = data.draw(st.lists(st.integers(0, len(mats) - 1), max_size=12))
    prod = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    for i in word:
        prod = mul_mod(prod, mats[i], p)
    assert closure.contains(prod)
    assert chain.sift(prod) is not None


G3_TORSION_MOD2 = [reduce_mod_p(c.matrix, 2) for c in theorem_generators(3)]
# subsets of the g=3 torsion generators whose closure the BFS oracle finishes
BFS_CAP = 25_000


@lru_cache(maxsize=None)
def _torsion_groups(subset):
    mats = [G3_TORSION_MOD2[i] for i in subset]
    return mats, kernels.modp_closure(mats, 2, cap=BFS_CAP), StabilizerChain(mats, 2)


def _replay_mod2(word, mats):
    acc = ident(6)
    for x in word:
        acc = [[v % 2 for v in row] for row in mm(acc, mats[x])]
    return tuple(map(tuple, acc))


@PROPERTY
@given(
    subset=st.sets(st.integers(0, len(G3_TORSION_MOD2) - 1), min_size=1).map(
        lambda s: tuple(sorted(s))),
    data=st.data(),
)
def test_mod2_chain_matches_closure_on_g3_torsion_subsets(subset, data):
    mats, closure, chain = _torsion_groups(subset)
    assume(not closure.exceeded)
    assert chain.order() == closure.size
    # membership of every g=3 torsion generator, inside the subgroup or not
    for m in G3_TORSION_MOD2:
        word = chain.sift(m)
        assert (word is not None) == closure.contains(m)
        if word is not None:
            assert _replay_mod2(word, mats) == m
            assert chain.evaluate(word) == m
    drawn = data.draw(st.lists(st.integers(0, len(mats) - 1), max_size=12))
    prod = _replay_mod2(drawn, mats)
    word = chain.sift(prod)
    assert word is not None
    assert _replay_mod2(word, mats) == prod


SYMBOLS = ("Ta1", "Tb1", "Ta2", "Tc1", "F1", "F2", "F3")
WORDS = st.lists(
    st.tuples(st.sampled_from(SYMBOLS), st.integers(-4, 4).filter(bool)),
    max_size=8,
).map(tuple)


@PROPERTY
@given(word=WORDS)
def test_parse_inverts_format(word):
    assert parse_word(format_word(word)) == word


def _g3_assignment():
    certs = theorem_generators(3)
    assignment = twist_assignment(3)
    assignment["F1"] = certs[0].matrix
    assignment["F2"] = certs[1].matrix
    assignment["F3"] = certs[3].matrix
    return assignment


G3 = _g3_assignment()


@PROPERTY
@given(word=WORDS)
def test_reduce_word_idempotent_and_preserves_value(word):
    reduced = reduce_word(word)
    assert reduce_word(reduced) == reduced
    assert evaluate(reduced, G3) == evaluate(word, G3)


TWISTS = {g: twist_assignment(g) for g in (2, 3)}


def _twist_products(g):
    letters = st.tuples(st.sampled_from(sorted(TWISTS[g])), st.integers(-2, 2).filter(bool))
    return st.lists(letters, max_size=6).map(lambda word: evaluate(tuple(word), TWISTS[g]))


@PROPERTY
@given(data=st.data(), g=st.sampled_from((2, 3)))
def test_symplectic_inverse(data, g):
    a = data.draw(_twist_products(g))
    b = data.draw(_twist_products(g))
    assert a @ a.inv() == identity(g)
    assert a.inv().inv() == a
    assert (a @ b).inv() == b.inv() @ a.inv()


ENTRIES = {
    "dense": st.integers(-3, 3).filter(bool),
    "sparse": st.sampled_from((0, 0, 0, 0, 0, 0, 1, -1, 2)),
    "large": st.integers(-2**80, 2**80),
}


def _matrix(data, n, kind):
    """n x n rows: zero rows, rows of `kind` entries and identity rows e_i."""
    rows = []
    for i in range(n):
        choices = [st.just([0] * n), st.lists(ENTRIES[kind], min_size=n, max_size=n),
                   st.just([int(i == j) for j in range(n)])]
        rows.append(data.draw(st.one_of(choices)))
    return rows


@PROPERTY
@given(data=st.data(), n=st.integers(1, 8),
       kinds=st.tuples(st.sampled_from(sorted(ENTRIES)), st.sampled_from(sorted(ENTRIES))))
def test_mul_rows_matches_plain_product(data, n, kinds):
    # on the moved rows of I + Delta: a zero row is a moved row with no
    # entries, and an e_i row is absent from the input and must be from the output
    a = _matrix(data, n, kinds[0])
    b = _matrix(data, n, kinds[1])
    assert mul_rows(moved_rows(a), moved_rows(b)) == moved_rows(mm(a, b))


def _apply_matrix(data, g):
    """A random product of transvections along small classes, or f1 or f2."""
    kind = data.draw(st.sampled_from(("transvections", "f1", "f2")))
    if kind != "transvections":
        return (build_f1 if kind == "f1" else build_f2)(g).matrix
    m = identity(g)
    for _ in range(data.draw(st.integers(0, 4))):
        c = data.draw(st.lists(st.integers(-2, 2), min_size=2 * g, max_size=2 * g))
        m = m @ transvection(HomologyClass(c, g))
    return m


@PROPERTY
@given(data=st.data(), g=st.integers(3, 5))
def test_apply_matches_dense_row_dot(data, g):
    n = 2 * g
    m = _apply_matrix(data, g)
    h, twin = hash(m), SympMatrix(m.rows)
    entries = st.one_of(st.integers(-3, 3), st.integers(-2**70, 2**70))
    vectors = [data.draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(3)]
    # the zero vector and every e_i, which mul_rows meets as an identity row
    vectors += [[0] * n] + [[int(i == j) for j in range(n)] for i in range(n)]
    for x in vectors:
        want = tuple(sum(a * b for a, b in zip(row, x)) for row in m.rows)
        for arg in (HomologyClass(x, g), tuple(x), list(x)):
            out = m.apply(arg)
            if isinstance(arg, HomologyClass):
                assert out == HomologyClass(want, g)
                out = out.coords
            assert out == want
            assert all(type(v) is int for v in out)
    with pytest.raises(ValueError):
        m.apply([0] * (n + 1))
    # the transpose apply keeps does not enter == or hash
    assert m == twin and twin == m
    assert hash(m) == h == hash(twin)


def _generator_pool(g):
    mats = [u.twist for u in lickorish_system(g).curves]
    if g == 3:
        mats += [c.matrix for c in theorem_generators(3)]
    return [[list(r) for r in m.rows] for m in mats + [m.inv() for m in mats]]


POOLS = {g: _generator_pool(g) for g in (2, 3)}


def _tamper(data, rows, g, i):
    """Add a nonzero d to an entry (i, j) of row i that must break M^T J M = J.

    Adding d to entry (i, j) changes M^T J M by d (A - A^T), where A holds
    row i of J M in row j; that vanishes only when the row is supported at
    column j alone, so j is drawn off such a support.
    """
    n = 2 * g
    jm_row = rows[i + g] if i < g else rows[i - g]
    cols = [j for j in range(n) if any(jm_row[k] for k in range(n) if k != j)]
    j = data.draw(st.sampled_from(cols))
    rows = list(rows)
    row = list(rows[i])
    row[j] += data.draw(st.integers(-3, 3).filter(bool))
    rows[i] = type(rows[i])(row)
    return rows


@PROPERTY
@given(data=st.data(), g=st.sampled_from((2, 3)), as_tuples=st.booleans())
def test_symplectic_check_matches_column_oracle(data, g, as_tuples):
    pool = POOLS[g]
    word = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=8))
    n = 2 * g
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in word:
        rows = mm(rows, pool[k])
    if as_tuples:
        rows = [tuple(r) for r in rows]
    assert is_symplectic_rows(moved_rows(rows), g)
    assert symplectic_oracle(rows, g)
    assert SympMatrix(rows).delta == moved_rows(rows)
    bad = _tamper(data, rows, g, data.draw(st.integers(0, n - 1)))
    assert not is_symplectic_rows(moved_rows(bad), g)
    assert not symplectic_oracle(bad, g)
    with pytest.raises(ValueError):
        SympMatrix(bad)
    # the check skips a row pair (e_k, e_{k+g}) absent from Delta; one entry
    # changed in such a pair moves that row into Delta and must be caught
    eye = ident(n)
    pairs = [k for k in range(g) if list(rows[k]) == eye[k] and list(rows[k + g]) == eye[k + g]]
    if pairs:
        k = data.draw(st.sampled_from(pairs))
        bad = _tamper(data, rows, g, k + data.draw(st.sampled_from((0, g))))
        assert not is_symplectic_rows(moved_rows(bad), g)
        assert not symplectic_oracle(bad, g)
        with pytest.raises(ValueError):
            SympMatrix(bad)


def _word_pool(g):
    """The Lickorish twists, f1, f2 and f3 at genus g, then their inverses."""
    certs = theorem_generators(g)
    mats = [u.twist for u in lickorish_system(g).curves] + [certs[i].matrix for i in (0, 1, 3)]
    return mats + [m.inv() for m in mats]


WORD_POOLS = {g: _word_pool(g) for g in (3, 4)}


def _word(data, g, max_size=8):
    return data.draw(st.lists(st.integers(0, len(WORD_POOLS[g]) - 1), max_size=max_size))


def _product(word, g):
    m = identity(g)
    for k in word:
        m = m @ WORD_POOLS[g][k]
    return m


@PROPERTY
@given(data=st.data(), g=st.sampled_from((3, 4)))
def test_delta_products_match_dense_products(data, g):
    pool = WORD_POOLS[g]
    dense = ident(2 * g)
    m = identity(g)
    for k in _word(data, g):
        assert SympMatrix(pool[k].to_lists()) == pool[k]
        dense = mm(dense, pool[k].to_lists())
        m = m @ pool[k]
        # canonical: no zero entry, no row equal to e_i, and nothing else
        assert m.delta == moved_rows(dense)
    assert m.to_lists() == dense
    assert symplectic_oracle(dense, g)
    assert m.is_identity == (dense == ident(2 * g))


@pytest.mark.parametrize("g", (3, 4))
def test_cancelling_products_have_empty_delta(g):
    pool = WORD_POOLS[g]
    f1, f3 = pool[3 * g - 1], pool[3 * g + 1]
    products = [m @ m.inv() for m in pool] + [m.inv() @ m for m in pool]
    products += [f1 @ f1, f3 @ f3 @ f3]
    for prod in products:
        assert prod.delta == {}
        assert prod.is_identity
        assert prod == identity(g) and hash(prod) == hash(identity(g))
        assert prod.to_lists() == ident(2 * g)
    assert identity(g) != identity(g + 1)


@PROPERTY
@given(data=st.data(), g=st.sampled_from((3, 4)), same=st.booleans())
def test_equality_and_hash_follow_dense_rows(data, g, same):
    half = len(WORD_POOLS[g]) // 2
    word = _word(data, g)
    if same:
        # the same value by another word: insert a generator and its inverse
        k = data.draw(st.integers(0, len(WORD_POOLS[g]) - 1))
        at = data.draw(st.integers(0, len(word)))
        other = word[:at] + [k, (k + half) % (2 * half)] + word[at:]
    else:
        other = _word(data, g)
    a, b = _product(word, g), _product(other, g)
    assert (a == b) == (a.to_lists() == b.to_lists())
    if same:
        assert a == b and b == a and hash(a) == hash(b)
    twin = SympMatrix(a.to_lists())
    assert twin == a and hash(twin) == hash(a)


@PROPERTY
@given(data=st.data(), g=st.integers(2, 6))
def test_twist_is_built_once_per_curve(data, g):
    curves = list(lickorish_system(g).curves)
    if g >= 3:
        curves += [lantern_configuration(g).roles[r] for r in "yz"]
    u = data.draw(st.sampled_from(curves))
    assert u.twist is u.twist
    assert u.twist == transvection(u.cls)
    assert [list(r) for r in u.twist.rows] == tv(u.cls.coords, g)


@PROPERTY
@given(g=st.integers(2, 9))
def test_sign_solver_is_deterministic(g):
    record = convention_record(g)
    fresh = lickorish_system.__wrapped__(g)
    assert fresh.c_signs == lickorish_system(g).c_signs
    with mock.patch.object(theorem, "lickorish_system", lambda _: fresh):
        assert convention_record(g) == record
