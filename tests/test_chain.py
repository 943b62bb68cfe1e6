import random

import pytest

from mcgtorsion import theorem
from mcgtorsion.chain import StabilizerChain, half_tables, pack_columns
from mcgtorsion.kernels import modp_closure
from mcgtorsion.curves import lickorish_system
from mcgtorsion.symplectic import identity, reduce_mod_p
from mcgtorsion.theorem import (
    _elimination_ops,
    _vector_orbit,
    modp_certificate,
    modp_transitivity,
    sp_modp_order,
)
from mcgtorsion.torsion import theorem_generators

from conftest import ident, mm, orbit_bitmap, vector_orbit_oracle


def _twists(g, names=None):
    system = lickorish_system(g)
    if names is None:
        return [u.twist for u in system.curves]
    return [system.curve(name).twist for name in names]


def _replay(word, mats, p):
    n = len(mats[0])
    acc = [[int(i == j) for j in range(n)] for i in range(n)]
    for x in word:
        acc = [[v % p for v in row] for row in mm(acc, [list(r) for r in mats[x]])]
    return tuple(tuple(row) for row in acc)


@pytest.mark.parametrize("names,p", [
    (None, 2),                 # all Lickorish twists at g=2: Sp(4,2), 720
    (("a1", "b1"), 2),         # the proper subgroups of the divisibility test
    (("a1", "b1", "a2"), 2),
])
def test_chain_order_matches_bfs_oracle(names, p):
    gens = _twists(2, names)
    mats = [reduce_mod_p(m, p) for m in gens]
    closure = modp_closure(mats, p)
    assert not closure.exceeded
    chain = StabilizerChain(mats)
    assert chain.order() == closure.size
    if names is None:
        assert closure.size == sp_modp_order(2, p)
    # membership agrees with the enumeration on every generator product
    for a in mats:
        for b in mats:
            prod = tuple(tuple(v % p for v in row) for row in mm(a, b))
            assert closure.contains(prod)
            word = chain.sift(prod)
            assert word is not None
            assert _replay(word, mats, p) == prod


def test_chain_sift_rejects_non_members():
    partial = [reduce_mod_p(m, 2) for m in _twists(2, ("a1", "b1"))]
    chain = StabilizerChain(partial)
    assert chain.order() == 6  # SL(2,2) on the first handle
    assert chain.sift(reduce_mod_p(_twists(2, ("a2",))[0], 2)) is None
    assert chain.sift(reduce_mod_p(identity(2), 2)) == ()


def test_chain_identity_only():
    chain = StabilizerChain([reduce_mod_p(identity(2), 2)])
    assert chain.order() == 1
    assert chain.sift(reduce_mod_p(_twists(2, ("a1",))[0], 2)) is None


def test_chain_rejects_singular_generator():
    with pytest.raises(ValueError):
        StabilizerChain([((1, 1), (1, 1))])


def test_pack_columns_bit_order():
    rows = [[0] * 5 for _ in range(4)]
    rows[3][1] = 1
    rows[0][4] = -1  # odd entries of either sign pack to 1
    rows[2][4] = 7
    rows[1][0] = 2
    assert pack_columns(rows) == (0, 1 << 3, 0, 0, (1 << 0) | (1 << 2))
    assert pack_columns(ident(3)) == (1, 2, 4)


@pytest.mark.parametrize("n", (1, 6, 8, 9, 16, 17, 20))
def test_xor_tables_give_the_product_mod_2(n):
    # half_tables: one table over the low n // 2 bits, one over the rest
    rng = random.Random(n)
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    t_alpha, t_beta = half_tables(pack_columns(rows))
    h = n // 2
    assert (len(t_alpha), len(t_beta)) == (1 << h, 1 << (n - h))
    for _ in range(50):
        v = [rng.randint(0, 1) for _ in range(n)]
        bits = sum(x << k for k, x in enumerate(v))
        img = t_alpha[bits & ((1 << h) - 1)] ^ t_beta[bits >> h]
        dense = [sum(row[k] * v[k] for k in range(n)) % 2 for row in rows]
        assert img == sum(x << i for i, x in enumerate(dense))


def test_membership_witnesses_replay_g3():
    section = modp_certificate(3, 2, with_witnesses=True)
    assert section["passed"]
    mats = [reduce_mod_p(c.matrix, 2) for c in theorem_generators(3)]
    witnesses = section["membership_witnesses"]
    system = lickorish_system(3)
    assert set(witnesses) == {f"T{u.name}" for u in system.curves}
    for u in system.curves:
        word = witnesses[f"T{u.name}"]
        assert word
        assert _replay(word, mats, 2) == reduce_mod_p(u.twist, 2)


def _orbits_match_oracle(g, p, full):
    """The bitmap orbit equals the BFS oracle's set: on the set without f3 and
    on each generator alone, and on the full set when full is set; the full
    set is transitive."""
    certs = theorem_generators(g)
    mats = [reduce_mod_p(c.matrix, p) for c in certs]
    assert _vector_orbit(mats, p) == (1 << p ** (2 * g)) - 2  # every nonzero vector
    without_f3 = [m for c, m in zip(certs, mats) if c.name != "f3"]
    subsets = [without_f3] + [[m] for m in mats] + ([mats] if full else [])
    for subset in subsets:
        assert _vector_orbit(subset, p) == orbit_bitmap(vector_orbit_oracle(subset, p), p)


@pytest.mark.parametrize("g", range(3, 11))
def test_packed_orbit_matches_generic(g):
    # the oracle stores every vector as a tuple, so the full set is compared
    # up to g = 6; g = 10 is the largest genus the CLI accepts at p = 2
    _orbits_match_oracle(g, 2, full=g <= 6)


@pytest.mark.parametrize("g", (3, 4))
def test_packed_orbit_matches_generic_mod3(g):
    _orbits_match_oracle(g, 3, full=True)


def _replay_ops(ops, v, p):
    v = list(v)
    for i, j, ((w, x), (y, z)) in ops:
        v[i], v[j] = (w * v[i] + x * v[j]) % p, (y * v[i] + z * v[j]) % p
    return v


@pytest.mark.parametrize("p", (2, 3))
@pytest.mark.parametrize("g", range(3, 9))
def test_elimination_ops_replay_each_generator(g, p):
    # applied to e_k, the ops give column k of M mod p
    n = 2 * g
    for c in theorem_generators(g):
        m = reduce_mod_p(c.matrix, p)
        ops = _elimination_ops(m, p)
        for k in range(n):
            unit = [int(i == k) for i in range(n)]
            assert _replay_ops(ops, unit, p) == [row[k] for row in m], (c.name, k)


def test_elimination_ops_of_signed_permutations_are_swaps_and_scalings():
    # f1 and f2 permute the basis up to sign: no op adds one coordinate to another
    for p in (2, 3):
        for c in theorem_generators(6):
            if c.name in ("f1", "f2"):
                for _, _, q in _elimination_ops(reduce_mod_p(c.matrix, p), p):
                    assert q[1][0] == 0 or q == ((0, 1), (1, 0)), (c.name, q)
    assert _elimination_ops(reduce_mod_p(identity(3), 3), 3) == []


@pytest.mark.parametrize("m,p", [
    (((1, 1), (1, 1)), 2),
    (((1, 2), (2, 1)), 3),                    # det -3
    (((1, 0, 0), (0, 0, 0), (0, 0, 1)), 3),  # a zero row
])
def test_elimination_rejects_singular_matrix(m, p):
    with pytest.raises(ValueError, match="singular"):
        _elimination_ops(m, p)


def test_modp_certificate_mod3_g6():
    # the largest orbit the CLI accepts at p = 3
    section = modp_certificate(6, 3)
    assert section["mode"] == "transitivity"
    assert section["orbit"] == {"orbit_size": 531_440, "nonzero_vectors": 531_440}
    assert section["passed"]


def test_packed_orbit_bitmap_is_bounded(monkeypatch):
    # the orbit stores a bitmap of p^n bits: n = 20 at p = 2 and n = 12 at
    # p = 3 are the largest TRANSITIVITY_LIMIT admits
    assert modp_transitivity([identity(10)], 2).details == {
        "orbit_size": 1, "nonzero_vectors": 2 ** 20 - 1}
    assert modp_transitivity([identity(6)], 3).details == {
        "orbit_size": 1, "nonzero_vectors": 3 ** 12 - 1}

    def no_orbit(*args):
        raise AssertionError("an orbit ran before the size guard")

    monkeypatch.setattr(theorem, "_vector_orbit", no_orbit)
    monkeypatch.setattr(theorem, "_elimination_ops", no_orbit)
    with pytest.raises(ValueError):
        modp_transitivity([identity(11)], 2)
    with pytest.raises(ValueError):
        modp_transitivity([identity(7)], 3)


@pytest.mark.parametrize("p", (2,))  # the chain's only field
@pytest.mark.parametrize("shape", [(2, 2), (3, 4), (5, 5), (4, 3)])
def test_sift_rejects_wrong_shape(p, shape):
    chain = StabilizerChain([reduce_mod_p(m, p) for m in _twists(2)])
    rows, cols = shape
    with pytest.raises(ValueError):
        chain.sift(tuple(tuple(int(i == j) for j in range(cols)) for i in range(rows)))
    ragged = [list(row) for row in reduce_mod_p(identity(2), p)]
    ragged[2].append(0)
    with pytest.raises(ValueError):
        chain.sift(ragged)
    assert chain.sift(reduce_mod_p(identity(2), p)) == ()


@pytest.mark.parametrize("p", (2,))  # the chain's only field
def test_evaluate_rejects_bad_index(p):
    mats = [reduce_mod_p(m, p) for m in _twists(2)]
    chain = StabilizerChain(mats)
    for word in ((-1,), (len(mats),), (0, 1, -2)):
        with pytest.raises(ValueError):
            chain.evaluate(word)
    assert chain.evaluate((len(mats) - 1, 0)) == _replay((len(mats) - 1, 0), mats, p)
    assert chain.evaluate(()) == reduce_mod_p(identity(2), p)


def test_mod2_chain_three_chunk_products():
    # Sp(4,2) on the last two handles at g=9: columns have n = 18 bits, so
    # every product reads the bits of handles 8 and 9 from both half tables,
    # the alpha bits 7, 8 and the beta bits 16, 17
    gens = _twists(9, ("a8", "b8", "c8", "a9", "b9"))
    mats = [reduce_mod_p(m, 2) for m in gens]
    closure = modp_closure(mats, 2)
    assert not closure.exceeded
    chain = StabilizerChain(mats)
    assert chain.order() == closure.size == 720
    for a in mats:
        for b in mats:
            prod = tuple(tuple(v % 2 for v in row) for row in mm(a, b))
            word = chain.sift(prod)
            assert closure.contains(prod)
            assert word is not None
            assert _replay(word, mats, 2) == prod
    assert chain.sift(reduce_mod_p(_twists(9, ("a1",))[0], 2)) is None


@pytest.mark.parametrize("g", (4, 5))
def test_mod2_chain_reaches_sp8_and_sp10(g):
    # half tables over 4 bits each at n = 8, over 5 bits each at n = 10
    mats = [reduce_mod_p(c.matrix, 2) for c in theorem_generators(g)]
    chain = StabilizerChain(mats)
    assert chain.order() == sp_modp_order(g, 2)
    for target in (reduce_mod_p(m, 2) for m in _twists(g, ("a1", "b1", "c1"))):
        word = chain.sift(target)
        assert word is not None
        assert _replay(word, mats, 2) == target
