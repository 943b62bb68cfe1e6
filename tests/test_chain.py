import pytest

from mcgtorsion import theorem
from mcgtorsion.chain import StabilizerChain
from mcgtorsion.curves import lickorish_system
from mcgtorsion.symplectic import identity, reduce_mod_p
from mcgtorsion.theorem import (
    _orbit_generic,
    _orbit_packed,
    modp_certificate,
    modp_subgroup_order,
    sp_modp_order,
)
from mcgtorsion.torsion import theorem_generators

from conftest import mm


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
    (None, 3),                 # Sp(4,3), 51840
])
def test_chain_order_matches_bfs_oracle(names, p):
    gens = _twists(2, names)
    bfs_order, closure = modp_subgroup_order(gens, p)
    mats = [reduce_mod_p(m, p) for m in gens]
    chain = StabilizerChain(mats, p)
    assert chain.order() == bfs_order
    if names is None:
        assert bfs_order == sp_modp_order(2, p)
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
    chain = StabilizerChain(partial, 2)
    assert chain.order() == 6  # SL(2,2) on the first handle
    assert chain.sift(reduce_mod_p(_twists(2, ("a2",))[0], 2)) is None
    assert chain.sift(reduce_mod_p(identity(2), 2)) == ()


def test_chain_identity_only():
    chain = StabilizerChain([reduce_mod_p(identity(2), 2)], 2)
    assert chain.order() == 1
    assert chain.sift(reduce_mod_p(_twists(2, ("a1",))[0], 2)) is None


def test_chain_rejects_singular_generator():
    with pytest.raises(ValueError):
        StabilizerChain([((1, 1), (1, 1))], 2)


def test_modp_certificate_negative_control_without_f3(monkeypatch):
    certs = [c for c in theorem_generators(3) if c.name != "f3"]
    monkeypatch.setattr(theorem, "theorem_generators", lambda g: certs)
    section = modp_certificate(3, 2)
    assert section["generators"] == [c.name for c in certs]
    assert section["mode"] == "exact-order"
    assert section["torsion_order"] < 1_451_520
    assert 1_451_520 % section["torsion_order"] == 0
    assert not section["same_subgroup"]
    assert not section["passed"]


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


@pytest.mark.parametrize("g", range(3, 7))
def test_packed_orbit_matches_generic(g):
    mats = [reduce_mod_p(c.matrix, 2) for c in theorem_generators(g)]
    n = 2 * g
    assert _orbit_packed(mats, n, 10 ** 6) == _orbit_generic(mats, 2, n, 10 ** 6)
    assert _orbit_packed(mats, n, 10 ** 6) == (2 ** n - 1, False)
    for limit in (1, 7, 40):
        assert _orbit_packed(mats, n, limit) == _orbit_generic(mats, 2, n, limit)
