import random

import pytest

from conftest import ident, mm, mpow, tv
from mcgtorsion.curves import (
    IntersectionTable,
    NamedCurve,
    chain_configuration,
    chain_sequence,
    intersections_consistent,
    lantern_configuration,
    lickorish_curves,
    lickorish_system,
    lickorish_table,
)
from mcgtorsion.symplectic import HomologyClass, symplectic_form, zero_class


def test_curve_counts():
    for g in range(2, 9):
        assert len(lickorish_curves(g)) == 3 * g - 1


def test_rejects_small_genus():
    with pytest.raises(ValueError):
        lickorish_curves(1)
    with pytest.raises(ValueError):
        lantern_configuration(2)


def test_named_curve_validation():
    with pytest.raises(ValueError):
        NamedCurve("bad", zero_class(2), separating=False)
    with pytest.raises(ValueError):
        NamedCurve("bad", HomologyClass((2, 0, 0, 0), 2))


def test_declared_intersections():
    g = 3
    table = lickorish_table(g)
    assert table.get("a1", "b1") == 1
    assert table.get("b1", "c1") == 1
    assert table.get("c1", "b2") == 1
    assert table.get("a1", "a2") == 0
    assert table.get("c1", "c2") == 0
    assert table.get("a1", "c2") == 0


def test_pairing_matches_declared_intersections():
    for g in (2, 3, 4, 6):
        system = lickorish_system(g)
        curves = system.curves
        for i, u in enumerate(curves):
            for v in curves[i + 1 :]:
                f = abs(symplectic_form(u.cls, v.cls))
                k = system.table.get(u.name, v.name)
                assert f <= k
                if k <= 1:
                    assert f == k


def test_intersections_consistent_matches_dense_pairing():
    # random primitive classes, some with both coordinates of a handle set,
    # and tables near their true pairings, against a pairing summed densely
    rng = random.Random(2016)
    verdicts = []
    for _ in range(300):
        g = rng.randint(1, 4)
        curves = []
        while len(curves) < 4:
            cls = HomologyClass(tuple(rng.choice((-1, 0, 0, 1, 2)) for _ in range(2 * g)), g)
            if cls.is_primitive:
                curves.append(NamedCurve(f"u{len(curves)}", cls))
        table = IntersectionTable()
        want = True
        for i, u in enumerate(curves):
            for v in curves[i + 1 :]:
                a, b = u.cls.coords, v.cls.coords
                f = abs(sum(a[t] * b[g + t] - a[g + t] * b[t] for t in range(g)))
                k = max(0, f + rng.choice((0, 0, 0, 0, 1, -1)))
                table.set(u.name, v.name, k)
                want &= f <= k and (k > 1 or f == k)
        verdicts.append(want)
        assert intersections_consistent(curves, table) == want
    assert 30 < sum(verdicts) < 270


def test_braid_hypothesis_pairs():
    system = lickorish_system(2)
    assert abs(symplectic_form(system.cls("a1"), system.cls("b1"))) == 1


def test_c_classes_pair_with_adjacent_b():
    system = lickorish_system(3)
    assert abs(symplectic_form(system.cls("c1"), system.cls("b1"))) == 1
    assert abs(symplectic_form(system.cls("c1"), system.cls("b2"))) == 1


def test_all_nonseparating_classes_primitive():
    for g in (2, 3, 5, 8):
        for u in lickorish_curves(g):
            assert u.cls.is_primitive


def test_sign_solver_deterministic():
    lickorish_system.cache_clear()
    first = lickorish_system(4).c_signs
    lickorish_system.cache_clear()
    assert lickorish_system(4).c_signs == first


def test_lantern_roles_and_x_class():
    config = lantern_configuration(3)
    assert config.roles["x"].name == "a2"
    assert config.roles["x"].cls.coords == (0, 1, 0, 0, 0, 0)
    assert {config.roles[r].name for r in "abcd"} == {"a1", "c2", "a3", "c1"}


def test_lantern_boundary_sums_to_zero_with_orientations():
    for g in (3, 4):
        config = lantern_configuration(g)
        total = [0] * (2 * g)
        for role in "abcd":
            s = config.boundary_orientations[role]
            for k, v in enumerate(config.roles[role].cls.coords):
                total[k] += s * v
        assert all(v == 0 for v in total)


def test_lantern_identity_against_oracle():
    # recompute both sides with plain list arithmetic
    for g in (3, 4):
        config = lantern_configuration(g)
        cls = {r: list(config.roles[r].cls.coords) for r in "abcdxyz"}
        lhs = ident(2 * g)
        for r in "abcd":
            lhs = mm(lhs, tv(cls[r], g))
        rhs = ident(2 * g)
        for r in "xyz":
            rhs = mm(rhs, tv(cls[r], g))
        assert lhs == rhs


def test_lantern_holds_up_to_genus_8():
    for g in range(3, 9):
        lhs, rhs = lantern_configuration(g).product_sides()
        assert lhs == rhs
        lhs, rhs = lantern_configuration(g).rewritten_sides()
        assert lhs == rhs


def test_chain_sequence_layout():
    assert chain_sequence(2) == ["a1", "b1", "c1", "b2"]
    assert chain_sequence(3) == ["a1", "b1", "c1", "b2", "c2", "b3"]


def test_chain_does_not_fit():
    with pytest.raises(ValueError):
        chain_configuration(5, 2)
    with pytest.raises(ValueError):
        chain_configuration(0, 2)


def test_even_chain_boundary_separating():
    for t, g in ((2, 2), (4, 2), (2, 3)):
        config = chain_configuration(t, g)
        assert len(config.boundary) == 1
        assert config.boundary[0].separating
        assert config.power == 2 * t + 2


def test_odd_chain_boundary_classes():
    for t, g in ((3, 2), (3, 3)):
        config = chain_configuration(t, g)
        assert len(config.boundary) == 2
        d1, d2 = config.boundary
        assert d1.cls.coords == tuple(-x for x in d2.cls.coords)
        # both isotopic to a_2 in the minimal picture: class +/- alpha_2
        expected = [0] * (2 * g)
        expected[1] = 1
        assert d1.cls.coords == tuple(expected)
        assert config.power == t + 1


def test_chain_32_identity_against_oracle():
    g = 2
    system = lickorish_system(g)
    prod = ident(4)
    for name in ("a1", "b1", "c1"):
        prod = mm(prod, tv(list(system.cls(name).coords), g))
    lhs = mpow(prod, 4)
    rhs = mpow(tv([0, 1, 0, 0], g), 2)
    assert lhs == rhs


def test_chain_42_tenth_power_is_identity_oracle():
    g = 2
    system = lickorish_system(g)
    prod = ident(4)
    for name in ("a1", "b1", "c1", "b2"):
        prod = mm(prod, tv(list(system.cls(name).coords), g))
    assert mpow(prod, 10) == ident(4)
