import pytest

from conftest import ident, mm, mpow, symplectic_form, tv
from mcgtorsion import curves as curves_mod
from mcgtorsion import symplectic, words
from mcgtorsion.curves import (
    LanternConfig,
    NamedCurve,
    _check_lantern,
    _build_system,
    _pad,
    chain_configuration,
    chain_sequence,
    lantern_configuration,
    lickorish_system,
)
from mcgtorsion.symplectic import HomologyClass, alpha, zero_class


def test_curve_counts():
    for g in range(2, 9):
        assert len(lickorish_system(g).curves) == 3 * g - 1


def test_rejects_small_genus():
    with pytest.raises(ValueError):
        lickorish_system(1)
    with pytest.raises(ValueError):
        lantern_configuration(2)


def test_named_curve_validation():
    with pytest.raises(ValueError):
        NamedCurve("bad", zero_class(2), separating=False)
    with pytest.raises(ValueError):
        NamedCurve("bad", HomologyClass((2, 0, 0, 0), 2))


def test_declared_intersections():
    g = 3
    meeting = lickorish_system(g).meeting
    assert meeting == {("a1", "b1"), ("a2", "b2"), ("a3", "b3"),
                       ("b1", "c1"), ("b2", "c1"), ("b2", "c2"), ("b3", "c2")}
    assert ("a1", "a2") not in meeting
    assert ("c1", "c2") not in meeting
    assert ("a1", "c2") not in meeting


def test_pairing_matches_declared_intersections():
    for g in (2, 3, 4, 6):
        system = lickorish_system(g)
        curves = system.curves
        pairs = 0
        for i, u in enumerate(curves):
            for v in curves[i + 1 :]:
                f = abs(symplectic_form(u.cls, v.cls))
                assert words.pairing(u, v) == symplectic_form(u.cls, v.cls)
                assert f == (tuple(sorted((u.name, v.name))) in system.meeting)
                pairs += f
        assert pairs == len(system.meeting) == 3 * g - 2


def test_braid_hypothesis_pairs():
    system = lickorish_system(2)
    assert abs(symplectic_form(system.curve("a1").cls, system.curve("b1").cls)) == 1


def test_c_classes_pair_with_adjacent_b():
    system = lickorish_system(3)
    assert abs(symplectic_form(system.curve("c1").cls, system.curve("b1").cls)) == 1
    assert abs(symplectic_form(system.curve("c1").cls, system.curve("b2").cls)) == 1


def test_all_nonseparating_classes_primitive():
    for g in (2, 3, 5, 8):
        for u in lickorish_system(g).curves:
            assert u.cls.is_primitive


def test_sign_solver_deterministic():
    lickorish_system.cache_clear()
    first = lickorish_system(4).c_signs
    lickorish_system.cache_clear()
    assert lickorish_system(4).c_signs == first


def test_c_signs_convention_and_negative_control():
    for g in (2, 3, 4, 8):
        system = lickorish_system(g)
        assert system.c_signs == ((1, 1),) * (g - 1)
        for i in range(1, g):
            want = tuple(a + b for a, b in zip(alpha(i, g).coords, alpha(i + 1, g).coords))
            assert system.curve(f"c{i}").cls.coords == want
    # a flipped sign in c2 leaves the lantern boundary homologically nonzero;
    # one in c3 is the orbit verdict's (tests/test_theorem.py)
    flipped = _build_system(4, ((1, 1), (1, -1), (1, 1)))
    config = lantern_configuration(4)
    roles = dict(config.roles, b=flipped.curve("c2"))
    with pytest.raises(RuntimeError, match="not null-homologous"):
        _check_lantern(LanternConfig(4, roles, config.boundary_orientations))


def _lantern_with(config, orientations=None, **interior):
    g = config.genus
    roles = dict(config.roles)
    for role, triple in interior.items():
        roles[role] = NamedCurve(role, HomologyClass(_pad(triple, g), g))
    return LanternConfig(g, roles, orientations or config.boundary_orientations)


@pytest.mark.parametrize("g", (3, 4, 8))
def test_lantern_rejects_wrong_interior_class(g, monkeypatch):
    config = lantern_configuration(g)
    assert config.roles["y"].cls.coords[:3] == (1, 0, -1)
    assert config.roles["z"].cls.coords[:3] == (1, 1, 1)
    wrong = _lantern_with(config, y=(1, 0, 1))
    _check_lantern(wrong)  # its boundary is still null-homologous
    monkeypatch.setattr(words, "lantern_configuration", lambda genus: wrong)
    verdict = words.check_lantern(g)
    assert not verdict.passed
    assert not verdict.details["product_form"]
    assert verdict.details["lhs_matrix"] != verdict.details["rhs_matrix"]


def test_lantern_rejects_wrong_boundary_orientation():
    config = lantern_configuration(3)
    assert config.boundary_orientations == {"a": 1, "b": 1, "c": -1, "d": -1}
    flipped = dict(config.boundary_orientations, c=1)
    with pytest.raises(RuntimeError, match="null-homologous"):
        _check_lantern(_lantern_with(config, flipped))


def test_lantern_interior_signs_are_a_convention(monkeypatch):
    # twists on the alpha-span commute and T_{-y} = T_y: these pass every check
    config = lantern_configuration(4)
    for interior in ({"y": (1, 1, 1), "z": (1, 0, -1)}, {"y": (-1, 0, 1)}):
        other = _lantern_with(config, **interior)
        _check_lantern(other)
        monkeypatch.setattr(words, "lantern_configuration", lambda genus: other)
        assert words.check_lantern(4).passed


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
        details = words.check_lantern(g).details
        assert details["product_form"] and details["rewritten_form"]


def test_chain_sequence_layout():
    assert chain_sequence(2) == ["a1", "b1", "c1", "b2"]
    assert chain_sequence(3) == ["a1", "b1", "c1", "b2", "c2", "b3"]


def test_chain_does_not_fit():
    with pytest.raises(ValueError):
        chain_configuration(5, 2)
    with pytest.raises(ValueError):
        chain_configuration(0, 2)


def test_even_chain_boundary_separating():
    for g in range(2, 7):
        for t in range(2, 2 * g + 1, 2):
            config = chain_configuration(t, g)
            assert len(config.boundary) == 1
            assert config.boundary[0].separating
            assert config.power == 2 * t + 2


def test_odd_chain_boundary_classes():
    # T_d1 T_d2 = T_d^2 since T_{-d} = T_d; the relation is recomputed with
    # plain list arithmetic on the classes the configuration states
    for g in range(2, 7):
        for t in range(1, 2 * g + 1, 2):
            config = chain_configuration(t, g)
            assert len(config.boundary) == 2
            d1, d2 = config.boundary
            assert d1.cls.coords == tuple(-x for x in d2.cls.coords)
            # the chain a_1, b_1, ..., c_{k-1} has two boundary curves homologous to +/- a_k
            assert d1.cls == alpha((t + 1) // 2, g)
            assert config.power == t + 1
            prod = ident(2 * g)
            for u in config.curves:
                prod = mm(prod, tv(list(u.cls.coords), g))
            assert mpow(prod, t + 1) == mpow(tv(list(d1.cls.coords), g), 2)


def test_chain_configuration_makes_no_matrix(monkeypatch):
    for g in range(2, 7):
        lickorish_system(g)  # built and cached outside the spies
    chain_configuration.cache_clear()
    made = []

    def spy(owner, name):
        real = getattr(owner, name)

        def counting(*args):
            made.append(name)
            return real(*args)

        monkeypatch.setattr(owner, name, counting)

    spy(symplectic, "mul_rows")
    spy(symplectic.SympMatrix, "inv")
    spy(curves_mod, "transvection")
    for g in range(2, 7):
        for t in range(1, 2 * g + 1):
            chain_configuration(t, g)
    assert made == []
    # the spies do see the products the relation makes
    words.check_chain(3, 3)
    assert "mul_rows" in made


def test_chain_32_identity_against_oracle():
    g = 2
    system = lickorish_system(g)
    prod = ident(4)
    for name in ("a1", "b1", "c1"):
        prod = mm(prod, tv(list(system.curve(name).cls.coords), g))
    lhs = mpow(prod, 4)
    rhs = mpow(tv([0, 1, 0, 0], g), 2)
    assert lhs == rhs


def test_chain_42_tenth_power_is_identity_oracle():
    g = 2
    system = lickorish_system(g)
    prod = ident(4)
    for name in ("a1", "b1", "c1", "b2"):
        prod = mm(prod, tv(list(system.curve(name).cls.coords), g))
    assert mpow(prod, 10) == ident(4)
