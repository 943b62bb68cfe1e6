import pytest

from mcgtorsion.curves import lickorish_system
from mcgtorsion.symplectic import alpha, identity, reduce_mod_p, transvection
from mcgtorsion.theorem import (
    certificate_mode,
    default_orbit_cap,
    full_theorem_report,
    lantern_assembly_check,
    luo_decomposition_check,
    modp_certificate,
    modp_subgroup_order,
    modp_transitivity,
    orbit_closure,
    property1_orbit_check,
    sp_modp_order,
)
from mcgtorsion.torsion import theorem_generators


@pytest.mark.parametrize("g", range(3, 9))
def test_luo_decomposition(g):
    assert luo_decomposition_check(g).passed


def test_luo_negative_control():
    # replacing f2 by the identity collapses the middle expression to I
    v = luo_decomposition_check(4, f2_override=identity(4))
    assert not v.passed


@pytest.mark.parametrize("g", range(3, 9))
def test_lantern_assembly(g):
    assert lantern_assembly_check(g).passed


def test_lantern_assembly_negative_control():
    v = lantern_assembly_check(4, f3_override=identity(4))
    assert not v.passed
    v = lantern_assembly_check(3, f3_override=identity(3))
    assert not v.passed


def test_orbit_identity_only():
    orbit = orbit_closure([identity(3)], [alpha(1, 3)], cap=100)
    assert orbit.size == 1
    assert not orbit.exceeded
    assert orbit.contains(alpha(1, 3))
    assert orbit.contains(-alpha(1, 3))  # canonicalized up to sign


def test_orbit_cap_inconclusive():
    verdict, orbit = property1_orbit_check(4, cap=5)
    assert verdict.status == "inconclusive"
    assert orbit.exceeded
    assert orbit.size <= 5


@pytest.mark.parametrize("g", range(3, 9))
def test_property1_orbit(g):
    verdict, orbit = property1_orbit_check(g)
    assert verdict.passed
    assert verdict.details["missing"] == []
    assert orbit.size <= default_orbit_cap(g)


def test_orbit_verdict_independent_of_generator_order():
    # the level-synchronous stop rule makes the explored set a ball around
    # the seed, so even the set itself is order-independent
    g = 4
    certs = theorem_generators(g)
    gens = [c.matrix for c in certs]
    system = lickorish_system(g)
    targets = {u.cls.canonical().coords for u in system.curves}
    a = orbit_closure(gens, [alpha(1, g)], cap=10_000, targets=targets)
    b = orbit_closure(list(reversed(gens)), [alpha(1, g)], cap=10_000, targets=targets)
    assert targets <= a.classes and targets <= b.classes
    assert a.classes == b.classes


def test_orbit_monotone_in_cap():
    g = 4
    certs = theorem_generators(g)
    gens = [c.matrix for c in certs]
    small = orbit_closure(gens, [alpha(1, g)], cap=20)
    large = orbit_closure(gens, [alpha(1, g)], cap=60)
    assert small.exceeded and large.exceeded
    assert small.classes <= large.classes


def test_orbit_witnesses_replay():
    g = 4
    certs = theorem_generators(g)
    gens = [c.matrix for c in certs]
    names = [c.name for c in certs]
    by_name = dict(zip(names, gens))
    by_name.update({f"{n}^-1": m.inv() for n, m in zip(names, gens)})
    system = lickorish_system(g)
    targets = {u.cls.canonical().coords for u in system.curves}
    orbit = orbit_closure(gens, [alpha(1, g)], cap=10_000, targets=targets,
                          gen_names=names, with_parents=True)
    for coords, word in orbit.witnesses.items():
        v = alpha(1, g)
        for step in word:
            v = by_name[step].apply(v)
        assert v.canonical().coords == coords


def test_sp_order_formula():
    assert sp_modp_order(1, 3) == 24
    assert sp_modp_order(2, 2) == 720
    assert sp_modp_order(3, 2) == 512 * 3 * 15 * 63
    assert sp_modp_order(3, 2) == 1_451_520


def test_modp_order_identity_only():
    order, _ = modp_subgroup_order([identity(2)], 2)
    assert order == 1


def test_modp_order_sp42():
    gens = [u.twist for u in lickorish_system(2).curves]
    order, _ = modp_subgroup_order(gens, 2)
    assert order == 720


def test_modp_order_divides_with_extra_generator():
    g = 2
    system = lickorish_system(g)
    partial = [system.curve("a1").twist, system.curve("b1").twist]
    order_small, _ = modp_subgroup_order(partial, 2)
    order_large, _ = modp_subgroup_order(partial + [system.curve("a2").twist], 2)
    assert order_large % order_small == 0
    assert order_small < order_large


def test_modp_order_cap_exceeded():
    gens = [u.twist for u in lickorish_system(2).curves]
    order, result = modp_subgroup_order(gens, 2, cap=100)
    assert order is None
    assert result.exceeded
    assert result.size == 100  # partial count


@pytest.mark.parametrize("g", (4, 5, 6))
def test_mod2_transitivity(g):
    gens = [c.matrix for c in theorem_generators(g)]
    v = modp_transitivity(gens, 2)
    assert v.passed
    assert v.details["nonzero_vectors"] == 2 ** (2 * g) - 1


def test_transitivity_negative_control():
    v = modp_transitivity([identity(4)], 2)
    assert not v.passed
    assert v.details["orbit_size"] == 1


def test_transitivity_rejects_large_p():
    with pytest.raises(ValueError):
        modp_transitivity([identity(2)], 5)


def test_mod3_transitivity_small_genus():
    gens = [c.matrix for c in theorem_generators(3)]
    v = modp_transitivity(gens, 3)
    assert v.passed
    assert v.details["nonzero_vectors"] == 3 ** 6 - 1


def test_certificate_mode_predicate():
    # the CLI rejects a modp check exactly where this is None
    assert certificate_mode(3, 2) == "exact-order"       # |Sp(6,2)| = 1451520
    assert certificate_mode(4, 2) == "transitivity"
    assert certificate_mode(10, 2) == "transitivity"     # 2^20-1 vectors
    assert certificate_mode(11, 2) is None               # 2^22-1 vectors
    assert certificate_mode(6, 3) == "transitivity"      # 3^12-1 vectors
    assert certificate_mode(7, 3) is None
    assert certificate_mode(3, 5) is None
    assert certificate_mode(3, 5, enum_cap=10 ** 20) == "exact-order"


def test_modp_certificate_full_mode_g3():
    section = modp_certificate(3, 2)
    assert section["mode"] == "exact-order"
    assert section["torsion_order"] == 1_451_520
    assert section["lickorish_order"] == 1_451_520
    assert section["same_subgroup"]
    assert section["passed"]


def test_modp_certificate_transitivity_mode():
    section = modp_certificate(4, 2)
    assert section["mode"] == "transitivity"
    assert section["passed"]
    assert "weaker" in section["note"]


def test_full_report_structure():
    report, timings = full_theorem_report(4)
    assert report["genus"] == 4
    assert report["passed"]
    assert set(report["checks"]) == {"relations", "torsion", "theorem"}
    assert report["checks"]["torsion"]["generator_count"] == 4
    assert "necessary conditions" in report["note"]
    assert set(timings) == set(report["checks"])


def test_full_report_g3_lists_five_generators():
    report, _ = full_theorem_report(3)
    assert report["checks"]["torsion"]["generator_count"] == 5


def test_full_report_rejects_genus_2_for_theorem_checks():
    with pytest.raises(ValueError):
        full_theorem_report(2, checks={"theorem"})
    with pytest.raises(ValueError):
        full_theorem_report(2, checks={"torsion"})
    with pytest.raises(ValueError):
        full_theorem_report(1)


def test_full_report_genus_2_relations_only_by_default():
    report, _ = full_theorem_report(2)
    assert set(report["checks"]) == {"relations"}
    assert report["passed"]


def test_full_report_modp_requires_prime():
    with pytest.raises(ValueError):
        full_theorem_report(3, checks={"modp"})


def test_same_subgroup_witnesses_evaluate():
    # witness words from the closure must reproduce the twist images mod 2
    g = 2
    system = lickorish_system(g)
    gens = [u.twist for u in system.curves]
    order, closure = modp_subgroup_order(gens, 2, with_parents=True)
    assert order == 720
    mats2 = [reduce_mod_p(m, 2) for m in gens]
    target = reduce_mod_p(system.curve("a2").twist @ system.curve("b1").twist, 2)
    word = closure.witness(target)
    assert word is not None
    acc = reduce_mod_p(identity(g), 2)
    from mcgtorsion.chain import mul_mod

    for gi in word:
        acc = mul_mod(acc, mats2[gi], 2)
    assert acc == target
