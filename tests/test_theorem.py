import json
import sys
from collections import Counter

import pytest

from conftest import orbit_closure
from mcgtorsion.curves import lickorish_system
from mcgtorsion.kernels import modp_closure
from mcgtorsion import cli, curves, theorem, torsion
from mcgtorsion.symplectic import SympMatrix, alpha, identity, reduce_mod_p, transvection
from mcgtorsion.theorem import (
    certificate_mode,
    full_theorem_report,
    lantern_assembly_check,
    lickorish_words,
    luo_decomposition_check,
    modp_certificate,
    modp_transitivity,
    property1_orbit_check,
    sp_modp_order,
)
from mcgtorsion.torsion import TorsionCertificate, theorem_generators


@pytest.mark.parametrize("g", range(3, 9))
def test_luo_decomposition(g):
    assert luo_decomposition_check(g).passed


def test_luo_negative_control():
    # replacing f2 by the identity collapses the middle expression to I
    v = torsion.luo_decomposition(4, identity(4))
    assert not v.passed


@pytest.mark.parametrize("g", range(3, 9))
def test_lantern_assembly(g):
    assert lantern_assembly_check(g).passed


def test_lantern_assembly_negative_control():
    v = torsion.lantern_assembly(4, identity(4))
    assert not v.passed
    assert set(v.details) == {"lhs_word", "rhs_word", "lhs_matrix", "rhs_matrix"}
    assert v.details["lhs_word"] == "Tc1"
    assert v.details["lhs_matrix"] != v.details["rhs_matrix"]
    v = torsion.lantern_assembly(3, identity(3))
    assert not v.passed
    assert lantern_assembly_check(4).details == {}


@pytest.mark.parametrize("g, p", [(4, 2), (3, 3)])
def test_modp_certificate_rejects_witnesses_in_transitivity_mode(g, p):
    assert certificate_mode(g, p) == "transitivity"
    with pytest.raises(ValueError, match="membership witnesses need the exact-order"):
        modp_certificate(g, p, with_witnesses=True)


def test_orbit_identity_only():
    orbit = orbit_closure([identity(3)], [alpha(1, 3)], cap=100)
    assert orbit.size == 1
    assert not orbit.exceeded
    assert alpha(1, 3).canonical().coords in orbit.classes
    assert (-alpha(1, 3)).canonical().coords in orbit.classes  # canonicalized up to sign


@pytest.mark.parametrize("g", range(3, 9))
def test_property1_orbit(g):
    verdict, orbit = property1_orbit_check(g)
    assert verdict.passed
    assert verdict.details["missing"] == []
    assert orbit.size == 3 * g - 1
    assert orbit.depth == max(map(len, verdict.details["witnesses"].values())) <= g + 7
    assert verdict.details["witnesses"]["a1"] == []


@pytest.mark.parametrize("g", (*range(3, 21), 24, 32))
def test_theorem_check_passes_at_genus(g):
    # the orbit check has no cap, so no genus goes inconclusive
    report, _ = full_theorem_report(g, checks={"theorem"})
    assert report["passed"], report["checks"]["theorem"]["orbit"]["details"]["missing"]


def _endpoint_and_matrix(g, word):
    by_name = {c.name: c.matrix for c in theorem_generators(g)}
    v, w = alpha(1, g), identity(g)
    for name in word:
        v = by_name[name].apply(v)
        w = by_name[name] @ w
    return v, w


@pytest.mark.parametrize("g", (*range(3, 17), 32))
def test_prefix_shared_replay_matches_letter_by_letter(g):
    # the trie replay gives every curve the endpoint and word of a plain replay
    words = lickorish_words(g, [c.name for c in theorem_generators(g)])
    verdict, orbit = property1_orbit_check(g)
    ends = set()
    for u in lickorish_system(g).curves:
        end = _endpoint_and_matrix(g, words[u.name])[0].canonical().coords
        assert end == u.cls.canonical().coords, u.name
        assert verdict.details["witnesses"][u.name] == list(words[u.name])
        ends.add(end)
    assert orbit.classes == ends
    assert verdict.details["missing"] == []


@pytest.mark.parametrize("g", (16, 32))
def test_orbit_check_applies_each_prefix_once(monkeypatch, g):
    theorem_generators(g)
    lickorish_system(g)
    calls = []
    real_apply = SympMatrix.apply

    def counting_apply(self, x):
        calls.append(x)
        return real_apply(self, x)

    monkeypatch.setattr(SympMatrix, "apply", counting_apply)
    verdict, _ = property1_orbit_check(g)
    assert verdict.passed
    assert 0 < len(calls) < 6 * g


@pytest.mark.parametrize("g", range(3, 7))
def test_orbit_words_land_in_bfs_orbit(g):
    # the words against the independent BFS: every endpoint is in the orbit of a1
    certs = theorem_generators(g)
    gens = [c.matrix for c in certs]
    words = lickorish_words(g, [c.name for c in certs])
    ends = {_endpoint_and_matrix(g, w)[0].canonical().coords for w in words.values()}
    orbit = orbit_closure(gens, [alpha(1, g)], cap=100_000, targets=ends)
    assert not orbit.exceeded
    assert ends <= orbit.classes


@pytest.mark.parametrize("g", (3, 4, 5, 6, 7, 8, 12, 16))
def test_orbit_words_conjugate_twists(g):
    # the paper's form: W T_a1 W^-1 = T_u for the word W of each curve u
    words = lickorish_words(g, [c.name for c in theorem_generators(g)])
    ta1 = transvection(alpha(1, g))
    for u in lickorish_system(g).curves:
        _, w = _endpoint_and_matrix(g, words[u.name])
        assert w @ ta1 @ w.inv() == u.twist, u.name


@pytest.mark.parametrize("g", (4, 5))
def test_orbit_negative_control_f3_identity(monkeypatch, g):
    certs = [c if c.name != "f3" else TorsionCertificate(
                 c.name, identity(g), c.claimed_order, c.curve_action, c.notes)
             for c in theorem_generators(g)]
    monkeypatch.setattr(theorem, "theorem_generators", lambda g: certs)
    verdict, _ = property1_orbit_check(g)
    assert verdict.status == "fail"
    want = [f"b{i}" for i in range(1, g + 1)] + [f"c{i}" for i in range(1, g)]
    assert verdict.details["missing"] == sorted(want)
    assert sorted(verdict.details["witnesses"]) == sorted(f"a{i}" for i in range(1, g + 1))


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


def test_sp_order_formula():
    assert sp_modp_order(1, 3) == 24
    assert sp_modp_order(2, 2) == 720
    assert sp_modp_order(3, 2) == 512 * 3 * 15 * 63
    assert sp_modp_order(3, 2) == 1_451_520


def _closure_mod2(gens, **kwargs):
    return modp_closure([reduce_mod_p(m, 2) for m in gens], 2, **kwargs)


def test_modp_order_identity_only():
    assert _closure_mod2([identity(2)]).size == 1


def test_modp_order_sp42():
    gens = [u.twist for u in lickorish_system(2).curves]
    closure = _closure_mod2(gens)
    assert not closure.exceeded
    assert closure.size == 720


def test_modp_order_divides_with_extra_generator():
    g = 2
    system = lickorish_system(g)
    partial = [system.curve("a1").twist, system.curve("b1").twist]
    order_small = _closure_mod2(partial).size
    order_large = _closure_mod2(partial + [system.curve("a2").twist]).size
    assert order_large % order_small == 0
    assert order_small < order_large


def test_modp_order_cap_exceeded():
    gens = [u.twist for u in lickorish_system(2).curves]
    result = _closure_mod2(gens, cap=100)
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
    mats2 = [reduce_mod_p(m, 2) for m in gens]
    closure = modp_closure(mats2, 2, with_parents=True)
    assert closure.size == 720
    target = reduce_mod_p(system.curve("a2").twist @ system.curve("b1").twist, 2)
    word = closure.witness(target)
    assert word is not None
    acc = reduce_mod_p(identity(g), 2)
    from mcgtorsion.kernels import mul_mod

    for gi in word:
        acc = mul_mod(acc, mats2[gi], 2)
    assert acc == target


def test_full_report_builds_generators_once(monkeypatch):
    calls = []
    real = torsion.build_f1

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(torsion, "build_f1", counting)
    torsion.theorem_generators.cache_clear()
    report, _ = full_theorem_report(4)
    assert report["passed"]
    assert calls == [4]


def _clear_builders():
    for cached in (curves.lickorish_system, curves.lantern_configuration,
                   curves.chain_configuration, torsion._pi_rotations, torsion.build_f3,
                   torsion.build_genus3_extras, torsion.theorem_generators):
        cached.cache_clear()


def test_each_identity_runs_once(monkeypatch, capsys):
    # each identity is computed by the verdict that reports it, not again at build time
    calls = Counter()

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in ("luo_decomposition", "lantern_assembly"):
        wrapper = counted(name, getattr(torsion, name))
        monkeypatch.setattr(torsion, name, wrapper)
        monkeypatch.setattr(theorem, name, wrapper)
    for name in ("product_sides", "rewritten_sides"):
        monkeypatch.setattr(curves.LanternConfig, name,
                            counted(name, getattr(curves.LanternConfig, name)))
    _clear_builders()
    assert cli.main(["--genus", "4", "--output", "structured"]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["passed"]
    assert calls == {"luo_decomposition": 1, "lantern_assembly": 1,
                     "product_sides": 1, "rewritten_sides": 1}


@pytest.mark.parametrize("args, orders", [
    (("--genus", "3"), 6),  # five certificates and f2 f1
    (("--genus", "4"), 5),  # four certificates and f2 f1
    (("--genus", "3", "--checks", "modp", "--prime", "2"), 0),
    (("--genus", "4", "--checks", "theorem"), 0),
])
def test_each_order_is_computed_once(monkeypatch, capsys, args, orders):
    # generator orders are decided by the torsion verdict alone, not at build time
    calls = Counter()
    real = sys.modules["mcgtorsion.symplectic"].element_order

    def counted(m, bound):
        calls["element_order"] += 1
        return real(m, bound)

    for name, module in list(sys.modules.items()):
        if name.startswith("mcgtorsion") and hasattr(module, "element_order"):
            monkeypatch.setattr(module, "element_order", counted)
    _clear_builders()
    assert cli.main([*args, "--output", "structured"]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["passed"]
    assert calls["element_order"] == orders


@pytest.mark.parametrize("g, status", [(4, 1), (3, 0)])
def test_wrong_handle_block_order_fails_the_torsion_verdict(monkeypatch, capsys, g, status):
    # a symplectic order-6 block that still sends a4 to b4 passes every build
    # check, so only the order verdict sees it; at genus 3 the local f3 has
    # no handle blocks, so the run passes
    monkeypatch.setattr(torsion, "ORDER3_BLOCK", ((0, -1), (1, 1)))
    _clear_builders()
    try:
        assert cli.main(["--genus", str(g), "--output", "structured"]) == status
        report = json.loads(capsys.readouterr().out)["report"]
        assert cli.main(["--genus", str(g)]) == status
        text = capsys.readouterr().out
    finally:
        monkeypatch.undo()
        _clear_builders()
    checks = report["checks"]
    assert checks["relations"]["passed"] and checks["theorem"]["passed"]
    if status:
        assert checks["torsion"]["passed"] is False
        assert checks["torsion"]["order_failures"] == ["f3"]
        assert "  order not as claimed: f3" in text
    else:
        assert checks["torsion"]["passed"] and "order_failures" not in checks["torsion"]


def test_wrong_lantern_class_fails_the_verdict(monkeypatch, capsys):
    # a wrong interior class used to raise while building the lantern
    monkeypatch.setitem(curves.LANTERN_INTERIOR, "y", (1, 0, 1))
    _clear_builders()
    try:
        status = cli.main(["--genus", "3", "--checks", "relations", "--output", "structured"])
    finally:
        monkeypatch.undo()
        _clear_builders()
    assert status == 1
    section = json.loads(capsys.readouterr().out)["report"]["checks"]["relations"]
    (failure,) = [f for f in section["failures"] if f["check"] == "lantern(g=3)"]
    details = failure["details"]
    assert details["product_form"] is False
    assert details["lhs_matrix"] != details["rhs_matrix"]
    assert len(details["lhs_matrix"]) == len(details["rhs_matrix"]) == 6
