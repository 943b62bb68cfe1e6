import json
import sys
from collections import Counter

import pytest

from conftest import drop_generator, orbit_closure
from mcgtorsion.curves import lickorish_system
from mcgtorsion.kernels import modp_closure
from mcgtorsion import cli, curves, theorem, torsion, words
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
from mcgtorsion.torsion import theorem_generators


@pytest.mark.parametrize("g", range(3, 9))
def test_luo_decomposition(g):
    assert luo_decomposition_check(g).passed


@pytest.mark.parametrize("g", range(3, 9))
def test_lantern_assembly(g):
    verdict = lantern_assembly_check(g)
    assert verdict.passed and verdict.details == {}


@pytest.mark.parametrize("reorder", ("reversed", "rotated"))
@pytest.mark.parametrize("g, prime, mode", [(3, 2, "exact-order"), (4, 2, "transitivity"),
                                            (8, None, None)])
def test_verdicts_read_generators_by_name(monkeypatch, g, prime, mode, reorder):
    # a generating set is a set: listed in another order it passes every
    # section, and only the report's generator lists follow the listed order
    checks = {"torsion", "theorem"} | ({"modp"} if prime else set())
    want, _ = full_theorem_report(g, prime=prime, checks=checks)
    certs = theorem_generators(g)
    listed = certs[::-1] if reorder == "reversed" else certs[1:] + certs[:1]
    monkeypatch.setattr(theorem, "theorem_generators", lambda _g: listed)
    report, _ = full_theorem_report(g, prime=prime, checks=checks)
    assert report["passed"] is True
    names = [c.name for c in listed]
    torsion_section, theorem_section = report["checks"]["torsion"], report["checks"]["theorem"]
    assert [c["name"] for c in torsion_section["certificates"]] == names
    assert torsion_section["f2f1_order"] == g
    assert theorem_section["orbit"]["details"]["generators"] == names
    want_orbit = want["checks"]["theorem"]["orbit"]["details"]
    assert theorem_section["orbit"]["details"]["witnesses"] == want_orbit["witnesses"]
    assert theorem_section["luo"] == want["checks"]["theorem"]["luo"]
    if prime:
        assert report["checks"]["modp"]["mode"] == mode
        assert report["checks"]["modp"]["generators"] == names


@pytest.mark.parametrize("g", (3, 4))
def test_theorem_section_without_f3_names_it(monkeypatch, g):
    drop_generator(monkeypatch, g, "f3")
    with pytest.raises(KeyError, match="'f3'"):
        full_theorem_report(g, checks={"theorem"})


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
    words = lickorish_words(g)
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
    gens = [c.matrix for c in theorem_generators(g)]
    words = lickorish_words(g)
    ends = {_endpoint_and_matrix(g, w)[0].canonical().coords for w in words.values()}
    orbit = orbit_closure(gens, [alpha(1, g)], cap=100_000, targets=ends)
    assert not orbit.exceeded
    assert ends <= orbit.classes


@pytest.mark.parametrize("g", (3, 4, 5, 6, 7, 8, 12, 16))
def test_orbit_words_conjugate_twists(g):
    # the paper's form: W T_a1 W^-1 = T_u for the word W of each curve u
    words = lickorish_words(g)
    ta1 = transvection(alpha(1, g))
    for u in lickorish_system(g).curves:
        _, w = _endpoint_and_matrix(g, words[u.name])
        assert w @ ta1 @ w.inv() == u.twist, u.name


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
    assert all(type(t) is float and t >= 0 for t in timings.values()), timings


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


def test_each_identity_runs_once(monkeypatch, capsys, clear_caches):
    # each identity is computed by the verdict that reports it, not at build time
    calls = Counter()

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("luo_decomposition_check", "lantern_assembly_check"):
        counted(theorem, name)
    for name in ("check_chain", "check_lantern"):
        counted(words, name)
    theorem_generators(4), curves.lantern_configuration(4), curves.chain_configuration(4, 4)
    assert not calls
    assert cli.main(["--genus", "4", "--output", "structured"]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["passed"]
    assert calls == {"luo_decomposition_check": 1, "lantern_assembly_check": 1,
                     "check_chain": 3, "check_lantern": 1}


@pytest.mark.parametrize("g", (4, 5))
def test_c3_off_the_handle_shift_fails_only_the_orbit(monkeypatch, capsys, clear_caches, g):
    # c3 = alpha_3 - alpha_4 passes every build check and fits every declared
    # intersection, but its orbit word s f3 a1 lands on s c2 = alpha_3 + alpha_4;
    # the failed verdicts are row c3-is-a3-a4 of tests/test_controls.py
    real = curves._build_system

    def flipped(genus, c_signs):
        return real(genus, c_signs[:2] + ((1, -1),) + c_signs[3:])

    monkeypatch.setattr(curves, "_build_system", flipped)
    assert cli.main(["--genus", str(g), "--output", "structured"]) == 1
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["convention"]["c_class_signs"][2] == [1, -1]


@pytest.mark.parametrize("args, orders", [
    (("--genus", "3"), 6),  # five certificates and f2 f1
    (("--genus", "4"), 5),  # four certificates and f2 f1
    (("--genus", "3", "--checks", "modp", "--prime", "2"), 0),
    (("--genus", "4", "--checks", "theorem"), 0),
])
def test_each_order_is_computed_once(monkeypatch, capsys, clear_caches, args, orders):
    # generator orders are decided by the torsion verdict alone, not at build time
    calls = Counter()
    real = sys.modules["mcgtorsion.symplectic"].element_order

    def counted(m, bound):
        calls["element_order"] += 1
        return real(m, bound)

    for name, module in list(sys.modules.items()):
        if name.startswith("mcgtorsion") and hasattr(module, "element_order"):
            monkeypatch.setattr(module, "element_order", counted)
    assert cli.main([*args, "--output", "structured"]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["passed"]
    assert calls["element_order"] == orders


@pytest.mark.parametrize("g, status", [(4, 1), (3, 0)])
def test_wrong_handle_block_order_fails_the_torsion_verdict(monkeypatch, capsys, clear_caches,
                                                            g, status):
    # a symplectic order-6 block that still sends a4 to b4 passes every build
    # check, so only the order verdict sees it (row order6-handle-block of
    # tests/test_controls.py); at genus 3 the local f3 has no handle blocks,
    # so the run passes
    monkeypatch.setattr(torsion, "ORDER3_BLOCK", ((0, -1), (1, 1)))
    assert cli.main(["--genus", str(g)]) == status
    text = capsys.readouterr().out
    assert ("  order not as claimed: f3" in text) is bool(status)


def test_wrong_lantern_class_fails_the_verdict(monkeypatch, capsys, clear_caches):
    # a wrong interior class used to raise while building the lantern; the
    # failed verdict is row lantern-y-is-a1+a3-relations of tests/test_controls.py
    monkeypatch.setitem(curves.LANTERN_INTERIOR, "y", (1, 0, 1))
    assert cli.main(["--genus", "3", "--checks", "relations", "--output", "structured"]) == 1
    section = json.loads(capsys.readouterr().out)["report"]["checks"]["relations"]
    (failure,) = [f for f in section["failures"] if f["check"] == "lantern(g=3)"]
    details = failure["details"]
    assert details["lhs_matrix"] != details["rhs_matrix"]
    assert len(details["lhs_matrix"]) == len(details["rhs_matrix"]) == 6
