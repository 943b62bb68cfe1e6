"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
summary.  Stated runtime budgets are asserted with wall-clock checks.
"""

import random
import resource
import time

from conftest import comparable_json, swap_generator
from mcgtorsion import report as report_mod
from mcgtorsion.curves import lickorish_system
from mcgtorsion.symplectic import (
    HomologyClass,
    alpha,
    element_order,
    identity,
    transvection,
)
from mcgtorsion.theorem import (
    alphabet,
    full_theorem_report,
    lantern_assembly_check,
    luo_decomposition_check,
    modp_certificate,
    modp_transitivity,
    property1_orbit_check,
)
from mcgtorsion.torsion import build_genus3_extras, theorem_generators
from mcgtorsion.words import check_lantern, evaluate, relation_suite


def test_criterion_1_relation_suite():
    t0 = time.perf_counter()
    total = 0
    for g in range(2, 7):
        verdicts = relation_suite(g)
        assert all(v.passed for v in verdicts), [v.check for v in verdicts if not v.passed]
        total += len(verdicts)
    # the odd chain case lands exactly on Ta2^2 in Sp(4, Z)
    cfg_sys = lickorish_system(2)
    prod = (
        cfg_sys.curve("a1").twist @ cfg_sys.curve("b1").twist @ cfg_sys.curve("c1").twist
    )
    assert prod ** 4 == transvection(alpha(2, 2)) ** 2
    for g in range(3, 9):
        assert check_lantern(g).passed
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"relation suite took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 PASS: relation suite ({total} checks over g=2..6, "
          f"with chains t=2..4, lantern g=3..8) in {elapsed:.2f}s")


def test_criterion_2_torsion_certificates():
    t0 = time.perf_counter()
    recorded = None
    for g in range(3, 9):
        certs = {c.name: c for c in theorem_generators(g)}
        f1, f2 = certs["f1"], certs["f2"]
        assert (f1.matrix @ f1.matrix).is_identity
        assert (f2.matrix @ f2.matrix).is_identity
        assert element_order(f2.matrix @ f1.matrix, 2 * g) == g
        f3 = certs["f3"]
        assert f3.claimed_order == 3
        assert (f3.matrix ** 3).is_identity and not f3.matrix.is_identity
    tau = build_genus3_extras()
    assert (tau.matrix @ tau.matrix).is_identity
    target, sign = tau.curve_action["a3"]
    assert target.startswith("b")
    recorded = ("-" if sign < 0 else "") + target
    elapsed = time.perf_counter() - t0
    print(f"\nACCEPTANCE 2 PASS: torsion certificates g=3..8 "
          f"(tau sends a3 to {recorded}) in {elapsed:.2f}s")


def test_criterion_3_proof_replay(monkeypatch):
    t0 = time.perf_counter()
    for g in range(3, 9):
        assert luo_decomposition_check(g).passed
        assert lantern_assembly_check(g).passed
    # negative controls: f2, then f3, replaced by the identity in the listed set
    for name, check in (("f2", luo_decomposition_check), ("f3", lantern_assembly_check)):
        swap_generator(monkeypatch, 4, name, matrix=identity(4))
        assert not check(4).passed
    monkeypatch.undo()
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"proof replay took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 3 PASS: Luo + lantern assembly g=3..8, "
          f"negative controls fail, in {elapsed:.2f}s")


def test_criterion_4_orbit_property():
    t0 = time.perf_counter()
    sizes = {}
    for g in range(3, 9):
        verdict, orbit = property1_orbit_check(g)
        assert verdict.passed, verdict.details
        sizes[g] = orbit.size
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"orbit checks took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 4 PASS: all Lickorish classes in the orbit of [a1]; "
          f"orbit sizes {sizes} in {elapsed:.2f}s")


def test_criterion_5_mod2_generation_g3():
    t0 = time.perf_counter()
    section = modp_certificate(3, 2)
    expected = 512 * 3 * 15 * 63  # order formula q^(n^2) prod (q^{2i} - 1)
    assert expected == 1_451_520
    assert section["mode"] == "exact-order"
    assert section["torsion_order"] == expected
    assert section["lickorish_order"] == expected
    assert section["same_subgroup"]
    elapsed = time.perf_counter() - t0
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1024 ** 2)
    assert elapsed < 120.0, f"mod-2 enumeration took {elapsed:.1f}s"
    assert peak_gb < 2.0, f"peak memory {peak_gb:.2f} GB"
    print(f"\nACCEPTANCE 5 PASS: both generator sets give |Sp(6,2)| = {expected} "
          f"in {elapsed:.1f}s, peak rss {peak_gb:.2f} GB")


def test_criterion_6_mod2_transitivity():
    t0 = time.perf_counter()
    for g in (4, 5, 6):
        gens = [c.matrix for c in theorem_generators(g)]
        verdict = modp_transitivity(gens, 2)
        assert verdict.passed
        assert verdict.details["nonzero_vectors"] == 2 ** (2 * g) - 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"transitivity checks took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 6 PASS: transitive on nonzero mod-2 vectors for g=4,5,6 "
          f"in {elapsed:.2f}s")


def test_criterion_7_infrastructure_properties():
    t0 = time.perf_counter()
    rng = random.Random(20260810)
    for g in (2, 3, 4):
        assignment = alphabet(g)
        symbols = sorted(assignment)
        for _ in range(100):
            cut = rng.randint(0, 6)
            word = tuple(
                (rng.choice(symbols), rng.choice((-2, -1, 1, 2)))
                for _ in range(rng.randint(0, 10))
            )
            u, v = word[:cut], word[cut:]
            m = evaluate(word, assignment)  # constructor asserts symplectic
            assert m == evaluate(u, assignment) @ evaluate(v, assignment)
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
    stable = []
    for _ in range(2):
        report, timings = full_theorem_report(3)
        stable.append(comparable_json(report_mod.envelope(report, timings)))
    assert stable[0] == stable[1]
    elapsed = time.perf_counter() - t0
    print(f"\nACCEPTANCE 7 PASS: 100 homomorphism + 100 conjugacy checks per genus, "
          f"byte-stable reports, in {elapsed:.2f}s")
