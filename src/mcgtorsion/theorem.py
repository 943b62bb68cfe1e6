"""Replays the main generation argument at the homology level.

Checks, per genus: the Luo decomposition of Ta2 Ta1^-1 into two
involutions, the assembly of T_c1 from conjugates of Ta2 Ta1^-1 by the
order-3 element, the single-orbit property of the Lickorish classes under
the torsion group, and finite certificates that the generator images span
the full symplectic group over a small prime.  The orbit property is
certified by the paper's own words: a fixed generator word per curve,
applied to a_1 and compared with the curve's class, so it needs no search
and cannot be inconclusive.

The mod-p certificate is exact order when |Sp(2g, p)| fits under the cap:
stabilizer chains of the torsion and twist images give both orders
exactly, and sifting each generator set through the other's chain decides
membership both ways.  Above the cap it falls back to transitivity on
nonzero vectors, which is run only for p in (2, 3) and only when every
nonzero vector fits under the orbit limit; any other (genus, prime) pair
is rejected before a check runs.

Everything here sees only the homology representation, so a passing run
certifies necessary conditions of the generation statement; phenomena in
the Torelli kernel are invisible by design.
"""

from __future__ import annotations

from . import kernels
from .chain import StabilizerChain
from .curves import lickorish_system
from .symplectic import (
    Frozen,
    alpha,
    element_order,
    pack_columns,
    reduce_mod_p,
    xor_tables,
)
from .torsion import theorem_generators, _pi_rotations, build_f3, build_genus3_extras
from .words import Verdict, relation_suite

HOMOLOGY_CAVEAT = (
    "verification is at the homology-representation level: passing checks are "
    "necessary conditions; statements inside the Torelli kernel are out of scope"
)


# the most vectors the transitivity certificate's orbit search stores
TRANSITIVITY_LIMIT = 2_000_000


class OrbitSet(Frozen):
    """Curve classes reached from a seed, canonicalized up to global sign."""

    def __init__(self, genus, classes, depth, exceeded):
        self._set_fields(genus=genus, classes=classes, depth=depth, exceeded=exceeded)

    @property
    def size(self):
        return len(self.classes)

    def contains(self, cls):
        return cls.canonical().coords in self.classes


def _canon(coords):
    for x in coords:
        if x > 0:
            return coords
        if x < 0:
            return tuple(-v for v in coords)
    return coords


def orbit_closure(generators, seeds, cap, targets=None):
    """Level-synchronous BFS of seed classes under generators and inverses.

    Stops at the first completed level containing all targets (when given),
    when the orbit closes, or when the explored set would pass cap, in
    which case the result is flagged exceeded.  The tests use it as the
    oracle for the explicit words of property1_orbit_check.
    """
    if not generators:
        raise ValueError("need at least one generator")
    genus = generators[0].genus
    maps = []
    for m in generators:
        inv = m.inv()
        maps += [m] if inv == m else [m, inv]
    seen = set()
    for s in seeds:
        if s.genus != genus:
            raise ValueError("seed genus mismatch")
        seen.add(_canon(s.coords))
    frontier = sorted(seen)
    target_set = set(targets) if targets else None
    depth = 0
    while frontier and not (target_set is not None and target_set <= seen):
        nxt = []
        for coords in frontier:
            for m in maps:
                img = _canon(m.apply(coords))
                if img in seen:
                    continue
                if len(seen) >= cap:
                    return OrbitSet(genus, frozenset(seen), depth, True)
                seen.add(img)
                nxt.append(img)
        if nxt:
            depth += 1
        frontier = sorted(nxt)
    return OrbitSet(genus, frozenset(seen), depth, False)


def lickorish_words(g, names):
    """The paper's word carrying a1 to each Lickorish curve, in application order.

    names are the generator names of theorem_generators(g).  With the handle
    shift s = f2 f1 (i -> i+1): a_i = s^(i-1) a1; c_i = s^(i-2) f3 a1, since
    f3 cycles a1 -> c2 -> a3; b_i = s^(i-4) f3 s^3 a1 for g >= 4, since f3
    sends a4 to b4; and at g = 3, b_i = s^(i-2) tau s^2 a1, since tau sends
    a3 to -b2.  s^k is written as (f2 f1)^k or (f1 f2)^(g-k), whichever is
    shorter.
    """
    f1, f2, f3 = names[0], names[1], names[3]

    def shift(k):
        k %= g
        return (f1, f2) * k if 2 * k <= g else (f2, f1) * (g - k)

    words = {f"a{i}": shift(i - 1) for i in range(1, g + 1)}
    if g >= 4:
        words.update({f"b{i}": shift(3) + (f3,) + shift(i - 4) for i in range(1, g + 1)})
    else:
        words.update({f"b{i}": shift(2) + (names[4],) + shift(i - 2) for i in range(1, g + 1)})
    words.update({f"c{i}": (f3,) + shift(i - 2) for i in range(1, g)})
    return words


def property1_orbit_check(g):
    """All 3g-1 Lickorish classes lie in the orbit of [a_1], by explicit words.

    Each word of lickorish_words is applied to a_1 with the generator
    matrices and its endpoint compared with the curve's class up to sign;
    a curve whose word lands elsewhere is missing and the check fails.
    Returns the verdict and the OrbitSet of endpoints, whose depth is the
    longest word.
    """
    certs = theorem_generators(g)
    names = [c.name for c in certs]
    by_name = {c.name: c.matrix for c in certs}
    words = lickorish_words(g, names)
    reached = set()
    witnesses = {}
    missing = []
    for u in lickorish_system(g).curves:
        v = alpha(1, g)
        for name in words[u.name]:
            v = by_name[name].apply(v)
        end = _canon(v.coords)
        reached.add(end)
        if end == _canon(u.cls.coords):
            witnesses[u.name] = list(words[u.name])
        else:
            missing.append(u.name)
    details = {"generators": names, "missing": sorted(missing), "witnesses": witnesses}
    depth = max(len(w) for w in words.values())
    verdict = Verdict(f"orbit(g={g})", "fail" if missing else "pass", details)
    return verdict, OrbitSet(g, frozenset(reached), depth, False)


def luo_decomposition_check(g, f2_override=None):
    """Ta2 Ta1^-1 = (f2 Ta1 f2) Ta1^-1 = f2 (Ta1 f2 Ta1^-1), involution included."""
    _, f2, _, _ = _pi_rotations(g)
    if f2_override is not None:
        f2 = f2_override
    system = lickorish_system(g)
    ta1, ta2 = system.curve("a1").twist, system.curve("a2").twist
    target = ta2 @ ta1.inv()
    middle = (f2 @ ta1 @ f2) @ ta1.inv()
    luo_factor = ta1 @ f2 @ ta1.inv()
    right = f2 @ luo_factor
    ok = target == middle == right and (luo_factor @ luo_factor).is_identity
    details = {"equal": target == middle == right,
               "conjugate_is_involution": (luo_factor @ luo_factor).is_identity}
    if not ok:
        details["lhs_word"] = "Ta2 Ta1^-1"
        details["lhs_matrix"] = target.to_lists()
        details["middle_matrix"] = middle.to_lists()
        details["rhs_matrix"] = right.to_lists()
    return Verdict(f"luo(g={g})", "pass" if ok else "fail", details)


def lantern_assembly_check(g, f3_override=None):
    """T_c1 = (Ta2 Ta1^-1) f3(...)f3^-1 f3^2(...)f3^-2 with the built f3."""
    if f3_override is not None:
        f3 = f3_override
    elif g >= 4:
        f3 = build_f3(g).matrix
    elif g == 3:
        f3 = build_genus3_extras()[0].matrix
    else:
        raise ValueError(f"lantern assembly needs genus >= 3, got {g}")
    system = lickorish_system(g)
    e = system.curve("a2").twist @ system.curve("a1").twist.inv()
    f3i = f3.inv()
    rhs = e @ (f3 @ e @ f3i) @ (f3 @ f3 @ e @ f3i @ f3i)
    lhs = system.curve("c1").twist
    ok = lhs == rhs
    details = {}
    if not ok:
        details = {
            "lhs_word": "Tc1",
            "rhs_word": "(Ta2 Ta1^-1) (F3 Ta2 Ta1^-1 F3^-1) (F3^2 Ta2 Ta1^-1 F3^-2)",
            "lhs_matrix": lhs.to_lists(),
            "rhs_matrix": rhs.to_lists(),
        }
    return Verdict(f"lantern_assembly(g={g})", "pass" if ok else "fail", details)


def sp_modp_order(g, p):
    """|Sp(2g, F_p)| = p^(g^2) * prod_{i=1..g} (p^(2i) - 1)."""
    order = p ** (g * g)
    for i in range(1, g + 1):
        order *= p ** (2 * i) - 1
    return order


def modp_subgroup_order(generators, p, cap=2_000_000, with_parents=False):
    """Exact order of the mod-p subgroup generated, or None when cap is hit.

    Enumerates the group with the closure BFS oracle in `kernels`; the tests
    cross-check the stabilizer chains against it, and no certificate uses
    it.  Returns (order_or_None, ClosureResult)."""
    mats = [reduce_mod_p(m, p) for m in generators]
    result = kernels.modp_closure(mats, p, cap=cap, with_parents=with_parents)
    return (None if result.exceeded else result.size), result


def certificate_mode(g, p, enum_cap=2_000_000):
    """The mod-p certificate that can decide generation at genus g, or None.

    "exact-order" when |Sp(2g, p)| <= enum_cap; else "transitivity" when
    p is 2 or 3 and all p^(2g) - 1 nonzero vectors fit under
    TRANSITIVITY_LIMIT; else None, since any run could only be inconclusive.
    """
    if sp_modp_order(g, p) <= enum_cap:
        return "exact-order"
    if p in (2, 3) and p ** (2 * g) - 1 <= TRANSITIVITY_LIMIT:
        return "transitivity"
    return None


def _require_certificate(g, p, enum_cap):
    mode = certificate_mode(g, p, enum_cap)
    if mode is None:
        raise ValueError(
            f"no mod-{p} certificate at genus {g}: |Sp({2 * g},{p})| exceeds the "
            f"enum cap {enum_cap}, and transitivity needs p in (2, 3) with "
            f"p^{2 * g}-1 <= {TRANSITIVITY_LIMIT}"
        )
    return mode


def _orbit_packed(mats, n, limit):
    """Vector orbit over F_2 with each vector held as an int (bit k = entry k).

    M v is the XOR of the columns of M picked out by v, read eight
    coordinates at a time from per-chunk lookup tables, for n <= 24 (at most
    three chunks).  Each level maps the whole frontier through one generator
    at a time, and a bitmap of 2^n bytes marks the vectors seen.
    """
    maps = [xor_tables(pack_columns(m)) for m in mats]
    seen = bytearray(1 << n)
    seen[1] = 1
    size = 1
    frontier = [1]
    while frontier:
        nxt = []
        for tables in maps:
            if len(tables) == 1:
                (t0,) = tables
                images = [t0[v] for v in frontier]
            elif len(tables) == 2:
                t0, t1 = tables
                images = [t0[v & 0xFF] ^ t1[v >> 8] for v in frontier]
            else:
                t0, t1, t2 = tables
                images = [t0[v & 0xFF] ^ t1[(v >> 8) & 0xFF] ^ t2[v >> 16] for v in frontier]
            for img in images:
                if not seen[img]:
                    if size >= limit:
                        return size, True
                    seen[img] = 1
                    size += 1
                    nxt.append(img)
        frontier = nxt
    return size, False


def _orbit_generic(mats, p, n, limit):
    seed = (1,) + (0,) * (n - 1)
    seen = {seed}
    frontier = [seed]
    while frontier:
        nxt = []
        for v in frontier:
            for m in mats:
                img = tuple(sum(row[k] * v[k] for k in range(n)) % p for row in m)
                if img not in seen:
                    if len(seen) >= limit:
                        return len(seen), True
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return len(seen), False


def modp_vector_orbit_size(generators, p, limit):
    """Size of the orbit of the first basis vector among nonzero mod-p vectors.

    Returns (size, exceeded); the search stops once limit vectors are seen.
    At p = 2 the search marks vectors in a bitmap of 2^n bytes, so it
    raises ValueError when 2^n - 1 exceeds TRANSITIVITY_LIMIT.
    """
    if not generators:
        raise ValueError("need at least one generator")
    n = generators[0].dim
    if p == 2 and 2 ** n - 1 > TRANSITIVITY_LIMIT:
        raise ValueError(f"2^{n}-1 nonzero vectors exceed {TRANSITIVITY_LIMIT}")
    mats = [reduce_mod_p(m, p) for m in generators]
    if p == 2:
        return _orbit_packed(mats, n, limit)
    return _orbit_generic(mats, p, n, limit)


def modp_transitivity(generators, p, limit=TRANSITIVITY_LIMIT):
    """Transitivity on the p^(2g) - 1 nonzero vectors, by vector orbit BFS."""
    if p not in (2, 3):
        raise ValueError(f"transitivity check supports p in (2, 3), got {p}")
    n = generators[0].dim
    total = p ** n - 1
    size, exceeded = modp_vector_orbit_size(generators, p, limit)
    if exceeded and size < total:
        status = "inconclusive"
    else:
        status = "pass" if size == total else "fail"
    return Verdict(
        f"modp_transitivity(p={p})",
        status,
        {"orbit_size": size, "nonzero_vectors": total},
    )


def modp_certificate(g, p, enum_cap=2_000_000, with_witnesses=False):
    """Generation certificate mod p for the torsion set, exact-order or transitivity mode.

    Raises ValueError when neither mode can decide (see certificate_mode).
    """
    mode = _require_certificate(g, p, enum_cap)
    certs = theorem_generators(g)
    gens = [c.matrix for c in certs]
    expected = sp_modp_order(g, p)
    section = {"p": p, "mode": mode, "expected_order": expected,
               "generators": [c.name for c in certs]}
    if mode == "exact-order":
        system = lickorish_system(g)
        mats = [reduce_mod_p(m, p) for m in gens]
        twist_mats = [reduce_mod_p(u.twist, p) for u in system.curves]
        torsion = StabilizerChain(mats, p)
        twists = StabilizerChain(twist_mats, p)
        order, lk_order = torsion.order(), twists.order()
        section["torsion_order"] = order
        section["lickorish_order"] = lk_order
        words = [torsion.sift(m) for m in twist_mats]
        torsion_in_lk = all(twists.sift(m) is not None for m in mats)
        section["same_subgroup"] = (
            order == lk_order and torsion_in_lk and all(w is not None for w in words)
        )
        if with_witnesses:
            for word, target in zip(words, twist_mats):
                if word is not None and torsion.evaluate(word) != target:
                    raise AssertionError("membership witness does not replay mod p")
            section["membership_witnesses"] = {
                f"T{u.name}": None if word is None else list(word)
                for u, word in zip(system.curves, words)
            }
        passed = order == expected and lk_order == expected and section["same_subgroup"]
    else:
        section["note"] = (
            "full enumeration exceeds the cap; transitivity on nonzero vectors "
            "is a weaker certificate"
        )
        verdict = modp_transitivity(gens, p)
        section["transitive"] = verdict.passed
        section["orbit"] = verdict.details
        passed = verdict.passed
    section["passed"] = passed
    return section


def convention_record(g):
    """The sign and basis conventions a report must state to be reproducible."""
    system = lickorish_system(g)
    record = {
        "basis": "alpha_1..alpha_g, beta_1..beta_g",
        "form": "<alpha_i, beta_i> = +1, matrix J = [[0, I], [-I, 0]]",
        "twist": "left-hand convention: x -> x + <x, c> * c",
        "composition": "rightmost factor applied first",
        "c_class_signs": [list(s) for s in system.c_signs],
        "curve_classes": {u.name: list(u.cls.coords) for u in system.curves},
    }
    if g >= 3:
        from .curves import lantern_configuration

        config = lantern_configuration(g)
        record["lantern_interior"] = {
            "y": list(config.roles["y"].cls.coords),
            "z": list(config.roles["z"].cls.coords),
        }
        record["lantern_boundary_orientations"] = dict(
            sorted(config.boundary_orientations.items())
        )
    return record


def full_theorem_report(g, prime=None, enum_cap=2_000_000, with_witnesses=False,
                        checks=None):
    """Aggregate report for one genus; returns (report_dict, timings_dict).

    checks is a subset of {"relations", "torsion", "theorem", "modp"};
    None means every applicable check (modp only when a prime is given).
    Raises ValueError before any check runs when the selection needs a
    larger genus or a prime, or when no mod-p certificate can decide
    (certificate_mode is None).
    """
    import time

    if g < 2:
        raise ValueError(f"genus must be >= 2, got {g}")
    if checks is None:
        # all applicable: the torsion sets and the theorem need genus >= 3
        checks = {"relations"}
        if g >= 3:
            checks |= {"torsion", "theorem"}
            if prime is not None:
                checks.add("modp")
    needs_torsion = checks & {"torsion", "theorem", "modp"}
    if needs_torsion and g < 3:
        raise ValueError(
            f"checks {sorted(needs_torsion)} need genus >= 3 "
            f"(the theorem hypothesis); got {g}"
        )
    if "modp" in checks:
        if prime is None:
            raise ValueError("modp check requested without a prime")
        _require_certificate(g, prime, enum_cap)

    report = {
        "schema": "mcgtorsion-report/2",
        "genus": g,
        "convention": convention_record(g),
        "note": HOMOLOGY_CAVEAT,
        "checks": {},
    }
    timings = {}
    passed = True

    if "relations" in checks:
        t0 = time.perf_counter()
        verdicts = relation_suite(g)
        ok = all(v.passed for v in verdicts)
        report["checks"]["relations"] = {
            "passed": ok,
            "count": len(verdicts),
            "failures": [v.to_dict() for v in verdicts if not v.passed],
        }
        timings["relations"] = time.perf_counter() - t0
        passed &= ok

    if "torsion" in checks:
        certs = theorem_generators(g)
        t0 = time.perf_counter()
        f2f1_order = element_order(certs[1].matrix @ certs[0].matrix, g)
        orders_ok = f2f1_order == g
        report["checks"]["torsion"] = {
            "passed": orders_ok,
            "generator_count": len(certs),
            "f2f1_order": f2f1_order,
            "certificates": [c.to_dict() for c in certs],
        }
        timings["torsion"] = time.perf_counter() - t0
        passed &= orders_ok

    if "theorem" in checks:
        t0 = time.perf_counter()
        luo = luo_decomposition_check(g)
        assembly = lantern_assembly_check(g)
        orbit_verdict, _ = property1_orbit_check(g)
        ok = luo.passed and assembly.passed and orbit_verdict.passed
        report["checks"]["theorem"] = {
            "passed": ok,
            "luo": luo.to_dict(),
            "lantern_assembly": assembly.to_dict(),
            "orbit": orbit_verdict.to_dict(),
        }
        timings["theorem"] = time.perf_counter() - t0
        passed &= ok

    if "modp" in checks:
        t0 = time.perf_counter()
        section = modp_certificate(g, prime, enum_cap=enum_cap,
                                   with_witnesses=with_witnesses)
        report["checks"]["modp"] = section
        timings["modp"] = time.perf_counter() - t0
        passed &= section["passed"]

    report["passed"] = passed
    return report, timings
