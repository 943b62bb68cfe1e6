"""Replays the main generation argument at the homology level.

Checks, per genus: the Luo decomposition of Ta2 Ta1^-1 into two
involutions, the assembly of T_c1 from conjugates of Ta2 Ta1^-1 by the
order-3 element, the single-orbit property of the Lickorish classes under
the torsion group, and finite certificates that the generator images span
the full symplectic group over a small prime.  The mod-p certificate is
exact order when |Sp(2g, p)| fits under the cap: stabilizer chains of the
torsion and twist images give both orders exactly, and sifting each
generator set through the other's chain decides membership both ways.
Above the cap it falls back to transitivity on nonzero vectors.

Everything here sees only the homology representation, so a passing run
certifies necessary conditions of the generation statement; phenomena in
the Torelli kernel are invisible by design.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .chain import StabilizerChain
from .curves import lickorish_system
from .symplectic import (
    alpha,
    element_order,
    reduce_mod_p,
    transvection,
    xor_table,
)
from .torsion import theorem_generators, _pi_rotations, build_f3, build_genus3_extras
from .words import Verdict, relation_suite

HOMOLOGY_CAVEAT = (
    "verification is at the homology-representation level: passing checks are "
    "necessary conditions; statements inside the Torelli kernel are out of scope"
)


def default_orbit_cap(g):
    return 10 * (3 * g - 1) * g


@dataclass(frozen=True)
class OrbitSet:
    """BFS closure of curve classes, canonicalized up to global sign."""

    genus: int
    classes: frozenset
    depth: int
    exceeded: bool
    witnesses: dict | None = None

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


def orbit_closure(generators, seeds, cap, targets=None, gen_names=None, with_parents=False):
    """Level-synchronous BFS of seed classes under generators and inverses.

    Stops at the first completed level containing all targets (when given),
    when the orbit closes, or when the explored set would pass cap, in
    which case the result is flagged exceeded.
    """
    if not generators:
        raise ValueError("need at least one generator")
    genus = generators[0].genus
    if gen_names is None:
        gen_names = [f"g{i}" for i in range(len(generators))]
    maps = []
    for name, m in zip(gen_names, generators):
        maps.append((name, m))
        inv = m.inv()
        if inv != m:
            maps.append((f"{name}^-1", inv))

    seen = {}
    for s in seeds:
        if s.genus != genus:
            raise ValueError("seed genus mismatch")
        seen[_canon(s.coords)] = None
    frontier = sorted(seen)
    target_set = set(targets) if targets else None
    depth = 0
    exceeded = False
    while frontier:
        if target_set is not None and target_set <= seen.keys():
            break
        nxt = []
        for coords in frontier:
            for name, m in maps:
                img = _canon(m.apply(coords))
                if img in seen:
                    continue
                if len(seen) >= cap:
                    exceeded = True
                    break
                seen[img] = (coords, name)
                nxt.append(img)
            if exceeded:
                break
        if exceeded:
            break
        if nxt:
            depth += 1
        frontier = sorted(nxt)

    witnesses = None
    if with_parents:
        witnesses = {}
        for coords in seen:
            word = []
            cur = coords
            while seen[cur] is not None:
                cur, name = seen[cur]
                word.append(name)
            witnesses[coords] = tuple(reversed(word))
    return OrbitSet(genus, frozenset(seen), depth, exceeded, witnesses)


def property1_orbit_check(g, cap=None, with_witnesses=False):
    """All 3g-1 Lickorish classes lie in the orbit of [a_1]."""
    if cap is None:
        cap = default_orbit_cap(g)
    certs = theorem_generators(g)
    gens = [c.matrix for c in certs]
    names = [c.name for c in certs]
    system = lickorish_system(g)
    targets = {_canon(u.cls.coords) for u in system.curves}
    orbit = orbit_closure(
        gens, [alpha(1, g)], cap, targets=targets, gen_names=names,
        with_parents=with_witnesses,
    )
    missing = sorted(
        u.name for u in system.curves if _canon(u.cls.coords) not in orbit.classes
    )
    if not missing:
        status = "pass"
    elif orbit.exceeded:
        status = "inconclusive"
    else:
        status = "fail"
    details = {
        "orbit_size": orbit.size,
        "depth": orbit.depth,
        "cap": cap,
        "generators": names,
        "missing": missing,
    }
    if with_witnesses and orbit.witnesses is not None:
        details["witnesses"] = {
            u.name: list(orbit.witnesses.get(_canon(u.cls.coords), ()))
            for u in system.curves
            if _canon(u.cls.coords) in orbit.classes
        }
    return Verdict(f"orbit(g={g})", status, details), orbit


def luo_decomposition_check(g, f2_override=None):
    """Ta2 Ta1^-1 = (f2 Ta1 f2) Ta1^-1 = f2 (Ta1 f2 Ta1^-1), involution included."""
    _, f2, _, _ = _pi_rotations(g)
    if f2_override is not None:
        f2 = f2_override
    ta1 = transvection(alpha(1, g))
    ta2 = transvection(alpha(2, g))
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
    e = transvection(alpha(2, g)) @ transvection(alpha(1, g)).inv()
    f3i = f3.inv()
    rhs = e @ (f3 @ e @ f3i) @ (f3 @ f3 @ e @ f3i @ f3i)
    lhs = transvection(lickorish_system(g).cls("c1"))
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


def modp_subgroup_order(generators, p, cap=2_000_000, with_parents=False, backend=None):
    """Exact order of the mod-p subgroup generated, or None when cap is hit.

    Returns (order_or_None, ClosureResult)."""
    mats = [reduce_mod_p(m, p) for m in generators]
    result = kernels.modp_closure(mats, p, cap=cap, with_parents=with_parents,
                                  backend=backend)
    return (None if result.exceeded else result.size), result


def _orbit_packed(mats, n, limit):
    """Vector orbit over F_2 with each vector held as an int (bit k = entry k).

    M v is the XOR of the columns of M picked out by v, read eight
    coordinates at a time from per-chunk lookup tables.
    """
    maps = []
    for m in mats:
        cols = [sum(m[i][k] << i for i in range(n)) for k in range(n)]
        chunks = [cols[c:c + 8] for c in range(0, n, 8)]
        maps.append([xor_table(chunk) for chunk in chunks])
    seen = {1}
    frontier = [1]
    while frontier:
        nxt = []
        for v in frontier:
            for tables in maps:
                img = 0
                for c, table in enumerate(tables):
                    img ^= table[(v >> (8 * c)) & 0xFF]
                if img not in seen:
                    if len(seen) >= limit:
                        return len(seen), True
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return len(seen), False


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
    """
    if not generators:
        raise ValueError("need at least one generator")
    n = generators[0].dim
    mats = [reduce_mod_p(m, p) for m in generators]
    if p == 2:
        return _orbit_packed(mats, n, limit)
    return _orbit_generic(mats, p, n, limit)


def modp_transitivity(generators, p, limit=2_000_000):
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
    """Generation certificate mod p for the torsion set, exact-order or transitivity mode."""
    certs = theorem_generators(g)
    gens = [c.matrix for c in certs]
    expected = sp_modp_order(g, p)
    section = {"p": p, "expected_order": expected, "generators": [c.name for c in certs]}
    if expected <= enum_cap:
        section["mode"] = "exact-order"
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
        section["mode"] = "transitivity"
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


def full_theorem_report(g, prime=None, orbit_cap=None, enum_cap=2_000_000,
                        with_witnesses=False, checks=None):
    """Aggregate report for one genus; returns (report_dict, timings_dict).

    checks is a subset of {"relations", "torsion", "theorem", "modp"};
    None means every applicable check (modp only when a prime is given).
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
    if "modp" in checks and prime is None:
        raise ValueError("modp check requested without a prime")

    report = {
        "schema": "mcgtorsion-report/1",
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

    certs = None
    if "torsion" in checks or "theorem" in checks:
        certs = theorem_generators(g)

    if "torsion" in checks:
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
        orbit_verdict, _ = property1_orbit_check(
            g, cap=orbit_cap, with_witnesses=with_witnesses
        )
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
