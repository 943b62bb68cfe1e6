"""Replays the main generation argument at the homology level.

Checks, per genus: the exact order of each torsion generator and of the
handle shift f2 f1, the Luo decomposition of Ta2 Ta1^-1 into two
involutions, the assembly of T_c1 from conjugates of Ta2 Ta1^-1 by the
order-3 element, the single-orbit property of the Lickorish classes under
the torsion group, and finite certificates that the generator images span
the full symplectic group over a small prime.  The orbit property is
certified by the paper's own words: a fixed generator word per curve,
applied to a_1 and compared with the curve's class, so it needs no search
and always decides pass or fail.

The mod-p certificate is exact order when p = 2 and |Sp(2g, 2)| is at
most EXACT_ORDER_LIMIT, which for g >= 3 holds at g = 3 alone:
stabilizer chains of the torsion and twist images give both orders
exactly, sifting each twist through the torsion chain shows that the
twist group lies in the torsion group, and equal orders then make the two
groups equal.  Otherwise it falls back to transitivity on nonzero
vectors, which is run only for p in (2, 3) and only when all p^(2g) - 1
nonzero vectors are at most TRANSITIVITY_LIMIT; any other (genus, prime)
pair is rejected before a check runs.  The bounds are fixed, so every
accepted pair is decided pass or fail.

Everything here sees only the homology representation, so a passing run
certifies necessary conditions of the generation statement; phenomena in
the Torelli kernel are invisible by design.
"""

from __future__ import annotations

from .chain import StabilizerChain
from .curves import lickorish_system
from .symplectic import (
    SMALL_PRIMES,
    Frozen,
    alpha,
    element_order,
    pack_columns,
    reduce_mod_p,
    xor_tables,
)
from .torsion import lantern_assembly, luo_decomposition, theorem_generators
from .words import Verdict, relation_suite

HOMOLOGY_CAVEAT = (
    "verification is at the homology-representation level: passing checks are "
    "necessary conditions; statements inside the Torelli kernel are out of scope"
)


# the largest |Sp(2g, p)| certified by exact order
EXACT_ORDER_LIMIT = 2_000_000
# the most nonzero vectors the transitivity certificate's orbit stores
TRANSITIVITY_LIMIT = 2_000_000


class OrbitSet(Frozen):
    """Curve classes reached from a seed, canonicalized up to global sign."""

    def __init__(self, genus, classes, depth, exceeded):
        self._set_fields(genus=genus, classes=classes, depth=depth, exceeded=exceeded)

    @property
    def size(self):
        return len(self.classes)


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
    The words share long prefixes (powers of the handle shift), so they are
    replayed through a trie of prefixes: each node holds the image of a_1
    under its prefix, and each distinct prefix is applied once, fewer than
    6g products in all.  Returns the verdict and the OrbitSet of endpoints,
    whose depth is the longest word.
    """
    certs = theorem_generators(g)
    names = [c.name for c in certs]
    by_name = {c.name: c.matrix for c in certs}
    words = lickorish_words(g, names)
    root = (alpha(1, g), {})
    reached = set()
    witnesses = {}
    missing = []
    for u in lickorish_system(g).curves:
        v, children = root
        for name in words[u.name]:
            node = children.get(name)
            if node is None:
                node = children[name] = (by_name[name].apply(v), {})
            v, children = node
        end = v.canonical().coords
        reached.add(end)
        if end == u.cls.canonical().coords:
            witnesses[u.name] = list(words[u.name])
        else:
            missing.append(u.name)
    details = {"generators": names, "missing": sorted(missing), "witnesses": witnesses}
    depth = max(len(w) for w in words.values())
    verdict = Verdict(f"orbit(g={g})", "fail" if missing else "pass", details)
    return verdict, OrbitSet(g, frozenset(reached), depth, False)


def luo_decomposition_check(g):
    """The Luo decomposition (torsion.luo_decomposition) with the built f2."""
    return luo_decomposition(g, theorem_generators(g)[1].matrix)


def lantern_assembly_check(g):
    """The lantern assembly of T_c1 (torsion.lantern_assembly) with the built f3."""
    return lantern_assembly(g, theorem_generators(g)[3].matrix)


def sp_modp_order(g, p):
    """|Sp(2g, F_p)| = p^(g^2) * prod_{i=1..g} (p^(2i) - 1)."""
    order = p ** (g * g)
    for i in range(1, g + 1):
        order *= p ** (2 * i) - 1
    return order


def certificate_mode(g, p):
    """The mod-p certificate that decides generation at genus g, or None.

    "exact-order" when p = 2 and |Sp(2g, 2)| <= EXACT_ORDER_LIMIT (the
    stabilizer chain works over F_2); else "transitivity" when p is 2 or 3
    and all p^(2g) - 1 nonzero vectors fit under TRANSITIVITY_LIMIT; else
    None, and the pair is rejected before any check.
    """
    if p == 2 and sp_modp_order(g, 2) <= EXACT_ORDER_LIMIT:
        return "exact-order"
    if p in (2, 3) and p ** (2 * g) - 1 <= TRANSITIVITY_LIMIT:
        return "transitivity"
    return None


def _require_certificate(g, p, with_witnesses):
    """The certificate mode at (g, p), where p is None when no mod-p check runs.

    Raises ValueError when p is not one of SMALL_PRIMES, when no mode can
    decide, or when membership witnesses are asked for and no exact-order
    certificate runs.
    """
    if p is not None and p not in SMALL_PRIMES:
        raise ValueError(f"prime must be one of {SMALL_PRIMES}, got {p}")
    mode = None if p is None else certificate_mode(g, p)
    if p is not None and mode is None:
        raise ValueError(
            f"no mod-{p} certificate at genus {g}: |Sp({2 * g},{p})| exceeds the "
            f"exact-order bound {EXACT_ORDER_LIMIT}, and transitivity needs p in (2, 3) "
            f"with p^{2 * g}-1 <= {TRANSITIVITY_LIMIT}"
        )
    if with_witnesses and mode != "exact-order":
        raise ValueError(
            f"membership witnesses need the exact-order mod-p certificate "
            f"(this run: {mode or 'no mod-p check'})"
        )
    return mode


def _orbit_packed(mats, n):
    """Vector orbit size over F_2 with each vector held as an int (bit k = entry k).

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
                    seen[img] = 1
                    size += 1
                    nxt.append(img)
        frontier = nxt
    return size


def _orbit_generic(mats, p, n):
    """Vector orbit size over F_p with vectors as tuples, summing over nonzero entries."""
    sparse = [[[(k, x) for k, x in enumerate(row) if x] for row in m] for m in mats]
    seed = (1,) + (0,) * (n - 1)
    seen = {seed}
    frontier = [seed]
    while frontier:
        nxt = []
        for v in frontier:
            for m in sparse:
                img = tuple(sum(x * v[k] for k, x in row) % p for row in m)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return len(seen)


def modp_transitivity(generators, p):
    """Transitivity on the p^n - 1 nonzero vectors, by the orbit of the first basis vector.

    The orbit stores every vector it reaches, so it raises ValueError
    unless p is 2 or 3 and p^n - 1 <= TRANSITIVITY_LIMIT.
    """
    if not generators:
        raise ValueError("need at least one generator")
    n = generators[0].dim
    total = p ** n - 1
    if p not in (2, 3) or total > TRANSITIVITY_LIMIT:
        raise ValueError(
            f"transitivity needs p in (2, 3) with p^{n}-1 <= {TRANSITIVITY_LIMIT}, got p = {p}"
        )
    mats = [reduce_mod_p(m, p) for m in generators]
    size = _orbit_packed(mats, n) if p == 2 else _orbit_generic(mats, p, n)
    return Verdict(
        f"modp_transitivity(p={p})",
        "pass" if size == total else "fail",
        {"orbit_size": size, "nonzero_vectors": total},
    )


def modp_certificate(g, p, with_witnesses=False):
    """Generation certificate mod p for the torsion set, exact-order or transitivity mode.

    Raises ValueError when neither mode can decide (see certificate_mode),
    or when with_witnesses is set in transitivity mode.
    """
    mode = _require_certificate(g, p, with_witnesses)
    certs = theorem_generators(g)
    gens = [c.matrix for c in certs]
    expected = sp_modp_order(g, p)
    section = {"p": p, "mode": mode, "expected_order": expected,
               "generators": [c.name for c in certs]}
    if mode == "exact-order":
        system = lickorish_system(g)
        mats = [reduce_mod_p(m, p) for m in gens]
        twist_mats = [reduce_mod_p(u.twist, p) for u in system.curves]
        torsion = StabilizerChain(mats)
        twists = StabilizerChain(twist_mats)
        order, lk_order = torsion.order(), twists.order()
        section["torsion_order"] = order
        section["lickorish_order"] = lk_order
        # with equal finite orders, twists in the torsion group make the groups equal
        words = [torsion.sift(m) for m in twist_mats]
        section["same_subgroup"] = order == lk_order and all(w is not None for w in words)
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


def full_theorem_report(g, prime=None, with_witnesses=False, checks=None):
    """Aggregate report for one genus; returns (report_dict, timings_dict).

    checks is a subset of {"relations", "torsion", "theorem", "modp"};
    None means every applicable check (modp only when a prime is given).
    Raises ValueError before any check runs when g < 2, when the selection
    needs a larger genus or a prime, when a prime is given without the
    modp check, when no mod-p certificate can decide (certificate_mode is
    None), or when with_witnesses is set and no exact-order certificate
    runs.
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
    if "modp" not in checks and prime is not None:
        raise ValueError(f"prime {prime} given without the modp check")
    _require_certificate(g, prime, with_witnesses)

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
        order_failures = [c.name for c in certs
                          if element_order(c.matrix, c.claimed_order) != c.claimed_order]
        f2f1_order = element_order(certs[1].matrix @ certs[0].matrix, g)
        ok = f2f1_order == g and not order_failures
        section = {
            "passed": ok,
            "generator_count": len(certs),
            "f2f1_order": f2f1_order,
            "certificates": [c.to_dict() for c in certs],
        }
        if order_failures:
            section["order_failures"] = order_failures
        report["checks"]["torsion"] = section
        timings["torsion"] = time.perf_counter() - t0
        passed &= ok

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
        section = modp_certificate(g, prime, with_witnesses=with_witnesses)
        report["checks"]["modp"] = section
        timings["modp"] = time.perf_counter() - t0
        passed &= section["passed"]

    report["passed"] = passed
    return report, timings
