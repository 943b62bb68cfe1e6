"""Replays the main generation argument at the homology level.

Checks, per genus: the exact order of each torsion generator and of the
handle shift f2 f1, the Luo decomposition of Ta2 Ta1^-1 into f2 and the
involution Ta1 f2 Ta1^-1, the assembly of T_c1 from conjugates of
Ta2 Ta1^-1 by the order-3 element f3, the single-orbit property of the
Lickorish classes under the torsion group, and finite certificates that
the generator images span the full symplectic group over a small prime.
Each check is one entry of CHECKS, a report section with its least
genus, whether it needs a prime, its run and its text lines:
full_theorem_report selects, validates and runs the entries, and the
text report and the CLI read the same table.  Each identity is a pair of
words, evaluated by words.equation over alphabet(g) in the function that
reports it, so a failure prints the words it evaluated.  The alphabet
reads the generators theorem_generators lists by the names the report
prints: their order only orders the report's lists, and a set without a
name the alphabet reads raises KeyError.  The orbit property is
certified by the paper's own words: a fixed generator word per curve,
applied to a_1 and compared with the curve's class, so it needs no
search and always decides pass or fail.

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

from itertools import cycle
from time import perf_counter

from .chain import StabilizerChain
from .curves import lantern_configuration, lickorish_system
from .symplectic import Frozen, alpha, element_order, reduce_mod_p
from .torsion import sigma_matrix, theorem_generators
from .words import Verdict, equation, relation_suite, twist_letters

HOMOLOGY_CAVEAT = (
    "verification is at the homology-representation level: passing checks are "
    "necessary conditions; statements inside the Torelli kernel are out of scope"
)


# the largest |Sp(2g, p)| certified by exact order
EXACT_ORDER_LIMIT = 2_000_000
# the most nonzero vectors the transitivity certificate's orbit covers; the
# orbit stores sets of them as p^n-bit bitmaps, 128 KiB each at p = 2, n = 20
TRANSITIVITY_LIMIT = 2_000_000


class OrbitSet(Frozen):
    """Curve classes reached from a seed, canonicalized up to global sign."""

    def __init__(self, genus, classes, depth, exceeded):
        self._set_fields(genus=genus, classes=classes, depth=depth, exceeded=exceeded)

    @property
    def size(self):
        return len(self.classes)


def _by_name(g):
    """Name -> matrix of the generators theorem_generators(g) lists."""
    return {c.name: c.matrix for c in theorem_generators(g)}


def alphabet(g):
    """Letter -> matrix for the words of --eval and the theorem verdicts: T<curve>
    for each Lickorish curve; from genus 3, F1 .. F4 for the listed f1, f2, f3
    and Ta1 f2 Ta1^-1; at genus 3, Tau for sigma^-1 f1 sigma, and Sigma."""
    letters = twist_letters(lickorish_system(g).curves)
    if g >= 3:
        gens = _by_name(g)
        letters.update(F1=gens["f1"], F2=gens["f2"], F3=gens["f3"], F4=gens["Ta1 f2 Ta1^-1"])
        if g == 3:
            letters.update(Tau=gens["sigma^-1 f1 sigma"], Sigma=sigma_matrix())
    return letters


def lickorish_words(g):
    """The paper's word carrying a1 to each Lickorish curve, in application order.

    Words are spelled in generator names.  With the handle shift
    s = f2 f1 (i -> i+1): a_i = s^(i-1) a1; c_i = s^(i-2) f3 a1, since
    f3 cycles a1 -> c2 -> a3; b_i = s^(i-4) f3 s^3 a1 for g >= 4, since f3
    sends a4 to b4; and at g = 3, b_i = s^(i-2) tau s^2 a1, since
    tau = sigma^-1 f1 sigma sends a3 to -b2.  s^k is written as (f2 f1)^k
    or (f1 f2)^(g-k), whichever is shorter.
    """
    def shift(k):
        k %= g
        return ("f1", "f2") * k if 2 * k <= g else ("f2", "f1") * (g - k)

    words = {f"a{i}": shift(i - 1) for i in range(1, g + 1)}
    if g >= 4:
        words.update({f"b{i}": shift(3) + ("f3",) + shift(i - 4) for i in range(1, g + 1)})
    else:
        words.update({f"b{i}": shift(2) + ("sigma^-1 f1 sigma",) + shift(i - 2)
                      for i in range(1, g + 1)})
    words.update({f"c{i}": ("f3",) + shift(i - 2) for i in range(1, g)})
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
    by_name = _by_name(g)
    words = lickorish_words(g)
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
    details = {"generators": list(by_name), "missing": sorted(missing), "witnesses": witnesses}
    depth = max(len(w) for w in words.values())
    verdict = Verdict(f"orbit(g={g})", "fail" if missing else "pass", details)
    return verdict, OrbitSet(g, frozenset(reached), depth, False)


def luo_decomposition_check(g):
    """Ta2 Ta1^-1 = F2 F4, with F4 the listed generator Ta1 f2 Ta1^-1, and F4^2 = 1.

    F2 and F4 are the listed f2 and Ta1 f2 Ta1^-1 (alphabet), so a pass
    writes Ta2 Ta1^-1 in the listed generators; since Ta2 = f2 Ta1 f2, it
    also proves that F4 is Ta1 f2 Ta1^-1.  A failure reports the product
    F2 F4 under both middle_matrix and rhs_matrix.
    """
    letters = alphabet(g)
    involution, _ = equation("F4^2", "<empty>", letters)
    equal, sides = equation("Ta2 Ta1^-1", "F2 F4", letters, always=not involution)
    details = {"equal": equal, "conjugate_is_involution": involution}
    if sides:
        details.update(lhs_word=sides["lhs_word"], lhs_matrix=sides["lhs_matrix"],
                       middle_matrix=sides["rhs_matrix"], rhs_matrix=sides["rhs_matrix"])
    return Verdict(f"luo(g={g})", "fail" if sides else "pass", details)


def lantern_assembly_check(g):
    """T_c1 = (Ta2 Ta1^-1) f3(...)f3^-1 f3^2(...)f3^-2, with F3 the listed generator f3."""
    holds, sides = equation("Tc1", "(Ta2 Ta1^-1) (F3 Ta2 Ta1^-1 F3^-1) (F3^2 Ta2 Ta1^-1 F3^-2)",
                            alphabet(g))
    return Verdict(f"lantern_assembly(g={g})", "pass" if holds else "fail", sides)


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

    Raises ValueError when no mode can decide (any integer p, non-primes
    included, gets the same message), or when membership witnesses are
    asked for and no exact-order certificate runs.
    """
    mode = None if p is None else certificate_mode(g, p)
    if p is not None and mode is None:
        raise ValueError(
            f"no mod-{p} certificate at genus {g}: exact order needs p = 2 with "
            f"|Sp({2 * g},2)| <= {EXACT_ORDER_LIMIT}, and transitivity needs p in (2, 3) "
            f"with p^{2 * g}-1 <= {TRANSITIVITY_LIMIT}"
        )
    if with_witnesses and mode != "exact-order":
        raise ValueError(
            f"membership witnesses need the exact-order mod-p certificate "
            f"(this run: {mode or 'no mod-p check'})"
        )
    return mode


def _elimination_ops(m, p):
    """The invertible F_p matrix m as ops on a vector's coordinates, in the order they apply.

    An op (i, j, q), with i != j and q a 2x2 matrix over F_p, replaces
    (v_i, v_j) by q (v_i, v_j): an addition v_j += c v_i, a swap, or a
    scaling v_i *= c (paired with the next coordinate j, so m is n x n
    with n >= 2).  Gauss-Jordan elimination reduces m to I by row ops
    E_1 .. E_k, so m = E_1^-1 ... E_k^-1 and a vector meets E_k^-1 first.
    A signed permutation, such as f1 and f2, needs only swaps and
    scalings.  Raises ValueError when m is singular mod p.
    """
    n = len(m)
    rows = [[x % p for x in row] for row in m]
    undo = []
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            raise ValueError(f"matrix is singular mod {p}")
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            undo.append((col, pivot, ((0, 1), (1, 0))))
        c = rows[col][col]
        if c != 1:
            inv = pow(c, -1, p)
            rows[col] = [x * inv % p for x in rows[col]]
            undo.append((col, (col + 1) % n, ((c, 0), (0, 1))))
        for r in range(n):
            a = rows[r][col]
            if a and r != col:
                rows[r] = [(x - a * y) % p for x, y in zip(rows[r], rows[col])]
                undo.append((col, r, ((1, 0), (a, 1))))
    return undo[::-1]


def _vector_orbit(mats, p):
    """The orbit of e_1 under the n x n F_p matrices mats, as a bitmap of p^n bits.

    Bit sum_k v_k p^k is set when the vector v is in the set, so e_1 is bit
    1.  Each op of _elimination_ops acts on a whole bitmap at once: the
    positions are split by their digits i and j (masks built once, by
    doubling), each part is shifted by its digit change, and the parts are
    ORed back together.  The orbit is the fixpoint of B |= M(B) over the
    generators in turn; it stops early once B holds all p^n - 1 nonzero
    vectors, which is exact because linear maps fix 0.
    """
    n = len(mats[0])
    size = p ** n
    full = (1 << size) - 1
    digit = []
    for k in range(n):
        step = p ** k
        masks = []
        for a in range(p):
            mask, width = ((1 << step) - 1) << (a * step), step * p
            while width < size:
                mask |= mask << width
                width *= 2
            masks.append(mask & full)
        digit.append(masks)
    # op -> (keep, [(mask, left shift)], [(mask, right shift)]); generators share ops
    compiled = {}
    gens = []
    for m in mats:
        ops = _elimination_ops(m, p)
        for op in ops:
            if op in compiled:
                continue
            i, j, ((w, x), (y, z)) = op
            keep, moves = 0, {}
            for a in range(p):
                for b in range(p):
                    mask = digit[i][a] & digit[j][b]
                    shift = (((w * a + x * b) % p - a) * p ** i
                             + ((y * a + z * b) % p - b) * p ** j)
                    if shift:
                        moves[shift] = moves.get(shift, 0) | mask
                    else:
                        keep |= mask
            compiled[op] = (keep, [(mask, s) for s, mask in moves.items() if s > 0],
                            [(mask, -s) for s, mask in moves.items() if s < 0])
        gens.append([compiled[op] for op in ops])
    nonzero = full ^ 1
    orbit, unchanged = 2, 0
    for gen in cycle(gens):
        if orbit == nonzero or unchanged == len(gens):
            break
        image = orbit
        for keep, ups, downs in gen:
            out = image & keep
            for mask, s in ups:
                out |= (image & mask) << s
            for mask, s in downs:
                out |= (image & mask) >> s
            image = out
        grown = orbit | image
        unchanged = unchanged + 1 if grown == orbit else 0
        orbit = grown
    return orbit


def modp_transitivity(generators, p):
    """Transitivity on the p^n - 1 nonzero vectors, by the orbit of the first basis vector.

    The orbit is a bitmap of p^n bits (_vector_orbit), so it raises
    ValueError unless p is 2 or 3 and p^n - 1 <= TRANSITIVITY_LIMIT.
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
    size = _vector_orbit(mats, p).bit_count()
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
                    raise RuntimeError("membership witness does not replay mod p")
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
        config = lantern_configuration(g)
        record["lantern_interior"] = {
            "y": list(config.roles["y"].cls.coords),
            "z": list(config.roles["z"].cls.coords),
        }
        record["lantern_boundary_orientations"] = dict(
            sorted(config.boundary_orientations.items())
        )
    return record


class Check(Frozen):
    """One report section: the least genus it runs at, whether it needs the prime,
    run(g, prime, with_witnesses), which returns the section with its "passed",
    and text(section), which yields the section's lines of the text report.
    A run calls the checks it makes through this module's globals, which the
    benchmark tracer rebinds, so a Check holds none of them itself."""

    def __init__(self, min_genus, needs_prime, run, text):
        self._set_fields(min_genus=min_genus, needs_prime=needs_prime, run=run, text=text)


def _status(section):
    return "ok" if section["passed"] else "FAIL"


def _identity_text(det):
    """The two sides of a failing identity: each side's word, if it has one, and matrix."""
    yield f"    lhs: {det['lhs_word']} = {det['lhs_matrix']}"
    rhs_word = f"{det['rhs_word']} = " if "rhs_word" in det else ""
    yield f"    rhs: {rhs_word}{det['rhs_matrix']}"


def _relations(g, prime, with_witnesses):
    verdicts = relation_suite(g)
    return {"passed": all(v.passed for v in verdicts), "count": len(verdicts),
            "failures": [v.to_dict() for v in verdicts if not v.passed]}


def _relations_text(section):
    yield f"[relations] {_status(section)}: {section['count']} checks"
    for failure in section["failures"]:
        yield f"  FAIL {failure['check']}"
        if "lhs_word" in failure["details"]:
            yield from _identity_text(failure["details"])


def _torsion(g, prime, with_witnesses):
    """Each listed generator has its claimed order, and f2 f1 has order g."""
    certs = theorem_generators(g)
    gens = _by_name(g)
    failures = [c.name for c in certs
                if element_order(c.matrix, c.claimed_order) != c.claimed_order]
    f2f1_order = element_order(gens["f2"] @ gens["f1"], g)
    section = {"passed": f2f1_order == g and not failures, "generator_count": len(certs),
               "f2f1_order": f2f1_order, "certificates": [c.to_dict() for c in certs]}
    if failures:
        section["order_failures"] = failures
    return section


def _torsion_text(section):
    yield (f"[torsion] {_status(section)}: {section['generator_count']} generators, "
           f"order(f2*f1) = {section['f2f1_order']}")
    if "order_failures" in section:
        yield f"  order not as claimed: {', '.join(section['order_failures'])}"
    for cert in section["certificates"]:
        yield f"  {cert['name']}: order {cert['order']}"
        action = ", ".join(f"{u} -> {'-' if s < 0 else ''}{v}"
                           for u, (v, s) in sorted(cert["curve_action"].items()))
        if action:
            yield f"    action: {action}"


def _theorem(g, prime, with_witnesses):
    luo = luo_decomposition_check(g)
    assembly = lantern_assembly_check(g)
    orbit, _ = property1_orbit_check(g)
    return {"passed": luo.passed and assembly.passed and orbit.passed, "luo": luo.to_dict(),
            "lantern_assembly": assembly.to_dict(), "orbit": orbit.to_dict()}


def _theorem_text(section):
    yield f"[theorem] {_status(section)}"
    for key in ("luo", "lantern_assembly", "orbit"):
        sub = section[key]
        yield f"  {sub['check']}: {sub['status']}"
        if sub["status"] == "fail" and "lhs_word" in sub["details"]:
            yield from _identity_text(sub["details"])
    det = section["orbit"]["details"]
    reached, missing = len(det["witnesses"]), det["missing"]
    yield (f"    {reached} of {reached + len(missing)} curves reached "
           "from a1 by the generator words")
    if missing:
        yield f"    missing: {', '.join(missing)}"


def _modp(g, prime, with_witnesses):
    return modp_certificate(g, prime, with_witnesses)


def _modp_text(section):
    yield f"[modp] {_status(section)}: p = {section['p']}, mode = {section['mode']}"
    if section["mode"] == "exact-order":
        yield (f"  expected order {section['expected_order']}, "
               f"torsion image order {section['torsion_order']}, "
               f"twist image order {section['lickorish_order']}, "
               f"same subgroup: {section['same_subgroup']}")
    else:
        orbit = section["orbit"]
        yield (f"  transitive on nonzero vectors: {section['transitive']} "
               f"({orbit['orbit_size']} of {orbit['nonzero_vectors']})")


# the report's sections, in report order
CHECKS = {
    "relations": Check(2, False, _relations, _relations_text),
    "torsion": Check(3, False, _torsion, _torsion_text),
    "theorem": Check(3, False, _theorem, _theorem_text),
    "modp": Check(3, True, _modp, _modp_text),
}


def full_theorem_report(g, prime=None, with_witnesses=False, checks=None):
    """Aggregate report for one genus; returns (report_dict, timings_dict).

    checks is a nonempty collection of names of CHECKS; None selects each
    check with min_genus <= g that needs no prime, or needs one and is
    given it.  Raises ValueError before any check runs: first when checks
    names an unknown check (the first one in its order) or none, then when
    g < 2, when a selected check needs a larger genus, when one needs a
    prime and none is given, when a prime is given and none needs it, when
    no mod-p certificate can decide (certificate_mode is None), or when
    with_witnesses is set and no exact-order certificate runs.  The
    selected checks then run, each timed, in the order of CHECKS.
    """
    if checks is not None:
        unknown = [name for name in checks if name not in CHECKS]
        if unknown:
            raise ValueError(f"unknown check {unknown[0]!r}; choose from {tuple(CHECKS)}")
        if not checks:
            raise ValueError("no checks selected")
    if g < 2:
        raise ValueError(f"genus must be >= 2, got {g}")
    if checks is None:
        checks = [name for name, check in CHECKS.items()
                  if g >= check.min_genus and (prime is not None or not check.needs_prime)]
    selected = {name: check for name, check in CHECKS.items() if name in checks}
    too_small = sorted(name for name, check in selected.items() if g < check.min_genus)
    if too_small:
        least = max(CHECKS[name].min_genus for name in too_small)
        raise ValueError(f"checks {too_small} need genus >= {least} "
                         f"(the theorem hypothesis); got {g}")
    needs_prime = any(check.needs_prime for check in selected.values())
    if needs_prime != (prime is not None):
        raise ValueError("modp check requested without a prime" if needs_prime
                         else f"prime {prime} given without the modp check")
    _require_certificate(g, prime, with_witnesses)

    report = {"schema": "mcgtorsion-report/2", "genus": g, "convention": convention_record(g),
              "note": HOMOLOGY_CAVEAT, "checks": {}}
    timings = {}
    for name, check in selected.items():
        t0 = perf_counter()
        report["checks"][name] = check.run(g, prime, with_witnesses)
        timings[name] = perf_counter() - t0
    report["passed"] = all(section["passed"] for section in report["checks"].values())
    return report, timings
