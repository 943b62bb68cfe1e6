"""Shared independent oracles for the test suite.

These helpers recompute matrix facts with plain list arithmetic so that
expected values asserted in the tests do not depend on the code paths
under test.  The reference implementations the engine is compared against
live here too, since no verdict reads them: the symplectic form, the
commutation and braid relations by twist products, the conjugacy identity,
the orbit BFS of curve classes, the vector orbit BFS over F_p and the
report's byte-stable portion.  swap_generator, drop_generator, swap_class
and swap_boundary build the negative controls (tests/test_controls.py) that
alter one named generator, curve class or chain boundary, and the
clear_caches fixture makes each such test build from scratch.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mcgtorsion import curves, theorem, torsion, words  # noqa: E402
from mcgtorsion.curves import ChainConfig, LickorishSystem, NamedCurve  # noqa: E402
from mcgtorsion.symplectic import HomologyClass, transvection  # noqa: E402
from mcgtorsion.theorem import OrbitSet  # noqa: E402
from mcgtorsion.words import Verdict, equation, twist_letters  # noqa: E402


def mm(a, b):
    """Plain matrix product on nested lists."""
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)
    ]


def mpow(a, e):
    n = len(a)
    out = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(e):
        out = mm(out, a)
    return out


def ident(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def tv(coords, g):
    """Transvection rows recomputed from the convention directly."""
    n = 2 * g
    w = [coords[g + i] for i in range(g)] + [-coords[i] for i in range(g)]
    return [
        [(1 if i == k else 0) + coords[i] * w[k] for k in range(n)] for i in range(n)
    ]


def order_oracle(a, bound):
    n = len(a)
    power = [row[:] for row in a]
    for k in range(1, bound + 1):
        if power == ident(n):
            return k
        power = mm(power, a)
    return None


def symplectic_oracle(rows, g):
    """M^T J M = J, checked column pair by column pair from the definition."""
    n = 2 * g
    cols = list(zip(*rows))
    for i in range(n):
        for j in range(i + 1, n):
            a, b = cols[i], cols[j]
            form = sum(a[k] * b[g + k] - a[g + k] * b[k] for k in range(g))
            if form != (1 if j == i + g else 0):
                return False
    return True


def moved_rows(rows):
    """The sparse form I + Delta of a square matrix: row index -> {column: entry}
    over the nonzero entries of every row that is not the identity row e_i."""
    out = {}
    for i, row in enumerate(rows):
        entries = {j: x for j, x in enumerate(row) if x}
        if entries != {i: 1}:
            out[i] = entries
    return out


def symplectic_form(x, y):
    """x^T J y.  Antisymmetric and bilinear."""
    if x.genus != y.genus:
        raise ValueError(f"genus mismatch: {x.genus} vs {y.genus}")
    g = x.genus
    a, b = x.coords, y.coords
    return sum(a[i] * b[g + i] - a[g + i] * b[i] for i in range(g))


def _product_verdict(name, lhs, rhs, u, v):
    holds, sides = equation(lhs, rhs, twist_letters((u, v)))
    return Verdict(f"{name}({u.name},{v.name})", "pass" if holds else "fail", sides)


def check_commuting(u, v):
    """T_u T_v = T_v T_u by the products; the oracle for commute(...) verdicts."""
    return _product_verdict("commute", f"T{u.name} T{v.name}", f"T{v.name} T{u.name}", u, v)


def check_braid(u, v):
    """T_u T_v T_u = T_v T_u T_v by the products; the oracle for braid(...) verdicts."""
    return _product_verdict("braid", f"T{u.name} T{v.name} T{u.name}",
                            f"T{v.name} T{u.name} T{v.name}", u, v)


def check_conjugacy(f, c):
    """f T_c f^{-1} = T_{f(c)} for a curve c; a theorem of the representation."""
    return f @ transvection(c.cls) @ f.inv() == transvection(f.apply(c.cls))


def orbit_closure(generators, seeds, cap, targets=None):
    """Level-synchronous BFS of seed classes under generators and inverses.

    Classes are kept up to sign, as the coordinates of their canonical()
    representatives.  Stops at the first completed level containing all
    targets (when given), when the orbit closes, or when the explored set
    would pass cap, in which case the result is flagged exceeded.  The
    oracle for the explicit words of theorem.property1_orbit_check.
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
        seen.add(s.canonical().coords)
    frontier = sorted(seen)
    target_set = set(targets) if targets else None
    depth = 0
    while frontier and not (target_set is not None and target_set <= seen):
        nxt = []
        for coords in frontier:
            cls = HomologyClass(coords, genus)
            for m in maps:
                img = m.apply(cls).canonical().coords
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


def vector_orbit_oracle(mats, p):
    """The orbit of e_1 under matrices over F_p, as a set of tuples, by BFS.

    Each image is summed entry by entry from the rows; the oracle for the
    bitmap orbit of theorem.modp_transitivity.
    """
    n = len(mats[0])
    seed = (1,) + (0,) * (n - 1)
    seen = {seed}
    frontier = [seed]
    while frontier:
        nxt = []
        for v in frontier:
            for m in mats:
                img = tuple(sum(x * y for x, y in zip(row, v)) % p for row in m)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return seen


def orbit_bitmap(vectors, p):
    """The bitmap of a set of vectors over F_p: bit sum_k v_k p^k per vector."""
    return sum(1 << sum(x * p ** k for k, x in enumerate(v)) for v in vectors)


def swap_generator(monkeypatch, g, name, **fields):
    """Make theorem.theorem_generators(g) list the named certificate with fields replaced.

    fields are TorsionCertificate keywords (matrix, claimed_order, ...);
    every other certificate, and the listed order, is the built set's.
    """
    def swap(c):
        kwargs = {"name": c.name, "matrix": c.matrix, "claimed_order": c.claimed_order,
                  "curve_action": c.curve_action, "notes": c.notes}
        return torsion.TorsionCertificate(**dict(kwargs, **fields))

    certs = torsion.theorem_generators(g)
    assert name in [c.name for c in certs], name
    swapped = tuple(swap(c) if c.name == name else c for c in certs)
    monkeypatch.setattr(theorem, "theorem_generators", lambda _g: swapped)


def drop_generator(monkeypatch, g, name):
    """Make theorem.theorem_generators(g) list the built set without the named certificate."""
    listed = tuple(c for c in torsion.theorem_generators(g) if c.name != name)
    monkeypatch.setattr(theorem, "theorem_generators", lambda _g: listed)
    return listed


def swap_class(monkeypatch, g, name, coords):
    """Make words.lickorish_system(g) give the named curve the class coords.

    Only the relation verdicts, in module words, read the swapped class.
    """
    system = curves.lickorish_system(g)
    listed = tuple(NamedCurve(u.name, HomologyClass(coords, g)) if u.name == name else u
                   for u in system.curves)
    wrong = LickorishSystem(g, listed, system.meeting, system.c_signs)
    monkeypatch.setattr(words, "lickorish_system", lambda genus: wrong)
    return wrong


def swap_boundary(monkeypatch, t, d):
    """Make words.chain_configuration give the t-chain the boundary d1 = d, d2 = -d."""
    def configuration(s, g):
        config = curves.chain_configuration(s, g)
        if s != t:
            return config
        return ChainConfig(g, t, config.curves, (NamedCurve("d1", d), NamedCurve("d2", -d)))

    monkeypatch.setattr(words, "chain_configuration", configuration)


def _clear_caches():
    for name, module in list(sys.modules.items()):
        if name.startswith("mcgtorsion"):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


@pytest.fixture
def clear_caches(monkeypatch):
    """Clear every lru_cache of the mcgtorsion modules before the test, and again
    after the test's patches are undone, so no tampered build outlives it."""
    _clear_caches()
    yield
    monkeypatch.undo()
    _clear_caches()


def comparable_json(env):
    """The byte-stable portion of a report envelope: the report without timings."""
    return json.dumps(env["report"], sort_keys=True, separators=(",", ":")) + "\n"
