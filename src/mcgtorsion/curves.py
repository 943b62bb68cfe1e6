"""Named curve systems on the genus-g surface.

The standard picture has handles 1..g in a ring: a_i is the core circle of
handle i (class alpha_i), b_i the dual circle (class beta_i), and c_i joins
handles i and i+1.  Pictures fix curves only up to isotopy and orientation,
so the homology class of c_i is alpha_i and alpha_{i+1} with undetermined
signs; likewise the interior curves of the lantern and the boundary of a
chain neighbourhood.  Rather than hard-coding anyone's orientation
bookkeeping, a small deterministic solver enumerates the sign assignments
and keeps the lexicographically first one that satisfies every declared
intersection constraint and twist identity.  The chosen assignment is
recorded so reports can state the convention.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import product
from math import isqrt

from .symplectic import (
    Frozen,
    HomologyClass,
    alpha,
    beta,
    identity,
    transvection,
    zero_class,
)


class NamedCurve(Frozen):
    """A symbolic curve with its class and separating flag."""

    def __init__(self, name, cls, separating=False):
        if separating != cls.is_zero:
            raise ValueError(f"curve {name}: separating iff class is zero")
        if not separating and not cls.is_primitive:
            raise ValueError(f"curve {name}: non-separating class must be primitive")
        self._set_fields(name=name, cls=cls, separating=separating)

    def __repr__(self):
        return f"NamedCurve(name={self.name!r}, cls={self.cls!r}, separating={self.separating!r})"

    @cached_property
    def twist(self):
        """The transvection of the class, built once per curve."""
        return transvection(self.cls)


class IntersectionTable:
    """Declared geometric intersection numbers on unordered name pairs.

    Pairs not present are declared disjoint (value 0).
    """

    def __init__(self, entries=None):
        self._data = {}
        for (u, v), k in (entries or {}).items():
            self.set(u, v, k)

    @staticmethod
    def _key(u, v):
        return (u, v) if u <= v else (v, u)

    def set(self, u, v, k):
        if k < 0:
            raise ValueError("intersection numbers are non-negative")
        self._data[self._key(u, v)] = int(k)

    def get(self, u, v):
        return self._data.get(self._key(u, v), 0)

    def items(self):
        return sorted(self._data.items())


def intersections_consistent(curves, table):
    """|algebraic pairing| <= geometric number, equal when the latter is 0 or 1.

    <x, y> = x . (J y) is summed over the nonzero coordinates of x only:
    every Lickorish class has at most two.
    """
    support = [[(i, x) for i, x in enumerate(u.cls.coords) if x] for u in curves]
    jy = []
    for u in curves:
        c, g = u.cls.coords, u.cls.genus
        jy.append(c[g:] + tuple(-x for x in c[:g]))
    for i, u in enumerate(curves):
        for t, v in enumerate(curves[i + 1 :], start=i + 1):
            f = abs(sum(x * jy[t][k] for k, x in support[i]))
            k = table.get(u.name, v.name)
            if f > k:
                return False
            if k <= 1 and f != k:
                return False
    return True


def shift_coords(coords, g):
    """Cyclic handle shift alpha_i -> alpha_{i+1}, beta_i -> beta_{i+1}."""
    a, b = coords[:g], coords[g:]
    return (a[-1],) + a[:-1] + (b[-1],) + b[:-1]


class LickorishSystem(Frozen):
    def __init__(self, genus, curves, table, c_signs):
        # c_signs: ((eps_i, eps'_i)) for c_1..c_{g-1}
        self._set_fields(genus=genus, curves=curves, table=table, c_signs=c_signs)

    def curve(self, name):
        for u in self.curves:
            if u.name == name:
                return u
        raise KeyError(f"no curve named {name!r} in genus {self.genus} system")

    def cls(self, name):
        return self.curve(name).cls


def _lickorish_table(g):
    t = IntersectionTable()
    for i in range(1, g + 1):
        t.set(f"a{i}", f"b{i}", 1)
    for i in range(1, g):
        t.set(f"b{i}", f"c{i}", 1)
        t.set(f"c{i}", f"b{i + 1}", 1)
    return t


def _build_curves(g, signs):
    curves = [NamedCurve(f"a{i}", alpha(i, g)) for i in range(1, g + 1)]
    curves += [NamedCurve(f"b{i}", beta(i, g)) for i in range(1, g + 1)]
    for i, (e, e2) in enumerate(signs, start=1):
        coords = [0] * (2 * g)
        coords[i - 1] = e
        coords[i] = e2
        curves.append(NamedCurve(f"c{i}", HomologyClass(tuple(coords), g)))
    return tuple(curves)


def _chain32_identity_holds(system):
    """(T_a1 T_b1 T_c1)^4 = T_a2^2 in the system's genus."""
    g = system.genus
    p = system.curve("a1").twist @ system.curve("b1").twist @ system.curve("c1").twist
    return p ** 4 == system.curve("a2").twist ** 2


def _shift_equivariant(system):
    """The handle shift must carry [c_i] to +/-[c_{i+1}]."""
    g = system.genus
    for i in range(1, g - 1):
        shifted = shift_coords(system.cls(f"c{i}").coords, g)
        nxt = system.cls(f"c{i + 1}").coords
        if shifted != nxt and shifted != tuple(-x for x in nxt):
            return False
    return True


def _outer(u, v):
    return tuple(tuple(a * b for b in v) for a in u)


def _mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(a, b))


def _mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(a, b))


def _canonical_support_vectors():
    """Nonzero sign-canonical vectors in {-1,0,1}^3, lexicographic order."""
    out = []
    for v in product((-1, 0, 1), repeat=3):
        if v == (0, 0, 0):
            continue
        lead = next(x for x in v if x != 0)
        if lead > 0:
            out.append(v)
    return sorted(out)


def _solve_lantern_interior(system):
    """Find classes for the interior curves y, z of the lantern.

    All seven lantern classes live in the span of alpha_1..alpha_3, where
    transvections commute and the product identity reduces to equality of
    the summed outer products.  Returns the lexicographically first
    canonical pair (y, z), as coordinate triples, or None.
    """
    proj = lambda name: system.cls(name).coords[:3]
    s = _outer((0, 0, 0), (0, 0, 0))
    for name in ("a1", "c2", "a3", "c1"):
        v = proj(name)
        s = _mat_add(s, _outer(v, v))
    s = _mat_sub(s, _outer(proj("a2"), proj("a2")))
    cands = _canonical_support_vectors()
    for y in cands:
        rest = _mat_sub(s, _outer(y, y))
        for z in cands:
            if _outer(z, z) == rest:
                return y, z
    return None


def _solve_lickorish_signs(g):
    """Lexicographically first sign assignment for the c_i classes.

    Constraints: declared intersection data, shift equivariance of the
    ring picture, the minimal odd chain identity, and (for g >= 3)
    solvability of the lantern interior classes.
    """
    table = _lickorish_table(g)
    for signs in product(((1, 1), (1, -1), (-1, 1), (-1, -1)), repeat=g - 1):
        curves = _build_curves(g, signs)
        system = LickorishSystem(g, curves, table, signs)
        if not intersections_consistent(curves, table):
            continue
        if not _shift_equivariant(system):
            continue
        if not _chain32_identity_holds(system):
            continue
        if g >= 3 and _solve_lantern_interior(system) is None:
            continue
        return system
    raise RuntimeError(f"no sign assignment works for genus {g}")


@lru_cache(maxsize=None)
def lickorish_system(g):
    if g < 2:
        raise ValueError(f"Lickorish system needs genus >= 2, got {g}")
    return _solve_lickorish_signs(g)


def lickorish_curves(g):
    """The 3g-1 curves a_1..a_g, b_1..b_g, c_1..c_{g-1}."""
    return lickorish_system(g).curves


def lickorish_table(g):
    return lickorish_system(g).table


LANTERN_ROLES = ("a", "b", "c", "d", "x", "y", "z")


class LanternConfig(Frozen):
    """Seven curves on the four-holed sphere between handles 1 and 3.

    Boundary roles a, b, c, d are the curves a_1, c_2, a_3, c_1; the
    interior role x is a_2 and y, z are solved classes in the span of
    alpha_1..alpha_3.  boundary_orientations records signs under which
    the four boundary classes sum to zero.
    """

    def __init__(self, genus, roles, boundary_orientations, table):
        self._set_fields(genus=genus, roles=roles,
                         boundary_orientations=boundary_orientations, table=table)

    def twist(self, role):
        return self.roles[role].twist

    def product_sides(self):
        lhs = self.twist("a") @ self.twist("b") @ self.twist("c") @ self.twist("d")
        rhs = self.twist("x") @ self.twist("y") @ self.twist("z")
        return lhs, rhs

    def rewritten_sides(self):
        ta, tb, tc = (self.twist(r).inv() for r in ("a", "b", "c"))
        rhs = (self.twist("x") @ ta) @ (self.twist("y") @ tb) @ (self.twist("z") @ tc)
        return self.twist("d"), rhs


def _pad(triple, g):
    return tuple(triple) + (0,) * (2 * g - 3)


@lru_cache(maxsize=None)
def lantern_configuration(g):
    if g < 3:
        raise ValueError(f"lantern needs genus >= 3, got {g}")
    system = lickorish_system(g)
    yz = _solve_lantern_interior(system)
    if yz is None:
        raise RuntimeError(f"no interior classes solve the lantern at genus {g}")
    y3, z3 = yz
    roles = {
        "a": system.curve("a1"),
        "b": system.curve("c2"),
        "c": system.curve("a3"),
        "d": system.curve("c1"),
        "x": system.curve("a2"),
        "y": NamedCurve("y", HomologyClass(_pad(y3, g), g)),
        "z": NamedCurve("z", HomologyClass(_pad(z3, g), g)),
    }
    orient = None
    for signs in product((1, -1), repeat=4):
        total = [0] * (2 * g)
        for s, role in zip(signs, "abcd"):
            for k, v in enumerate(roles[role].cls.coords):
                total[k] += s * v
        if all(v == 0 for v in total):
            orient = dict(zip("abcd", signs))
            break
    if orient is None:
        raise RuntimeError("no orientation makes the lantern boundary null-homologous")

    table = IntersectionTable()
    for pair in (("x", "y"), ("x", "z"), ("y", "z")):
        table.set(*pair, 2)
    # boundary curves are pairwise disjoint and disjoint from the interior
    config = LanternConfig(g, roles, orient, table)
    lhs, rhs = config.product_sides()
    if lhs != rhs:
        raise RuntimeError(f"lantern identity failed at genus {g}")
    lhs, rhs = config.rewritten_sides()
    if lhs != rhs:
        raise RuntimeError(f"rewritten lantern identity failed at genus {g}")
    return config


def chain_sequence(g):
    """Curve names along which chains are drawn: a1, b1, c1, b2, c2, ..., bg."""
    names = ["a1"]
    for i in range(1, g):
        names += [f"b{i}", f"c{i}"]
    names.append(f"b{g}")
    return names


class ChainConfig(Frozen):
    def __init__(self, genus, length, curves, boundary):
        # boundary: one separating curve (even t) or a pair d1, d2 (odd t)
        self._set_fields(genus=genus, length=length, curves=curves, boundary=boundary)

    @property
    def power(self):
        return 2 * self.length + 2 if self.length % 2 == 0 else self.length + 1

    def twist_product(self):
        m = identity(self.genus)
        for u in self.curves:
            m = m @ u.twist
        return m


def _factor_double_transvection(q, g):
    """Solve Q = I - 2 d d^T J for the class d, or None.

    (Q - I) J equals 2 d d^T, which determines d up to sign; the first
    nonzero diagonal entry fixes the scale and the corresponding column
    gives the remaining coordinates.  The nonzero rows of Q - I are the
    moved rows of Q, and J moves entry (i, k) to (i, k -/+ g) with a sign,
    so S = (Q - I) J / 2 is read off q.delta as rows of nonzero entries.
    """
    s = {}
    for i, row in q.delta.items():
        diff = dict(row)
        diff[i] = diff.get(i, 0) - 1
        srow = {}
        for k, x in diff.items():
            if x % 2:
                return None
            if x:
                srow[k + g if k < g else k - g] = (x if k < g else -x) // 2
        s[i] = srow
    pivot = min((i for i, row in s.items() if row.get(i, 0) > 0), default=None)
    if pivot is None:
        return None
    r = isqrt(s[pivot][pivot])
    if r * r != s[pivot][pivot]:
        return None
    coords = [0] * (2 * g)
    for i, row in s.items():
        x = row.get(pivot, 0)
        if x % r:
            return None
        coords[i] = x // r
    support = [(i, x) for i, x in enumerate(coords) if x]
    if s != {i: {j: x * y for j, y in support} for i, x in support}:
        return None
    return HomologyClass(coords, g)


@lru_cache(maxsize=None)
def chain_configuration(t, g):
    """The length-t chain along the Lickorish sequence with its boundary classes."""
    system = lickorish_system(g)
    names = chain_sequence(g)
    if not 1 <= t <= len(names):
        raise ValueError(f"chain of length {t} does not fit in genus {g}")
    curves = tuple(system.curve(nm) for nm in names[:t])
    config = ChainConfig(g, t, curves, ())
    q = config.twist_product() ** config.power
    if t % 2 == 0:
        if not q.is_identity:
            raise RuntimeError(f"even chain ({t},{g}): boundary twist is not trivial")
        boundary = (NamedCurve("d", zero_class(g), separating=True),)
    else:
        d = _factor_double_transvection(q, g)
        if d is None:
            raise RuntimeError(f"odd chain ({t},{g}): no boundary class matches")
        d = d.canonical()
        boundary = (NamedCurve("d1", d), NamedCurve("d2", -d))
    return ChainConfig(g, t, curves, boundary)
