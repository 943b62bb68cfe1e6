"""Named curve systems on the genus-g surface.

The standard picture has handles 1..g in a ring: a_i is the core circle of
handle i (class alpha_i), b_i the dual circle (class beta_i), and c_i joins
handles i and i+1.  Pictures fix curves only up to isotopy and orientation,
so each class below is a stated convention, not a search result:

- c_i = alpha_i + alpha_{i+1} (c_signs (1, 1) on every c_i);
- the lantern interior curves are y = alpha_1 - alpha_3 and
  z = alpha_1 + alpha_2 + alpha_3;
- the lantern boundary a_1, c_2, a_3, c_1 is oriented (+1, +1, -1, -1);
- a chain a_1, b_1, c_1, b_2, ... of even length t bounds a separating
  curve (class 0), and one of odd length t = 2k - 1 bounds two curves of
  classes alpha_k and -alpha_k.

This module only builds: it forms no matrix product and imports no
verdict module.  Besides NamedCurve's shape checks, its one build check is
the null-homologous lantern boundary, which pins the reported
lantern_boundary_orientations; a failed check raises.
Every identity the classes must satisfy is decided by the verdict that
reports it: the declared intersections (LickorishSystem.meeting) by
words.relation_suite's commute and braid verdicts, decided by the
symplectic pairing; the chain relations (the 3-chain one is
(T_a1 T_b1 T_c1)^4 = T_a2^2) by words.check_chain and both lantern forms
by words.check_lantern, each failing with both sides of the relation; and
s^(i-2) c_2 = +/-c_i for the handle shift s by
theorem.property1_orbit_check, whose word for c_i is s^(i-2) f3 a_1.
Other signs can pass every check (on the alpha-span the twists commute, so
y and z may be swapped or negated), which is why the choice is recorded in
every report and pinned by the golden report digests.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from .symplectic import (
    Frozen,
    HomologyClass,
    alpha,
    beta,
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

    @cached_property
    def support(self):
        """The (index, value) pairs of the nonzero coordinates of the class."""
        return tuple((i, x) for i, x in enumerate(self.cls.coords) if x)


class LickorishSystem(Frozen):
    def __init__(self, genus, curves, meeting, c_signs):
        # meeting: the sorted name pairs of curves that meet once; every other
        # pair is disjoint.  c_signs: ((eps_i, eps'_i)) for c_1..c_{g-1}
        self._set_fields(genus=genus, curves=curves, meeting=meeting, c_signs=c_signs)

    def curve(self, name):
        for u in self.curves:
            if u.name == name:
                return u
        raise KeyError(f"no curve named {name!r} in genus {self.genus} system")


def _lickorish_meeting(g):
    pairs = [(f"a{i}", f"b{i}") for i in range(1, g + 1)]
    for i in range(1, g):
        pairs += [(f"b{i}", f"c{i}"), (f"b{i + 1}", f"c{i}")]
    return frozenset(pairs)


def _build_system(g, c_signs):
    """The curves with [c_i] = e alpha_i + e' alpha_{i+1} for (e, e') = c_signs[i-1].

    Whether the classes fit the declared intersections is
    words.relation_suite's commute and braid verdicts, and whether
    s^(i-2) c_2 = +/-c_i for the handle shift s is the orbit verdict's.
    """
    curves = [NamedCurve(f"a{i}", alpha(i, g)) for i in range(1, g + 1)]
    curves += [NamedCurve(f"b{i}", beta(i, g)) for i in range(1, g + 1)]
    for i, (e, e2) in enumerate(c_signs, start=1):
        coords = [0] * (2 * g)
        coords[i - 1] = e
        coords[i] = e2
        curves.append(NamedCurve(f"c{i}", HomologyClass(coords, g)))
    return LickorishSystem(g, tuple(curves), _lickorish_meeting(g), c_signs)


@lru_cache(maxsize=None)
def lickorish_system(g):
    if g < 2:
        raise ValueError(f"Lickorish system needs genus >= 2, got {g}")
    return _build_system(g, ((1, 1),) * (g - 1))


# y and z on alpha_1..alpha_3, and the signs of the boundary roles a, b, c, d
LANTERN_INTERIOR = {"y": (1, 0, -1), "z": (1, 1, 1)}
LANTERN_ORIENTATIONS = {"a": 1, "b": 1, "c": -1, "d": -1}


class LanternConfig(Frozen):
    """Seven curves on the four-holed sphere between handles 1 and 3.

    Boundary roles a, b, c, d are the curves a_1, c_2, a_3, c_1; the
    interior role x is a_2 and y, z are the classes LANTERN_INTERIOR in
    the span of alpha_1..alpha_3.  boundary_orientations records signs
    under which the four boundary classes sum to zero.
    """

    def __init__(self, genus, roles, boundary_orientations):
        self._set_fields(genus=genus, roles=roles, boundary_orientations=boundary_orientations)


def _pad(triple, g):
    return tuple(triple) + (0,) * (2 * g - 3)


def _check_lantern(config):
    """Raise unless the oriented boundary is null-homologous.

    The lantern identity itself is words.check_lantern's verdict.
    """
    g = config.genus
    total = [0] * (2 * g)
    for role, s in config.boundary_orientations.items():
        for k, v in enumerate(config.roles[role].cls.coords):
            total[k] += s * v
    if any(total):
        raise RuntimeError(f"the oriented lantern boundary is not null-homologous at genus {g}")


@lru_cache(maxsize=None)
def lantern_configuration(g):
    if g < 3:
        raise ValueError(f"lantern needs genus >= 3, got {g}")
    system = lickorish_system(g)
    roles = {
        "a": system.curve("a1"),
        "b": system.curve("c2"),
        "c": system.curve("a3"),
        "d": system.curve("c1"),
        "x": system.curve("a2"),
    }
    for role, triple in LANTERN_INTERIOR.items():
        roles[role] = NamedCurve(role, HomologyClass(_pad(triple, g), g))
    config = LanternConfig(g, roles, dict(LANTERN_ORIENTATIONS))
    _check_lantern(config)
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


@lru_cache(maxsize=None)
def chain_configuration(t, g):
    """The length-t chain along the Lickorish sequence with its closed-form boundary.

    Builds no matrix: the relation itself is words.check_chain.
    """
    system = lickorish_system(g)
    names = chain_sequence(g)
    if not 1 <= t <= len(names):
        raise ValueError(f"chain of length {t} does not fit in genus {g}")
    curves = tuple(system.curve(nm) for nm in names[:t])
    if t % 2 == 0:
        boundary = (NamedCurve("d", zero_class(g), separating=True),)
    else:
        d = alpha((t + 1) // 2, g)
        boundary = (NamedCurve("d1", d), NamedCurve("d2", -d))
    return ChainConfig(g, t, curves, boundary)
