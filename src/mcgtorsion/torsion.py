"""Construction of the torsion generators and their certificates.

f1 and f2 are the two pi-rotations of the ring-of-handles picture: each
sends handle i to handle -i resp. 1-i (mod g), and their product is the
cyclic handle shift of order g.  f3 restricts to an order-3 rotation of
the four-holed sphere spanning handles 1..3 (cycling the boundary curves
a_1 -> c_2 -> a_3 and the interior curves a_2 -> y -> z) and acts on each
remaining handle by the order-3 map alpha -> beta -> -alpha-beta.  One
builder, build_f3, makes it at every genus g >= 3; at g = 3 there is no
remaining handle, and build_genus3_extras builds the fifth involution tau.

Pictures pin these maps down only up to orientation, so the matrices are
stated as conventions: f1 and f2 act by -1 times a handle permutation
(PI_ROTATION_SIGN), and f3 by the fixed block LANTERN_ROTATION_BLOCK on
handles 1..3.  Each builder states only the rows its matrix moves
(SympMatrix.from_rows), so no build makes a 2g x 2g list, and
discover_action is the one step of a build that is quadratic in g.  A
build checks only what no verdict reports, and a failed check raises
RuntimeError: each pi-rotation acts by -I on the handles it fixes
(below), f3 cycles the curves the generation argument names
(_validate_f3), sigma fixes a_1 and a_2, and tau sends a_3 to a
longitude.  Each curve action is found once, by discover_action, and
stated as found; the pi-rotation check reads it.  Every fact a report
states is decided by the verdict that reports it
(theorem.full_theorem_report): each generator's claimed order and
order(f2 f1) = g by the torsion verdict, the Luo decomposition and the
lantern assembly by the theorem verdict.  That f2 f1 is the handle shift
s is decided there too: the orbit verdict's words reach a_i as
s^(i-1) a_1 up to sign, and both factors carry PI_ROTATION_SIGN, so their
product is +s by construction.  This module only builds: it imports no
verdict module.  The Luo verdict's Ta2 Ta1^-1 = f2 F4, with F4 the
conjugated_involution Ta1 f2 Ta1^-1 and f2 an involution, also decides
f2 a1 = +/-a2, since W T_c W^-1 = T_{Wc} and T_{-c} = T_c.

A pi-rotation turns over each handle that it maps to itself, so it acts
there by -I, the only element of order 2 in SL(2,Z); _pi_rotation checks
this on the curve action.  f1 maps handle 1 to itself, so the check pins
the sign of f1 at every genus, and that of f2 at odd genus, where f2 maps
handle (g+3)/2 to itself.  No check forces the sign of f2 at even genus:
it is a convention, pinned by the golden report digests.
"""

from __future__ import annotations

from functools import lru_cache

from .curves import lantern_configuration, lickorish_system
from .symplectic import Frozen, SympMatrix, alpha

# order-3 handle block: alpha -> beta, beta -> -alpha - beta
ORDER3_BLOCK = ((0, -1), (1, -1))

# f1 and f2 act by this sign times a permutation of the handles
PI_ROTATION_SIGN = -1

# f3 on the coordinates alpha_1..alpha_3, beta_1..beta_3: [[B, 0], [0, B^-T]],
# where B sends alpha_1 -> [c_2], alpha_2 -> [y], alpha_3 -> -alpha_1; [c_2]
# and [y] are the classes fixed by curves.lickorish_system (c_signs) and
# curves.LANTERN_INTERIOR, and _validate_f3 raises if they drift apart
LANTERN_ROTATION_BLOCK = (
    (0, 1, -1, 0, 0, 0),
    (1, 0, 0, 0, 0, 0),
    (1, -1, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, -1),
    (0, 0, 0, 1, 1, 1),
    (0, 0, 0, 0, -1, -1),
)


class TorsionCertificate(Frozen):
    """A torsion element, its claimed order and the curve action discover_action found."""

    def __init__(self, name, matrix, claimed_order, curve_action, notes=None):
        self._set_fields(name=name, matrix=matrix, claimed_order=claimed_order,
                         curve_action=curve_action, notes={} if notes is None else notes)

    def to_dict(self):
        return {
            "name": self.name,
            "order": self.claimed_order,
            "matrix": self.matrix.to_lists(),
            "curve_action": {u: list(t) for u, t in sorted(self.curve_action.items())},
            "notes": dict(sorted(self.notes.items())),
        }


def named_classes(g):
    """Curve name -> HomologyClass for everything certificates talk about."""
    system = lickorish_system(g)
    table = {u.name: u.cls for u in system.curves}
    if g >= 3:
        config = lantern_configuration(g)
        table["y"] = config.roles["y"].cls
        table["z"] = config.roles["z"].cls
    return table


def discover_action(m, classes):
    """Map each named class to a signed named class under m, where possible.

    An image matching several classes goes to the first of them in the
    order of classes, with sign +1 before -1 for the same class.
    """
    lookup = {}
    for v, target in classes.items():
        lookup.setdefault(target.coords, (v, 1))
        lookup.setdefault(tuple(-x for x in target.coords), (v, -1))
    action = {}
    for u, cls in classes.items():
        hit = lookup.get(m.apply(cls).coords)
        if hit is not None:
            action[u] = hit
    return action


def _signed_perm(g, perm, sign):
    """alpha_i -> sign*alpha_perm(i), beta_i -> sign*beta_perm(i), 0-based handles mod g."""
    rows = {}
    for i in range(g):
        j = perm(i) % g
        rows[j], rows[g + j] = {i: sign}, {g + i: sign}
    return SympMatrix.from_rows(rows, g)


def _pi_rotation(g, name, perm, handle_map):
    """PI_ROTATION_SIGN times the handle permutation perm; raises unless -I on fixed handles."""
    if g < 2:
        raise ValueError(f"pi-rotations need genus >= 2, got {g}")
    m = _signed_perm(g, perm, PI_ROTATION_SIGN)
    action = discover_action(m, named_classes(g))
    for i in range(1, g + 1):
        a, b = f"a{i}", f"b{i}"
        fixed = action.get(a, (None,))[0] == a
        if fixed and (action[a] != (a, -1) or action.get(b) != (b, -1)):
            raise RuntimeError(f"{name} does not act by -I on fixed handle {i} at genus {g}")
    return TorsionCertificate(name, m, 2, action,
                              {"global_sign": PI_ROTATION_SIGN, "handle_map": handle_map})


@lru_cache(maxsize=None)
def build_f1(g):
    return _pi_rotation(g, "f1", lambda i: -i, "i -> -i")


@lru_cache(maxsize=None)
def build_f2(g):
    return _pi_rotation(g, "f2", lambda i: 1 - i, "i -> 1-i")


def conjugated_involution(g):
    """Ta1 f2 Ta1^-1, the third involution of the generating set."""
    ta1 = lickorish_system(g).curve("a1").twist
    m = ta1 @ build_f2(g).matrix @ ta1.inv()
    return TorsionCertificate(
        "Ta1 f2 Ta1^-1", m, 2, discover_action(m, named_classes(g)), {"word": "Ta1 F2 Ta1^-1"}
    )


def _assemble_f3(g):
    """LANTERN_ROTATION_BLOCK on the rows of handles 1..3, ORDER3_BLOCK on each of handles 4..g."""
    blocks = [(LANTERN_ROTATION_BLOCK, (0, 1, 2, g, g + 1, g + 2))]
    blocks += [(ORDER3_BLOCK, (i, g + i)) for i in range(3, g)]  # none at genus 3
    # block entry (r, c) is the matrix entry (idx[r], idx[c])
    rows = {idx[r]: dict(zip(idx, row)) for block, idx in blocks for r, row in enumerate(block)}
    return SympMatrix.from_rows(rows, g)


def _validate_f3(action, g):
    """Raise unless f3 cycles the curves the generation argument names, a_i -> b_i for i >= 4."""
    cycle = [action.get("a1"), action.get("c2"), action.get("a3")]
    if [c and c[0] for c in cycle] != ["c2", "a3", "a1"]:
        raise RuntimeError("f3 does not cycle a1 -> c2 -> a3 -> a1")
    if action.get("c1", (None,))[0] != "c1":
        raise RuntimeError("f3 does not fix c1 up to sign")
    inner = {action.get(u, (None,))[0] for u in ("a2", "y", "z")}
    if inner != {"a2", "y", "z"} or action["a2"][0] == "a2":
        raise RuntimeError("f3 does not cycle the lantern interior curves")
    for i in range(4, g + 1):
        if action.get(f"a{i}", (None,))[0] != f"b{i}":
            raise RuntimeError(f"f3 does not send a{i} to a longitude")


@lru_cache(maxsize=None)
def build_f3(g):
    """The order-3 generator at genus g >= 3: lantern rotation, order-3 blocks on handles 4..g."""
    if g < 3:
        raise ValueError(f"f3 needs genus >= 3, got {g}")
    m = _assemble_f3(g)
    action = discover_action(m, named_classes(g))
    _validate_f3(action, g)
    notes = {"c1_sign": action["c1"][1], "interior_cycle": "a2 -> " + action["a2"][0]}
    if g >= 4:
        notes["handle_blocks"] = "alpha -> beta -> -alpha-beta on handles 4..g"
    return TorsionCertificate("f3", m, 3, action, notes)


def sigma_matrix():
    """Genus-3 map fixing handles 1, 2 and rotating handle 3 a quarter turn."""
    return SympMatrix.from_rows({2: {5: -1}, 5: {2: 1}}, 3)


@lru_cache(maxsize=None)
def build_genus3_extras():
    """The extra involution tau = sigma^-1 f1 sigma of the genus-3 set."""
    g = 3
    sigma = sigma_matrix()
    for i in (1, 2):
        if sigma.apply(alpha(i, g)).coords != alpha(i, g).coords:
            raise RuntimeError(f"sigma moves a{i}")
    tau_m = sigma.inv() @ build_f1(g).matrix @ sigma
    tau_action = discover_action(tau_m, named_classes(g))
    target = tau_action.get("a3")
    if target is None or not target[0].startswith("b"):
        raise RuntimeError("tau does not send a3 to a longitude class")
    return TorsionCertificate(
        "sigma^-1 f1 sigma", tau_m, 2, tau_action,
        {"a3_image": f"{'-' if target[1] < 0 else ''}{target[0]}"},
    )


@lru_cache(maxsize=None)
def theorem_generators(g):
    """The generating set's certificates, in the order reports list; roles are read by name."""
    if g < 3:
        raise ValueError(f"the torsion generating sets need genus >= 3, got {g}")
    certs = (build_f1(g), build_f2(g), conjugated_involution(g), build_f3(g))
    return certs + (build_genus3_extras(),) if g == 3 else certs
