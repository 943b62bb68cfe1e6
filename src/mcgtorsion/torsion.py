"""Construction and certification of the torsion generators.

f1 and f2 are the two pi-rotations of the ring-of-handles picture: each
sends handle i to handle -i resp. 1-i (mod g), and their product is the
cyclic handle shift of order g.  f3 restricts to an order-3 rotation of
the four-holed sphere spanning handles 1..3 (cycling the boundary curves
a_1 -> c_2 -> a_3 and the interior curves a_2 -> y -> z) and acts on each
remaining handle by the order-3 map alpha -> beta -> -alpha-beta.

Pictures pin these maps down only up to orientation bookkeeping, so the
residual signs are found by a bounded search and every candidate is
validated against the full certificate contract (exact orders, exact
curve actions, and the twist identities that consume them) before it is
accepted.  On a handle that a pi-rotation maps to itself the action is
forced to be -I: the only order-2 element of SL(2,Z) is -I, so the
all-minus candidate is enumerated first.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .curves import lantern_configuration, lickorish_system
from .symplectic import (
    Frozen,
    SympMatrix,
    alpha,
    element_order,
    identity_rows,
)
from .words import Verdict

# order-3 handle block: alpha -> beta, beta -> -alpha - beta
ORDER3_BLOCK = ((0, -1), (1, -1))


class TorsionCertificate(Frozen):
    """A torsion element with machine-checked order and curve action."""

    def __init__(self, name, matrix, claimed_order, curve_action, notes=None):
        self._set_fields(name=name, matrix=matrix, claimed_order=claimed_order,
                         curve_action=curve_action, notes={} if notes is None else notes)

    def verify(self, curve_lookup):
        """Re-check the certificate invariants; raises on any failure."""
        m = self.matrix
        order = element_order(m, self.claimed_order)
        if order != self.claimed_order:
            raise AssertionError(f"{self.name}: order is not the claimed {self.claimed_order} "
                                 f"(least k <= {self.claimed_order} with matrix^k = I: {order})")
        for u, (v, s) in self.curve_action.items():
            img = m.apply(curve_lookup[u])
            want = tuple(s * x for x in curve_lookup[v].coords)
            if img.coords != want:
                raise AssertionError(f"{self.name}: action {u} -> {s}*{v} fails")

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


def _signed_perm_rows(g, perm, sign):
    """alpha_i -> sign*alpha_perm(i), beta_i -> sign*beta_perm(i), 0-based."""
    n = 2 * g
    rows = [[0] * n for _ in range(n)]
    for i in range(g):
        rows[perm(i)][i] = sign
        rows[g + perm(i)][g + i] = sign
    return tuple(tuple(r) for r in rows)


def handle_shift(g):
    """The cyclic shift alpha_i -> alpha_{i+1}, beta_i -> beta_{i+1}."""
    return SympMatrix(_signed_perm_rows(g, lambda i: (i + 1) % g, 1))


def luo_decomposition(g, f2):
    """Ta2 Ta1^-1 = (f2 Ta1 f2) Ta1^-1 = f2 (Ta1 f2 Ta1^-1), involution included."""
    system = lickorish_system(g)
    ta1, ta2 = system.curve("a1").twist, system.curve("a2").twist
    target = ta2 @ ta1.inv()
    middle = (f2 @ ta1 @ f2) @ ta1.inv()
    luo_factor = ta1 @ f2 @ ta1.inv()
    right = f2 @ luo_factor
    equal = target == middle == right
    involution = (luo_factor @ luo_factor).is_identity
    ok = equal and involution
    details = {"equal": equal, "conjugate_is_involution": involution}
    if not ok:
        details["lhs_word"] = "Ta2 Ta1^-1"
        details["lhs_matrix"] = target.to_lists()
        details["middle_matrix"] = middle.to_lists()
        details["rhs_matrix"] = right.to_lists()
    return Verdict(f"luo(g={g})", "pass" if ok else "fail", details)


@lru_cache(maxsize=None)
def _pi_rotations(g):
    """The pair (f1, f2) with their global signs, by bounded search."""
    if g < 2:
        raise ValueError(f"pi-rotations need genus >= 2, got {g}")
    shift = handle_shift(g)
    neg_shift = SympMatrix(_signed_perm_rows(g, lambda i: (i + 1) % g, -1))
    a1, a2 = alpha(1, g), alpha(2, g)
    failures = []
    for s1, s2 in ((-1, -1), (-1, 1), (1, -1), (1, 1)):
        f1 = SympMatrix(_signed_perm_rows(g, lambda i: (-i) % g, s1))
        f2 = SympMatrix(_signed_perm_rows(g, lambda i: (1 - i) % g, s2))
        prod = f2 @ f1
        checks = {
            "f1 involution": (f1 @ f1).is_identity,
            "f2 involution": (f2 @ f2).is_identity,
            "product order g": element_order(prod, g) == g,
            "product is handle shift": prod in (shift, neg_shift),
            "f2 sends a1 to a2": m_sends(f2, a1, a2),
            "luo decomposition": luo_decomposition(g, f2).passed,
        }
        if all(checks.values()):
            return f1, f2, s1, s2
        failures.append((s1, s2, [k for k, v in checks.items() if not v]))
    raise RuntimeError(f"no sign assignment yields the pi-rotations at genus {g}: {failures}")


def m_sends(m, x, y):
    img = m.apply(x).coords
    return img == y.coords or img == tuple(-v for v in y.coords)


def build_f1(g):
    f1, _, s1, _ = _pi_rotations(g)
    classes = named_classes(g)
    cert = TorsionCertificate(
        "f1", f1, 2, discover_action(f1, classes), {"global_sign": s1, "handle_map": "i -> -i"}
    )
    cert.verify(classes)
    return cert


def build_f2(g):
    _, f2, _, s2 = _pi_rotations(g)
    classes = named_classes(g)
    cert = TorsionCertificate(
        "f2", f2, 2, discover_action(f2, classes), {"global_sign": s2, "handle_map": "i -> 1-i"}
    )
    cert.verify(classes)
    return cert


def conjugated_involution(g):
    """Ta1 f2 Ta1^-1, the third involution of the generating set."""
    _, f2, _, _ = _pi_rotations(g)
    ta1 = lickorish_system(g).curve("a1").twist
    m = ta1 @ f2 @ ta1.inv()
    classes = named_classes(g)
    cert = TorsionCertificate(
        "Ta1 f2 Ta1^-1", m, 2, discover_action(m, classes), {"word": "Ta1 F2 Ta1^-1"}
    )
    cert.verify(classes)
    return cert


def _embed_block(g, block6):
    """Place a 6x6 block on the handle 1..3 coordinates of a 2g matrix."""
    idx = [0, 1, 2, g, g + 1, g + 2]
    rows = [list(r) for r in identity_rows(2 * g)]
    for r in range(6):
        for c in range(6):
            rows[idx[r]][idx[c]] = block6[r][c]
    return rows


def _mat3_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


_ID3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _lantern_rotation_block(g):
    """The 6x6 action on handles 1..3: order 3, cycling the lantern curves.

    The alpha-span of handles 1..3 is invariant, so the block has the shape
    [[B, 0], [0, B^-T]]; the columns of B are pinned by the curve cycle up
    to finitely many signs, which are searched and validated here.
    """
    system = lickorish_system(g)
    config = lantern_configuration(g)
    c1_3 = system.cls("c1").coords[:3]
    c2_3 = system.cls("c2").coords[:3]
    y3 = config.roles["y"].cls.coords[:3]
    z3 = config.roles["z"].cls.coords[:3]

    def col_candidates():
        for s1 in (1, -1):
            for v in product((-1, 0, 1), repeat=3):
                for s3 in (1, -1):
                    yield (
                        tuple(s1 * x for x in c2_3),  # image of alpha_1
                        v,                            # image of alpha_2
                        (s3, 0, 0),                   # image of alpha_3
                    )

    def cycles_ok(b):
        apply3 = lambda vec: tuple(sum(b[i][k] * vec[k] for k in range(3)) for i in range(3))
        neg = lambda vec: tuple(-x for x in vec)
        up_to_sign = lambda got, want: got == want or got == neg(want)
        a1, a2, a3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
        if not up_to_sign(apply3(a1), c2_3):
            return False
        if not up_to_sign(apply3(c2_3), a3):
            return False
        if not up_to_sign(apply3(a3), a1):
            return False
        if not up_to_sign(apply3(c1_3), c1_3):
            return False
        img_x = apply3(a2)
        if up_to_sign(img_x, y3):
            second, third = y3, z3
        elif up_to_sign(img_x, z3):
            second, third = z3, y3
        else:
            return False
        if not up_to_sign(apply3(second), third):
            return False
        return up_to_sign(apply3(third), a2)

    for cols in col_candidates():
        b = tuple(tuple(cols[c][r] for c in range(3)) for r in range(3))
        if _mat3_mul(b, _mat3_mul(b, b)) != _ID3:
            continue
        if not cycles_ok(b):
            continue
        d = tuple(zip(*_mat3_mul(b, b)))  # B^-T = (B^2)^T since B^3 = I
        block = tuple(
            tuple(b[r][c] for c in range(3)) + (0, 0, 0) for r in range(3)
        ) + tuple((0, 0, 0) + tuple(d[r][c] for c in range(3)) for r in range(3))
        return block
    raise RuntimeError(f"no order-3 lantern rotation block exists at genus {g}")


def _assemble_f3(g, with_handle_blocks):
    rows = _embed_block(g, _lantern_rotation_block(g))
    if with_handle_blocks:
        for i in range(3, g):  # 0-based handles 4..g
            ai, bi = i, g + i
            rows[ai][ai] = ORDER3_BLOCK[0][0]
            rows[ai][bi] = ORDER3_BLOCK[0][1]
            rows[bi][ai] = ORDER3_BLOCK[1][0]
            rows[bi][bi] = ORDER3_BLOCK[1][1]
    return SympMatrix(rows)


def lantern_assembly(g, f3):
    """T_c1 = (Ta2 Ta1^-1) f3(...)f3^-1 f3^2(...)f3^-2."""
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


def _validate_f3(cert, g, global_form):
    classes = named_classes(g)
    cert.verify(classes)
    action = cert.curve_action
    cycle = [action.get("a1"), action.get("c2"), action.get("a3")]
    if [c and c[0] for c in cycle] != ["c2", "a3", "a1"]:
        raise AssertionError("f3 does not cycle a1 -> c2 -> a3 -> a1")
    if action.get("c1", (None,))[0] != "c1":
        raise AssertionError("f3 does not fix c1 up to sign")
    inner = {action.get(u, (None,))[0] for u in ("a2", "y", "z")}
    if inner != {"a2", "y", "z"} or action["a2"][0] == "a2":
        raise AssertionError("f3 does not cycle the lantern interior curves")
    if global_form:
        for i in range(4, g + 1):
            if action.get(f"a{i}", (None,))[0] != f"b{i}":
                raise AssertionError(f"f3 does not send a{i} to a longitude")
    # the assembly identity this element exists for
    if not lantern_assembly(g, cert.matrix).passed:
        raise AssertionError("f3 fails the lantern assembly identity")


@lru_cache(maxsize=None)
def build_f3(g):
    """Global order-3 element, genus >= 4."""
    if g < 4:
        raise ValueError(f"global f3 needs genus >= 4, got {g}")
    m = _assemble_f3(g, with_handle_blocks=True)
    classes = named_classes(g)
    action = discover_action(m, classes)
    cert = TorsionCertificate(
        "f3", m, 3, action,
        {
            "c1_sign": action["c1"][1],
            "interior_cycle": "a2 -> " + action["a2"][0],
            "handle_blocks": "alpha -> beta -> -alpha-beta on handles 4..g",
        },
    )
    _validate_f3(cert, g, global_form=True)
    return cert


def sigma_matrix():
    """Genus-3 map fixing handles 1, 2 and rotating handle 3 a quarter turn."""
    rows = [list(r) for r in identity_rows(6)]
    rows[2][2], rows[2][5] = 0, -1
    rows[5][2], rows[5][5] = 1, 0
    return SympMatrix(rows)


@lru_cache(maxsize=None)
def build_genus3_extras():
    """The genus-3 pieces: local f3 and the extra involution tau."""
    g = 3
    m = _assemble_f3(g, with_handle_blocks=False)
    classes = named_classes(g)
    action = discover_action(m, classes)
    f3_local = TorsionCertificate(
        "f3", m, 3, action,
        {"c1_sign": action["c1"][1], "interior_cycle": "a2 -> " + action["a2"][0]},
    )
    _validate_f3(f3_local, g, global_form=False)

    sigma = sigma_matrix()
    for i in (1, 2):
        if sigma.apply(alpha(i, g)).coords != alpha(i, g).coords:
            raise AssertionError(f"sigma moves a{i}")
    f1, _, _, _ = _pi_rotations(g)
    tau_m = sigma.inv() @ f1 @ sigma
    tau_action = discover_action(tau_m, classes)
    target = tau_action.get("a3")
    if target is None or not target[0].startswith("b"):
        raise AssertionError("tau does not send a3 to a longitude class")
    tau = TorsionCertificate(
        "sigma^-1 f1 sigma", tau_m, 2, tau_action,
        {"a3_image": f"{'-' if target[1] < 0 else ''}{target[0]}"},
    )
    tau.verify(classes)
    return f3_local, tau


@lru_cache(maxsize=None)
def theorem_generators(g):
    """Certificates of the theorem's generating set in statement order; built once per genus."""
    if g < 3:
        raise ValueError(f"the torsion generating sets need genus >= 3, got {g}")
    certs = (build_f1(g), build_f2(g), conjugated_involution(g))
    if g >= 4:
        return certs + (build_f3(g),)
    return certs + build_genus3_extras()
