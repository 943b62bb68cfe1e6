import ast
from pathlib import Path

import pytest

from mcgtorsion.curves import lickorish_system
from mcgtorsion.symplectic import SympMatrix, alpha, beta, element_order, identity, zero_class
from mcgtorsion import curves, symplectic, theorem, torsion
from conftest import swap_generator
from mcgtorsion.torsion import (
    LANTERN_ROTATION_BLOCK,
    _signed_perm,
    build_f1,
    build_f2,
    build_f3,
    build_genus3_extras,
    conjugated_involution,
    discover_action,
    named_classes,
    sigma_matrix,
    theorem_generators,
)


@pytest.mark.parametrize("g", range(2, 9))
def test_f1_f2_are_involutions(g):
    for build in (build_f1, build_f2):
        cert = build(g)
        assert cert.claimed_order == 2
        assert (cert.matrix @ cert.matrix).is_identity
        assert not cert.matrix.is_identity


@pytest.mark.parametrize("g", range(3, 9))
def test_f2f1_has_order_exactly_g(g):
    prod = build_f2(g).matrix @ build_f1(g).matrix
    assert element_order(prod, 2 * g) == g


def test_f2f1_is_the_handle_shift():
    # both factors carry PI_ROTATION_SIGN, so the product is the +shift
    for g in (3, 5, 8):
        prod = build_f2(g).matrix @ build_f1(g).matrix
        assert prod == _signed_perm(g, lambda i: i + 1, 1)
        for i in range(1, g):
            assert prod.apply(alpha(i, g)) == alpha(i + 1, g)


def test_theorem_generators_list_the_built_pi_rotations():
    for g in (3, 4, 6):
        by_name = {c.name: c for c in theorem_generators(g)}
        assert by_name["f1"] is build_f1(g)
        assert by_name["f2"] is build_f2(g)


def test_f2_sends_a1_to_a2():
    for g in (2, 3, 6):
        cert = build_f2(g)
        assert cert.curve_action["a1"][0] == "a2"


def test_f2f1_sends_c1_to_c2():
    for g in (3, 4, 7):
        prod = build_f2(g).matrix @ build_f1(g).matrix
        system = lickorish_system(g)
        img = prod.apply(system.curve("c1").cls).coords
        c2 = system.curve("c2").cls.coords
        assert img == c2 or img == tuple(-x for x in c2)


def test_conjugated_involution():
    for g in (3, 4):
        cert = conjugated_involution(g)
        assert cert.claimed_order == 2
        assert (cert.matrix @ cert.matrix).is_identity
        assert not cert.matrix.is_identity


@pytest.mark.parametrize("g", range(4, 9))
def test_f3_certificate(g):
    cert = build_f3(g)
    m = cert.matrix
    assert cert.claimed_order == 3
    assert (m @ m @ m).is_identity
    assert not m.is_identity

    action = cert.curve_action
    assert action["a1"][0] == "c2"
    assert action["c2"][0] == "a3"
    assert action["a3"][0] == "a1"
    assert action["c1"][0] == "c1"
    assert {action["a2"][0], action["y"][0], action["z"][0]} == {"y", "z", "a2"}
    for i in range(4, g + 1):
        assert action[f"a{i}"][0] == f"b{i}"


def test_f3_rejects_small_genus():
    with pytest.raises(ValueError):
        build_f3(2)


def test_f3_at_genus_3_is_the_generator_without_handle_blocks():
    # one builder at every genus: at g = 3 there is no handle 4..g to turn
    cert = build_f3(3)
    assert {c.name: c for c in theorem_generators(3)}["f3"] is cert
    assert "handle_blocks" not in cert.notes
    assert "handle_blocks" in build_f3(4).notes


def test_f3_order3_block_on_complement_handles():
    g = 5
    m = build_f3(g).matrix
    # alpha -> beta -> -alpha-beta on handle 5
    a, b = alpha(5, g), beta(5, g)
    assert m.apply(a).coords == b.coords
    img = m.apply(b)
    expect = tuple(-x - y for x, y in zip(a.coords, b.coords))
    assert img.coords == expect


def test_genus3_extras():
    f3_local, tau = build_f3(3), build_genus3_extras()
    m = f3_local.matrix
    assert (m @ m @ m).is_identity and not m.is_identity
    # local form: no complement handles, so no alpha -> beta action
    assert all(v[0] not in ("b1", "b2", "b3") for u, v in f3_local.curve_action.items()
               if u.startswith("a"))

    t = tau.matrix
    assert (t @ t).is_identity and not t.is_identity
    target, sign = tau.curve_action["a3"]
    assert target.startswith("b")
    assert target == "b2"  # realized image, recorded in the certificate
    assert tau.notes["a3_image"] == "-b2"


@pytest.mark.parametrize("g", (3, 4, 8))
def test_generators_are_built_from_their_moved_rows(monkeypatch, clear_caches, g):
    # every builder states its moved rows: no dense constructor, no n x n list
    dense = []

    def spy(owner, name):
        real = getattr(owner, name)

        def recording(*args):
            dense.append(name)
            return real(*args)

        monkeypatch.setattr(owner, name, recording)

    spy(SympMatrix, "__init__")
    spy(symplectic, "identity_rows")
    spy(symplectic, "_dense")
    certs = theorem_generators(g)
    if g == 3:
        sigma_matrix()
    assert len(certs) == (5 if g == 3 else 4)
    assert not dense, dense


@pytest.mark.parametrize("g", range(3, 9))
def test_moved_rows_and_dense_rows_make_the_same_matrix(g):
    mats = [c.matrix for c in theorem_generators(g)] + ([sigma_matrix()] if g == 3 else [])
    for m in mats:
        dense = SympMatrix(m.to_lists())
        assert dense == m and dense.delta == m.delta and hash(dense) == hash(m)


def test_sigma_fixes_first_two_handles():
    sigma = sigma_matrix()
    for i in (1, 2):
        assert sigma.apply(alpha(i, 3)) == alpha(i, 3)
        assert sigma.apply(beta(i, 3)) == beta(i, 3)
    img = sigma.apply(alpha(3, 3)).coords
    b3 = beta(3, 3).coords
    assert img == b3 or img == tuple(-x for x in b3)


def test_certificates_verify_and_are_deterministic():
    # orders are decided by the torsion verdict and curve actions re-checked
    # from the emitted report (test_report_recheck); a build is deterministic
    for g in (3, 4, 6):
        certs1 = theorem_generators(g)
        # a fresh build, past the per-genus cache
        certs2 = theorem_generators.__wrapped__(g)
        assert certs2 is not certs1
        assert [c.matrix.rows for c in certs1] == [c.matrix.rows for c in certs2]


@pytest.mark.parametrize("g", (3, 4))
def test_verify_rejects_false_certificates(monkeypatch, g):
    # a false claimed order fails the torsion verdict, which names the generator
    for name, false_order in (("f1", 4), ("f3", 2)):  # f1 has order 2, f3 order 3
        swap_generator(monkeypatch, g, name, claimed_order=false_order)
        report, _ = theorem.full_theorem_report(g, checks={"torsion"})
        section = report["checks"]["torsion"]
        assert report["passed"] is section["passed"] is False
        assert section["order_failures"] == [name]
        assert section["f2f1_order"] == g


def test_generator_counts_match_theorem():
    assert len(theorem_generators(3)) == 5
    for g in (4, 5, 8):
        assert len(theorem_generators(g)) == 4
    with pytest.raises(ValueError):
        theorem_generators(2)


def test_certificate_orders_are_exact():
    for g in (3, 4):
        for cert in theorem_generators(g):
            m = identity(g)
            for k in range(1, cert.claimed_order):
                m = m @ cert.matrix
                assert not m.is_identity
            assert (m @ cert.matrix).is_identity


def test_f3_fixes_c1_with_plus_sign():
    # the order-3 constraint forces the +1 sign; recorded in the notes
    for g in (3, 4, 5):
        assert build_f3(g).notes["c1_sign"] == 1


def _scan_action(m, classes):
    """The first class, in order, that the image of each class hits up to sign."""
    action = {}
    for u, cls in classes.items():
        img = m.apply(cls).coords
        for v, target in classes.items():
            if img == target.coords:
                action[u] = (v, 1)
                break
            if img == tuple(-x for x in target.coords):
                action[u] = (v, -1)
                break
    return action


def test_discover_action_keeps_first_match_order():
    g = 3
    a1, b1 = alpha(1, g), beta(1, g)
    classes = {"u": a1, "v": -a1, "w": a1, "x": b1, "y": -b1, "z": zero_class(g)}
    assert discover_action(identity(g), classes) == {
        "u": ("u", 1), "v": ("u", -1), "w": ("u", 1), "x": ("x", 1), "y": ("x", -1),
        "z": ("z", 1)}
    for g in (3, 4, 5):
        classes = named_classes(g)
        for cert in theorem_generators(g):
            assert discover_action(cert.matrix, classes) == _scan_action(cert.matrix, classes)
            assert cert.curve_action == _scan_action(cert.matrix, classes)


def _fixed_handle_error(name, i, g):
    return rf"^{name} does not act by -I on fixed handle {i} at genus {g}$"


@pytest.mark.parametrize("g", (3, 4, 5, 8))
def test_pi_rotation_signs_are_pinned_by_the_fixed_handle_check(monkeypatch, g):
    # with sign +1 f2 f1 is still the handle shift; f1 fixes handle 1 with +I
    monkeypatch.setattr(torsion, "PI_ROTATION_SIGN", 1)
    with pytest.raises(RuntimeError, match=_fixed_handle_error("f1", 1, g)):
        build_f1.__wrapped__(g)


@pytest.mark.parametrize("g,s1,s2", [
    (3, 1, -1), (4, 1, -1), (8, 1, -1),   # f1 fixes handle 1 at every genus
    (3, -1, 1), (5, -1, 1),                 # f2 fixes handle (g+3)/2 at odd genus
])
def test_pi_rotation_negative_controls(monkeypatch, g, s1, s2):
    # the builder of the pi-rotation signed +1 raises on its fixed handle
    name, handle = ("f1", 1) if s1 == 1 else ("f2", (g + 3) // 2)
    monkeypatch.setattr(torsion, "PI_ROTATION_SIGN", 1)
    with pytest.raises(RuntimeError, match=_fixed_handle_error(name, handle, g)):
        getattr(torsion, f"build_{name}").__wrapped__(g)


@pytest.mark.parametrize("g", (3, 5, 7))
def test_mixed_pi_rotation_signs_fail_at_odd_genus(monkeypatch, g):
    # f2 with sign +1 fixes handle (g+3)/2 with +I; and f2 f1 would then be
    # -shift, whose order is 2g at odd g, so order(f2 f1) = g would fail too
    f1 = build_f1(g).matrix
    monkeypatch.setattr(torsion, "PI_ROTATION_SIGN", 1)
    with pytest.raises(RuntimeError, match=_fixed_handle_error("f2", (g + 3) // 2, g)):
        build_f2.__wrapped__(g)
    assert element_order(_signed_perm(g, lambda i: 1 - i, 1) @ f1, g) is None


def test_f2_sign_is_a_convention_at_even_genus(monkeypatch):
    # f2 fixes no handle and -shift has order g: the golden digests pin its sign
    f1s = {g: build_f1(g).matrix for g in (4, 6, 8)}
    assert build_f2(4).notes["global_sign"] == -1
    monkeypatch.setattr(torsion, "PI_ROTATION_SIGN", 1)
    for g, f1 in f1s.items():
        f2 = build_f2.__wrapped__(g)
        assert f2.notes["global_sign"] == 1
        assert element_order(f2.matrix @ f1, g) == g


@pytest.mark.parametrize("g", (3, 4, 6))
def test_f3_check_rejects_a_wrong_cycle(monkeypatch, g):
    # f3^2 has order 3 too, but cycles a1 -> a3 -> c2
    assemble = torsion._assemble_f3
    monkeypatch.setattr(torsion, "_assemble_f3", lambda h: assemble(h) @ assemble(h))
    with pytest.raises(RuntimeError, match="does not cycle a1 -> c2 -> a3"):
        build_f3.__wrapped__(g)


@pytest.mark.parametrize("entry", [(0, 1), (2, 0), (4, 5)])
def test_lantern_rotation_block_sign_flip_is_not_symplectic(monkeypatch, entry):
    r, c = entry
    rows = [list(row) for row in LANTERN_ROTATION_BLOCK]
    rows[r][c] = -rows[r][c]
    monkeypatch.setattr(torsion, "LANTERN_ROTATION_BLOCK", tuple(map(tuple, rows)))
    for g in (3, 4):
        with pytest.raises(ValueError, match="symplectic"):
            build_f3.__wrapped__(g)


def _imports(tree):
    """(from-module, alias) for each name an import statement binds; None for a plain import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((None, a) for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from ((node.module or "", a) for a in node.names)


def _imported_names(module):
    """Every dotted name an import statement of the module's source mentions."""
    for base, a in _imports(ast.parse(Path(module.__file__).read_text())):
        yield a.name if base is None else f"{base}.{a.name}"


@pytest.mark.parametrize("module", (curves, torsion))
def test_builders_import_no_verdict_module(module):
    # curves and torsion only build; every identity is computed by the
    # verdict in words or theorem that reports it
    parts = {part for name in _imported_names(module) for part in name.split(".")}
    assert not parts & {"words", "theorem"}, sorted(_imported_names(module))


# __init__ imports only to re-export, so it is not scanned
@pytest.mark.parametrize("path", sorted(p for p in Path(torsion.__file__).parent.glob("*.py")
                                        if p.name != "__init__.py"), ids=lambda p: p.name)
def test_modules_use_every_import(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    bound = {(a.asname or a.name).split(".")[0]
             for base, a in _imports(tree) if base != "__future__"}
    assert not bound - used, sorted(bound - used)
