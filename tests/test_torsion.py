import pytest

from mcgtorsion.curves import lickorish_system
from mcgtorsion.symplectic import alpha, beta, element_order, identity, zero_class
from mcgtorsion.torsion import (
    build_f1,
    build_f2,
    build_f3,
    build_genus3_extras,
    conjugated_involution,
    discover_action,
    handle_shift,
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
    # the product is the cyclic shift up to one global sign
    for g in (3, 5, 8):
        prod = build_f2(g).matrix @ build_f1(g).matrix
        shift = handle_shift(g)
        negated = tuple(tuple(-x for x in row) for row in shift.rows)
        assert prod == shift or prod.rows == negated
        for i in range(1, g):
            img = prod.apply(alpha(i, g)).coords
            nxt = alpha(i + 1, g).coords
            assert img == nxt or img == tuple(-x for x in nxt)


def test_f2_sends_a1_to_a2():
    for g in (2, 3, 6):
        cert = build_f2(g)
        assert cert.curve_action["a1"][0] == "a2"


def test_f2f1_sends_c1_to_c2():
    for g in (3, 4, 7):
        prod = build_f2(g).matrix @ build_f1(g).matrix
        system = lickorish_system(g)
        img = prod.apply(system.cls("c1")).coords
        c2 = system.cls("c2").coords
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
        build_f3(3)


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
    f3_local, tau = build_genus3_extras()
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


def test_sigma_fixes_first_two_handles():
    sigma = sigma_matrix()
    for i in (1, 2):
        assert sigma.apply(alpha(i, 3)) == alpha(i, 3)
        assert sigma.apply(beta(i, 3)) == beta(i, 3)
    img = sigma.apply(alpha(3, 3)).coords
    b3 = beta(3, 3).coords
    assert img == b3 or img == tuple(-x for x in b3)


def test_certificates_verify_and_are_deterministic():
    for g in (3, 4, 6):
        certs1 = theorem_generators(g)
        classes = named_classes(g)
        for cert in certs1:
            cert.verify(classes)
        # a fresh build, past the per-genus cache
        certs2 = theorem_generators.__wrapped__(g)
        assert certs2 is not certs1
        assert [c.matrix.rows for c in certs1] == [c.matrix.rows for c in certs2]


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
    for g in (4, 5):
        cert = build_f3(g)
        assert cert.notes["c1_sign"] == 1
    f3_local, _ = build_genus3_extras()
    assert f3_local.notes["c1_sign"] == 1


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
