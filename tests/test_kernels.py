import itertools

import pytest

from mcgtorsion import kernels
from mcgtorsion.chain import StabilizerChain
from mcgtorsion.curves import lickorish_system
from mcgtorsion.symplectic import reduce_mod_p


def _mul_mod(a, b, p):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(n))
        for i in range(n)
    )


def _brute_closure(gens, p):
    """Reference closure by repeated sweeps over a plain set of matrices."""
    ident = tuple(
        tuple(1 if i == j else 0 for j in range(len(gens[0]))) for i in range(len(gens[0]))
    )
    seen = {ident}
    changed = True
    while changed:
        changed = False
        for m, g in itertools.product(list(seen), gens):
            prod = _mul_mod(m, g, p)
            if prod not in seen:
                seen.add(prod)
                changed = True
    return seen


SHEAR = ((1, 1), (0, 1))
LOWER = ((1, 0), (1, 1))


@pytest.mark.parametrize("p", (2, 3, 5))
def test_closure_matches_brute_force_sl2(p):
    gens = [SHEAR, LOWER]
    brute = _brute_closure([tuple(tuple(x % p for x in r) for r in g) for g in gens], p)
    result = kernels.modp_closure(gens, p)
    assert result.size == len(brute)
    assert all(result.contains(m) for m in brute)


def test_closure_identity_only():
    ident = ((1, 0), (0, 1))
    result = kernels.modp_closure([ident], 2)
    assert result.size == 1


def test_sl2_order_formula():
    # |SL(2, F_p)| = p (p^2 - 1): 6, 24, 120 for p = 2, 3, 5
    for p, expect in ((2, 6), (3, 24), (5, 120)):
        result = kernels.modp_closure([SHEAR, LOWER], p)
        assert result.size == expect


def test_cap_semantics():
    result = kernels.modp_closure([SHEAR, LOWER], 5, cap=50)
    assert result.exceeded
    assert result.size == 50


def test_p2_n10_closure_matches_chain_order():
    g = 5  # n = 10: row bitmasks wider than one byte
    gens = [reduce_mod_p(u.twist, 2) for u in lickorish_system(g).curves[:3]]
    result = kernels.modp_closure(gens, 2, cap=5000)
    assert not result.exceeded
    assert result.size == StabilizerChain(gens).order()


def test_invalid_inputs():
    with pytest.raises(ValueError):
        kernels.modp_closure([], 2)
    with pytest.raises(ValueError):
        kernels.modp_closure([((1, 0), (0, 1))], 4)
    with pytest.raises(ValueError):
        kernels.modp_closure([((1, 0),)], 2)
    with pytest.raises(ValueError):
        kernels.modp_closure([((1, 0), (0, 1))], 2, cap=0)
