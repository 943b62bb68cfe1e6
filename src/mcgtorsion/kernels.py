"""Closure BFS oracle for matrix groups over small prime fields.

Breadth-first closure from the identity under right multiplication by the
generators, storing every element in a set and no parent links, so it
answers size and membership only.  The tests use it as the enumeration
oracle for the stabilizer chains; no mcg-verify check runs it, and the
chains' sifts, not this BFS, give membership words.

A BFS state is the matrix itself.  At p = 2 it is a tuple of row bitmasks
(bit j of row i is entry (i, j)), and each generator gets a
`chain.xor_table`, so one product is n table lookups.  Otherwise it is a
tuple of row tuples reduced mod p.
"""

from __future__ import annotations

from operator import mul

from .chain import xor_table
from .symplectic import Frozen

# the primes the closure accepts; it is the only enumeration at p >= 5
SMALL_PRIMES = (2, 3, 5, 7, 11, 13)

# perfbench/run.py's warm-up reads both names; there is only the pure closure.
BACKEND = "pure"
_speedups = None


def mul_mod(a, b, p):
    """The product a b of two matrices over F_p, as tuples of rows."""
    bt = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) % p for col in bt) for row in a)


def _state(mat, p):
    if p == 2:
        return tuple(sum((x & 1) << j for j, x in enumerate(row)) for row in mat)
    return tuple(tuple(x % p for x in row) for row in mat)


class ClosureResult(Frozen):
    """Result of a mod-p closure: states is the set of every state reached."""

    def __init__(self, p, exceeded, states):
        self._set_fields(p=p, exceeded=exceeded, states=states)

    @property
    def size(self):
        return len(self.states)

    def contains(self, mat):
        return _state(mat, self.p) in self.states


def modp_closure(gens, p, cap=2_000_000):
    """BFS closure of the group generated by gens inside GL(n, F_p).

    cap bounds the number of stored elements; when it is hit the result is
    flagged exceeded and size is the partial count.
    """
    if p not in SMALL_PRIMES:
        raise ValueError(f"p must be one of {SMALL_PRIMES}, got {p}")
    if not gens:
        raise ValueError("need at least one generator")
    if cap < 1:
        raise ValueError("cap must be positive")
    n = len(gens[0])
    if any(len(g) != n or any(len(row) != n for row in g) for g in gens):
        raise ValueError("generators must be square matrices of equal size")
    if p == 2:
        tables = [xor_table(_state(g, 2)) for g in gens]

        def step(state, gi):
            return tuple(tables[gi][r] for r in state)
    else:
        mats = [_state(g, p) for g in gens]

        def step(state, gi):
            return mul_mod(state, mats[gi], p)

    ident = _state([[int(i == j) for j in range(n)] for i in range(n)], p)
    states = {ident}
    frontier = [ident]
    exceeded = False
    while frontier and not exceeded:
        nxt = []
        for state in frontier:
            for gi in range(len(gens)):
                new = step(state, gi)
                if new in states:
                    continue
                if len(states) >= cap:
                    exceeded = True
                    break
                states.add(new)
                nxt.append(new)
            if exceeded:
                break
        frontier = nxt
    return ClosureResult(p, exceeded, states)
