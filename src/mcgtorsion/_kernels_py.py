"""Pure-Python closure kernel for matrix groups over small prime fields.

Breadth-first closure from the identity under right multiplication by the
generators, with a hash set for dedup.  For p = 2 a matrix is held as a
tuple of row bitmasks and each generator gets a 2^n lookup table mapping a
row bitmask to (row times generator), so one product is n table lookups.

Key encoding (must match the compiled kernel exactly):
  p == 2 and n*n <= 64:  int with bit n*i + j set iff M[i][j] == 1
  otherwise:             bytes of the entries, row-major
"""

from __future__ import annotations

from .chain import mul_mod
from .symplectic import xor_table


def key_regime(p, n):
    return "u64" if p == 2 and n * n <= 64 else "bytes"


def encode_key(mat, p, n):
    if key_regime(p, n) == "u64":
        key = 0
        for i, row in enumerate(mat):
            for j, x in enumerate(row):
                if x & 1:
                    key |= 1 << (n * i + j)
        return key
    return bytes(x % p for row in mat for x in row)


def _bitrows(mat, n):
    return tuple(sum((row[j] & 1) << j for j in range(n)) for row in mat)


def _closure_p2(gens, n, cap, with_parents):
    tables = [xor_table(_bitrows(g, n)) for g in gens]
    u64 = key_regime(2, n) == "u64"

    def key_of(rows):
        if u64:
            k = 0
            for i, r in enumerate(rows):
                k |= r << (n * i)
            return k
        return bytes((r >> j) & 1 for r in rows for j in range(n))

    ident = tuple(1 << i for i in range(n))
    start = key_of(ident)
    seen = {start}
    parents = {start: None} if with_parents else None
    frontier = [ident]
    exceeded = False
    while frontier and not exceeded:
        nxt = []
        for rows in frontier:
            cur_key = key_of(rows) if with_parents else None
            for gi, table in enumerate(tables):
                new = tuple(table[r] for r in rows)
                k = key_of(new)
                if k in seen:
                    continue
                if len(seen) >= cap:
                    exceeded = True
                    break
                seen.add(k)
                if with_parents:
                    parents[k] = (cur_key, gi)
                nxt.append(new)
            if exceeded:
                break
        frontier = nxt
    return seen, exceeded, parents


def _closure_general(gens, p, n, cap, with_parents):
    gens = [tuple(tuple(x % p for x in row) for row in g) for g in gens]
    ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    start = encode_key(ident, p, n)
    seen = {start}
    parents = {start: None} if with_parents else None
    frontier = [ident]
    exceeded = False
    while frontier and not exceeded:
        nxt = []
        for mat in frontier:
            cur_key = encode_key(mat, p, n) if with_parents else None
            for gi, gen in enumerate(gens):
                new = mul_mod(mat, gen, p)
                k = encode_key(new, p, n)
                if k in seen:
                    continue
                if len(seen) >= cap:
                    exceeded = True
                    break
                seen.add(k)
                if with_parents:
                    parents[k] = (cur_key, gi)
                nxt.append(new)
            if exceeded:
                break
        frontier = nxt
    return seen, exceeded, parents


def modp_closure(gens, p, n, cap, with_parents=False):
    """Returns (keys, exceeded, parents); see module docstring for keys."""
    if p == 2:
        return _closure_p2(gens, n, cap, with_parents)
    return _closure_general(gens, p, n, cap, with_parents)
