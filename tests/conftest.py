"""Shared independent oracles for the test suite.

These helpers recompute matrix facts with plain list arithmetic so that
expected values asserted in the tests do not depend on the code paths
under test.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


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
