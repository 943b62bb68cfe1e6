"""Exact integer linear algebra for the symplectic representation.

Coordinates on first homology are ordered alpha_1..alpha_g, beta_1..beta_g.
The form is <alpha_i, beta_i> = +1 (all other basis pairings zero), i.e.
J = [[0, I], [-I, 0]] in g x g blocks.  A left-hand twist along a class c
acts by x -> x + <x, c> c, which gives the matrix I - c c^T J; at genus 1
the twist along alpha is [[1, -1], [0, 1]].

All arithmetic is over Python ints, so every result is exact and overflow
cannot occur.  Matrices and classes are immutable and hashable.

The package's record classes derive from Frozen instead of using
dataclasses, whose import pulls in inspect, ast and dis and would be most
of the package's import time.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from itertools import compress
from math import gcd

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def _as_int_tuple(seq):
    return tuple(map(int, seq))


class Frozen:
    """Base of the immutable records: __init__ stores through object.__setattr__."""

    __slots__ = ()

    def _set_fields(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class HomologyClass(Frozen):
    """Integer homology class of an oriented simple closed curve."""

    __slots__ = ("coords", "genus")

    def __init__(self, coords, genus):
        coords = _as_int_tuple(coords)
        if genus < 1:
            raise ValueError(f"genus must be positive, got {genus}")
        if len(coords) != 2 * genus:
            raise ValueError(
                f"expected {2 * genus} coordinates for genus {genus}, got {len(coords)}"
            )
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "genus", genus)

    def __eq__(self, other):
        if other.__class__ is not HomologyClass:
            return NotImplemented
        return self.coords == other.coords and self.genus == other.genus

    def __hash__(self):
        return hash((self.coords, self.genus))

    def __repr__(self):
        return f"HomologyClass(coords={self.coords!r}, genus={self.genus!r})"

    @property
    def is_zero(self):
        return all(x == 0 for x in self.coords)

    @property
    def is_primitive(self):
        g = 0
        for x in self.coords:
            g = gcd(g, x)
        return g == 1

    def __neg__(self):
        return HomologyClass(tuple(-x for x in self.coords), self.genus)

    def canonical(self):
        """Representative up to sign: first nonzero coordinate positive."""
        for x in self.coords:
            if x > 0:
                return self
            if x < 0:
                return -self
        return self


def zero_class(g):
    return HomologyClass((0,) * (2 * g), g)


def alpha(i, g):
    """Class alpha_i, 1-based handle index."""
    if not 1 <= i <= g:
        raise ValueError(f"alpha index {i} out of range for genus {g}")
    return HomologyClass(tuple(1 if k == i - 1 else 0 for k in range(2 * g)), g)


def beta(i, g):
    """Class beta_i, 1-based handle index."""
    if not 1 <= i <= g:
        raise ValueError(f"beta index {i} out of range for genus {g}")
    return HomologyClass(tuple(1 if k == g + i - 1 else 0 for k in range(2 * g)), g)


def symplectic_form(x, y):
    """x^T J y.  Antisymmetric and bilinear."""
    if x.genus != y.genus:
        raise ValueError(f"genus mismatch: {x.genus} vs {y.genus}")
    g = x.genus
    a, b = x.coords, y.coords
    return sum(a[i] * b[g + i] - a[g + i] * b[i] for i in range(g))


# Helpers on tuple-of-tuples rows.  Every SympMatrix is validated on
# construction by is_symplectic_rows; both kernels below skip zero entries,
# so a matrix that is the identity outside a few handles costs O(n * nnz).
# Both also handle an identity row exactly, without arithmetic: mul_rows
# returns b[i] for a row of a equal to e_i, and is_symplectic_rows skips a
# row pair (e_k, e_{k+g}), whose term of P - U below is zero.

@lru_cache(maxsize=None)
def identity_rows(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mul_rows(a, b):
    """Exact product a b of an m x k and a k x n matrix, as tuple rows.

    A row of a equal to the identity row e_i gives b[i]; any other row is
    the sum of x * b[k] over its nonzero entries x = a[i][k].
    """
    k = len(b)
    eye = identity_rows(k)
    zero = (0,) * len(b[0])
    out = []
    for i, row in enumerate(a):
        if i < k and row == eye[i]:
            out.append(tuple(b[i]))
            continue
        acc = None
        for x, brow in zip(filter(None, row), compress(b, row)):
            if acc is None:
                acc = brow if x == 1 else [x * y for y in brow]
            else:
                acc = [s + x * y for s, y in zip(acc, brow)]
        out.append(zero if acc is None else tuple(acc))
    return tuple(out)


def j_rows(g):
    n = 2 * g
    rows = [[0] * n for _ in range(n)]
    for i in range(g):
        rows[i][g + i] = 1
        rows[g + i][i] = -1
    return tuple(tuple(r) for r in rows)


def is_symplectic_rows(rows, g):
    """M^T J M = J.

    With r_k the rows of M, M^T J M = P - P^T for P = sum_{k<g} r_k^T r_{k+g},
    and J = U - U^T for U = sum_{i<g} E_{i,g+i}, so M is symplectic exactly
    when P - U is symmetric.  Pair k adds r_k^T r_{k+g} - E_{k,g+k} to P - U,
    which is zero when (r_k, r_{k+g}) = (e_k, e_{k+g}), so such pairs are
    skipped exactly.  P - U is kept as a dict keyed (i, j) over the nonzero
    entries of the other pairs; M is symplectic iff each entry equals its
    mirror.  The check always runs on the given rows: nothing is cached,
    sampled or reduced mod p.
    """
    eye = identity_rows(2 * g)
    d = defaultdict(int)
    for k in range(g):
        top, bottom = rows[k], rows[k + g]
        if top == eye[k] and bottom == eye[k + g]:
            continue
        d[k, g + k] -= 1
        right = [(j, y) for j, y in enumerate(bottom) if y]
        for i, x in enumerate(top):
            if x:
                for j, y in right:
                    d[i, j] += x * y
    return all(v == d.get((j, i), 0) for (i, j), v in d.items())


class SympMatrix(Frozen):
    """Immutable 2g x 2g integer matrix with M^T J M = J."""

    __slots__ = ("rows", "genus", "_hash", "_cols")

    def __init__(self, rows, genus=None):
        rows = tuple(_as_int_tuple(r) for r in rows)
        n = len(rows)
        if n == 0 or n % 2 != 0 or any(len(r) != n for r in rows):
            raise ValueError("matrix must be square of even dimension")
        g = n // 2
        if genus is not None and genus != g:
            raise ValueError(f"genus mismatch: matrix is {n}x{n} but genus={genus}")
        self._store(rows, g)

    @classmethod
    def _product(cls, rows, g):
        """Matrix on rows that mul_rows built from validated genus-g matrices.

        Such rows are already a square tuple of int tuples, so coercion and
        the shape test are skipped; the symplectic check still runs.
        """
        m = cls.__new__(cls)
        m._store(rows, g)
        return m

    def _store(self, rows, g):
        if not is_symplectic_rows(rows, g):
            raise ValueError("matrix does not preserve the symplectic form")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "genus", g)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_cols", None)

    @property
    def dim(self):
        return 2 * self.genus

    def __eq__(self, other):
        return isinstance(other, SympMatrix) and self.rows == other.rows

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self.rows)
            object.__setattr__(self, "_hash", h)
        return h

    def __matmul__(self, other):
        if self.genus != other.genus:
            raise ValueError(f"genus mismatch: {self.genus} vs {other.genus}")
        return SympMatrix._product(mul_rows(self.rows, other.rows), self.genus)

    def __mul__(self, other):
        return self.__matmul__(other)

    def __pow__(self, k):
        if k < 0:
            return self.inv() ** (-k)
        result = identity(self.genus)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base if k > 1 else base
            k >>= 1
        return result

    def inv(self):
        """J^T M^T J, exact integer inverse of a symplectic matrix."""
        j = j_rows(self.genus)
        jt = tuple(zip(*j))
        mt = tuple(zip(*self.rows))
        return SympMatrix._product(mul_rows(mul_rows(jt, mt), j), self.genus)

    def transpose_rows(self):
        """The columns of M as tuple rows, computed on first use and kept."""
        cols = self._cols
        if cols is None:
            cols = tuple(zip(*self.rows))
            object.__setattr__(self, "_cols", cols)
        return cols

    @property
    def is_identity(self):
        return self.rows == identity_rows(self.dim)

    def apply(self, x):
        """Image of a HomologyClass (or coordinate tuple) under the matrix.

        M x is computed as the row vector x^T M^T by mul_rows, which skips
        the zero coordinates of x: O(n * nnz(x)) rather than O(n^2).
        """
        coords = x.coords if isinstance(x, HomologyClass) else _as_int_tuple(x)
        if len(coords) != self.dim:
            raise ValueError("dimension mismatch")
        out = mul_rows((coords,), self.transpose_rows())[0]
        if isinstance(x, HomologyClass):
            return HomologyClass(out, self.genus)
        return out

    def col(self, k):
        return tuple(r[k] for r in self.rows)

    def to_lists(self):
        """Row-major nested lists, for serialization."""
        return [list(r) for r in self.rows]

    def __repr__(self):
        return f"SympMatrix(genus={self.genus}, rows={self.rows})"


def identity(g):
    return SympMatrix(identity_rows(2 * g))


def transvection(c):
    """Twist matrix of a class: x -> x + <x, c> c.

    The zero class (a separating curve) gives the identity.
    """
    g = c.genus
    n = 2 * g
    cc = c.coords
    # w = J c, so <x, c> = w . x
    w = tuple(cc[g + i] for i in range(g)) + tuple(-cc[i] for i in range(g))
    rows = tuple(
        tuple((1 if i == k else 0) + cc[i] * w[k] for k in range(n)) for i in range(n)
    )
    return SympMatrix(rows)


def mat_mul(a, b):
    return a @ b


def mat_inv(m):
    return m.inv()


def element_order(m, bound):
    """Smallest k <= bound with M^k = I, or None when every power misses.

    Uses plain repeated multiplication; no eigenvalue shortcuts.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    power = m
    for k in range(1, bound + 1):
        if power.is_identity:
            return k
        if k < bound:
            power = power @ m
    return None


def xor_table(rows):
    """table[r] = XOR of rows[k] over the bits k set in r, for r < 2^len(rows).

    With rows the bitmasks of a matrix over F_2, table[r] is the product of
    the bit vector r with that matrix, so a product costs one lookup.
    """
    table = [0] * (1 << len(rows))
    for r in range(1, len(table)):
        low = r & -r
        table[r] = table[r ^ low] ^ rows[low.bit_length() - 1]
    return table


def pack_columns(rows):
    """The columns of an integer matrix mod 2 as bitmasks: bit i of entry j is rows[i][j]."""
    return tuple(sum((row[j] & 1) << i for i, row in enumerate(rows))
                 for j in range(len(rows[0])))


def xor_tables(cols):
    """Lookup tables of the F_2 matrix M with column bitmasks cols, eight columns each.

    M v is the XOR of tables[c][(v >> 8c) & 0xFF] over the chunks c, so a
    matrix-vector product costs one lookup per chunk.
    """
    return [xor_table(cols[c:c + 8]) for c in range(0, len(cols), 8)]


def reduce_mod_p(m, p):
    """Entrywise reduction of a SympMatrix to tuples over F_p.

    Only small primes are supported; the result satisfies the symplectic
    condition mod p (asserted).
    """
    if p not in SMALL_PRIMES:
        raise ValueError(f"p must be one of {SMALL_PRIMES}, got {p}")
    rows = tuple(tuple(x % p for x in r) for r in m.rows)
    g = m.genus
    j = j_rows(g)
    jp = tuple(tuple(x % p for x in r) for r in j)
    prod = mul_rows(mul_rows(tuple(zip(*rows)), jp), rows)
    if tuple(tuple(x % p for x in r) for r in prod) != jp:
        raise AssertionError("reduction lost the symplectic condition")
    return rows
