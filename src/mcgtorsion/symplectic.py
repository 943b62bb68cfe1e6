"""Exact integer linear algebra for the symplectic representation.

Coordinates on first homology are ordered alpha_1..alpha_g, beta_1..beta_g.
The form is <alpha_i, beta_i> = +1 (all other basis pairings zero), i.e.
J = [[0, I], [-I, 0]] in g x g blocks.  A left-hand twist along a class c
acts by x -> x + <x, c> c, which gives the matrix I - c c^T J; at genus 1
the twist along alpha is [[1, -1], [0, 1]].

All arithmetic is over Python ints, so every result is exact and overflow
cannot occur.  Matrices and classes are immutable and hashable.

A SympMatrix is stored as M = I + Delta, where Delta holds only the rows
that differ from the identity, each as its nonzero entries.  A Lickorish
twist moves at most two rows of at most three entries, so products,
inverses, equality and the symplectic check cost O(nnz) rather than
O(n^2).  Delta is canonical (no zero entry, no row equal to e_i), so two
matrices are equal exactly when their Deltas are, and every matrix is
checked to be symplectic once, on the Delta it stores.  The dense rows are
a view for serialization and printing.

The package's record classes derive from Frozen instead of using
dataclasses, whose import pulls in inspect, ast and dis and would be most
of the package's import time.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
_NOT_SYMPLECTIC = "matrix does not preserve the symplectic form"


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


# The kernels below work on the moved rows of M = I + Delta.  Delta maps each
# row index i whose row of M differs from e_i to that row's nonzero entries
# {j: x}; it stores no zero entry and no row equal to e_i, so it is
# canonical, and a row absent from it is e_i by definition.  A product
# computes only the moved rows of its left factor, reading rows of the right
# factor by index, and keeps the right factor's moved rows that the left
# leaves alone.  The symplectic check walks the moved rows once and visits
# each row pair (k, k+g) that Delta touches once: from row k when it moved,
# else from row k+g, with the unmoved partner read as e_k or e_{k+g}; it
# sums into a plain dict keyed by i*2g + j.  So a product or check of
# twist-like matrices costs O(nnz), not O(n^2), and every step is still
# exact integer arithmetic.  The rows of a Delta are never mutated once
# built, so products may share them.  The two kernels keep their row-era
# names, and the code calls them as module globals, because
# perfbench/tracer.py wraps mul_rows and is_symplectic_rows by name.

@lru_cache(maxsize=None)
def identity_rows(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _delta(rows):
    """The Delta of a square matrix given as int rows: the rows that are not e_i."""
    out = {}
    for i, row in enumerate(rows):
        entries = {j: x for j, x in enumerate(row) if x}
        if len(entries) != 1 or entries.get(i) != 1:
            out[i] = entries
    return out


def _dense(delta, n):
    """The n x n matrix I + Delta as tuple rows."""
    eye = identity_rows(n)
    rows = []
    for i in range(n):
        entries = delta.get(i)
        if entries is None:
            rows.append(eye[i])
        else:
            row = [0] * n
            for j, x in entries.items():
                row[j] = x
            rows.append(tuple(row))
    return tuple(rows)


def mul_rows(a, b):
    """Delta of the exact product (I + a)(I + b) of two square matrices.

    Row i of the product is e_i B = b's row i when a leaves row i alone,
    and otherwise the sum of x * (row k of B) over the entries x = a[i][k],
    where a row k absent from b is e_k.
    """
    out = {}
    for i, row in a.items():
        acc = {}
        for k, x in row.items():
            brow = b.get(k)
            if brow is None:
                acc[k] = acc.get(k, 0) + x
            else:
                for j, y in brow.items():
                    acc[j] = acc.get(j, 0) + x * y
        if 0 in acc.values():
            acc = {j: v for j, v in acc.items() if v}
        if len(acc) != 1 or acc.get(i) != 1:
            out[i] = acc
    for i, brow in b.items():
        if i not in a:
            out[i] = brow
    return out


def j_rows(g):
    n = 2 * g
    rows = [[0] * n for _ in range(n)]
    for i in range(g):
        rows[i][g + i] = 1
        rows[g + i][i] = -1
    return tuple(tuple(r) for r in rows)


def is_symplectic_rows(delta, g):
    """M^T J M = J for the 2g x 2g matrix M = I + delta.

    With r_k the rows of M, M^T J M = P - P^T for P = sum_{k<g} r_k^T r_{k+g},
    and J = U - U^T for U = sum_{i<g} E_{i,g+i}, so M is symplectic exactly
    when P - U is symmetric.  Pair k adds r_k^T r_{k+g} - E_{k,g+k} to P - U,
    which is zero when (r_k, r_{k+g}) = (e_k, e_{k+g}).  A row absent from
    delta is e_i by definition, so the pairs with neither row in delta add
    nothing and are skipped exactly.  The other pairs are summed into the
    antisymmetric part of P - U, kept as a dict over i < j of entry (i, j)
    minus entry (j, i), keyed by i * 2g + j; M is symplectic iff every value
    is zero.  Each such pair is reached once, from its alpha-row k when that
    row moved and from its beta-row k + g otherwise.  The check always runs
    on the given delta: nothing is cached, sampled or reduced mod p.
    """
    n = 2 * g
    d = {}
    for i, row in delta.items():
        if i < g:
            k, top, bottom = i, row, delta.get(i + g)
            if bottom is None:
                bottom = {i + g: 1}
        elif i - g in delta:
            continue
        else:
            k, top, bottom = i - g, {i - g: 1}, row
        key = k * n + k + g
        d[key] = d.get(key, 0) - 1
        for a, x in top.items():
            for b, y in bottom.items():
                if a < b:
                    key = a * n + b
                    d[key] = d.get(key, 0) + x * y
                elif a > b:
                    key = b * n + a
                    d[key] = d.get(key, 0) - x * y
    return not any(d.values())


def _partner(k, g):
    """(sigma(k), eps(k)): row k of J is eps(k) e_sigma(k)."""
    return (k + g, 1) if k < g else (k - g, -1)


def _plus_diagonal(row, i, x):
    """The entries of row + x e_i as a new dict, without a zero entry."""
    out = dict(row)
    y = out.get(i, 0) + x
    if y:
        out[i] = y
    else:
        del out[i]
    return out


class SympMatrix(Frozen):
    """Immutable 2g x 2g integer matrix with M^T J M = J, stored as I + delta.

    delta is the canonical dict of moved rows described above the kernels;
    it is validated once, when the matrix is made, and is not to be
    mutated.  The dense rows are a view computed on first use.
    """

    __slots__ = ("delta", "genus", "_hash", "_rows")

    def __init__(self, rows, genus=None):
        rows = tuple(_as_int_tuple(r) for r in rows)
        n = len(rows)
        if n == 0 or n % 2 != 0 or any(len(r) != n for r in rows):
            raise ValueError("matrix must be square of even dimension")
        g = n // 2
        if genus is not None and genus != g:
            raise ValueError(f"genus mismatch: matrix is {n}x{n} but genus={genus}")
        delta = _delta(rows)
        if not is_symplectic_rows(delta, g):
            raise ValueError(_NOT_SYMPLECTIC)
        self._set_fields(delta=delta, genus=g, _hash=None, _rows=None)

    @classmethod
    def _from_delta(cls, delta, g):
        """Matrix on a canonical delta of int entries built by this module.

        Coercion and the shape test are skipped; the symplectic check still
        runs.  The slots are filled through their bound setters, since every
        product, inverse and twist is made here.
        """
        if not is_symplectic_rows(delta, g):
            raise ValueError(_NOT_SYMPLECTIC)
        m = cls.__new__(cls)
        _set_delta(m, delta)
        _set_genus(m, g)
        _set_hash(m, None)
        _set_rows(m, None)
        return m

    @property
    def dim(self):
        return 2 * self.genus

    @property
    def rows(self):
        """The dense rows as a tuple of int tuples, computed on first use and kept."""
        rows = self._rows
        if rows is None:
            rows = _dense(self.delta, self.dim)
            object.__setattr__(self, "_rows", rows)
        return rows

    def __eq__(self, other):
        return (isinstance(other, SympMatrix) and self.genus == other.genus
                and self.delta == other.delta)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.genus, frozenset(
                (i, frozenset(row.items())) for i, row in self.delta.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __matmul__(self, other):
        if self.genus != other.genus:
            raise ValueError(f"genus mismatch: {self.genus} vs {other.genus}")
        return SympMatrix._from_delta(mul_rows(self.delta, other.delta), self.genus)

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
        """J^T M^T J = I + J^T D^T J with D = M - I: the exact integer inverse.

        Row k of J is eps(k) e_sigma(k) (sigma(k) = k + g, eps = 1 for k < g;
        k - g and -1 otherwise), so entry (q, p) of D lands at (sigma(p),
        sigma(q)) of J^T D^T J, times eps(p) eps(q): O(nnz) work.
        """
        g = self.genus
        out = {}
        for q, row in self.delta.items():
            sq, eq = _partner(q, g)
            for p, x in _plus_diagonal(row, q, -1).items():
                sp, ep = _partner(p, g)
                out.setdefault(sp, {})[sq] = ep * eq * x
        delta = {r: _plus_diagonal(row, r, 1) for r, row in out.items()}
        return SympMatrix._from_delta(delta, g)

    @property
    def is_identity(self):
        return not self.delta

    def apply(self, x):
        """Image of a HomologyClass (or coordinate tuple) under the matrix.

        M x is x with each moved coordinate i replaced by the dot product of
        row i with x: O(n + nnz) rather than O(n^2).
        """
        coords = x.coords if isinstance(x, HomologyClass) else _as_int_tuple(x)
        if len(coords) != self.dim:
            raise ValueError("dimension mismatch")
        out = list(coords)
        for i, row in self.delta.items():
            dot = 0
            for j, v in row.items():
                dot += v * coords[j]
            out[i] = dot
        out = tuple(out)
        if isinstance(x, HomologyClass):
            # out is already a tuple of ints: built without re-coercion
            img = HomologyClass.__new__(HomologyClass)
            img._set_fields(coords=out, genus=self.genus)
            return img
        return out

    def to_lists(self):
        """Row-major nested lists, for serialization."""
        return [list(r) for r in self.rows]

    def __repr__(self):
        return f"SympMatrix(genus={self.genus}, rows={self.rows})"


# The slot descriptors' setters, which write past Frozen.__setattr__ without
# the name lookup of object.__setattr__.
_set_delta, _set_genus, _set_hash, _set_rows = (
    vars(SympMatrix)[name].__set__ for name in SympMatrix.__slots__)


def identity(g):
    if g < 1:
        raise ValueError(f"genus must be positive, got {g}")
    return SympMatrix._from_delta({}, g)


def transvection(c):
    """Twist matrix of a class: x -> x + <x, c> c, built on its moved rows.

    Row i is e_i + c_i w with w = J c (so <x, c> = w . x); only the rows with
    c_i != 0 move, and w has one entry per nonzero coordinate of c.  The
    zero class (a separating curve) gives the identity.
    """
    g = c.genus
    support = [(i, x) for i, x in enumerate(c.coords) if x]
    w = {}
    for i, x in support:
        k, e = _partner(i, g)
        w[k] = -e * x
    delta = {i: _plus_diagonal({k: x * y for k, y in w.items()}, i, 1) for i, x in support}
    return SympMatrix._from_delta(delta, g)


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
    jp = tuple(tuple(x % p for x in r) for r in j_rows(m.genus))
    prod = _dense(mul_rows(mul_rows(_delta(zip(*rows)), _delta(jp)), _delta(rows)), m.dim)
    if tuple(tuple(x % p for x in r) for r in prod) != jp:
        raise AssertionError("reduction lost the symplectic condition")
    return rows
