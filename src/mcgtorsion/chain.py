"""Stabilizer chains for matrix groups over F_2 (Schreier-Sims).

The group acts on column vectors of F_2^n.  Base points are unit vectors.
Level i holds the orbit of its base point b_i under the level's strong
generators, each orbit point with a transversal element that maps b_i to
it; the level's group is the stabilizer of b_0 .. b_{i-1}.  The chain is
built by the deterministic Schreier-Sims algorithm (Sims 1970; Seress,
*Permutation Group Algorithms*, 2003, ch. 4; Holt et al., *Handbook of
Computational Group Theory*, 4.4.1).  It stops only once every Schreier
generator at every level sifts to the identity, so the product of the
orbit lengths is the exact group order and sifting decides membership.

A matrix is held as the tuple of its column bitmasks (bit i of entry j is
M[i][j], pack_columns) and vectors as ints.  A product a b maps each
column of b through a's half_tables, two lookups per column: one XOR
table (xor_table) over the alpha half of the column, one over the beta
half.  The tables are built once per left factor; the left factors are
the strong generators and the stored transversal inverses, so the tables
are reused.  The image of a base e_k under a matrix is its column k, so
no matrix-vector product is needed.  The field is F_2 only: the mod-p
certificate builds chains only in exact-order mode, which
theorem.certificate_mode picks for p = 2 alone.

Every element carries a word over the input generator indices: the word
(i, j, k) stands for G_i G_j G_k.  An inverse G_i^-1 is written as
G_i^(ord(G_i) - 1), and runs of one index are folded modulo its order,
so words use generator indices only.  A folded word is the reduced word
in the free product of the cyclic groups <G_i>, so where the folds happen
does not change it, and words are folded only where they are read: a new
transversal element stores the plain concatenation of its generator's word
and its parent's, and sift and a residue fold the words they assemble.  An
element stores its word alone, and inverse words are formed only for a
residue, from the transversals it was sifted by.
"""

from __future__ import annotations

from itertools import chain


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


def half_tables(cols):
    """The two lookup tables of the F_2 matrix M with column bitmasks cols.

    With h = len(cols) // 2, the first table is over the low h bits of a
    vector (the alpha half) and the second over the rest (the beta half),
    so M v = first[v & (2^h - 1)] ^ second[v >> h]: two lookups, in tables
    of at most 2^(n - h) entries.
    """
    h = len(cols) // 2
    return xor_table(cols[:h]), xor_table(cols[h:])


class _Level:
    """One level: base point e_k, strong generators, orbit and transversal.

    trans maps each orbit point to an element u with u(base) = point;
    done[j] counts the generators already applied to orbit[j].
    """

    __slots__ = ("k", "gens", "orbit", "trans", "done")

    def __init__(self, k, base, ident):
        self.k = k
        self.gens = []
        self.orbit = [base]
        self.trans = {base: (ident, ident, ())}
        self.done = [0]


class StabilizerChain:
    """Base and strong generating set of the group generated by gens mod 2.

    gens are square integer matrices given as sequences of rows, for
    example the output of symplectic.reduce_mod_p(m, 2); entries are read
    mod 2.  Stored elements are tuples (matrix, inverse, word).
    """

    def __init__(self, gens):
        if not gens:
            raise ValueError("need at least one generator")
        self.n = n = len(gens[0])
        if any(len(g) != n or any(len(row) != n for row in g) for g in gens):
            raise ValueError("generators must be square matrices of equal size")
        self._tables = {}
        self._half = n // 2
        self._ident = tuple(1 << k for k in range(n))
        self._gens = [pack_columns(g) for g in gens]
        self._orders = [len(self._powers(g)) for g in self._gens]
        self._levels = []
        first = [(g, self._powers(g)[-2], (i,))
                 for i, g in enumerate(self._gens) if g != self._ident]
        if first:
            self._new_level(first[0][0])
            self._levels[0].gens.extend(first)
        self._build()

    def _mul(self, a, b):
        """a b on column bitmasks: column j is a applied to b's column j."""
        tables = self._tables.get(a)
        if tables is None:
            tables = self._tables[a] = half_tables(a)
        t_alpha, t_beta = tables
        h = self._half
        low = (1 << h) - 1
        return tuple([t_alpha[col & low] ^ t_beta[col >> h] for col in b])

    def _powers(self, mat):
        """[mat, mat^2, ..., identity]; the length is the order of mat."""
        powers = [mat]
        while powers[-1] != self._ident:
            # an invertible matrix has order below 2^n
            if len(powers) >= 1 << self.n:
                raise ValueError("generator is not invertible mod 2")
            powers.append(self._mul(mat, powers[-1]))
        return powers

    def _inverse(self, letters):
        """The letters of the inverse word, unfolded: G_x^-1 is G_x^(ord(G_x) - 1)."""
        orders = self._orders
        return (x for x in reversed(tuple(letters)) for _ in range(orders[x] - 1))

    def _fold(self, letters):
        """Cancel every run of one index that reaches that generator's order."""
        orders = self._orders
        stack = []
        for x in letters:
            if stack and stack[-1][0] == x:
                stack[-1][1] += 1
            else:
                stack.append([x, 1])
            if stack[-1][1] == orders[x]:
                stack.pop()
        return tuple(x for x, count in stack for _ in range(count))

    def _new_level(self, mat):
        """Append a level whose base is the first unit vector that mat moves."""
        k = next(k for k in range(self.n) if mat[k] != self._ident[k])
        self._levels.append(_Level(k, self._ident[k], self._ident))

    def _strip(self, h, start):
        """Sift the matrix h through the levels from start on.

        Returns (residue, index of the level where it left the chain,
        transversal elements used); residue = u_last^-1 ... u_first^-1 h.
        """
        used = []
        for level in self._levels[start:]:
            u = level.trans.get(h[level.k])
            if u is None:
                break
            h = self._mul(u[1], h)
            used.append(u)
        return h, start + len(used), used

    def _close_level(self, i):
        """Extend level i's orbit and test its Schreier generators.

        Returns (residue element, level) for the first Schreier generator
        that does not sift to the identity through the deeper levels, else
        None.
        """
        mul = self._mul
        level = self._levels[i]
        gens, orbit, trans, done, k = level.gens, level.orbit, level.trans, level.done, level.k
        j = 0
        while j < len(orbit):
            u = trans[orbit[j]]
            while done[j] < len(gens):
                s = gens[done[j]]
                done[j] += 1
                su = mul(s[0], u[0])
                # s u e_k = s(orbit[j]), as u e_k = orbit[j]
                img = su[k]
                t = trans.get(img)
                if t is None:
                    trans[img] = (su, mul(u[1], s[1]), s[2] + u[2])
                    orbit.append(img)
                    done.append(0)
                    continue
                residue, end, used = self._strip(mul(t[1], su), i + 1)
                if residue != self._ident:
                    # residue = (t v_1 ... v_m)^-1 s u over the transversals v_i used
                    back = self._inverse(chain(t[2], *(v[2] for v in used)))
                    word = self._fold(chain(back, s[2], u[2]))
                    return (residue, self._powers(residue)[-2], word), end
            j += 1
        return None

    def _build(self):
        i = len(self._levels) - 1
        while i >= 0:
            found = self._close_level(i)
            if found is None:
                i -= 1
                continue
            residue, j = found
            if j == len(self._levels):
                self._new_level(residue[0])
            for level in self._levels[i + 1:j + 1]:
                level.gens.append(residue)
            i = j

    def order(self):
        """Exact order of the group: the product of the orbit lengths."""
        total = 1
        for level in self._levels:
            total *= len(level.orbit)
        return total

    def sift(self, mat):
        """Word over generator indices evaluating to mat, or None if not a member.

        mat is an n x n integer matrix given as a sequence of rows, read
        mod 2; any other shape raises ValueError.
        """
        n = self.n
        if len(mat) != n or any(len(row) != n for row in mat):
            raise ValueError(f"expected a {n}x{n} matrix")
        residue, _, used = self._strip(pack_columns(mat), 0)
        if residue != self._ident:
            return None
        return self._fold(chain(*(u[2] for u in used)))

    def evaluate(self, word):
        """The matrix G_{w0} G_{w1} ... mod 2, as tuples of rows.

        word is a sequence of generator indices in range(len(gens)); any
        other index raises ValueError.
        """
        count = len(self._gens)
        if any(not 0 <= x < count for x in word):
            raise ValueError(f"generator index out of range(0, {count}) in {tuple(word)}")
        acc = self._ident
        for x in reversed(word):
            acc = self._mul(self._gens[x], acc)
        return tuple(tuple((col >> i) & 1 for col in acc) for i in range(self.n))
