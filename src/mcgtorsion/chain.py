"""Stabilizer chains for matrix groups over F_p (Schreier-Sims).

The group acts on column vectors of F_p^n.  Base points are unit vectors.
Level i holds the orbit of its base point b_i under the level's strong
generators, each orbit point with a transversal element that maps b_i to
it; the level's group is the stabilizer of b_0 .. b_{i-1}.  The chain is
built by the deterministic Schreier-Sims algorithm (Sims 1970; Seress,
*Permutation Group Algorithms*, 2003, ch. 4; Holt et al., *Handbook of
Computational Group Theory*, 4.4.1).  It stops only once every Schreier
generator at every level sifts to the identity, so the product of the
orbit lengths is the exact group order and sifting decides membership.

Every element carries a word over the input generator indices: the word
(i, j, k) stands for G_i G_j G_k.  An inverse G_i^-1 is written as
G_i^(ord(G_i) - 1), and runs of one index are folded modulo its order,
so words use generator indices only.
"""

from __future__ import annotations

from itertools import chain
from operator import mul


def mul_mod(a, b, p):
    """The product a b of two matrices over F_p, as tuples of rows."""
    bt = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) % p for col in bt) for row in a)


def _apply(mat, vec, p):
    return tuple(sum(map(mul, row, vec)) % p for row in mat)


class _Level:
    """One level: base point, strong generators, orbit and transversal.

    trans maps each orbit point to an element u with u(base) = point;
    done[k] counts the generators already applied to orbit[k].
    """

    __slots__ = ("base", "gens", "orbit", "trans", "done")

    def __init__(self, base, ident):
        self.base = base
        self.gens = []
        self.orbit = [base]
        self.trans = {base: (ident, ident, (), ())}
        self.done = [0]


class StabilizerChain:
    """Base and strong generating set of the group generated by gens mod p.

    gens are square matrices over F_p given as sequences of rows, for
    example the output of symplectic.reduce_mod_p.  Stored elements are
    tuples (matrix, inverse, word, inverse word).
    """

    def __init__(self, gens, p):
        if not gens:
            raise ValueError("need at least one generator")
        self.p = p
        self.gens = [tuple(tuple(x % p for x in row) for row in g) for g in gens]
        self.n = n = len(self.gens[0])
        if any(len(g) != n or any(len(row) != n for row in g) for g in self.gens):
            raise ValueError("generators must be square matrices of equal size")
        self._ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        self._orders = [len(self._powers(g)) for g in self.gens]
        self._levels = []
        first = [self._element(g, (i,)) for i, g in enumerate(self.gens) if g != self._ident]
        if first:
            self._new_level(first[0][0])
            self._levels[0].gens.extend(first)
        self._build()

    def _powers(self, mat):
        """[mat, mat^2, ..., identity]; the length is the order of mat."""
        powers = [mat]
        while powers[-1] != self._ident:
            # an invertible matrix has order below p^n
            if len(powers) >= self.p ** self.n:
                raise ValueError("generator is not invertible mod p")
            powers.append(mul_mod(powers[-1], mat, self.p))
        return powers

    def _element(self, mat, word):
        """The stored element for a non-identity matrix with a known word."""
        return (mat, self._powers(mat)[-2], word, self._fold(
            x for x in reversed(word) for _ in range(self._orders[x] - 1)))

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
        n = self.n
        k = next(k for k in range(n) if any(mat[i][k] != (i == k) for i in range(n)))
        self._levels.append(_Level(tuple(int(i == k) for i in range(n)), self._ident))

    def _strip(self, h, start):
        """Sift the matrix h through the levels from start on.

        Returns (residue, index of the level where it left the chain,
        transversal elements used); residue = u_last^-1 ... u_first^-1 h.
        """
        used = []
        for level in self._levels[start:]:
            u = level.trans.get(_apply(h, level.base, self.p))
            if u is None:
                break
            h = mul_mod(u[1], h, self.p)
            used.append(u)
        return h, start + len(used), used

    def _close_level(self, i):
        """Extend level i's orbit and test its Schreier generators.

        Returns (residue element, level) for the first Schreier generator
        that does not sift to the identity through the deeper levels, else
        None.
        """
        p = self.p
        level = self._levels[i]
        gens, orbit, trans, done = level.gens, level.orbit, level.trans, level.done
        k = 0
        while k < len(orbit):
            u = trans[orbit[k]]
            while done[k] < len(gens):
                s = gens[done[k]]
                done[k] += 1
                img = _apply(s[0], orbit[k], p)
                su = mul_mod(s[0], u[0], p)
                t = trans.get(img)
                if t is None:
                    word = self._fold(s[2] + u[2])
                    trans[img] = (su, mul_mod(u[1], s[1], p), word,
                                  self._fold(u[3] + s[3]))
                    orbit.append(img)
                    done.append(0)
                    continue
                residue, j, used = self._strip(mul_mod(t[1], su, p), i + 1)
                if residue != self._ident:
                    word = self._fold(chain(*(v[3] for v in reversed(used)),
                                            t[3], s[2], u[2]))
                    return self._element(residue, word), j
            k += 1
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
        """Word over generator indices evaluating to mat, or None if not a member."""
        mat = tuple(tuple(x % self.p for x in row) for row in mat)
        residue, _, used = self._strip(mat, 0)
        if residue != self._ident:
            return None
        return self._fold(chain(*(u[2] for u in used)))

    def evaluate(self, word):
        """The matrix G_{w0} G_{w1} ... mod p for a word over generator indices."""
        acc = self._ident
        for x in word:
            acc = mul_mod(acc, self.gens[x], self.p)
        return acc
