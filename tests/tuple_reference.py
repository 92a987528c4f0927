"""Scalar references, one tuple at a time: the integer-coded vertex groups
with matrices as entry tuples (m00, m01, m10, m11), canonicalised over the
scalar subgroup independently of the array code in ramcube.quaternions; the
product of a generator word; and the cube tables of an arithmetic complex
by rewriting the generator words with GeneratorSystem.reorder,
independently of its square tables."""

import math

import numpy as np

from ramcube.quaternions import QUATERNION_ONE


def mat_mul(a, b, n1):
    return ((a[0] * b[0] + a[1] * b[2]) % n1, (a[0] * b[1] + a[1] * b[3]) % n1,
            (a[2] * b[0] + a[3] * b[2]) % n1, (a[2] * b[1] + a[3] * b[3]) % n1)


def canonical(m, scalars, n1):
    """The lexicographically least tuple among the scalar multiples of m."""
    return min(tuple((s * e) % n1 for e in m) for s in scalars)


class TupleGroup:
    """The coarse group of a MatrixGroupPair (the fine group when fine is
    set) with element i the entry tuple of G's i-th code."""

    def __init__(self, G, fine=False):
        n1 = self.n1 = G.n1
        self.scalars = G.B_prime if fine else G.B
        codes = (G.codes_fine if fine else G.codes).tolist()
        self.elements = [tuple(c // n1 ** k % n1 for k in (3, 2, 1, 0)) for c in codes]
        self.index = {m: i for i, m in enumerate(self.elements)}

    def find(self, m):
        return self.index[canonical(m, self.scalars, self.n1)]

    def mul(self, i, j):
        return self.find(mat_mul(self.elements[i], self.elements[j], self.n1))

    def inv(self, i):
        a, b, c, d = self.elements[i]
        dinv = pow((a * d - b * c) % self.n1, -1, self.n1)
        return self.find((d * dinv, -b * dinv, -c * dinv, a * dinv))


def word_product(gens, word):
    """The integer quaternion of a word of (direction, index) pairs of a
    GeneratorSystem."""
    q = QUATERNION_ONE
    for d, i in word:
        q = q * gens.gens[d - 1][i]
    return q


def vertex_keys(ar):
    """(coarse group element, parity tuple) of each vertex of an ArithData."""
    return list(zip(ar.vertex_group.tolist(), map(tuple, ar.parities.tolist())))


def _rank(dirs, regular, tup):
    rank = 0
    for d, i in zip(dirs, tup):
        rank = rank * regular[d - 1] + i
    return rank


def reorder_tables(ar, n):
    """{mask: (bot, top, inv)}, each a {direction: array} dict, for the
    arithmetic complex of ar on n vertices: every face of every index tuple
    by a general `reorder` of the grid of all words of the direction set,
    and every inversion read from a `reorder` of the grid of all words that
    start with a direction-j letter."""
    gens, vstep, r = ar.gens, ar.vstep, ar.gens.regularities
    verts = np.arange(n)
    out = {}
    for mask in range(1, 1 << gens.g):
        dirs = tuple(d for d in range(1, gens.g + 1) if mask >> (d - 1) & 1)
        T = math.prod(r[d - 1] for d in dirs)
        grid = tuple((d, range(r[d - 1])) for d in dirs)  # tuple rank = C order
        bot, top, inv = ({} for _ in range(3))
        for k, j in enumerate(dirs):
            others = dirs[:k] + dirs[k + 1:]
            sub = T // r[j - 1]
            steps = np.stack(vstep[j - 1])  # (generator, vertex)
            # top: pull direction j to the front of every word
            front = gens.reorder(grid, (j,) + others)[0].reshape(len(dirs), T)
            f = front[0]
            top[j] = (steps[f].T * sub + _rank(others, r, front[1:])).ravel()
            # bot: push direction j to the back, keep the leading block
            back = gens.reorder(grid, others + (j,))[0].reshape(len(dirs), T)
            bot[j] = np.broadcast_to(verts[:, None] * sub + _rank(others, r, back[:-1]),
                                     (n, T)).ravel()
            # inversion: step across j, then the reversed edge followed by
            # the bottom block, rewritten into ascending order
            words = gens.reorder(((j, range(r[j - 1])),) + grid[:k] + grid[k + 1:], dirs)[0]
            flip = words[(slice(None), np.asarray(gens.iota[j - 1])[f]) + tuple(back[:-1])]
            inv[j] = (steps[f].T * T + _rank(dirs, r, flip)).ravel()
        out[mask] = (bot, top, inv)
    return out
