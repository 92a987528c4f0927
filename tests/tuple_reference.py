"""Scalar reference for the integer-coded vertex groups: matrices as entry
tuples (m00, m01, m10, m11), canonicalised over the scalar subgroup one
tuple at a time, independently of the array code in ramcube.quaternions."""


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


def vertex_keys(ar):
    """(coarse group element, parity tuple) of each vertex of an ArithData."""
    return list(zip(ar.vertex_group.tolist(), map(tuple, ar.parities.tolist())))
