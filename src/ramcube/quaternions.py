"""Integer quaternion arithmetic and reduction into finite matrix groups.

Quaternions are Lipschitz integers a0 + a1*i + a2*j + a3*k with the Hamilton
relations i^2 = j^2 = k^2 = -1 and ij = k.  The module provides

  * exact arithmetic (product, main involution, norm),
  * enumeration of the norm-p generator alphabet (odd scalar part, even
    vector part, one alphabet per prime direction),
  * a splitting of the quaternions into 2x2 matrices over Z/N1 via a
    residue pair x^2 + y^2 + 1 = 0 (mod N1),
  * the finite vertex groups: matrices with determinant in the subgroup
    generated by the primes, divided by two scalar subgroups, together
    with the canonical section between the two quotients.

A single 2x2 matrix over Z/N1 is a 4-tuple (m00, m01, m10, m11) of entries
(embed, mat_mul, mat_det).  Group elements are integer codes only (see
mat_code): each group keeps the sorted codes of its coset representatives,
an element is its position in that array, and products and lookups work on
arrays of entries decoded from those codes.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, GeneratorCountError, InvalidModulusError

MAT_IDENTITY = (1, 0, 0, 1)


def hamilton(a, b) -> tuple[int, int, int, int]:
    """Hamilton product of two quaternions given as coefficient 4-tuples."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    )


@dataclass(frozen=True)
class Quaternion:
    """Lipschitz quaternion a0 + a1*i + a2*j + a3*k with integer entries."""

    a0: int
    a1: int
    a2: int
    a3: int

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(*hamilton(self.coeffs(), other.coeffs()))

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.a0, -self.a1, -self.a2, -self.a3)

    def conjugate(self) -> "Quaternion":
        """Main involution: negate the vector part."""
        return Quaternion(self.a0, -self.a1, -self.a2, -self.a3)

    def norm(self) -> int:
        return self.a0 ** 2 + self.a1 ** 2 + self.a2 ** 2 + self.a3 ** 2

    def coeffs(self) -> tuple[int, int, int, int]:
        return (self.a0, self.a1, self.a2, self.a3)


QUATERNION_ONE = Quaternion(1, 0, 0, 0)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def enumerate_generators(p: int) -> list[Quaternion]:
    """All norm-p quaternions with a0 odd positive and a1, a2, a3 even.

    For p = 1 (mod 4) there are exactly p + 1 of them and the list is closed
    under the main involution.  Raises GeneratorCountError when the count
    comes out wrong (it always does for p = 3 (mod 4), where no such
    representation exists) or the list is not closed.
    """
    if not is_prime(p) or p == 2:
        raise ValueError(f"p must be an odd prime, got {p}")
    lim = math.isqrt(p)
    odds = range(1, lim + 1, 2)
    evens = [a for a in range(-lim, lim + 1) if a % 2 == 0]
    found = []
    for a0 in odds:
        rest = p - a0 * a0
        for a1, a2 in itertools.product(evens, repeat=2):
            rem = rest - a1 * a1 - a2 * a2
            if rem < 0:
                continue
            a3 = math.isqrt(rem)
            if a3 * a3 == rem and a3 % 2 == 0:
                found.append((a0, a1, a2, a3))
                if a3 != 0:
                    found.append((a0, a1, a2, -a3))
    found.sort()
    if len(found) != p + 1:
        raise GeneratorCountError(
            f"expected {p + 1} normalized norm-{p} quaternions, found {len(found)}"
        )
    coeffs = set(found)
    if any((a0, -a1, -a2, -a3) not in coeffs for a0, a1, a2, a3 in found):
        raise GeneratorCountError(f"the norm-{p} quaternions are not closed under conjugation")
    return [Quaternion(*c) for c in found]


@dataclass(frozen=True)
class ResiduePair:
    """Solution of x^2 + y^2 + 1 = 0 (mod n1) fixing the matrix splitting."""

    n1: int
    x: int
    y: int


def solve_residue(n1: int) -> ResiduePair:
    """Smallest solution of x^2 + y^2 + 1 = 0 (mod n1), minimizing y then x.

    A solution exists for every odd prime modulus.  With y minimized first,
    moduli with -1 a square give the pair (sqrt(-1), 0).
    """
    if not is_prime(n1) or n1 == 2:
        raise InvalidModulusError(f"n1 must be an odd prime, got {n1}")
    for y in range(n1):
        yy = (y * y + 1) % n1
        for x in range(n1):
            if (x * x + yy) % n1 == 0:
                return ResiduePair(n1, x, y)
    raise AssertionError("unreachable: residue solution exists for odd primes")


Mat = tuple[int, int, int, int]


def embed(q: Quaternion, res: ResiduePair) -> Mat:
    """Ring homomorphism into 2x2 matrices over Z/n1.

    1 -> Id, i -> [[x, y], [y, -x]], j -> [[0, -1], [1, 0]],
    k = ij -> [[y, -x], [-x, -y]].  det(embed(q)) = norm(q) (mod n1).
    """
    n1, x, y = res.n1, res.x, res.y
    a0, a1, a2, a3 = q.coeffs()
    return (
        (a0 + a1 * x + a3 * y) % n1,
        (-a2 + a1 * y - a3 * x) % n1,
        (a2 + a1 * y - a3 * x) % n1,
        (a0 - a1 * x - a3 * y) % n1,
    )


def mat_mul(a: Mat, b: Mat, n1: int) -> Mat:
    return (
        (a[0] * b[0] + a[1] * b[2]) % n1,
        (a[0] * b[1] + a[1] * b[3]) % n1,
        (a[2] * b[0] + a[3] * b[2]) % n1,
        (a[2] * b[1] + a[3] * b[3]) % n1,
    )


def mat_det(m: Mat, n1: int) -> int:
    return (m[0] * m[3] - m[1] * m[2]) % n1


def _cyclic_subgroup(generators: list[int], n1: int) -> frozenset[int]:
    seen = {1}
    frontier = [1]
    while frontier:
        nxt = []
        for a in frontier:
            for g in generators:
                v = (a * g) % n1
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return frozenset(seen)


def mat_code(m, n1: int):
    """Integer code m00*n1^3 + m01*n1^2 + m10*n1 + m11 of a matrix with
    entries in [0, n1); code order is the lexicographic order of the
    entry tuples.  Works entrywise on arrays of entries."""
    return ((m[0] * n1 + m[1]) * n1 + m[2]) * n1 + m[3]


@functools.lru_cache(maxsize=None)
def _least_multiplier(scalars: frozenset[int], n1: int) -> np.ndarray:
    """best[e] = the s in scalars with the least s*e mod n1, from a table of
    |scalars| x n1 products (smaller than one n1^3 slice of the scan)."""
    s = np.array(sorted(scalars), dtype=np.int64)
    best = s[np.argmin(np.outer(s, np.arange(n1)) % n1, axis=0)]
    best.flags.writeable = False  # shared by every caller through the cache
    return best


def _least_code(m, scalars, n1: int) -> np.ndarray:
    """Least code among the scalar multiples s*m, s in scalars, of each of
    the matrices whose entries m[0..3] in [0, n1) broadcast together.  Every
    multiple has the zero pattern of m and s -> s*e is injective, so the
    first nonzero entry e picks the multiplier: _least_multiplier[e]."""
    m = np.stack(np.broadcast_arrays(*m))
    e = np.take_along_axis(m, np.argmax(m != 0, axis=0)[None], axis=0)[0]
    return mat_code(_least_multiplier(scalars, n1)[e] * m % n1, n1)


def _decode(codes: np.ndarray, n1: int) -> np.ndarray:
    """Entries (4, len(codes)) of the matrices with the given codes."""
    powers = n1 ** np.arange(3, -1, -1, dtype=np.int64)
    return (codes // powers[:, None]) % n1


class MatrixGroupPair:
    """The two finite vertex groups and the section between them.

    Both groups consist of 2x2 matrices over Z/n1 whose determinant lies in
    A = <p_1, ..., p_g>, divided by a scalar subgroup:

      * the coarse group divides by B  = <p_1, ..., p_g, -1>,
      * the fine group divides by B' = <p_1, ..., p_g>.

    Each coset is represented by its least code among all scalar
    multiples; codes and codes_fine hold these codes in increasing order,
    and an element is its index there.  lookup finds the element of any
    matrix.  The canonical section sends a coarse representative to the
    identical matrix viewed in the fine group (a coarse-canonical matrix is
    automatically fine-canonical).  The quotient fine -> coarse has kernel
    of order 1 or 2.
    """

    def __init__(self, primes: tuple[int, ...], n1: int, residue: ResiduePair,
                 A: frozenset[int], B: frozenset[int], B_prime: frozenset[int],
                 codes: np.ndarray, codes_fine: np.ndarray):
        self.primes = primes
        self.n1 = n1
        self.residue = residue
        self.A = A
        self.B = B
        self.B_prime = B_prime
        self.codes = codes
        self.codes_fine = codes_fine
        self.identity = int(self.lookup(MAT_IDENTITY))
        self.kernel_order = len(codes_fine) // len(codes)
        # coarse-canonical representatives are fine-canonical, so the
        # canonical section is the identity on representatives
        self.section = np.searchsorted(codes_fine, codes)
        self._right: dict[tuple[int, bool], np.ndarray] = {}

    @property
    def order(self) -> int:
        return len(self.codes)

    @property
    def order_fine(self) -> int:
        return len(self.codes_fine)

    def lookup(self, m, fine: bool = False) -> np.ndarray:
        """Element index in the coarse group (the fine group when fine is
        set) of each matrix whose entries, taken mod n1, are m[0..3]:
        scalars, or arrays of one shape, which the result takes.  Raises
        ConstructionError when a matrix is not in the group."""
        codes, scalars = (self.codes_fine, self.B_prime) if fine else (self.codes, self.B)
        m = np.asarray(m, dtype=np.int64) % self.n1
        least = _least_code(m.reshape(4, -1), scalars, self.n1)
        pos = np.minimum(np.searchsorted(codes, least), len(codes) - 1)
        if not np.array_equal(codes[pos], least):
            raise ConstructionError(
                f"matrix with code {least[codes[pos] != least][0]} is not in the group")
        return pos.reshape(m.shape[1:])

    def right_multiplication(self, g: int, fine: bool = False) -> np.ndarray:
        """The permutation h -> h*g of the coarse group (of the fine group
        when fine is set), as an index array over all elements h; read-only
        and kept, since the build, its check and the local systems ask."""
        if (g, fine) not in self._right:
            self._right[g, fine] = self._translation(g, fine, left=False)
            self._right[g, fine].flags.writeable = False
        return self._right[g, fine]

    def left_multiplication(self, g: int, fine: bool = False) -> np.ndarray:
        """The permutation h -> g*h, as right_multiplication."""
        return self._translation(g, fine, left=True)

    def _translation(self, g: int, fine: bool, left: bool) -> np.ndarray:
        h = _decode(self.codes_fine if fine else self.codes, self.n1)
        m = h[:, g:g + 1]
        return self.lookup(mat_mul(m, h, self.n1) if left else mat_mul(h, m, self.n1), fine)

    def alt_section(self) -> np.ndarray:
        """The other lift -h of each coarse element h (equals the section
        when the kernel is trivial, i.e. when -1 is in B')."""
        return self.lookup(-_decode(self.codes, self.n1), fine=True)

    def predicted_order(self) -> int:
        """Order prediction from the quadratic-residue criterion.

        |H| = n1*(n1-1)*(n1+1) when -1 lies in the subgroup generated by the
        primes mod n1 (the full projective-size case), and half of that
        otherwise.
        """
        full = self.n1 * (self.n1 - 1) * (self.n1 + 1)
        return full if (self.n1 - 1) in self.A else full // 2

    def __repr__(self):
        return (f"MatrixGroupPair(primes={self.primes}, n1={self.n1}, "
                f"order={self.order}, kernel={self.kernel_order})")


def build_group(primes, n1: int) -> MatrixGroupPair:
    """Enumerate the coarse/fine vertex groups for a prime set and level n1.

    A matrix with determinant in A is a canonical representative exactly
    when its code is the least among its scalar multiples (scalars in B keep
    the determinant in A).  The scan runs one leading entry m00 at a time,
    over the n1^3 remaining entry tuples in increasing code order, so the
    representatives come out sorted and no array of size n1^4 is formed.
    Only the m00 = 0 slice needs the scalar multiples entry by entry; a
    nonzero m00 decides by itself.
    """
    primes = tuple(primes)
    if not is_prime(n1) or n1 == 2:
        raise InvalidModulusError(f"n1 must be an odd prime, got {n1}")
    for p in primes:
        if p % n1 == 0:
            raise InvalidModulusError(f"n1 = {n1} divides the prime {p}")
    residue = solve_residue(n1)
    A = _cyclic_subgroup([p % n1 for p in primes], n1)
    B = _cyclic_subgroup([p % n1 for p in primes] + [n1 - 1], n1)
    B_prime = A
    in_A = np.zeros(n1, dtype=bool)
    in_A[list(A)] = True
    rest = np.indices((n1, n1, n1), dtype=np.int64).reshape(3, -1)
    coarse, fine = [], []
    for m00 in range(n1):
        m = (m00, *rest)
        code = mat_code(m, n1)
        det_ok = in_A[mat_det(m, n1)]
        for scalars, out in ((B, coarse), (B_prime, fine)):
            if m00 == 0:
                out.append(code[det_ok & (code == _least_code(m, scalars, n1))])
            elif _least_multiplier(scalars, n1)[m00] == 1:  # m00 decides alone
                out.append(code[det_ok])
    return MatrixGroupPair(primes, n1, residue, A, B, B_prime,
                           np.concatenate(coarse), np.concatenate(fine))
