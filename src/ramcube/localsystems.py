"""Metrized local systems: trivial, symmetric-power, and external products.

A local system assigns a fiber C^m to every vertex and a unitary transition
matrix to every oriented edge, with opposite edges carrying mutual inverses
and the two edge paths around every square composing equally (flatness).

The arithmetic systems act on the space of degree-k homogeneous polynomials
in two variables through the generator quaternions, scaled to unit
determinant, and twisted by a sign per edge read off from the chosen
section between the fine and coarse vertex groups.  The sign enters as
epsilon^k, so it is invisible for even k and essential for odd k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexes import CubicalComplex, dirs_of, product
from .errors import CentralConditionError, ConstructionError
from .quaternions import Quaternion, _cyclic_subgroup


class Stacked:
    """The transitions of one direction as a stack of distinct matrices:
    edge e carries stack[e % len(stack)], times sign[e] unless sign is None.
    Indexing by edges or a slice gathers their matrices."""

    def __init__(self, n: int, stack: np.ndarray, sign=None):
        self.n, self.stack, self.sign = n, stack, sign
        self.dtype = stack.dtype

    def __len__(self):
        return self.n

    __iter__ = None  # read by indexing only, so that numpy never reads it row by row

    def __getitem__(self, edges):
        e = np.arange(self.n)[edges] if isinstance(edges, slice) else np.asarray(edges)
        out = self.stack[e % len(self.stack)]
        return out if self.sign is None else out * self.sign[e][..., None, None]


def chunks(n: int, m: int):
    """Consecutive index arrays that cover range(n), of about 2^14 matrix
    entries each, for m x m matrices."""
    step = max(2**14 // max(m * m, 1), 1)
    return (np.arange(lo, min(lo + step, n)) for lo in range(0, n, step))


class LocalSystem:
    """Unitary transitions of the oriented edges: transitions[j - 1] gathers
    the m x m matrices of the direction-j edges it is indexed by, an array of
    them (explicit systems) or a ``Stacked``.  The matrix of an edge and of
    its reversal are exact conjugate transposes of one another."""

    def __init__(self, fiber_dim: int, transitions: list[np.ndarray], kind: str,
                 epsilons: list[np.ndarray] | None = None):
        self.fiber_dim = fiber_dim
        self.transitions = transitions
        self.kind = kind
        self.epsilons = epsilons

    @property
    def dtype(self):
        return self.transitions[0].dtype if self.transitions else np.float64

    def __repr__(self):
        return f"LocalSystem(kind={self.kind!r}, fiber_dim={self.fiber_dim})"


def trivial_system(X: CubicalComplex, dim: int = 1) -> LocalSystem:
    """The trivial metrized system: identity transition on every edge."""
    edges = [X.tables[1 << j].n if 1 << j in X.tables else 0 for j in range(X.g)]
    return LocalSystem(dim, [Stacked(n, np.eye(dim)[None]) for n in edges], "trivial")


def symm_rep(q: Quaternion, k: int) -> np.ndarray:
    """Unitary (k+1) x (k+1) matrix: the quaternion acting on degree-k
    homogeneous polynomials in two variables.

    The quaternion embeds as [[a0 + a1 i, a2 + a3 i], [-a2 + a3 i, a0 - a1 i]]
    scaled by norm^(-1/2); the action is on the orthonormal monomial basis
    x^m y^(k-m) * binom(k, m)^(1/2).  Exactly multiplicative in q.
    """
    n = q.norm()
    if n == 0:
        raise ValueError("zero quaternion has no unitary image")
    s = 1.0 / math.sqrt(n)
    a = (q.a0 + 1j * q.a1) * s
    b = (q.a2 + 1j * q.a3) * s
    c = (-q.a2 + 1j * q.a3) * s
    d = (q.a0 - 1j * q.a1) * s
    if k == 0:
        return np.ones((1, 1), dtype=np.complex128)
    out = np.zeros((k + 1, k + 1), dtype=np.complex128)
    # f_m(x, y) = x^m y^(k-m) sqrt(C(k,m)); f_m((x,y)U) expanded in f_s
    for m in range(k + 1):
        coeffs = np.zeros(k + 1, dtype=np.complex128)
        for t in range(m + 1):
            for u in range(k - m + 1):
                s_deg = t + u
                coeffs[s_deg] += (math.comb(m, t) * a ** t * c ** (m - t)
                                  * math.comb(k - m, u) * b ** u * d ** (k - m - u))
        for s_deg in range(k + 1):
            out[s_deg, m] = coeffs[s_deg] * math.sqrt(math.comb(k, m) / math.comb(k, s_deg))
    return out


def central_condition_check(primes, n1: int, k: int) -> bool:
    """Whether weight k is admissible for this configuration.

    Even k always is; odd k requires -1 to lie outside the subgroup of
    units modulo 2*n1 generated by the primes.
    """
    if k % 2 == 0:
        return True
    return (2 * n1 - 1) not in _cyclic_subgroup(primes, 2 * n1)


def build_symm_system(X: CubicalComplex, k: int, perturb_section=None) -> LocalSystem:
    """The weight-k system on an arithmetic complex.

    For the direction-j edge (v, i) the forward transport is epsilon^k times
    the unitary image of the conjugate generator (the quotient construction
    transports against the group translation, so the edge stepping by a
    generator carries the inverse of its image): one matrix per letter, a
    letter after its conjugate taking the exact conjugate transpose of the
    conjugate's matrix.  epsilon is +1 exactly when the chosen lift of the
    edge's endpoints into the fine group is compatible with the generator's
    fine image; an edge and its reversal share it, as the fine images of a
    letter and its conjugate multiply to a scalar.  perturb_section, an
    optional boolean array over the coarse group, swaps the lift at the
    flagged elements; when the fine and coarse groups coincide there is
    nothing to swap and the system is independent of the section.
    """
    if X.arith is None:
        raise ConstructionError("symmetric-power systems require an arithmetic complex")
    ar = X.arith
    if not central_condition_check(ar.primes, ar.n1, k):
        raise CentralConditionError(
            f"odd weight k={k} not admissible: -1 is a product of the primes "
            f"modulo {2 * ar.n1}, so the center acts nontrivially")
    G = ar.group
    gens = ar.gens
    lift = G.section
    if perturb_section is not None:
        lift = np.where(perturb_section, G.alt_section(), lift)

    h = ar.vertex_group
    trans = []
    eps_all = []
    for j in range(1, X.g + 1):
        reps = np.stack([symm_rep(q.conjugate(), k) for q in gens.gens[j - 1]])
        for s, t in enumerate(gens.iota[j - 1]):  # the reversed edge carries T^H exactly
            if s > t:
                reps[s] = reps[t].conj().T
        eps = np.empty((len(h), len(reps)), dtype=np.int8)
        for i, (img, img_f) in enumerate(zip(gens.images[j - 1], gens.images_fine[j - 1])):
            h_top = G.right_multiplication(img)[h]
            plus = G.right_multiplication(img_f, fine=True)[lift[h]]
            eps[:, i] = np.where(plus == lift[h_top], 1, -1)
        eps = eps.ravel()  # edge (v, i) is row v * r_j + i, so e mod r_j is i
        trans.append(Stacked(len(eps), reps, eps if k % 2 else None))
        eps_all.append(eps)
    return LocalSystem(k + 1, trans, f"symm({k})", eps_all)


def external_product(X1: CubicalComplex, L1: LocalSystem,
                     X2: CubicalComplex, L2: LocalSystem):
    """Tensor-product system on the product complex.

    Returns (product complex, system): a direction-j edge acts by the
    factor transition tensored with the identity of the other fiber.
    """
    X = product(X1, X2)
    m1, m2 = L1.fiber_dim, L2.fiber_dim
    # the identity takes the other system's dtype, so that every direction has
    # the result_type of both; ``product`` numbers the copies of edge e of X1
    # e * |V(X2)| + v2, and those of edge e of X2 v1 * (edges of X2) + e
    trans = [np.repeat(np.kron(t1[:], np.eye(m2, dtype=L2.dtype)[None]), X2.n_vertices, axis=0)
             for t1 in L1.transitions]
    trans += [np.tile(np.kron(np.eye(m1, dtype=L1.dtype)[None], t2[:]), (X1.n_vertices, 1, 1))
              for t2 in L2.transitions]
    kind = f"product({L1.kind},{L2.kind})"
    return X, LocalSystem(m1 * m2, trans, kind)


@dataclass
class FlatnessReport:
    max_residual: float
    witness: tuple | None  # (mask, oriented square index) at the maximum
    n_squares: int

    def ok(self, tol: float = 1e-12) -> bool:
        return self.max_residual < tol


def verify_flatness(X: CubicalComplex, L: LocalSystem) -> FlatnessReport:
    """Largest operator-norm defect of the two path compositions around any
    oriented square, with a witness (mask, cube index) at the first maximum
    of the last direction pair that reaches it.  The squares are gathered
    in ``chunks``.

    Around the square with base A and corners B (across j), D (across j'),
    C (opposite), the two compositions are (B->C)(A->B) and (D->C)(A->D)."""
    worst, witness, total = 0.0, None, 0
    for mask in X.masks_of_dim(2):
        j, jp = dirs_of(mask)
        t = X.tables[mask]
        total += t.n
        best, at = -1.0, 0
        for c in chunks(t.n, L.fiber_dim):
            T_AB = L.transitions[j - 1][X.edge_vector(mask, j, c)]  # j-edge at the base
            T_AD = L.transitions[jp - 1][X.edge_vector(mask, jp, c)]
            T_BC = L.transitions[jp - 1][t.top[j][c]]  # j'-edge on the far j-side
            T_DC = L.transitions[j - 1][t.top[jp][c]]
            diff = np.einsum("nab,nbc->nac", T_BC, T_AB) - np.einsum("nab,nbc->nac", T_DC, T_AD)
            # fro / sqrt(m) <= spectral norm <= fro: only squares with fro near
            # or above max fro / sqrt(m) can hold the largest, and zeros need no SVD
            fro = np.linalg.norm(diff, axis=(1, 2))
            top = fro.max()
            cand = np.flatnonzero(fro >= top * (1 - 1e-8) / np.sqrt(L.fiber_dim)) if top else [0]
            norms = np.linalg.svd(diff[cand], compute_uv=False)[:, 0]
            k = int(np.argmax(norms))
            if norms[k] > best:
                best, at = norms[k], int(c[cand[k]])
        if t.n and best >= worst:
            worst, witness = float(best), (mask, at)
    return FlatnessReport(worst, witness, total)


def verify_unitarity(X: CubicalComplex, L: LocalSystem) -> float:
    """Largest deviation of any transition from unitarity, gathered in
    ``chunks``."""
    worst = 0.0
    eye = np.eye(L.fiber_dim)
    for tr in L.transitions:
        for part in chunks(len(tr), L.fiber_dim):
            t = tr[part]
            worst = max(worst, float(np.abs(np.einsum("nab,ncb->nac", t, t.conj()) - eye).max()))
    return worst
