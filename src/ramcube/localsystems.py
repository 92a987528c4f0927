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

from .complexes import CubicalComplex, dirs_of
from .errors import CentralConditionError, ConstructionError
from .quaternions import Quaternion


class LocalSystem:
    """Per-edge unitary transitions, stored for every oriented edge.

    transitions[j - 1] has shape (#oriented direction-j edges, m, m); the
    matrix of an edge and of its reversal are stored as exact conjugate
    transposes of one another.
    """

    def __init__(self, fiber_dim: int, transitions: list[np.ndarray], kind: str,
                 epsilons: list[np.ndarray] | None = None, weight: int | None = None):
        self.fiber_dim = fiber_dim
        self.transitions = transitions
        self.kind = kind
        self.epsilons = epsilons
        self.weight = weight

    @property
    def dtype(self):
        return self.transitions[0].dtype if self.transitions else np.float64

    def transition(self, j: int, edge: int) -> np.ndarray:
        return self.transitions[j - 1][edge]

    def __repr__(self):
        return f"LocalSystem(kind={self.kind!r}, fiber_dim={self.fiber_dim})"


def trivial_system(X: CubicalComplex, dim: int = 1) -> LocalSystem:
    """The trivial metrized system: identity transition on every edge."""
    trans = []
    for j in range(1, X.g + 1):
        mask = 1 << (j - 1)
        n = X.tables[mask].n if mask in X.tables else 0
        trans.append(np.broadcast_to(np.eye(dim), (n, dim, dim)).copy())
    return LocalSystem(dim, trans, "trivial")


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
    mod = 2 * n1
    seen = {1}
    frontier = [1]
    while frontier:
        nxt = []
        for a in frontier:
            for p in primes:
                v = (a * p) % mod
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return (mod - 1) not in seen


@dataclass(frozen=True)
class SymmWeight:
    """Weight of a symmetric-power system, normalized to determinant one."""

    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("weight must be nonnegative")

    @property
    def s(self) -> float:
        return -self.k / 2.0

    @property
    def fiber_dim(self) -> int:
        return self.k + 1


def build_symm_system(X: CubicalComplex, k: int, perturb_section=None) -> LocalSystem:
    """The weight-k system on an arithmetic complex.

    For the direction-j edge (v, i) the forward transport is epsilon^k times
    the unitary image of the conjugate generator (the quotient construction
    transports against the group translation, so the edge stepping by a
    generator carries the inverse of its image).  epsilon is +1 exactly when
    the chosen lift of the edge's endpoints into the fine group is
    compatible with the generator's fine image.  perturb_section, an
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
    lift = np.array(G.section)
    if perturb_section is not None and G.kernel_order == 2:
        lift = np.where(perturb_section, G.alt_section(), lift)

    m = k + 1
    h = ar.vertex_group
    trans = []
    eps_all = []
    for j in range(1, X.g + 1):
        reps = np.stack([symm_rep(q.conjugate(), k) for q in gens.gens[j - 1]])
        eps = np.empty((len(h), len(reps)), dtype=np.int8)
        for i, (img, img_f) in enumerate(zip(gens.images[j - 1], gens.images_fine[j - 1])):
            h_top = G.right_multiplication(img)[h]
            plus = G.right_multiplication(img_f, fine=True)[lift[h]]
            eps[:, i] = np.where(plus == lift[h_top], 1, -1)
        eps = eps.ravel()  # edge (v, i) is row v * r_j + i
        sign = (eps.astype(np.int64) ** k).astype(np.complex128)
        tr = np.tile(reps, (len(h), 1, 1)) * sign[:, None, None]
        # store opposite edges as exact conjugate transposes
        invmap = X.tables[1 << (j - 1)].inv[j]
        first = np.flatnonzero(np.arange(len(invmap)) < invmap)
        tr[invmap[first]] = tr[first].conj().transpose(0, 2, 1)
        trans.append(tr)
        eps_all.append(eps)
    return LocalSystem(m, trans, f"symm({k})", eps_all, k)


def external_product(X1: CubicalComplex, L1: LocalSystem,
                     X2: CubicalComplex, L2: LocalSystem):
    """Tensor-product system on the product complex.

    Returns (product complex, system): a direction-j edge acts by the
    factor transition tensored with the identity of the other fiber.
    """
    from .complexes import product
    X = product(X1, X2)
    m1, m2 = L1.fiber_dim, L2.fiber_dim
    n1v, n2v = X1.n_vertices, X2.n_vertices
    trans = []
    for j in range(1, X1.g + 1):
        t1 = L1.transitions[j - 1]
        n_e = t1.shape[0]
        out = np.empty((n_e * n2v, m1 * m2, m1 * m2), dtype=np.result_type(t1, L2.dtype))
        eye = np.eye(m2)
        for e in range(n_e):
            blk = np.kron(t1[e], eye)
            out[e * n2v:(e + 1) * n2v] = blk
        trans.append(out)
    for j2 in range(1, X2.g + 1):
        t2 = L2.transitions[j2 - 1]
        n_e = t2.shape[0]
        out = np.empty((n1v * n_e, m1 * m2, m1 * m2), dtype=np.result_type(L1.dtype, t2))
        eye = np.eye(m1)
        if n_e:
            kr = np.stack([np.kron(eye, t2[e]) for e in range(n_e)])
            for i1 in range(n1v):
                out[i1 * n_e:(i1 + 1) * n_e] = kr
        trans.append(out)
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
    oriented square, with a witness (mask, cube index) at the maximum.

    Around the square with base A and corners B (across j), D (across j'),
    C (opposite), the two compositions are (B->C)(A->B) and (D->C)(A->D)."""
    worst = 0.0
    witness = None
    total = 0
    for mask in X.masks():
        dirs = dirs_of(mask)
        if len(dirs) != 2:
            continue
        j, jp = dirs
        t = X.tables[mask]
        total += t.n
        e_A_B = X.edge_vector(mask, j)   # direction-j edge at the base
        e_A_D = X.edge_vector(mask, jp)  # direction-j' edge at the base
        e_B_C = t.top[j]                 # j'-edge on the far j-side
        e_D_C = t.top[jp]                # j-edge on the far j'-side
        T_AB = L.transitions[j - 1][e_A_B]
        T_BC = L.transitions[jp - 1][e_B_C]
        T_AD = L.transitions[jp - 1][e_A_D]
        T_DC = L.transitions[j - 1][e_D_C]
        diff = np.einsum("nab,nbc->nac", T_BC, T_AB) - np.einsum("nab,nbc->nac", T_DC, T_AD)
        if diff.size == 0:
            continue
        norms = np.linalg.svd(diff, compute_uv=False)[:, 0]
        idx = int(np.argmax(norms))
        if norms[idx] >= worst:
            worst = float(norms[idx])
            witness = (mask, idx)
    return FlatnessReport(worst, witness, total)


def verify_unitarity(X: CubicalComplex, L: LocalSystem) -> float:
    """Largest deviation of any stored transition from unitarity."""
    worst = 0.0
    m = L.fiber_dim
    eye = np.eye(m)
    for tr in L.transitions:
        if tr.shape[0] == 0:
            continue
        dev = np.einsum("nab,ncb->nac", tr, tr.conj()) - eye
        worst = max(worst, float(np.abs(dev).max()))
    return worst
