"""Cochains, boundary operators, Laplacians, star spectra, Hodge theory.

Cochains of direction set I are stored on one representative orientation
per unoriented cube (``CubicalComplex.canonical_indices``); the completely
alternating extension s(inv_j(c)) = -T_{c,j} s(c) (``expand``) is applied
algebraically during operator assembly.  In representative coordinates the
natural 2^{-|I|}-weighted inner product becomes the standard one, so the
coboundary d*_j, the adjoint of d_j, is its plain conjugate transpose and
is never assembled on its own.

Conventions:
  * boundary       (d_j s)(c) = T_{c,j}^{-1} s(top_j c) - s(bot_j c)
  * coboundary     d*_j = d_j^H; as a sum, (d*_j t)(r) = sum over
                   top_j(c) = r of T_{c,j} t(c)
  * total d        sum over j not in I of (-1)^{#(k in I, k < j)} d_j
  * Laplacian      box_{j,I} = d*_j d_j (j not in I), d_j d*_j (j in I)
  * star           S_{j,I} = r_j - box_{j,I}; entrywise it is the
                   transition-twisted adjacency operator of the link graph

where T_{c,j} is the transition of the direction-j edge at the bottom
corner of c; ``CubicalComplex.link_pairs`` lists the (j, I) that have a
d_j and a star.  Boundaries and stars are both read off the faces of the
representative cubes (``_faces``; with parities those of
``CubicalComplex.link_edges``, each face at its slot), as m x m blocks.
The star spectra scatter their raw numpy COO entries (``Coo``: entries at
one position add up) and the cohomology applies each block's adjoint to
its row of W, so certification needs numpy alone.  ``partial_boundary``, the one scalar form of d_j, and
``star_operator`` return scipy CSR matrices of the same entries, and
``total_d``, ``laplacian`` and ``total_laplacian`` are built from them,
importing scipy only when called; ``star_matrix`` returns the dense star,
the reference the tests compare against.  ``hodge_project`` splits a
cochain by least-squares projections (LSMR, from scipy) onto the ranges of
d and d*.

Cayley symmetry: on an arithmetic complex, left translation by the
unipotent u = [[1, 1], [0, 1]], of order N = n1, permutes the vertices and
keeps every parity; on the oriented cubes v*T + (tuple rank) it acts as
c -> sigma(c // T)*T + c % T.  When sigma commutes with every vertex step,
so that the permutation commutes with every (factored) face and inversion
map, and fixes every edge transition (trivial and even-weight systems; odd
weights are invariant only up to the epsilon gauge), every boundary
operator and star commutes with it.  The discrete Fourier transform over
its orbits, which all have N elements, then splits each operator into N
dense blocks of 1/N of its size.

The diagonal torus tau_a = diag(a, 1/a), a a primitive root mod N,
normalises u: tau_a u tau_a^-1 = u^(a^2).  When its left translation passes
the same checks and conjugates the vertex permutation of u to its a^2-th
power, block k of every operator is unitarily equivalent to block a^2 k,
so the blocks fall into three torus classes: {0}, the squares and the
non-squares.  ``fourier_blocks`` forms one block per class (blocks 0, 1
and a) with the class size as its multiplicity; for a real operator block
N - k is the complex conjugate of block k, so when N = 3 (mod 4), -1 being
a non-square, blocks 0 and 1 suffice.  Both translations are verified
once, into one record (``_symmetry``); unless both pass, N = 1 and the
single block is the operator itself.  Star and Laplacian spectra
(``block_spectrum``) are the union over the blocks with their
multiplicities.

Isotypic split: when u, the torus and the Weyl element generate h0, the
parity-0 subgroup of the vertex group (``_h0``), every block splits along
the eigenspaces of the central Z = sum over h0 of f(g) L_g, f a function
of tr^2/det (``_isotypic``).  In a block k != 0 each irreducible of PSL2
appears at most once (multiplicity one of Whittaker models), so a piece
has d_rho coordinates per slot (parity class, tuple, fibre) where the
block has |h0|/N (``_pieces``).

Star spectra: each representative (I + {j})-cube c is a row of d_j, and
each I-cube is a face of r_j of them, so box_{j,I} = d_j^H d_j is r_j on
the diagonal and the star is C + C^H, C the sum of M = -blk_top^H blk_bot
at (top slot, bottom slot) (``_links``, ``_cross``).  That is the twisted
adjacency of the link graph, which reads T(inv_j e) on the reversal of each
edge e, since the workspace checks that T(inv_j e) = T(e)^H.  With parities
the top face has j-parity 1 and the bottom face 0, so C is the block B of
the bipartite star S = [[0, B^H], [B, 0]] (and of each Fourier block, since
an orbit keeps its parity), and spec(S) = +-sigma(B) padded with zeros.
``block_spectrum`` scatters each Fourier block of B or its pieces from the
entries of B; a block reads only the rows that lead their u-orbit, so
``spectrum_report`` keeps only the cubes whose top face leads, before their
transitions are gathered.  Without parities (e.g. complete graphs)
``block_spectrum`` solves each block of C + C^H with ``spectrum``, the
dense ``eigvalsh`` that is also the tests' reference.
``spectrum_report`` plans every star once (``_plan``) and, before the
first solve, sizes what each solve holds (``_solve_bytes``).

Cohomology, by Garland's step: the Hodge Laplacian d d* + d* d of level i
is block diagonal over the direction sets, and every term of its block
    Delta_I = sum over j not in I of d_j^H d_j + sum over j in I of d_j d_j^H
is positive semidefinite, so ker Delta_I is W_I = the intersection of
ker d_j over j not in I, cut by ker d_j^H for j in I.  On ker d_j each row
c of d_j reads s(top_j c) = M s(bot_j c): W_I is the space of sections
parallel along the link edges of every direction outside I, read from the
holonomies of a spanning forest (``_parallel_sections``) without forming
an operator of the size of C^I or a Fourier block.  ``cohomology_dims``
adds up, over |I| = i < g, the nullity of the stacked d_j^H W_I, j in I;
the ranks of d follow by rank-nullity, and the top level, the largest,
needs no solve.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import quaternions as quat
from .complexes import (CubicalComplex, _factored, connected_components, dirs_of, parity_code,
                        verify_parities)
from .errors import ConstructionError, ResourceError, VerificationError
from .localsystems import LocalSystem, chunks, trivial_system

if TYPE_CHECKING:
    from scipy import sparse


class Coo(NamedTuple):
    """Raw entries of a sparse matrix: entries at one position add up, in
    any order, as every scatter of them does."""
    row: np.ndarray
    col: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    def plus_adjoint(self) -> Coo:
        """The entries of A + A^H, A square."""
        return Coo(np.concatenate([self.row, self.col]), np.concatenate([self.col, self.row]),
                   np.concatenate([self.data, self.data.conj()]), self.shape)

    def tocsr(self) -> sparse.csr_matrix:
        from scipy import sparse
        return sparse.csr_matrix((self.data, (self.row, self.col)), shape=self.shape)


class Harmonics:
    """Operator workspace for one complex and one local system."""

    def __init__(self, X: CubicalComplex, L: LocalSystem | None = None):
        self.X = X
        self.L = L if L is not None else trivial_system(X)
        self.m = self.L.fiber_dim
        for j, tr in enumerate(self.L.transitions if self.m > 0 else [], 1):
            t = X.tables.get(1 << (j - 1))
            if t is None:
                continue
            if len(tr) != t.n:
                raise ConstructionError("local system does not match the complex")
            for e in chunks(t.n, self.m):  # the reversed edge carries T^H
                if np.abs(tr[t.inv[j][e]] - tr[e].conj().transpose(0, 2, 1)).max() > 1e-10:
                    raise ConstructionError(f"a reversed direction-{j} edge does not carry the "
                                            "conjugate transpose of the edge's transition")
        if X.has_parities and not verify_parities(X)[0]:
            raise ConstructionError("the parities fail the parity relation")
        self.dtype = np.result_type(self.L.dtype, np.float64)
        self._expand: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._iso: dict[int, tuple[np.ndarray, list[int]]] = {}

    # -- representative bookkeeping ------------------------------------

    def dim(self, mask: int) -> int:
        return self.X.unoriented_counts()[mask] * self.m

    def level_dim(self, i: int) -> int:
        return sum(self.dim(mask) for mask in self.X.masks_of_dim(i))

    def _edge_transitions(self, mask: int, j: int, cubes: np.ndarray) -> np.ndarray:
        """T_{c,j} for the given oriented cubes of the direction set (the
        transition of the direction-j edge at the bottom corner)."""
        return self.L.transitions[j - 1][self.X.edge_vector(mask, j, cubes)]

    def expand(self, mask: int):
        """Alternation data: per oriented cube, the representative slot and
        the m x m coefficient with s(cube) = coeff @ s(representative).

        One step per direction of the set, in ascending order, flips every
        cube reached so far: s(inv_j c) = -T_{c,j} s(c).  The inversions
        act simply transitively on orientations, so the steps reach each
        oriented cube exactly once.

        With parities the representatives are the canonical cubes, and
        every face of a canonical cube is canonical (a direction-j edge
        flips only the j-parity), so the boundaries read the slots of
        ``X.link_edges`` and coefficient = identity instead (``_faces``);
        the signs reach an operator only on complexes without parities."""
        if mask not in self._expand:
            t = self.X.tables[mask]
            slot = -np.ones(t.n, dtype=np.int64)
            coeff = np.zeros((t.n, self.m, self.m), dtype=self.dtype)
            cur = self.X.canonical_indices(mask)
            slot[cur] = np.arange(len(cur))
            coeff[cur] = np.eye(self.m)
            for j in dirs_of(mask):
                s = t.inv[j][cur]
                slot[s] = slot[cur]
                coeff[s] = -self._edge_transitions(mask, j, cur) @ coeff[cur]
                cur = np.concatenate([cur, s])
            if len(cur) != t.n or np.any(slot < 0):
                raise ConstructionError("orientation orbits do not reach representatives")
            self._expand[mask] = (slot, coeff)
        return self._expand[mask]

    # -- sparse block assembly ------------------------------------------

    def _blocks_to_coo(self, rows, cols, blocks, n_row_blocks, n_col_blocks) -> Coo:
        m = self.m
        rows, cols = (np.asarray(x, dtype=np.int64) for x in (rows, cols))
        blocks = np.asarray(blocks, dtype=self.dtype)
        rr = np.broadcast_to(rows[:, None, None] * m + np.arange(m)[None, :, None], blocks.shape)
        cc = np.broadcast_to(cols[:, None, None] * m + np.arange(m)[None, None, :], blocks.shape)
        keep = blocks.ravel() != 0  # the off-diagonal zeros of the -I blocks
        return Coo(rr.ravel()[keep], cc.ravel()[keep], blocks.ravel()[keep],
                   (n_row_blocks * m, n_col_blocks * m))

    # -- boundary operators ----------------------------------------------

    def _faces(self, j: int, mask: int, lead=None):
        """Per representative (I + {j})-cube c, I the given direction set
        and j not in I: the slots of top_j c and bot_j c in C^I and the
        blocks with (d_j s)(c) = top_block s(top slot) + bot_block s(bot slot).
        With lead, a flag per slot, only the cubes whose top slot is flagged,
        selected before their transitions are gathered."""
        up = mask | (1 << (j - 1))
        t = self.X.tables[up]
        if self.X.has_parities:  # see ``expand``
            cubes, top, bot = self.X.link_edges(j, mask)
        else:
            cubes = self.X.canonical_indices(up)
            slot_lo, coeff_lo = self.expand(mask)
            top, bot = slot_lo[t.top[j][cubes]], slot_lo[t.bot[j][cubes]]
        if lead is not None:
            keep = lead[top]
            cubes, top, bot = cubes[keep], top[keep], bot[keep]
        # T^{-1} = conjugate transpose for unitary transitions
        tinv = self._edge_transitions(up, j, cubes).conj().transpose(0, 2, 1)
        if self.X.has_parities:
            return top, bot, tinv, np.broadcast_to(-np.eye(self.m, dtype=self.dtype), tinv.shape)
        return (top, bot, np.einsum("nab,nbc->nac", tinv, coeff_lo[t.top[j][cubes]]),
                -coeff_lo[t.bot[j][cubes]])

    def _links(self, j: int, mask: int, lead=None):
        """The direction-j link edges on C^I, one per representative
        (I + {j})-cube c: its top and bottom slots and M = -blk_top^H
        blk_bot (``_faces``, with lead as there), so that c's row of d_j
        vanishes exactly when s(top) = M s(bot)."""
        top, bot, blk_top, blk_bot = self._faces(j, mask, lead)
        return top, bot, -blk_top.conj().transpose(0, 2, 1) @ blk_bot

    def partial_boundary(self, j: int, mask: int) -> sparse.csr_matrix:
        """d_j from C^I to C^(I + {j}), I the given direction set, j not in I."""
        if mask & (1 << (j - 1)):
            raise ConstructionError(f"direction {j} already lies in the direction set")
        top, bot, blk_top, blk_bot = self._faces(j, mask)
        return self._blocks_to_coo(np.tile(np.arange(len(top)), 2), np.concatenate([top, bot]),
                                   np.concatenate([blk_top, blk_bot]), len(top),
                                   self.dim(mask) // self.m).tocsr()

    def total_d(self, i: int) -> sparse.csr_matrix:
        """d from level i to level i + 1: the partial boundaries with
        alternating direction signs, each at the offsets of its direction
        sets."""
        src = self.X.masks_of_dim(i)
        dst = self.X.masks_of_dim(i + 1)
        col_off = np.cumsum([0] + [self.dim(mask) for mask in src])
        row_off = np.cumsum([0] + [self.dim(mask) for mask in dst])
        parts = [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0, self.dtype))]
        for j, mask in self.X.link_pairs():
            if mask in src:
                sign = (-1.0) ** bin(mask & ((1 << (j - 1)) - 1)).count("1")  # dirs below j
                d = self.partial_boundary(j, mask).tocoo()
                parts.append((d.row + row_off[dst.index(mask | (1 << (j - 1)))],
                              d.col + col_off[src.index(mask)], d.data * sign))
        row, col, data = (np.concatenate(x) for x in zip(*parts))
        return Coo(row, col, data, (int(row_off[-1]), int(col_off[-1]))).tocsr()

    # -- Laplacians and star operators ------------------------------------

    def laplacian(self, j: int, mask: int) -> sparse.csr_matrix:
        """box_{j,I} on C^I: d*_j d_j when j is outside I, d_j d*_j inside,
        with d*_j the conjugate transpose of d_j (scipy products of
        ``partial_boundary``)."""
        bit = 1 << (j - 1)
        if mask & bit:
            d = self.partial_boundary(j, mask & ~bit)
            return (d @ d.conj().T).tocsr()
        d = self.partial_boundary(j, mask)
        return (d.conj().T @ d).tocsr()

    def total_laplacian(self, mask: int) -> sparse.csr_matrix:
        """sum_j box_{j,I} on C^I, the Hodge Laplacian on the direction set."""
        js = sorted(j for j, lo in self.X.link_pairs() if mask in (lo, lo | (1 << (j - 1))))
        return sum(self.laplacian(j, mask) for j in js).tocsr()

    def _cross(self, j: int, mask: int, lead=None) -> Coo:
        """Entries of C, the sum of M at (top slot, bottom slot) over the
        link edges (``_links``, with lead as there): the star is C + C^H.
        With parities the top slot has j-parity 1 and the bottom slot 0, so
        C is the block B of the bipartite star."""
        top, bot, M = self._links(j, mask, lead)
        n = self.dim(mask) // self.m
        return self._blocks_to_coo(top, bot, M, n, n)

    def star_operator(self, j: int, mask: int) -> sparse.csr_matrix:
        """The star operator S_{j,I} = C + C^H (``_cross``) as a sparse
        matrix."""
        return self._cross(j, mask).plus_adjoint().tocsr()

    def star_matrix(self, j: int, mask: int) -> np.ndarray:
        """The star operator as a dense matrix."""
        return self.star_operator(j, mask).toarray()

    def star_parity(self, j: int, mask: int) -> np.ndarray | None:
        """Direction-j parity class of every coordinate of C^I (the parity
        of the cube's bottom vertex); None without parities.  Each link
        edge of S_{j,I} flips this parity, so the star is bipartite
        between the two classes."""
        if not self.X.has_parities:
            return None
        p = self.X.parities[self.X.origin(mask, self.X.canonical_indices(mask)), j - 1]
        return np.repeat(p, self.m)

    # -- Cayley symmetry ---------------------------------------------------

    def symmetry_order(self) -> int:
        """Order N of the verified translation symmetry (1 without one)."""
        return self._symmetry[0]

    @functools.cached_property
    def _symmetry(self):
        """(N, leader, shift, a, u, tau): the least vertex of each vertex's
        orbit under the unipotent translation u and the t with vertex =
        u^t(leader), a the least primitive root mod N, and the vertex
        permutations of u and of the torus translation tau by diag(a, 1/a).
        (1, None, None, None, None, None) unless u and tau pass
        ``_is_symmetry``, every u-orbit has exactly N vertices and tau
        conjugates u to u^(a^2), which the one orbit walk records as it
        passes.  Then Fourier block k of every operator is unitarily
        equivalent to block a^2 k, so the blocks fall into the classes {0},
        the squares and the non-squares mod N (``_block_classes``)."""
        none = (1, None, None, None, None, None)
        ar = self.X.arith
        u = ar.left_translation((1, 1, 0, 1)) if ar is not None else None
        if u is None or not self._is_symmetry(u):
            return none
        N, n = ar.n1, self.X.n_vertices
        a = _primitive_root(N)
        idx = np.arange(n)
        walk, leader, back = idx, idx.copy(), np.zeros(n, dtype=np.int64)
        for t in range(1, N):
            walk = u[walk]
            if np.any(walk == idx):  # an orbit shorter than N
                return none
            better = walk < leader
            leader[better] = walk[better]
            back[better] = t
            if t == a * a % N:
                power = walk
        tau = ar.left_translation((a, 0, 0, pow(a, -1, N)))
        if (not np.array_equal(u[walk], idx) or tau is None or not self._is_symmetry(tau)
                or not np.array_equal(tau[u], power[tau])):
            return none
        return N, leader, (N - back) % N, a, u, tau

    def _block_classes(self, real: bool) -> list[tuple[int, int]]:
        """(k, multiplicity) of the Fourier blocks that represent all N:
        block 0, block 1 for the squares and block a for the non-squares,
        (N - 1)/2 blocks each, a the verified torus; for a real operator
        with N = 3 (mod 4), -1 is a non-square and block a has the spectrum
        of conj(block 1), so block 1 counts N - 1 times.  With N = 1, the
        operator itself."""
        N, _, _, a, _, _ = self._symmetry
        if N == 1:
            return [(0, 1)]
        if real and N % 4 == 3:
            return [(0, 1), (1, N - 1)]
        return [(0, 1), (1, (N - 1) // 2), (a, (N - 1) // 2)]

    def _is_symmetry(self, sigma: np.ndarray) -> bool:
        """Whether the vertex permutation sigma keeps every parity, commutes
        with every vertex step of a ``_factored`` complex, so that cube
        v*T + s -> sigma(v)*T + s commutes with every map, and fixes every
        transition."""
        X = self.X
        if (not _factored(X) or not np.array_equal(X.parities[sigma], X.parities)
                or not all(np.array_equal(s[:, sigma], sigma[s]) for s in X.arith.vstep)):
            return False
        for j, tr in enumerate(self.L.transitions, 1):
            T = X.tables[1 << (j - 1)].T
            for e in chunks(len(tr), self.m):
                if not np.array_equal(tr[sigma[e // T] * T + e % T], tr[e]):
                    return False
        return True

    @functools.cached_property
    def _h0(self):
        """(class, alpha, elements), or None unless the Weyl element
        [[0, -1], [1, 0]] passes ``_is_symmetry`` as u and the torus of
        ``_symmetry`` did and the three carry one vertex to its whole parity
        class: the action is free, so they then generate h0.  Per vertex, its
        parity class and its u-orbit among those of its class, in leader
        order; elements[class, alpha] is the group element of that leader."""
        N, leader, shift, _, u, tau = self._symmetry
        ar = self.X.arith
        weyl = ar.left_translation((0, -1, 1, 0)) if N > 1 else None
        if weyl is None or not self._is_symmetry(weyl):
            return None
        code = parity_code(self.X.parities)
        n = len(code)  # the maps have finite order: forward reach is the component
        label = connected_components(n, np.tile(np.arange(n), 3), np.concatenate([u, weyl, tau]))[1]
        if np.sum(label == label[0]) != np.sum(code == code[0]):
            return None
        cls = np.unique(code, return_inverse=True)[1]
        lead = np.flatnonzero(shift == 0)
        elements = np.empty((cls.max() + 1, len(lead) // (cls.max() + 1)), dtype=np.int64)
        alpha = np.empty(len(code), dtype=np.int64)
        alpha[lead[np.argsort(cls[lead], kind="stable")]] = np.arange(len(lead)) % len(elements[0])
        elements[cls[lead], alpha[lead]] = ar.vertex_group[lead]
        return cls, alpha[leader], elements

    def _isotypic(self, k: int) -> tuple[np.ndarray, list[int]]:
        """(Q, sizes): per parity class, the eigenvectors of Z_k on its
        u-orbits by ascending eigenvalue, and the cluster sizes of those
        eigenvalues (``_clusters``).  f(g) = F[tr(g)^2 / det g] is a class
        function, so Z = sum over h0 of f(g) L_g is central and real
        symmetric; F[x] = sin(x + 1) is linearly independent over the
        algebraic numbers (Lindemann), so only components that no function
        of tr^2/det tells apart share an eigenvalue.  For the leaders of
        orbits a and b, M = h_b adj(h_a) and Z_k[a, b] = sum over t of
        f(u^t M) w^(k t).  tr(u^t M) = tr M + t M_10 runs over Z/N when
        M_10 != 0, so that is w^(-m tr M) Phi[det M, m], m = k / M_10,
        Phi[D, m] = sum over s of F[s^2 / D] w^(m s); else N f(M) [k = 0]."""
        if k not in self._iso:
            _, _, elements = self._h0
            N = self.symmetry_order()
            s = np.arange(N)
            inv = np.array([0] + [pow(int(x), -1, N) for x in s[1:]])
            F, root = np.sin(s + 1.0), np.exp(2j * np.pi * s / N)
            phi = F[s * s * inv[:, None] % N] @ root[np.outer(s, s) % N]
            h = quat._decode(self.X.arith.group.codes[elements.ravel()], N)
            h = h.reshape(4, *elements.shape)
            (a, b, c, d), (a2, b2, c2, d2) = h[..., :, None], h[..., None, :]
            tr = (a2 * d - b2 * c - c2 * b + d2 * a) % N
            low = (c2 * d - d2 * c) % N
            det = (a * d - b * c) * (a2 * d2 - b2 * c2) % N
            m = k * inv[low] % N
            Z = np.where(low > 0, phi[det, m] * root[-m * tr % N],
                         N * F[tr * tr * inv[det] % N] * (k == 0))
            values, Q = np.linalg.eigh(Z.real if k == 0 else Z)
            self._iso[k] = Q, _clusters(values[0])
        return self._iso[k]

    def coordinate_orbits(self, masks) -> tuple[np.ndarray, np.ndarray, int]:
        """Orbit coordinate and shift t of every coordinate of the cochains
        on the direction sets (concatenated in the given order), with
        representative = pi^t(leader of its orbit), and the number of
        orbit coordinates: the size of one Fourier block.  Orbits are
        numbered in the order of their leaders."""
        N, leader, shift, *_ = self._symmetry
        m = self.m
        ids, shifts, off = [], [], 0
        for mask in masks:
            rep = self.X.canonical_indices(mask)
            if N == 1:
                number, t = np.arange(len(rep)), np.zeros(len(rep), dtype=np.int64)
            else:
                T = self.X.tables[mask].T
                v = rep // T
                t = shift[v]
                lead = self.X.slot(mask, leader[v] * T + rep % T)
                number = (np.cumsum(t == 0) - 1)[lead]
            ids.append(((off + number)[:, None] * m + np.arange(m)).ravel())
            shifts.append(np.repeat(t, m))
            off += len(rep) // N
        return np.concatenate(ids), np.concatenate(shifts), off * m

    def fourier_blocks(self, A: Coo | sparse.spmatrix, rows, cols, split=None,
                       tol: float = 1e-8):
        """Dense Fourier blocks of an operator (its Coo entries or a scipy
        matrix) that commutes with the translation; rows and cols are
        coordinate_orbits of its range and domain (for B, of class 1 and
        class 0, numbered within their class).  Yields (block, multiplicity),
        one at a time, for the blocks ``_block_classes`` picks, one per torus
        class: block 0, block 1 and a non-square, or blocks 0 and 1 for a
        real operator with N = 3 mod 4 (the operator itself when N = 1), or
        with a split (``_plan``) the blocks' pieces (``_pieces``).

        Block k has the entries A[l, c] * w^(k (shift(c) - shift(l))),
        w = exp(2 pi i / N), summed at (orbit of l, orbit of c) over the
        nonzeros whose row l leads its orbit: O(nnz) per block.  The
        spectra and singular values of A are those of the blocks taken
        with their multiplicities.  Block 0 keeps the dtype of A."""
        N = self.symmetry_order()
        (r_id, r_shift, n_r), (c_id, c_shift, n_c) = rows, cols
        A = A if isinstance(A, Coo) else A.tocoo()
        keep = r_shift[A.row] == 0
        ri, ci = r_id[A.row[keep]], c_id[A.col[keep]]
        val, t = A.data[keep], c_shift[A.col[keep]]
        phase = np.exp(2j * np.pi * np.arange(N) / N)
        for k, mult in self._block_classes(not np.iscomplexobj(val)):
            w = val if k == 0 else val * phase[k * t % N]
            if split is not None:
                yield from ((piece, mult) for piece in self._pieces(k, ri, ci, w, split, tol))
                continue
            block = np.zeros((n_r, n_c), dtype=w.dtype)
            np.add.at(block, (ri, ci), w)
            yield block, mult
            del block  # freed before the next block is scattered

    def _pieces(self, k: int, ri, ci, w, split, tol: float):
        """The pieces B_rho = Q_r^H B_k Q_c of block k (entries w at (ri,
        ci)), one per cluster of Z_k, Q its eigenvectors in every slot.
        The entries are sorted once by (pair of slots, row alpha); per
        cluster, one ``np.add.reduceat`` of the entries times their rows of
        Q_c gives B_k Q_c as a (|h0|/N) x d matrix per pair of slots, which
        a batched product takes to B_rho.  VerificationError unless the
        pieces fill the block and the residual ||B_k Q_c - Q_r B_rho|| over
        all clusters is at most tol."""
        Q, sizes = self._isotypic(k)
        (r_slot, r_alpha, r_cls, n_sr), (c_slot, c_alpha, c_cls, n_sc) = split
        n_o = Q.shape[1]
        if n_sr * sum(sizes) != len(r_slot) or n_sc * sum(sizes) != len(c_slot):
            raise VerificationError(f"the isotypic pieces {sizes} do not fill Fourier block {k}")
        pair, at = np.unique(r_slot[ri] * n_sc + c_slot[ci], return_inverse=True)
        row = at * n_o + r_alpha[ri]
        order = np.argsort(row, kind="stable")
        row, w, ci = row[order], w[order], ci[order]
        starts = np.flatnonzero(np.diff(row, prepend=-1))
        q_cls, q_alpha, square = c_cls[c_slot[ci]], c_alpha[ci], 0.0
        for lo, d in zip(np.cumsum([0] + sizes[:-1]), sizes):
            Qr = Q[:, :, lo:lo + d][r_cls[pair // n_sc]]
            BQ = np.zeros((len(pair) * n_o, d), dtype=np.result_type(w, Q))
            BQ[row[starts]] = np.add.reduceat(w[:, None] * Q[q_cls, q_alpha, lo:lo + d], starts)
            BQ = BQ.reshape(len(pair), n_o, d)
            part = Qr.conj().transpose(0, 2, 1) @ BQ
            square += np.linalg.norm(BQ - Qr @ part) ** 2
            if square > tol * tol:
                raise VerificationError(f"the isotypic split of Fourier block {k} leaves a "
                                        f"residual {math.sqrt(square):.3e} above {tol:.1e}")
            del Qr, BQ
            piece = np.zeros((n_sr, d, n_sc, d), dtype=part.dtype)
            piece[pair // n_sc, :, pair % n_sc, :] = part
            yield piece.reshape(n_sr * d, n_sc * d)
            del piece

    # -- spectra, cohomology, Hodge ---------------------------------------

    def _parallel_sections(self, mask: int, window: float) -> np.ndarray:
        """Orthonormal basis, as columns on C^I, of W_I, the intersection
        of ker d_j over the j outside I.  The link edges s(top) = M s(bot),
        M = coeff_top^H T_{c,j} coeff_bot (``_links``), are transported
        from the least cube of each component along a level-synchronous
        breadth-first forest, P_v the transport to cube v; the root vectors
        kept are the kernel (``_kernel``) of the component's stacked
        holonomy defects P_top^H M P_bot - I.  P_v is a product of at most
        forest-depth unitary factors, so a defect that vanishes exactly
        comes out as O(depth * m * machine epsilon), far below the window."""
        m, n = self.m, self.dim(mask) // self.m
        parts = [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros((0, m, m), self.dtype))]
        parts += [self._links(j, mask) for j, lo in self.X.link_pairs() if lo == mask]
        a, b, M = (np.concatenate(x) for x in zip(*parts))
        count, label = connected_components(n, a, b)
        P = np.zeros((n, m, m), dtype=self.dtype)
        seen = np.zeros(n, dtype=bool)
        roots = np.unique(label, return_index=True)[1]
        P[roots], seen[roots] = np.eye(m), True
        while True:
            fwd = np.flatnonzero(seen[b] & ~seen[a])  # reach the top: P_a = M P_b
            bwd = np.flatnonzero(seen[a] & ~seen[b])  # reach the bottom: P_b = M^H P_a
            if not len(fwd) + len(bwd):
                break
            new, first = np.unique(np.concatenate([a[fwd], b[bwd]]), return_index=True)
            step = np.concatenate([M[fwd], M[bwd].conj().transpose(0, 2, 1)])[first]
            P[new] = step @ P[np.concatenate([b[fwd], a[bwd]])[first]]
            seen[new] = True
        defect = P[a].conj().transpose(0, 2, 1) @ M @ P[b] - np.eye(m)
        columns = [np.zeros((n * m, 0), dtype=self.dtype)]
        for members, edges in zip(_groups(label, count), _groups(label[a], count)):
            x = _kernel(defect[edges].reshape(-1, m), window, mask)
            w = np.zeros((n, m, x.shape[1]), dtype=self.dtype)
            w[members] = P[members] @ x / math.sqrt(len(members))
            columns.append(w.reshape(n * m, -1))
        return np.concatenate(columns, axis=1)

    def cohomology_dims(self, rank_tol: float = 1e-8) -> list[int]:
        """Betti numbers h^0..h^g of the total complex (module notes).  A
        singular value, of a component's holonomy defects or of the stacked
        d_j^H W, counts as zero at most the window rank_tol * sqrt(2 sum_j
        r_j), the bound on the norm of d; one within 1e3 times the window
        above it makes the count ambiguous and raises VerificationError.
        The ranks of d follow by rank-nullity, rho_i = dim C^i - h^i -
        rho_{i-1}, and h^g = dim C^g - rho_{g-1} needs no solve."""
        X = self.X
        window = rank_tol * math.sqrt(2 * sum(X.regularities))
        h = [0] * X.g
        for i in range(X.g):
            for mask in X.masks_of_dim(i):
                W = self._parallel_sections(mask, window)
                if not W.shape[1]:
                    continue
                rows = W.reshape(-1, self.m, W.shape[1])  # per representative cube
                stack = [np.zeros((0, W.shape[1]), dtype=W.dtype)]
                for j in dirs_of(mask):
                    lo = mask & ~(1 << (j - 1))
                    top, bot, blk_top, blk_bot = self._faces(j, lo)
                    dhw = np.zeros((self.dim(lo) // self.m, *rows.shape[1:]), dtype=W.dtype)
                    for slot, blk in ((top, blk_top), (bot, blk_bot)):
                        np.add.at(dhw, slot, blk.conj().transpose(0, 2, 1) @ rows)
                    stack.append(dhw.reshape(-1, W.shape[1]))
                h[i] += _kernel(np.concatenate(stack), window, mask).shape[1]
        rank = 0
        for i in range(X.g):
            rank = self.level_dim(i) - h[i] - rank
            if not 0 <= rank <= min(self.level_dim(i), self.level_dim(i + 1)):
                raise VerificationError(
                    f"the kernel dimensions give rank {rank} for d on level {i}, "
                    f"outside 0..min(dim C^{i}, dim C^{i + 1})")
        return h + [self.level_dim(X.g) - rank]

    def euler_characteristic(self) -> int:
        """Independent alternating sum over unoriented cube counts."""
        return sum((-1) ** bin(mask).count("1") * cnt * self.m
                   for mask, cnt in self.X.unoriented_counts().items())

    @staticmethod
    def _project_onto_range(A: sparse.csr_matrix, c: np.ndarray) -> np.ndarray:
        """Orthogonal projection of c onto the column space of A, through
        the least-squares solution of A x = c by LSMR."""
        from scipy.sparse.linalg import lsmr
        x = lsmr(A, c, atol=1e-13, btol=1e-13, maxiter=10 * max(A.shape))[0]
        return A @ x

    def hodge_project(self, i: int, c: np.ndarray):
        """Split a level-i cochain into (harmonic, image of d, image of d*)."""
        c = np.asarray(c, dtype=self.dtype)
        p_d = self._project_onto_range(self.total_d(i - 1), c) if i > 0 else np.zeros_like(c)
        p_ds = (self._project_onto_range(self.total_d(i).conj().T.tocsr(), c)
                if i < self.X.g else np.zeros_like(c))
        return c - p_d - p_ds, p_d, p_ds

    def block_spectrum(self, A: Coo | sparse.spmatrix, mask: int, parity=None,
                       plan=None, tol: float = 1e-8) -> np.ndarray:
        """Spectrum of a Hermitian operator on C^I that commutes with the
        translation, descending: the spectra of its Fourier blocks, or of
        their pieces, each taken with its multiplicity (one dense block
        when N = 1).  With parity, a class per coordinate as from
        star_parity, A is the block B of a bipartite operator
        [[0, B^H], [B, 0]], its entries in class-1 rows and class-0 columns
        (``_cross``; module notes).  plan defaults to ``_plan(mask,
        parity)``; tol bounds the residual of the split (``_pieces``)."""
        if parity is not None:
            A, parity = A if isinstance(A, Coo) else A.tocoo(), np.asarray(parity)
            if parity.shape != (A.shape[0],) or not np.isin(parity, (0, 1)).all():
                raise ValueError("parity must give a 0/1 class for every row")
            if np.any(parity[A.row] != 1) or np.any(parity[A.col] != 0):
                raise ValueError("B has an entry outside the class-1 rows and class-0 columns")
        parts = []
        for block, mult in self.fourier_blocks(A, *(plan or self._plan(mask, parity)), tol=tol):
            parts += [spectrum(block) if parity is None else _bipartite_spectrum(block)] * mult
            del block
        return np.sort(np.concatenate(parts))[::-1]

    def _plan(self, mask: int, parity):
        """(rows, cols, split) for ``fourier_blocks`` on C^I: the coordinate
        orbits, or with a parity the class-1 and class-0 orbits numbered
        within their class; split, per axis the slot (parity class, tuple,
        fibre) and alpha of every block coordinate, the class of every slot
        and their count.  split is None when h0 is not verified, when a slot
        misses an orbit, and when each axis has one slot: the block is then
        no larger than the Z_k that would split it."""
        orbits = self.coordinate_orbits([mask])
        ids, shift, _ = orbits  # orbits share a parity; leaders come in orbit order
        lead = shift == 0
        sides = [slice(None)] * 2
        axes = orbits, orbits
        if parity is not None:
            one = np.asarray(parity)[lead] == 1
            pos = np.where(one, np.cumsum(one), np.cumsum(~one))[ids] - 1
            sides = [one, ~one]
            axes = (pos, shift, int(one.sum())), (pos, shift, int((~one).sum()))
        if self.symmetry_order() == 1:
            return *axes, None
        m, T = self.m, self.X.tables[mask].T
        rep = np.repeat(self.X.canonical_indices(mask), m)[lead]
        v = rep // T
        key = (parity_code(self.X.parities[v]) * T + rep % T) * m + np.flatnonzero(lead) % m
        keyed = [np.unique(key[side], return_inverse=True) for side in sides]
        if len(keyed[0][0]) * len(keyed[1][0]) == 1 or self._h0 is None:
            return *axes, None
        cls, alpha, elements = self._h0
        split = []
        for side, (keys, slot) in zip(sides, keyed):
            a, n_o = alpha[v[side]], elements.shape[1]
            if len(keys) * n_o != len(a) or np.any(np.bincount(slot * n_o + a) != 1):
                return *axes, None
            slot_cls = np.empty(len(keys), dtype=np.int64)
            slot_cls[slot] = cls[v[side]]
            split.append((slot, a, slot_cls, len(keys)))
        return *axes, tuple(split)

    def _solve_bytes(self, j: int, mask: int, plan) -> tuple[int, tuple[int, int]]:
        """(bytes, shape) of the star's solve with its plan: twice the
        largest dense piece, of that shape (LAPACK copies it; complex when
        N > 1), the entries the blocks are scattered from (16 + itemsize
        bytes each, nnz <= r_j m per block row: a row slot is a face of r_j
        link edges), with a split the Z bases (a class x (|h0|/N)^2 complex
        per block), the entries times a row of Q_c (nnz d complex) and the
        two (|h0|/N) x d complex arrays of ``_pieces`` for each of <= n_sr
        min(n_sc, r_j m) slot pairs (a row slot meets r_j tuples and m
        fibres), and a quarter of all that."""
        (_, _, n_r), (_, _, n_c), split = plan
        N, r = self.symmetry_order(), self.X.r(j)
        item = np.dtype(self.dtype if N == 1 else np.complex128).itemsize
        nnz = n_r * r * self.m
        held = nnz * (16 + np.dtype(self.dtype).itemsize)
        if split is not None:
            classes = self._block_classes(self.dtype == np.float64)
            d = max(max(self._isotypic(k)[1]) for k, _ in classes)
            n_cls, n_o = self._h0[2].shape
            n_sr, n_sc = split[0][3], split[1][3]
            pairs = n_sr * min(n_sc, r * self.m)
            held += (len(classes) * n_cls * n_o**2 + 2 * pairs * n_o * d + nnz * d) * 16
            n_r, n_c = n_sr * d, n_sc * d
        return (2 * n_r * n_c * item + held) * 5 // 4, (n_r, n_c)

    def eigenspace_transfer_check(self, j: int, mask: int, tol: float = 1e-8):
        """Nonzero spectra of box_j agree on C^I and C^(I + {j}) (with
        multiplicity); the zero eigenspaces are excluded."""
        up = mask | (1 << (j - 1))
        lo = self.block_spectrum(self.laplacian(j, mask), mask)
        hi = self.block_spectrum(self.laplacian(j, up), up)
        zero_tol = tol * max(1.0, self.X.r(j))
        lo_nz, hi_nz = lo[lo > zero_tol], hi[hi > zero_tol]
        if len(lo_nz) != len(hi_nz):
            return False, {"lower": len(lo_nz), "upper": len(hi_nz)}
        mism = float(np.max(np.abs(lo_nz - hi_nz))) if len(lo_nz) else 0.0
        return mism <= zero_tol, {"max_mismatch": mism, "count": len(lo_nz)}


def _primitive_root(n: int) -> int:
    """Least generator of the multiplicative group mod the odd prime n."""
    return next(a for a in range(2, n) if len({pow(a, e, n) for e in range(1, n)}) == n - 1)


def _groups(label: np.ndarray, count: int) -> list[np.ndarray]:
    """The indices carrying each label 0..count-1, in ascending order."""
    ends = np.cumsum(np.bincount(label, minlength=count))
    return np.split(np.argsort(label, kind="stable"), ends)[:count]


def _kernel(A: np.ndarray, window: float, mask: int) -> np.ndarray:
    """Orthonormal basis, as columns, of the right singular vectors of A
    with singular value at most window; VerificationError if a singular
    value lies in (window, 1e3 * window].  A gets as many zero rows as it
    has columns, so that every column has a singular value even when A has
    fewer rows, or none."""
    k = A.shape[1]
    _, sv, vh = np.linalg.svd(np.concatenate([A, np.zeros((k, k), dtype=A.dtype)]),
                              full_matrices=False)
    vague = sv[(sv > window) & (sv <= 1e3 * window)]
    if vague.size:
        raise VerificationError(
            f"cohomology on C^{dirs_of(mask)}: singular value {vague[0]:.3e} lies within "
            f"1e3 of the kernel window {window:.3e}; the kernel dimension is ambiguous")
    return vh[sv <= window].conj().T


# ----------------------------------------------------------------------
# spectra and classification

def spectrum(M: np.ndarray) -> np.ndarray:
    """All real eigenvalues of a Hermitian matrix, descending: the dense
    ``eigvalsh`` that is the reference for ``Harmonics.block_spectrum``."""
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("spectrum expects a square matrix")
    if not np.allclose(M, M.conj().T, rtol=0.0, atol=1e-10):
        raise ValueError("matrix is not Hermitian within tolerance")
    return np.linalg.eigvalsh(M)[::-1]


def _clusters(values: np.ndarray) -> list[int]:
    """Sizes of the runs of the ascending values whose steps are at most
    1e-6 of the largest |value|, far above rounding; a merged cluster only
    makes a larger piece."""
    cut = np.flatnonzero(np.diff(values) > 1e-6 * np.abs(values).max()) + 1
    return np.diff(np.concatenate([[0], cut, [len(values)]])).tolist()


def _bipartite_spectrum(B: np.ndarray) -> np.ndarray:
    """Spectrum of [[0, B^H], [B, 0]]: +-sigma(B), padded with zeros."""
    sv = np.linalg.svd(B, compute_uv=False)
    return np.concatenate([sv, np.zeros(abs(B.shape[0] - B.shape[1])), -sv[::-1]])


@dataclass
class RamanujanVerdict:
    r: int
    bound: float                 # 2 sqrt(r - 1)
    mu: float                    # largest |eigenvalue| away from +-r
    is_ramanujan: bool
    trivial_plus: int            # multiplicity of +r
    trivial_minus: int           # multiplicity of -r
    n_nontrivial: int
    gap: float                   # r - mu
    tol: float
    classes: np.ndarray          # per eigenvalue: trivial+, trivial- or nontrivial


def classify_ramanujan(eigs, r: int, tol: float = 1e-8) -> RamanujanVerdict:
    """Split off the trivial eigenvalues +-r, those within tol * max(r, 1)
    of +r or else of -r, and test mu <= 2 sqrt(r-1).

    The +r multiplicity counts the connected components of the underlying
    link graph (for the trivial system) and -r its bipartite components."""
    eigs = np.asarray(eigs, dtype=float)
    window = tol * max(r, 1)
    plus, minus = np.abs(eigs - r) <= window, np.abs(eigs + r) <= window
    nontrivial = eigs[~(plus | minus)]
    mu = float(np.max(np.abs(nontrivial))) if nontrivial.size else 0.0
    bound = 2.0 * math.sqrt(max(r - 1, 0))
    classes = np.where(plus, "trivial+", np.where(minus, "trivial-", "nontrivial"))
    return RamanujanVerdict(r, bound, mu, mu <= bound + tol,
                            int(plus.sum()), int(minus.sum()),
                            int(nontrivial.size), r - mu, tol, classes)


@dataclass
class SpectrumEntry:
    j: int
    dirs: tuple[int, ...]
    dim: int
    eigenvalues: np.ndarray
    verdict: RamanujanVerdict


@dataclass
class SpectrumReport:
    entries: list[SpectrumEntry] = field(default_factory=list)

    @property
    def overall_ramanujan(self) -> bool:
        return all(e.verdict.is_ramanujan for e in self.entries)


def _memory_headroom() -> int:
    """Bytes the kernel can still give this process: MemAvailable, which
    nets out every process's memory and counts the reclaimable page cache;
    without /proc/meminfo, physical memory less this process's peak RSS."""
    import os
    import resource
    import sys
    try:
        with open("/proc/meminfo") as fh:
            return next(int(x.split()[1]) * 1024 for x in fh if x.startswith("MemAvailable:"))
    except (OSError, StopIteration):
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # bytes on macOS, else KiB
        return (os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
                - peak * (1 if sys.platform == "darwin" else 1024))


def spectrum_report(X: CubicalComplex, L: LocalSystem | None = None,
                    tol: float = 1e-8,
                    workspace: Harmonics | None = None) -> SpectrumReport:
    """Star spectra and Ramanujan verdicts for every admissible (j, I),
    each the union of the spectra of the pieces of the star's Fourier
    blocks.  Each star is planned once (``_plan``); with parities its
    block B is assembled on the rows that lead their u-orbit, all that its
    blocks read.  Before the first solve, ResourceError refuses the run
    when the bytes a star's solve holds (``_solve_bytes``) exceed the
    headroom."""
    H = workspace if workspace is not None else Harmonics(X, L)
    parities = {(j, mask): H.star_parity(j, mask) for j, mask in X.link_pairs()}
    plans = {(j, mask): H._plan(mask, parity) for (j, mask), parity in parities.items()}
    if plans:
        sizes = {star: H._solve_bytes(*star, plan) for star, plan in plans.items()}
        j, mask = max(sizes, key=lambda star: sizes[star][0])
        need, shape = sizes[j, mask]
        headroom = _memory_headroom()
        if need > headroom:
            raise ResourceError(
                f"the star on (j={j}, I={dirs_of(mask)}) needs {need / 2**20:.1f} MiB to "
                f"solve, with a dense {shape[0]}x{shape[1]} piece of a Fourier block, the "
                f"solver's copy and its entries, above the {headroom / 2**20:.1f} MiB available")
    report = SpectrumReport()
    for (j, mask), plan in plans.items():
        parity = parities[j, mask]
        leaders = plan[0][1][::H.m] == 0  # the rows of B that lead their u-orbit
        A = H._cross(j, mask).plus_adjoint() if parity is None else H._cross(j, mask, leaders)
        eigs = H.block_spectrum(A, mask, parity, plan, tol)
        verdict = classify_ramanujan(eigs, X.r(j), tol)
        report.entries.append(SpectrumEntry(j, dirs_of(mask), H.dim(mask), eigs, verdict))
    return report
