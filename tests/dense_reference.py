"""Reference constructions for the harmonic operators, built the slow way:
the alternation data by a breadth-first search over orientations, one cube
at a time, from the representatives' slots scattered independently of
``CubicalComplex.slot``, and the coboundary d*_j from its defining sum

    (d*_j t)(r) = sum over top_j(c) = r of T_{c,j} t(c),

independently of ``Harmonics.expand`` and of the conjugate transpose of
``Harmonics.partial_boundary`` that the library uses; a link by the parities
of every cube in it, both orientations of each edge, independently of the
one cube per edge of ``CubicalComplex.link_edges``; the connected
components of a link from scipy's csgraph, independently of the
label propagation in ``connected_components``; every Fourier block of an
operator, scattered from all of its rows, independently of the leader rows
and the torus classes of ``Harmonics.fourier_blocks``; and the Betti
numbers from singular values of the total d, or from the nullities of its
Gram matrices, independently of the parallel sections of
``Harmonics.cohomology_dims``."""

from types import SimpleNamespace

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from ramcube.complexes import dirs_of


def rep_slots(H, mask):
    """Position of every oriented cube of the direction set among the
    representatives, -1 for the others, scattered from
    ``CubicalComplex.canonical_indices``."""
    rep = H.X.canonical_indices(mask)
    pos = -np.ones(H.X.tables[mask].n, dtype=np.int64)
    pos[rep] = np.arange(len(rep))
    return pos


def expand_by_bfs(H, mask):
    """(slot, coeff) of every oriented cube of the direction set: a
    breadth-first search from the representatives, trying the directions
    in ascending order at each cube."""
    t = H.X.tables[mask]
    pos = rep_slots(H, mask)
    slot = -np.ones(t.n, dtype=np.int64)
    coeff = np.zeros((t.n, H.m, H.m), dtype=H.dtype)
    rep = H.X.canonical_indices(mask)
    slot[rep] = pos[rep]
    coeff[rep] = np.eye(H.m)
    trans = {j: H.L.transitions[j - 1][H.X.edge_vector(mask, j)] for j in dirs_of(mask)}
    frontier = list(rep)
    while frontier:
        nxt = []
        for c in frontier:
            for j in dirs_of(mask):
                s = t.inv[j][c]
                if slot[s] < 0:
                    slot[s] = slot[c]
                    coeff[s] = -trans[j][c] @ coeff[c]
                    nxt.append(s)
        frontier = nxt
    assert np.all(slot >= 0), "orientation orbits do not reach representatives"
    return slot, coeff


def coboundary_by_sum(H, j, mask):
    """d*_j from C^(I + {j}) to C^I, I the given direction set, j not in I,
    as a sparse matrix assembled from the defining sum."""
    up = mask | (1 << (j - 1))
    t = H.X.tables[up]
    pos_lo = rep_slots(H, mask)
    slot_up, coeff_up = expand_by_bfs(H, up)
    trans = H.L.transitions[j - 1][H.X.edge_vector(up, j)]
    m = H.m
    rows = pos_lo[t.top[j][:]]
    cubes = np.flatnonzero(rows >= 0)
    blk = np.einsum("nab,nbc->nac", trans[cubes], coeff_up[cubes])
    rr = rows[cubes][:, None, None] * m + np.arange(m)[None, :, None]
    cc = slot_up[cubes][:, None, None] * m + np.arange(m)[None, None, :]
    shape = (len(H.X.canonical_indices(mask)) * m, len(H.X.canonical_indices(up)) * m)
    return sparse.coo_matrix((blk.ravel(), (np.broadcast_to(rr, blk.shape).ravel(),
                                            np.broadcast_to(cc, blk.shape).ravel())),
                             shape=shape).tocsr()


def total_dstar_by_sum(H, i):
    """d* from level i + 1 to level i, the signed blocks of coboundary_by_sum
    (the adjoint of ``Harmonics.total_d(i)``)."""
    src = H.X.masks_of_dim(i + 1)
    dst = H.X.masks_of_dim(i)
    if not src:
        return sparse.csr_matrix((H.level_dim(i), 0), dtype=H.dtype)
    grid = [[None] * len(src) for _ in dst]
    for a, up in enumerate(src):
        for j in dirs_of(up):
            mask = up & ~(1 << (j - 1))
            below = bin(mask & ((1 << (j - 1)) - 1)).count("1")
            grid[dst.index(mask)][a] = coboundary_by_sum(H, j, mask) * (-1.0) ** below
    return sparse.bmat(grid, format="csr")


def link_by_parities(X, j, mask):
    """The direction-j link on the canonical I-cubes, I the direction set
    mask: every (I + {j})-cube whose bottom vertex has parity 0 in each
    direction of I, ascending, so both j-orientations of every link edge
    (edge_cubes), with the positions of its bottom and top j-faces among
    the canonical I-cubes (origin, terminus) and of its j-reversal among
    the edge cubes (opposite), each found by searchsorted."""
    up = mask | (1 << (j - 1))
    t = X.tables[up]
    even = (np.ones(X.n_vertices, dtype=bool) if mask == 0
            else ~X.parities[:, [d - 1 for d in dirs_of(mask)]].any(axis=1))
    verts, edges = np.flatnonzero(even[X.origin(mask)]), np.flatnonzero(even[X.origin(up)])

    def find(keys, cubes):
        assert np.isin(cubes, keys).all(), "a face or a reversal lies outside the link"
        return np.searchsorted(keys, cubes)

    return SimpleNamespace(n_vertices=len(verts), edge_cubes=edges,
                           origin=find(verts, t.bot[j][edges]),
                           terminus=find(verts, t.top[j][edges]),
                           opposite=find(edges, t.inv[j][edges]))


def components_by_csgraph(n, origin, terminus):
    """(count, labels) of the connected components of the graph on n
    vertices with the edges origin[e] -- terminus[e], from
    ``scipy.sparse.csgraph`` on its undirected adjacency."""
    adj = sparse.coo_matrix((np.ones(len(origin), dtype=np.int8), (origin, terminus)),
                            shape=(n, n))
    count, labels = connected_components(adj, directed=False)
    return int(count), labels


def fourier_blocks_unfolded(H, A, rows, cols):
    """Every Fourier block k = 0..N-1 of an operator that commutes with the
    translation (N its order), each once: the entries A[l, c] *
    w^(k (shift(c) - shift(l))), w = exp(2 pi i / N), summed at (orbit of l,
    orbit of c) over all nonzeros and divided by N, since each orbit of
    entries adds the same term N times.  rows and cols are
    ``Harmonics.coordinate_orbits`` of the range and the domain."""
    N = H.symmetry_order()
    (r_id, r_shift, n_r), (c_id, c_shift, n_c) = rows, cols
    A = sparse.coo_matrix(A)
    ri, ci = r_id[A.row], c_id[A.col]
    diff = c_shift[A.col] - r_shift[A.row]
    for k in range(N):
        w = A.data / N if k == 0 else A.data * np.exp(2j * np.pi * k * diff / N) / N
        block = np.zeros((n_r, n_c), dtype=w.dtype)
        np.add.at(block, (ri, ci), w)
        yield block


def cohomology_by_svd(H, rank_tol=1e-8, blocks=True):
    """Betti numbers h^0..h^g from numerical ranks: the singular values of
    each total d above rank_tol times the largest one, over every Fourier
    block (``fourier_blocks_unfolded``; the transform is unitary) or, with
    blocks=False, over the whole dense matrix."""
    ranks = []
    for i in range(H.X.g):
        D = H.total_d(i)
        if blocks:
            parts = fourier_blocks_unfolded(H, D, H.coordinate_orbits(H.X.masks_of_dim(i + 1)),
                                            H.coordinate_orbits(H.X.masks_of_dim(i)))
        else:
            parts = [D.toarray()]
        svs = [np.linalg.svd(block, compute_uv=False) for block in parts if block.size]
        top = max((sv[0] for sv in svs), default=0.0)
        ranks.append(sum(int(np.sum(sv > rank_tol * top)) for sv in svs) if top > 0 else 0)
    ranks.append(0)
    return [H.level_dim(i) - ranks[i] - (ranks[i - 1] if i else 0)
            for i in range(H.X.g + 1)]


def cohomology_by_gram(H, zero_tol=1e-8):
    """Betti numbers h^0..h^g from the dense Gram matrices d^H d of each
    total d, by rank-nullity.  An eigenvalue counts as zero at most
    zero_tol times the largest: the zero ones come out at rounding level,
    about 1e-15 of the largest, and the nonzero ones are squared singular
    values of d, above 0.1 of it on [5]@11 and [13,37]@3 with k = 1.  One
    Hermitian eigensolve of dim C^i per level instead of the SVD of the
    (dim C^(i+1)) x (dim C^i) matrix."""
    ranks = []
    for i in range(H.X.g):
        D = H.total_d(i)
        eigs = np.linalg.eigvalsh((D.conj().T @ D).toarray())
        ranks.append(int(np.sum(eigs > zero_tol * eigs[-1])) if eigs.size and eigs[-1] > 0 else 0)
    ranks.append(0)
    return [H.level_dim(i) - ranks[i] - (ranks[i - 1] if i else 0)
            for i in range(H.X.g + 1)]
