import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import ramcube as rc
from dense_reference import (coboundary_by_sum, cohomology_by_gram, cohomology_by_svd,
                             expand_by_bfs, fourier_blocks_unfolded, total_dstar_by_sum)
from ramcube import Harmonics, harmonics
from ramcube.arithmetic import ArithData
from ramcube.complexes import CubeTable, CubicalComplex, mask_of
from ramcube.errors import ConstructionError, ResourceError, VerificationError
from ramcube.harmonics import Coo


@pytest.fixture(scope="module")
def cover_spaces(cover513):
    return Harmonics(cover513), Harmonics(cover513, rc.build_symm_system(cover513, 2))


def _renumber_top_cubes(X, seed):
    """A copy of X with the oriented cubes of the top direction set
    renumbered at random.  The representative of each orientation orbit
    (its least index) is then a random orientation, whose faces need not be
    representatives: the boundaries read the signs of ``expand``."""
    top = max(X.masks())
    t = X.tables[top]
    perm = np.random.default_rng(seed).permutation(t.n)  # new index of each cube
    old = np.argsort(perm)                               # cube at each new index
    tables = dict(X.tables)
    tables[top] = CubeTable(t.n, {j: b[old] for j, b in t.bot.items()},
                            {j: v[old] for j, v in t.top.items()},
                            {j: perm[v[old]] for j, v in t.inv.items()})
    return CubicalComplex(X.g, X.regularities, tables, X.parities)


@pytest.fixture(scope="module")
def small_spaces():
    """Workspaces on small complexes, most without parities.  Only on the
    renumbered product do the boundaries read the signs of ``expand``:
    with parities every face of a canonical cube is canonical, and on a
    product the least orientation of a cube has least faces."""
    K4, C5 = rc.complete_graph_complex(4), rc.cycle_complex(5)
    return [Harmonics(X) for X in (K4, C5, rc.box_complex(3), rc.product(K4, C5),
                                   _renumber_top_cubes(rc.product(K4, C5), 0))]


def test_boundary_on_single_edge():
    X = rc.graph_complex(2, [(0, 1)], r=1, parities=[[0], [1]])
    D = Harmonics(X).partial_boundary(1, 0).toarray()
    assert D.shape == (1, 2)
    assert np.array_equal(D, [[-1.0, 1.0]])


def test_workspace_refuses_parities_that_fail_the_relation():
    """Both ends of edge 0-1 have parity 0, so both of its orientations
    would count as canonical."""
    X = rc.graph_complex(3, [(0, 1), (1, 2)], r=1, parities=[[0], [0], [1]])
    with pytest.raises(ConstructionError, match="parity relation"):
        Harmonics(X)


@pytest.mark.parametrize("change", [-1.0, 1 + 1e-9])
def test_workspace_refuses_a_reversal_without_the_conjugate_transpose(cover513, change):
    """An explicit weight-2 system with one edge's transition changed and
    its reversal's not is refused by the workspace, and so by
    spectrum_report and cohomology_dims; the same edit on both is accepted
    and keeps the stars Hermitian."""
    t = cover513.tables[1]
    edge = 5
    back = int(t.inv[1][edge])
    L = rc.build_symm_system(cover513, 2)
    L.transitions[0] = L.transitions[0][:]  # explicit, one matrix per edge
    L.transitions[0][edge] *= change
    for run in (Harmonics, rc.spectrum_report, lambda X, L: Harmonics(X, L).cohomology_dims()):
        with pytest.raises(ConstructionError, match="conjugate transpose"):
            run(cover513, L)
    L.transitions[0][back] *= change
    H = Harmonics(cover513, L)
    for j, mask in cover513.link_pairs():
        S = H.star_matrix(j, mask)
        assert np.abs(S - S.conj().T).max() == 0.0


def test_boundary_refuses_a_non_canonical_face():
    """top_1 of the canonical square (base corner 0) moved to the edge at
    corner 2, which is not canonical; the edge parities still pass."""
    X = rc.box_complex(2)
    X.tables[3].top[1][0] = 2
    assert rc.verify_parities(X)[0]
    with pytest.raises(ConstructionError, match="not canonical"):
        Harmonics(X).partial_boundary(1, 0b10)


def test_boundary_commutation_and_d_squared(cover_spaces):
    for H in cover_spaces:
        b1 = H.partial_boundary(1, 0)
        b2 = H.partial_boundary(2, 0)
        b12 = H.partial_boundary(1, 0b10)  # C^{2} -> C^{1,2}
        b21 = H.partial_boundary(2, 0b01)
        assert abs(b12 @ b2 - b21 @ b1).max() < 1e-13
        d0 = H.total_d(0)
        d1 = H.total_d(1)
        assert abs(d1 @ d0).max() < 1e-13
        ds0 = total_dstar_by_sum(H, 0)
        ds1 = total_dstar_by_sum(H, 1)
        assert abs(ds0 @ ds1).max() < 1e-13


def test_expand_matches_breadth_first_search(cover513, x511, cover13373):
    """The direction sweep reaches every oriented cube along the path of
    the breadth-first search: bit-identical slots and coefficients, with
    and without parities."""
    K4, C5 = rc.complete_graph_complex(4), rc.cycle_complex(5)
    cases = [("cover513 k=0", cover513, 0), ("cover513 k=2", cover513, 2),
             ("x511 k=1", x511, 1), ("[13,37]@3 k=1", cover13373, 1),
             ("K4", K4, 0), ("C5", C5, 0), ("box3", rc.box_complex(3), 0),
             ("K4 x C5", rc.product(K4, C5), 0),
             ("K4 x C5 renumbered", _renumber_top_cubes(rc.product(K4, C5), 0), 0)]
    for label, X, k in cases:
        H = Harmonics(X, _system(X, k))
        for mask in X.masks():
            slot, coeff = H.expand(mask)
            ref_slot, ref_coeff = expand_by_bfs(H, mask)
            assert np.array_equal(slot, ref_slot), (label, mask)
            assert np.array_equal(coeff, ref_coeff), (label, mask)


def test_coboundary_is_adjoint(cover_spaces, small_spaces):
    """The conjugate transpose of the boundary is the coboundary of the
    defining sum."""
    for H in small_spaces:
        for j, mask in H.X.link_pairs():
            B = coboundary_by_sum(H, j, mask)
            assert abs(B - H.partial_boundary(j, mask).conj().T).max() == 0.0, (j, mask)
    H_triv, H_k2 = cover_spaces
    for j, mask in ((1, 0), (2, 0), (1, 0b10), (2, 0b01)):
        A = H_triv.partial_boundary(j, mask)
        B = coboundary_by_sum(H_triv, j, mask)
        # exact for the trivial system with the representative-basis weighting
        assert abs(B - A.conj().T).max() == 0.0
        A2 = H_k2.partial_boundary(j, mask)
        B2 = coboundary_by_sum(H_k2, j, mask)
        assert abs(B2 - A2.conj().T).max() < 1e-14


def test_coboundary_squared_on_box():
    H = Harmonics(rc.box_complex(2))
    c1 = coboundary_by_sum(H, 1, 0b10).toarray()  # C^{1,2} -> C^{2}
    c2 = coboundary_by_sum(H, 2, 0)               # C^{2} -> C^{}
    c1b = coboundary_by_sum(H, 2, 0b01).toarray()
    c2b = coboundary_by_sum(H, 1, 0)
    assert np.abs(c2 @ c1 - c2b @ c1b).max() < 1e-14


def test_total_d_for_graph_is_partial(lps513):
    H = Harmonics(lps513)
    assert abs(H.total_d(0) - H.partial_boundary(1, 0)).max() == 0.0


def test_dstar_is_adjoint_of_d(cover_spaces, small_spaces):
    for H in small_spaces:
        for i in range(H.X.g):
            assert abs(total_dstar_by_sum(H, i) - H.total_d(i).conj().T).max() == 0.0, i
    H_triv, H_k2 = cover_spaces
    for i in (0, 1):
        assert abs(total_dstar_by_sum(H_triv, i) - H_triv.total_d(i).conj().T).max() == 0.0
        assert abs(total_dstar_by_sum(H_k2, i) - H_k2.total_d(i).conj().T).max() < 1e-14


def test_complete_graph_laplacian_spectrum():
    K4 = rc.complete_graph_complex(4)
    H = Harmonics(K4)
    box = H.laplacian(1, 0).toarray()
    eigs = rc.spectrum(box)
    assert np.allclose(eigs, [4.0, 4.0, 4.0, 0.0], atol=1e-10)


def test_laplacian_psd_and_star_identity(cover_spaces):
    """The star is r_j - box_{j,I} on every admissible (j, I), also on
    K4 x K4, which has no parities and so no link graph at I != {}."""
    K4 = rc.complete_graph_complex(4)
    for H in [*cover_spaces, Harmonics(rc.product(K4, K4))]:
        for j, mask in H.X.link_pairs():
            box = H.laplacian(j, mask).toarray()
            S = H.star_matrix(j, mask)
            r = H.X.r(j)
            assert np.abs(box - (r * np.eye(len(S)) - S)).max() < 1e-12
            eigs = rc.spectrum(box)
            assert eigs.min() > -1e-10
            assert eigs.max() < 2 * r + 1e-10
            s_eigs = rc.spectrum(S)
            assert np.abs(s_eigs).max() <= r + 1e-10


def test_star_row_sums_for_trivial_system(cover513):
    H = Harmonics(cover513)
    for j, mask in ((1, 0), (2, 0), (1, 0b10), (2, 0b01)):
        S = H.star_matrix(j, mask)
        assert np.allclose(S.sum(axis=1), cover513.r(j))


def _star_by_edge_loop(H, j, mask):
    """Reference star, sparse: each edge of the link graph, in both
    orientations, adds its transition block in turn."""
    lg = rc.link_graph(H.X, j, mask)
    trans = H.L.transitions[j - 1][H.X.edge_vector(mask | (1 << (j - 1)), j)]
    m = H.m
    a, b = np.divmod(np.arange(m * m), m)
    row, col, val = [], [], []
    for e, r_, c_ in zip(lg.edge_cubes, lg.terminus, lg.origin):
        row.append(r_ * m + a)
        col.append(c_ * m + b)
        val.append(trans[e].ravel())
    n = lg.n_vertices * m
    return scipy.sparse.csr_matrix(
        (np.concatenate(val), (np.concatenate(row), np.concatenate(col))), shape=(n, n))


def test_star_matrix_matches_edge_loop(cover_spaces, x511, x5137):
    """The star C + C^H read off the faces equals the sum of every link
    edge's transition, both orientations of each edge, on every admissible
    (j, I): with and without parities, on fibres of dimension 6 (an
    external product) and on real, complex and weight-2 systems."""
    K4, C5, C4, C6 = (rc.complete_graph_complex(4), rc.cycle_complex(5), rc.cycle_complex(4),
                      rc.cycle_complex(6))
    spaces = [*cover_spaces, Harmonics(x511, rc.build_symm_system(x511, 1)), Harmonics(K4),
              Harmonics(C5), Harmonics(rc.box_complex(3)),
              Harmonics(*rc.external_product(C4, rc.trivial_system(C4, 2),
                                             C6, rc.trivial_system(C6, 3))),
              Harmonics(x5137), Harmonics(x5137, rc.build_symm_system(x5137, 2))]
    for H in spaces:
        for j, mask in H.X.link_pairs():
            S = H.star_operator(j, mask)
            assert S.dtype == H.dtype
            assert abs(S - _star_by_edge_loop(H, j, mask)).max() < 1e-15
    S = cover_spaces[1].star_matrix(1, 0)
    assert isinstance(S, np.ndarray) and S.dtype == np.complex128


def test_star_matrix_sums_parallel_edges():
    X = rc.graph_complex(2, [(0, 1), (0, 1), (0, 1)], r=3, parities=[[0], [1]])
    H = Harmonics(X)
    S = H.star_matrix(1, 0)
    assert np.array_equal(S, [[0.0, 3.0], [3.0, 0.0]])
    fast = H.block_spectrum(H._cross(1, 0), 0, H.star_parity(1, 0))
    assert np.abs(fast - rc.spectrum(S)).max() <= 1e-10


def _system(X, k):
    return None if k == 0 else rc.build_symm_system(X, k)


def _assert_bipartite_route_matches_dense(H):
    """The parity and Fourier-block route of spectrum_report matches the
    dense eigensolve on every star."""
    X = H.X
    blocks = {(e.j, mask_of(e.dirs)): e.eigenvalues
              for e in rc.spectrum_report(X, H.L, workspace=H).entries}
    n_stars = 0
    for mask in X.masks():
        for j in range(1, X.g + 1):
            if mask & (1 << (j - 1)) or (mask | (1 << (j - 1))) not in X.tables:
                continue
            S = H.star_matrix(j, mask)
            parity = H.star_parity(j, mask)
            assert parity is not None and len(parity) == len(S)
            assert np.abs(blocks[j, mask] - rc.spectrum(S)).max() <= 1e-10
            n_stars += 1
    assert n_stars == len(blocks) > 0


@pytest.mark.parametrize("k", [0, 2])
def test_bipartite_spectrum_matches_dense_on_cover(cover513, k):
    H = Harmonics(cover513, _system(cover513, k))
    assert H.symmetry_order() == 3
    _assert_bipartite_route_matches_dense(H)


def test_bipartite_spectrum_matches_dense_for_odd_weight(cover513, x511):
    """k = 1 carries the epsilon sign twist.  On cover513 it fails the
    central condition, so [13,37]@3 stands in as the square complex.
    Both fall back to a single Fourier block."""
    with pytest.raises(rc.CentralConditionError):
        rc.build_symm_system(cover513, 1)
    H = Harmonics(x511, rc.build_symm_system(x511, 1))
    assert H.symmetry_order() == 1
    _assert_bipartite_route_matches_dense(H)
    X = rc.build_complex([13, 37], 3)
    _assert_bipartite_route_matches_dense(Harmonics(X, rc.build_symm_system(X, 1)))


@pytest.mark.parametrize("complex_fixture, k, n_classes", [
    ("x511", 1, 1), ("x5137", 0, 2), ("lps513", 0, 3), ("cover513", 2, 3)])
def test_parity_block_route_matches_dense(request, complex_fixture, k, n_classes):
    """block_spectrum with a parity scatters only the block B of each
    Fourier block from the star's entries.  It matches the dense eigensolve
    on every star, in each case of ``_block_classes``: N = 1
    (complex), a real operator with N = 3 mod 4 (two classes), three
    classes (real, N = 13) and a complex operator (three classes)."""
    X = request.getfixturevalue(complex_fixture)
    H = Harmonics(X, _system(X, k))
    assert len(H._block_classes(H.dtype == np.float64)) == n_classes
    n_stars = 0
    for mask in X.masks():
        for j in range(1, X.g + 1):
            if mask & (1 << (j - 1)) or (mask | (1 << (j - 1))) not in X.tables:
                continue
            parity = H.star_parity(j, mask)
            fast = H.block_spectrum(H._cross(j, mask), mask, parity)
            dense = rc.spectrum(H.star_matrix(j, mask))
            assert len(fast) == len(dense) and np.abs(fast - dense).max() <= 1e-10
            n_stars += 1
    assert n_stars > 0


def test_parity_block_route_rejects_broken_entries(cover_spaces):
    """The entry check runs on the Coo entries, before any block is formed:
    one entry of B within a parity class is refused, and so is the whole
    star in place of B."""
    H = cover_spaces[1]
    B, parity = H._cross(1, 0), H.star_parity(1, 0)
    assert np.iscomplexobj(B.data) and (parity[B.row] == 1).all()
    same = np.flatnonzero(parity == 1)[1]
    coupled = Coo(np.append(B.row, B.row[0]), np.append(B.col, same),
                  np.append(B.data, 1.0), B.shape)
    with pytest.raises(ValueError, match="outside the class-1 rows"):
        H.block_spectrum(coupled, 0, parity)
    with pytest.raises(ValueError, match="outside the class-1 rows"):
        H.block_spectrum(H.star_operator(1, 0), 0, parity)


@pytest.mark.parametrize("complex_fixture, k", [("cover513", 0), ("cover513", 2), ("x5137", 0)])
def test_split_entry_keeps_spectrum_and_matrix(request, complex_fixture, k):
    """Coo entries are raw: entries at one position add up, in any order.
    One entry of B on a leader row, alone at its position, split into two
    halves, the second appended after every other entry, gives the merged
    B's spectrum with and without the isotypic split, and the same CSR
    matrix (the halves are exact)."""
    X = request.getfixturevalue(complex_fixture)
    H = Harmonics(X, _system(X, k))
    n_split = 0
    for j, mask in X.link_pairs():
        B, parity = H._cross(j, mask), H.star_parity(j, mask)
        key = B.row * B.shape[1] + B.col
        _, at, count = np.unique(key, return_inverse=True, return_counts=True)
        lead = np.repeat(_leaders(H, mask), H.m)[B.row]
        e = np.flatnonzero(lead & (count[at] == 1))[0]
        data, half = B.data.copy(), B.data[e] / 2
        data[e] = half
        split = Coo(np.append(B.row, B.row[e]), np.append(B.col, B.col[e]),
                    np.append(data, B.data[e] - half), B.shape)
        assert (split.tocsr() != B.tocsr()).nnz == 0
        rows, cols, pieces = H._plan(mask, parity)
        n_split += pieces is not None
        for plan in ((rows, cols, pieces), (rows, cols, None)):
            merged = H.block_spectrum(B, mask, parity, plan)
            assert np.abs(H.block_spectrum(split, mask, parity, plan) - merged).max() <= 1e-12
    assert n_split > 0


def _leaders(H, mask):
    """The representatives of C^I that lead their u-orbit: the rows that
    ``spectrum_report`` assembles."""
    return H.coordinate_orbits([mask])[1][::H.m] == 0


@pytest.mark.parametrize("complex_fixture, k", [
    ("x5137", 0), ("x5137", 2), ("lps513", 0), ("lps513", 2), ("cover513", 0), ("cover513", 2)])
def test_leader_row_star_is_the_leader_rows_of_the_star(request, complex_fixture, k):
    """B assembled on the rows that lead their u-orbit holds exactly the
    class-1 leader rows by the class-0 columns of the star operator, the
    sparse form of ``star_matrix``, and nothing on the other rows."""
    X = request.getfixturevalue(complex_fixture)
    H = Harmonics(X, _system(X, k))
    assert H.symmetry_order() == X.arith.n1
    for j, mask in X.link_pairs():
        lead = _leaders(H, mask)
        parity = H.star_parity(j, mask)
        rows = np.repeat(lead, H.m) & (parity == 1)
        assert 0 < np.repeat(lead, H.m).sum() == len(parity) // H.symmetry_order()
        part, full = H._cross(j, mask, lead).tocsr(), H.star_operator(j, mask)
        assert part.shape == full.shape and part[~rows].nnz == 0
        expected = full[rows][:, parity == 0]
        assert part[rows][:, parity == 1].nnz == 0 and expected.nnz > 0
        assert abs(part[rows][:, parity == 0] - expected).max() == 0


def test_leader_row_block_reads_columns_off_the_leader_rows(cover_spaces):
    """B on the leader rows alone reaches columns off the leader rows; its
    Fourier blocks give the spectrum of the dense star."""
    H = cover_spaces[1]
    B, parity = H._cross(1, 0, _leaders(H, 0)), H.star_parity(1, 0)
    assert np.iscomplexobj(B.data) and H.symmetry_order() == 3
    assert np.any(~np.repeat(_leaders(H, 0), H.m)[B.col] & (B.data.imag != 0))
    fast = H.block_spectrum(B, 0, parity)
    assert np.abs(fast - rc.spectrum(H.star_matrix(1, 0))).max() <= 1e-10


def test_tampered_edge_off_the_leader_rows_refuses_symmetry(cover513):
    """An edge whose two ends both lie off the leader rows, and its
    reversal, never enter the leader-row B, whose cubes have a leading top.
    Tampering with their transitions makes ``_is_symmetry`` refuse u, so
    N = 1, every row leads, and the spectra still match the dense star."""
    L = rc.build_symm_system(cover513, 2)
    _, _, shift, *_ = Harmonics(cover513, L)._symmetry
    t = cover513.tables[1]
    edge = next(e for e in range(t.n) if shift[t.top[1][e]] and shift[t.bot[1][e]])
    back = t.inv[1][edge]
    L.transitions[0] = L.transitions[0][:]  # explicit, one matrix per edge
    L.transitions[0][[edge, back]] *= -1
    H = Harmonics(cover513, L)
    assert H.symmetry_order() == 1 and _leaders(H, 0).all()
    for e in rc.spectrum_report(cover513, L, workspace=H).entries:
        S = H.star_matrix(e.j, mask_of(e.dirs))
        assert np.abs(e.eigenvalues - rc.spectrum(S)).max() <= 1e-10


def _parity_route(M, parity):
    """block_spectrum of the dense matrix M, the block B of a bipartite
    operator embedded in its class-1 rows and class-0 columns, with the
    given parity, as an operator on the vertices of a bipartite path
    (N = 1)."""
    M = np.asarray(M)
    n = len(M)
    X = rc.graph_complex(n, [(v, v + 1) for v in range(n - 1)], r=2,
                         parities=[[v % 2] for v in range(n)])
    row, col = np.nonzero(M)
    return Harmonics(X).block_spectrum(Coo(row, col, M[row, col], M.shape), 0, parity)


def test_bipartite_spectrum_rejects_same_class_entries():
    """B holds entries from class 0 to class 1 only: an entry within a class,
    or from class 1 to class 0 (the upper block of a full star), is refused."""
    triangle = np.ones((3, 3)) - np.eye(3)
    with pytest.raises(ValueError, match="outside the class-1 rows"):
        _parity_route(triangle, [0, 1, 0])
    with pytest.raises(ValueError, match="outside the class-1 rows"):
        _parity_route(np.diag([0.0, 1.0]), [0, 1])
    with pytest.raises(ValueError, match="outside the class-1 rows"):
        _parity_route(np.array([[0.0, 1.0], [0.0, 0.0]]), [0, 1])


def test_bipartite_spectrum_rejects_bad_parity_vectors():
    M = np.array([[0.0, 1.0], [1.0, 0.0]])
    for parity in ([0], [0, 1, 0], [0, 2]):
        with pytest.raises(ValueError, match="parity"):
            _parity_route(M, parity)


def test_bipartite_spectrum_pads_unequal_classes():
    path = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    eigs = _parity_route(np.where([[0], [1], [0]], path, 0.0), [0, 1, 0])
    assert np.allclose(eigs, [np.sqrt(2), 0.0, -np.sqrt(2)], atol=1e-14)
    assert np.abs(eigs - rc.spectrum(path)).max() <= 1e-14
    assert np.array_equal(_parity_route(np.zeros((3, 3)), [1, 1, 1]), np.zeros(3))


def test_spectrum_report_without_parities():
    K4 = rc.complete_graph_complex(4)
    assert Harmonics(K4).star_parity(1, 0) is None
    sp = rc.spectrum_report(K4)
    assert len(sp.entries) == 1
    assert np.allclose(sp.entries[0].eigenvalues, [3, -1, -1, -1], atol=1e-12)


_SMALL_CONFIGS = [((5,), 3), ((5,), 7), ((13,), 3), ((13,), 7), ((17,), 3),
                  ((29,), 3), ((5, 13), 3), ((5, 17), 3), ((5, 29), 3)]


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(_SMALL_CONFIGS), st.sampled_from([0, 2]))
def test_spectrum_report_is_symmetric(config, k):
    primes, n1 = config
    X = rc.build_complex(list(primes), n1)
    H = Harmonics(X, _system(X, k))
    sp = rc.spectrum_report(X, H.L, workspace=H)
    for e in sp.entries:
        eigs = e.eigenvalues
        assert len(eigs) == e.dim
        assert np.all(np.diff(eigs) <= 0)
        assert np.abs(eigs + eigs[::-1]).max() <= 1e-10
        S = H.star_matrix(e.j, mask_of(e.dirs))
        assert np.abs(eigs - rc.spectrum(S)).max() <= 1e-10
    assert H.symmetry_order() == n1
    assert H.cohomology_dims() == cohomology_by_svd(H)


def test_star_hermitian_for_symm_systems(x511):
    L = rc.build_symm_system(x511, 1)
    S = Harmonics(x511, L).star_matrix(1, 0)
    assert np.abs(S - S.conj().T).max() < 1e-12


def test_spectrum_function():
    eigs = rc.spectrum(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(eigs, [1.0, -1.0])
    K4 = rc.complete_graph_complex(4)
    adj = Harmonics(K4).star_matrix(1, 0)
    assert np.allclose(rc.spectrum(adj), [3, -1, -1, -1], atol=1e-12)
    assert len(rc.spectrum(np.eye(7))) == 7
    with pytest.raises(ValueError):
        rc.spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_spectrum_residual_spot_check():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(40, 40))
    M = A + A.T
    eigs, vecs = np.linalg.eigh(M)
    norm = np.linalg.norm(M, 2)
    for idx in (0, 13, 39):
        res = np.linalg.norm(M @ vecs[:, idx] - eigs[idx] * vecs[:, idx])
        assert res <= 1e-8 * norm


def test_classify_ramanujan():
    v = rc.classify_ramanujan([6.0, -6.0, 4.2, 0.0], 6)
    assert v.trivial_plus == 1 and v.trivial_minus == 1
    assert v.mu == pytest.approx(4.2)
    assert v.is_ramanujan
    v2 = rc.classify_ramanujan([6.0, 4.6], 6)
    assert v2.mu == pytest.approx(4.6)
    assert not v2.is_ramanujan
    v3 = rc.classify_ramanujan([1.0, -1.0], 1)
    assert v3.mu == 0.0 and v3.is_ramanujan


def test_trivial_multiplicities_match_components(cover513):
    H = Harmonics(cover513)
    comps = rc.irreducibility_report(cover513)
    for (j, dirs), n_comp in comps.items():
        eigs = rc.spectrum(H.star_matrix(j, mask_of(dirs)))
        v = rc.classify_ramanujan(eigs, cover513.r(j))
        assert v.trivial_plus == n_comp


def test_hodge_decomposition(cover513):
    Hm = Harmonics(cover513)
    rng = np.random.default_rng(1)

    # harmonic input: constants at level 0
    ones = np.ones(Hm.level_dim(0))
    h, pd, pds = Hm.hodge_project(0, ones)
    assert np.linalg.norm(h - ones) < 1e-10
    assert np.linalg.norm(pd) < 1e-10

    # exact image of d
    b = rng.normal(size=Hm.level_dim(0))
    c = Hm.total_d(0) @ b
    h, pd, pds = Hm.hodge_project(1, c)
    assert np.linalg.norm(h) < 1e-8
    assert np.linalg.norm(pds) < 1e-8
    assert np.linalg.norm(pd - c) < 1e-8

    # random cochain: orthogonality and reconstruction
    c = rng.normal(size=Hm.level_dim(1))
    h, pd, pds = Hm.hodge_project(1, c)
    assert np.linalg.norm(h + pd + pds - c) < 1e-10
    assert abs(np.vdot(h, pd)) < 1e-8
    assert abs(np.vdot(h, pds)) < 1e-8
    assert abs(np.vdot(pd, pds)) < 1e-8
    # harmonic part lies in ker d and ker d*
    assert np.linalg.norm(Hm.total_d(1) @ h) < 1e-8
    assert np.linalg.norm(Hm.total_d(0).conj().T @ h) < 1e-8


def test_cohomology_small_cases():
    circle = rc.cycle_complex(4)
    assert Harmonics(circle).cohomology_dims() == [1, 1]
    box = rc.box_complex(2)
    assert Harmonics(box).cohomology_dims() == [1, 0, 0]


def test_block_cohomology_matches_dense_svd(cover_spaces, small_spaces, lps513):
    """The parallel sections below the top level and the rank recursion
    give the Betti numbers of the singular values of the whole dense d, with
    and without parities and translation symmetry."""
    C5, C6 = rc.cycle_complex(5), rc.cycle_complex(6)
    spaces = [Harmonics(C6), Harmonics(C5), Harmonics(rc.box_complex(3)), *cover_spaces,
              Harmonics(lps513), small_spaces[0], *small_spaces[3:],
              Harmonics(rc.disjoint_union(C5, C6))]
    assert [H.symmetry_order() for H in spaces] == [1, 1, 1, 3, 3, 13, 1, 1, 1, 1]
    for H in spaces:
        assert H.cohomology_dims() == cohomology_by_svd(H, blocks=False)


@pytest.mark.parametrize("complex_fixture", ["x511", "cover13373"])
def test_cohomology_matches_svd_without_symmetry(request, complex_fixture):
    """Weight 1 has no verified translation symmetry (N = 1): the parallel
    sections of a complex system against the nullities of the dense Gram
    matrices d^H d of the whole d."""
    X = request.getfixturevalue(complex_fixture)
    H = Harmonics(X, rc.build_symm_system(X, 1))
    assert H.symmetry_order() == 1
    assert H.cohomology_dims() == cohomology_by_gram(H)


def _rotation_gauge(X):
    """A real rank-2 system gauge-equivalent to the trivial one,
    T_e = R(theta(top e) - theta(bot e)) with R a rotation and theta(v) =
    2 pi t / N for v the t-th translate of its orbit's leader under the
    unipotent translation, of order N.  Its flat sections R(theta) s_0 turn
    by R(2 pi / N) under the translation, so h^0 = 2 lies in Fourier blocks
    1 and N - 1, and the transports of the parallel sections are nontrivial
    rotations: the count needs the holonomy invariants, not just the
    number of components."""
    N, _, shift, *_ = Harmonics(X)._symmetry
    theta = 2 * np.pi * np.arange(N) / N
    c, s = np.cos(theta), np.sin(theta)
    rot = np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=1)
    trans = [rot[(shift[X.tables[1 << (j - 1)].top[j][:]] - shift[X.tables[1 << (j - 1)].bot[j][:]]) % N]
             for j in range(1, X.g + 1)]
    return rc.LocalSystem(2, trans, "rotation gauge")


def test_cohomology_kernel_in_paired_blocks(cover513):
    """The rotation gauge on the square complex, N = 3."""
    H = Harmonics(cover513, _rotation_gauge(cover513))
    assert H.symmetry_order() == 3 and H.dtype == np.float64
    assert H.cohomology_dims() == [2, 0, 1150] == cohomology_by_svd(H, blocks=False)


def _blocks_formed(H, A, mask):
    orbits = H.coordinate_orbits([mask])
    return sum(1 for _ in H.fourier_blocks(A, orbits, orbits))


@pytest.mark.parametrize("complex_fixture", ["x511", "lps513"])
def test_fold_refused_without_torus_symmetry(request, complex_fixture):
    """The rotation gauge of order n1 > 3 commutes with the unipotent
    translation but not with the torus, which multiplies its angles by
    a^2: the symmetry is refused, N = 1 and the one block is the operator
    itself, and h^0 stays 2 (folded blocks would count n1 - 1 or
    (n1 - 1)/2).  The oracle for h^0 is the nullity of the dense d_0^H d_0,
    whose least nonzero eigenvalue is the spectral gap of the graph."""
    X = request.getfixturevalue(complex_fixture)
    H = Harmonics(X, _rotation_gauge(X))
    assert X.arith.n1 > 3 and H.dtype == np.float64
    assert H.symmetry_order() == 1
    assert _blocks_formed(H, H.laplacian(1, 0), 0) == 1
    D = H.total_d(0)
    eigs = np.linalg.eigvalsh((D.T @ D).toarray())
    assert H.cohomology_dims()[0] == 2 == int(np.sum(eigs <= 1e-8 * eigs[-1]))


def _rotation_cycle(n, theta):
    """The n-cycle with a flat real rank-2 system of holonomy R(theta): each
    forward edge carries R(theta / n) and each backward edge R(-theta / n)."""
    X = rc.cycle_complex(n)
    angle = np.where(np.arange(X.tables[1].n) % 2 == 0, theta / n, -theta / n)
    c, s = np.cos(angle), np.sin(angle)
    rot = np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=1)
    return Harmonics(X, rc.LocalSystem(2, [rot], "rotation"))


def test_cohomology_refuses_ambiguous_holonomy():
    """A flat rank-2 system on the 50-cycle has no parallel section unless
    its holonomy R(theta) is the identity, so h = [0, 0] for theta != 0.
    The defect R(theta) - I of the one edge outside the spanning forest has
    singular values 2 sin(theta / 2), about theta.  The window is rank_tol
    * sqrt(2 sum_j r_j) = 2e-8; each transport is a product of at most 25
    rotations (the forest depth), so rounding puts an exact zero defect
    near 1e-15.  theta = 1e-3 lies far above 1e3 times the window, and
    theta = 1e-5 inside it, which is refused as ambiguous.  The least
    Laplacian eigenvalue, (theta / 50)^2, is 4e-10 at theta = 1e-3: a
    window on eigenvalues counts it as zero and returns [2, 2]."""
    assert _rotation_cycle(50, 0.0).cohomology_dims() == [2, 2]
    for theta in (0.1, 1e-3):
        assert _rotation_cycle(50, theta).cohomology_dims() == [0, 0]
    with pytest.raises(VerificationError, match="ambiguous"):
        _rotation_cycle(50, 1e-5).cohomology_dims()


def test_cohomology_rejects_impossible_ranks(monkeypatch):
    """Kernel dimensions that imply a rank of d outside 0..min(dim C^i,
    dim C^(i+1)) are refused."""
    import ramcube.harmonics as harmonics
    monkeypatch.setattr(harmonics, "_kernel", lambda A, window, mask: np.eye(A.shape[1]))
    with pytest.raises(VerificationError, match="rank"):
        Harmonics(rc.box_complex(2)).cohomology_dims()


def test_is_symmetry_refuses_a_mutated_translation(cover513):
    """u with the images of two vertices of one parity class swapped keeps
    every parity and the trivial transitions, so only the face and
    inversion maps of the cube tables can refuse it."""
    H = Harmonics(cover513)
    u = cover513.arith.left_translation((1, 1, 0, 1))
    assert H._is_symmetry(u)
    par = cover513.parities
    b = next(v for v in range(1, len(u)) if np.array_equal(par[v], par[0]))
    mutated = u.copy()
    mutated[[0, b]] = u[[b, 0]]
    assert np.array_equal(par[mutated], par)
    assert not H._is_symmetry(mutated)


def test_symmetry_falls_back_to_one_block(cover513, x511):
    assert Harmonics(rc.complete_graph_complex(4)).symmetry_order() == 1
    # odd weight with a kernel of order 2: invariant only up to the epsilon
    # gauge, which even weights do not see
    assert x511.arith.group.kernel_order == 2
    assert Harmonics(x511, rc.build_symm_system(x511, 1)).symmetry_order() == 1
    for k in (0, 2):
        assert Harmonics(x511, _system(x511, k)).symmetry_order() == 11
    # one tampered edge (and its reversal, so the star stays Hermitian)
    L = rc.build_symm_system(cover513, 2)
    assert Harmonics(cover513, L).symmetry_order() == 3
    edge = 5
    back = cover513.tables[1].inv[1][edge]
    L.transitions[0] = L.transitions[0][:]  # explicit, one matrix per edge
    L.transitions[0][[edge, back]] *= -1
    H = Harmonics(cover513, L)
    assert H.symmetry_order() == 1
    sp = rc.spectrum_report(cover513, L, workspace=H)
    for e in sp.entries:
        S = H.star_matrix(e.j, mask_of(e.dirs))
        assert np.abs(e.eigenvalues - rc.spectrum(S)).max() <= 1e-10


def test_fourier_blocks_keep_singular_values(cover_spaces, x511, lps513):
    """The singular values of d from level 0 to 1 are those of its blocks
    with their multiplicities, folded by the torus classes when N > 3."""
    for H in [*cover_spaces, Harmonics(x511), Harmonics(lps513)]:
        N = H.symmetry_order()
        D = H.total_d(0)
        rows = H.coordinate_orbits(H.X.masks_of_dim(1))
        cols = H.coordinate_orbits(H.X.masks_of_dim(0))
        parts = []
        for block, mult in H.fourier_blocks(D, rows, cols):
            assert block.shape == (D.shape[0] // N, D.shape[1] // N)
            parts += [np.linalg.svd(block, compute_uv=False)] * mult
        blocks = np.sort(np.concatenate(parts))[::-1]
        full = np.linalg.svd(D.toarray(), compute_uv=False)
        assert np.abs(blocks - full).max() <= 1e-10


@pytest.mark.parametrize("complex_fixture, k", [
    ("x511", 0), ("x511", 2), ("lps513", 0), ("x5137", 0), ("cover513", 0), ("cover513", 2)])
def test_fold_matches_unfolded_blocks_and_dense(request, complex_fixture, k):
    """Every star's spectrum from one Fourier block per torus class, each
    split into its isotypic pieces, equals the union of the spectra of all
    N blocks and the dense route.  The fold solves 2 blocks for a real
    operator with n1 = 3 (mod 4) and 3 blocks otherwise."""
    X = request.getfixturevalue(complex_fixture)
    H = Harmonics(X, _system(X, k))
    N = H.symmetry_order()
    assert N == X.arith.n1
    real = H.dtype == np.float64
    for e in rc.spectrum_report(X, H.L, workspace=H).entries:
        mask = mask_of(e.dirs)
        (_, _, n_r), (_, _, n_c), split = H._plan(mask, H.star_parity(e.j, mask))
        # split unless each axis is one slot of |h0|/N orbits (one prime, k = 0)
        assert (split is None) == (n_r == n_c == H._h0[2].shape[1])
        S = H.star_operator(e.j, mask)
        assert _blocks_formed(H, S, mask) == (2 if real and N % 4 == 3 else 3)
        orbits = H.coordinate_orbits([mask])
        unfolded = np.concatenate([rc.spectrum(B)
                                   for B in fourier_blocks_unfolded(H, S, orbits, orbits)])
        assert np.abs(e.eigenvalues - np.sort(unfolded)[::-1]).max() <= 1e-10
        dense = rc.spectrum(S.toarray())
        assert np.abs(e.eigenvalues - dense).max() <= 1e-10


def test_cohomology_cover_and_euler(cover513, cover_spaces):
    H_triv, H_k2 = cover_spaces
    dims = H_triv.cohomology_dims()
    assert dims == [1, 0, 575]
    assert H_triv.euler_characteristic() == 576
    assert dims[0] - dims[1] + dims[2] == 576
    dims2 = H_k2.cohomology_dims()
    assert dims2 == [0, 0, 1728]
    assert H_k2.euler_characteristic() == 1728


def _assert_block_laplacian_spectra_match_dense(H, j, mask):
    """The Fourier-block spectra of both box_j that the transfer check
    compares equal the dense eigensolves."""
    for m in (mask, mask | (1 << (j - 1))):
        box = H.laplacian(j, m)
        assert np.abs(H.block_spectrum(box, m) - rc.spectrum(box.toarray())).max() <= 1e-10


def test_eigenspace_transfer(cover_spaces):
    for H in cover_spaces:
        assert H.symmetry_order() == 3
        for j, mask in ((1, 0), (2, 0), (1, 0b10), (2, 0b01)):
            ok, info = H.eigenspace_transfer_check(j, mask)
            assert ok, info
            _assert_block_laplacian_spectra_match_dense(H, j, mask)


def test_eigenspace_transfer_on_box():
    H = Harmonics(rc.box_complex(2))
    assert H.symmetry_order() == 1
    ok, info = H.eigenspace_transfer_check(1, 0)
    assert ok, info
    _assert_block_laplacian_spectra_match_dense(H, 1, 0)


def test_total_laplacian_identity(cover_spaces, small_spaces, x511):
    """Total Laplacian at level i equals d d* + d* d, scipy's products of
    the total d: with and without parities, on boundaries that carry the
    signs of ``expand`` (the renumbered product) and on a complex system
    (weight 1, N = 1)."""
    spaces = [*cover_spaces, *small_spaces, Harmonics(x511, rc.build_symm_system(x511, 1))]
    for n, H in enumerate(spaces):
        g = H.X.g
        for i in range(g + 1):
            lhs = scipy.sparse.block_diag(
                [H.total_laplacian(m) for m in H.X.masks_of_dim(i)], format="csr")
            rhs = scipy.sparse.csr_matrix(lhs.shape, dtype=H.dtype)
            if i > 0:
                D = H.total_d(i - 1)
                rhs = rhs + D @ D.conj().T
            if i < g:
                D = H.total_d(i)
                rhs = rhs + D.conj().T @ D
            assert abs(lhs - rhs).max() < 1e-11, (n, i)


def test_spectrum_report_and_cap(cover513, monkeypatch):
    sp = rc.spectrum_report(cover513)
    assert len(sp.entries) == 4
    assert sp.overall_ramanujan
    assert {(e.j, len(e.dirs)) for e in sp.entries} == {(1, 0), (2, 0), (1, 1), (2, 1)}
    assert all(len(e.eigenvalues) == e.dim for e in sp.entries)
    monkeypatch.setattr(harmonics, "_memory_headroom", lambda: 0)
    with pytest.raises(ResourceError):
        rc.spectrum_report(cover513)


def test_memory_check_boundary(cover513, monkeypatch):
    """The run is refused exactly when the bytes a star's solve holds
    exceed the headroom, and the refusal comes before any Fourier block is
    formed.  On [5,13]@3, h0 = PSL2(3) (order 12, N = 3) has |h0|/N = 4
    orbits per parity class and 3 as its largest irreducible dimension, so
    the largest piece is 3 n_sr x 3 n_sc complex for n_sr and n_sc slots.
    To twice that add the entries of B's leader rows (at most nnz = r_j per
    class-1 leader row, of 16 + 8 bytes each), the Z
    bases of the 2 blocks solved on the 4 parity classes (4 x 4 complex
    each), the entries times a row of Q (nnz 3 complex) and two 4 x 3
    complex arrays for each of at most n_sr min(n_sc, r_j) pairs of slots,
    then a quarter."""
    H = Harmonics(cover513)
    assert H.symmetry_order() == 3 and H.dtype == np.float64
    n_o, d, complex_bytes = 12 // 3, 3, np.dtype(np.complex128).itemsize
    n_classes = len(np.unique(cover513.parities, axis=0))
    need = 0
    for e in rc.spectrum_report(cover513, workspace=H).entries:
        mask, r = mask_of(e.dirs), cover513.r(e.j)
        _, shift, _ = H.coordinate_orbits([mask])
        leaders = H.star_parity(e.j, mask)[shift == 0]
        n_sr, n_sc = int(leaders.sum()) // n_o, int((leaders == 0).sum()) // n_o
        nnz = int(leaders.sum()) * r
        assert len(H._cross(e.j, mask, shift == 0).data) <= nnz
        held = nnz * (16 + 8)
        held += (2 * n_classes * n_o**2 + 2 * n_sr * min(n_sc, r) * n_o * d + nnz * d) \
            * complex_bytes
        need = max(need, (2 * (d * n_sr) * (d * n_sc) * complex_bytes + held) * 5 // 4)
    calls = []
    fourier_blocks = Harmonics.fourier_blocks

    def spy(self, *args, **kwargs):
        calls.append(args)
        return fourier_blocks(self, *args, **kwargs)

    monkeypatch.setattr(Harmonics, "fourier_blocks", spy)
    monkeypatch.setattr(harmonics, "_memory_headroom", lambda: need)
    assert rc.spectrum_report(cover513).overall_ramanujan
    assert len(calls) == 4
    assert all(np.all(rows[1][B.row] == 0) for B, rows, *_ in calls)  # leader rows only
    calls.clear()
    monkeypatch.setattr(harmonics, "_memory_headroom", lambda: need - 1)
    with pytest.raises(ResourceError, match="piece of a Fourier block"):
        rc.spectrum_report(cover513)
    assert calls == []


def _pieces(H, j, mask):
    """Shapes of the pieces ``block_spectrum`` solves for the star S_{j,I}."""
    parity = H.star_parity(j, mask)
    return [p.shape for p, _ in H.fourier_blocks(H._cross(j, mask), *H._plan(mask, parity))]


def test_isotypic_pieces_have_irreducible_sizes(x5137):
    """On [5,13]@7, h0 = PSL2(7) of order 168 has irreducibles of dimension
    1, 3, 3, 6, 7 and 8, and N = 7, so a block has 24 orbits per slot.
    Block 0 holds the trivial, the Steinberg (7) and the principal series
    (8) twice; block 1 holds one each of 3 (one of the two), 6, 7 and 8.
    Every piece is that dimension times the slots of each axis."""
    H = Harmonics(x5137)
    assert H._h0[2].shape == (4, 24)
    assert [sorted(H._isotypic(k)[1]) for k in (0, 1)] == [[1, 7, 16], [3, 6, 7, 8]]
    for j, mask in ((1, 0), (2, 0), (2, 0b01), (1, 0b10)):
        (_, _, n_r), (_, _, n_c), _ = H._plan(mask, H.star_parity(j, mask))
        n_sr, n_sc = n_r // 24, n_c // 24
        assert sorted(_pieces(H, j, mask)) == sorted(
            (d * n_sr, d * n_sc) for d in (1, 7, 16, 3, 6, 7, 8))


def test_isotypic_split_falls_back_without_weyl(cover513, monkeypatch):
    """When the Weyl element fails ``_is_symmetry``, h0 is not verified:
    there is no split, and the route forms today's Fourier blocks."""
    weyl = cover513.arith.left_translation((0, -1, 1, 0))
    is_symmetry = Harmonics._is_symmetry
    monkeypatch.setattr(Harmonics, "_is_symmetry", lambda self, sigma: (
        not np.array_equal(sigma, weyl) and is_symmetry(self, sigma)))
    H = Harmonics(cover513)
    assert H.symmetry_order() == 3 and H._h0 is None
    formed = []
    fourier_blocks = Harmonics.fourier_blocks

    def spy(self, *args, **kwargs):
        blocks = list(fourier_blocks(self, *args, **kwargs))
        formed.append(blocks)
        return iter(blocks)

    monkeypatch.setattr(Harmonics, "fourier_blocks", spy)
    sp = rc.spectrum_report(cover513, workspace=H)
    for e, blocks in zip(sp.entries, formed):
        mask = mask_of(e.dirs)
        parity = H.star_parity(e.j, mask)
        rows, cols, split = H._plan(mask, parity)
        assert split is None
        today = list(fourier_blocks(H, H._cross(e.j, mask), rows, cols))
        assert len(blocks) == len(today) == 2
        assert all(np.array_equal(a, b) and m == n for (a, m), (b, n) in zip(blocks, today))
        assert np.abs(e.eigenvalues - rc.spectrum(H.star_matrix(e.j, mask))).max() <= 1e-10


def test_symmetry_is_verified_once(x5137, monkeypatch):
    """A split spectrum report looks up and checks u, the torus and the
    Weyl element once each: h0 reads u and the torus from the one record
    of the verified symmetry."""
    counts = {"left_translation": 0, "_is_symmetry": 0}

    def counted(cls, name):
        method = getattr(cls, name)

        def spy(*args):
            counts[name] += 1
            return method(*args)
        monkeypatch.setattr(cls, name, spy)

    counted(ArithData, "left_translation")
    counted(Harmonics, "_is_symmetry")
    sp = rc.spectrum_report(x5137)
    assert sp.overall_ramanujan
    assert counts == {"left_translation": 3, "_is_symmetry": 3}


def test_isotypic_split_certificates(cover513, monkeypatch):
    """A cluster of Z cut in two leaves entries between the halves, which
    the residual certificate refuses; two clusters merged only make a
    larger piece with the same spectrum."""
    clusters = harmonics._clusters
    expected = [e.eigenvalues for e in rc.spectrum_report(cover513).entries]

    def cut(values):
        sizes = clusters(values)
        at = next(i for i, n in enumerate(sizes) if n > 1)
        return sizes[:at] + [1, sizes[at] - 1] + sizes[at + 1:]

    monkeypatch.setattr(harmonics, "_clusters", cut)
    with pytest.raises(VerificationError, match="residual"):
        rc.spectrum_report(cover513)
    monkeypatch.setattr(harmonics, "_clusters", lambda values: [sum(clusters(values))])
    H = Harmonics(cover513)
    assert _pieces(H, 1, 0) == [(8, 8), (8, 8)]  # one piece per block, the whole block
    merged = rc.spectrum_report(cover513, workspace=H).entries
    assert all(np.abs(e.eigenvalues - x).max() <= 1e-10 for e, x in zip(merged, expected))


def test_boundary_norm_bound(lps513):
    """Operator norm squared of the boundary is at most twice the regularity
    (attained here: the bipartite link puts -r in the star spectrum)."""
    H = Harmonics(lps513)
    D = H.partial_boundary(1, 0)
    sv = np.linalg.svd(D.toarray(), compute_uv=False)
    assert sv[0] ** 2 <= 2 * 6 + 1e-10
    assert sv[0] ** 2 == pytest.approx(12.0, abs=1e-8)


def test_adjointness_inner_products(x511):
    L = rc.build_symm_system(x511, 1)
    H = Harmonics(x511, L)
    D = H.partial_boundary(1, 0)
    Ds = coboundary_by_sum(H, 1, 0)
    rng = np.random.default_rng(2)
    n0, n1 = H.dim(0), H.dim(1)
    for _ in range(100):
        s = rng.normal(size=n0) + 1j * rng.normal(size=n0)
        t = rng.normal(size=n1) + 1j * rng.normal(size=n1)
        lhs = np.vdot(t, D @ s)
        rhs = np.vdot(Ds @ t, s)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
