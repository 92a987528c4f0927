import tracemalloc

import numpy as np
import pytest

import ramcube as rc
from ramcube import Quaternion, symm_rep
from ramcube.complexes import dirs_of
from ramcube.errors import CentralConditionError
from ramcube.localsystems import chunks
from tuple_reference import TupleGroup, vertex_keys


def test_symm_rep_degenerate_weights():
    for q in (Quaternion(1, 0, 0, 0), Quaternion(1, 2, 0, 0), Quaternion(3, 2, 0, 0)):
        assert np.allclose(symm_rep(q, 0), [[1.0]])
    assert np.allclose(symm_rep(Quaternion(1, 0, 0, 0), 1), np.eye(2))
    with pytest.raises(ValueError):
        symm_rep(Quaternion(0, 0, 0, 0), 2)


def test_symm_rep_unitary_and_trace_bound():
    q = Quaternion(1, 2, 0, 0)
    U = symm_rep(q, 2)
    assert U.shape == (3, 3)
    assert np.abs(U @ U.conj().T - np.eye(3)).max() < 1e-12
    assert abs(np.trace(U)) <= 3 + 1e-12


def test_symm_rep_multiplicative():
    gens5 = rc.enumerate_generators(5)
    gens13 = rc.enumerate_generators(13)
    for k in (1, 2, 3):
        for a in gens5[:3]:
            for b in gens13[:3]:
                lhs = symm_rep(a * b, k)
                rhs = symm_rep(a, k) @ symm_rep(b, k)
                assert np.abs(lhs - rhs).max() < 1e-12


def test_symm_rep_conjugate_is_inverse():
    for k in (1, 2, 4):
        for q in rc.enumerate_generators(5):
            U = symm_rep(q, k)
            V = symm_rep(q.conjugate(), k)
            assert np.abs(U @ V - np.eye(k + 1)).max() < 1e-12


def test_central_condition():
    assert rc.central_condition_check([5], 13, 0)
    assert rc.central_condition_check([5], 13, 2)
    # -1 = 5^2 modulo 26: odd weights are refused
    assert not rc.central_condition_check([5], 13, 1)
    # powers of 5 modulo 22 never reach -1: odd weights admissible
    assert rc.central_condition_check([5], 11, 1)
    assert rc.central_condition_check([5, 17], 19, 1)


def test_trivial_system(cover513):
    L = rc.trivial_system(cover513, dim=2)
    assert L.fiber_dim == 2
    assert rc.verify_unitarity(cover513, L) == 0.0
    fl = rc.verify_flatness(cover513, L)
    assert fl.max_residual == 0.0
    assert fl.n_squares == 4032


def test_symm_system_k0_is_trivial(lps513):
    L = rc.build_symm_system(lps513, 0)
    assert L.fiber_dim == 1
    assert all(np.allclose(t, 1.0) for t in L.transitions[0][:50])


def test_symm_system_odd_weight_refused(lps513):
    with pytest.raises(CentralConditionError):
        rc.build_symm_system(lps513, 1)


def test_symm_system_epsilon_trivial_when_groups_coincide(lps513):
    L = rc.build_symm_system(lps513, 2)
    assert lps513.arith.group.kernel_order == 1
    assert all(np.all(e == 1) for e in L.epsilons)


def test_symm_system_stored_as_mutual_adjoints(x511):
    L = rc.build_symm_system(x511, 1)
    t = x511.tables[1]
    tr = L.transitions[0]
    for e in range(0, len(tr), 97):
        assert np.array_equal(tr[t.inv[1][e]], tr[e].conj().T)


def test_symm_system_unitary(lps513, x511):
    for X, k in ((lps513, 2), (x511, 1)):
        L = rc.build_symm_system(X, k)
        assert rc.verify_unitarity(X, L) < 1e-12


def test_epsilon_signs_genuinely_mixed(x511):
    L = rc.build_symm_system(x511, 1)
    eps = L.epsilons[0]
    assert set(np.unique(eps)) == {-1, 1}


def test_epsilon_signs_change_the_spectrum(x511):
    """Dropping the sign twist produces a genuinely different system."""
    L = rc.build_symm_system(x511, 1)
    S = rc.Harmonics(x511, L).star_matrix(1, 0)
    eigs = rc.spectrum(S)
    stripped = rc.build_symm_system(x511, 1)
    flip = (stripped.epsilons[0] < 0)[:, None, None]
    tr = stripped.transitions[0][:]
    stripped.transitions[0] = np.where(flip, -tr, tr)
    eigs0 = rc.spectrum(rc.Harmonics(x511, stripped).star_matrix(1, 0))
    assert not np.allclose(eigs, eigs0, atol=1e-8)


def test_section_perturbation_invariance(x511):
    L = rc.build_symm_system(x511, 1)
    flip = np.zeros(x511.arith.group.order, dtype=bool)
    flip[::7] = True
    L2 = rc.build_symm_system(x511, 1, perturb_section=flip)
    changed = any(not np.array_equal(a[:], b[:])
                  for a, b in zip(L.transitions, L2.transitions))
    assert changed
    e1 = rc.spectrum(rc.Harmonics(x511, L).star_matrix(1, 0))
    e2 = rc.spectrum(rc.Harmonics(x511, L2).star_matrix(1, 0))
    assert np.abs(e1 - e2).max() < 1e-8


def test_section_perturbation_noop_for_trivial_kernel(lps513):
    flip = np.ones(lps513.arith.group.order, dtype=bool)
    L = rc.build_symm_system(lps513, 2)
    L2 = rc.build_symm_system(lps513, 2, perturb_section=flip)
    assert all(np.array_equal(a[:], b[:]) for a, b in zip(L.transitions, L2.transitions))


def scalar_symm_system(X, k, flip=None):
    """Reference weight-k transitions and signs: one scalar group product
    per edge, opposite edges filled one by one."""
    ar = X.arith
    G, gens = ar.group, ar.gens
    coarse, fine = TupleGroup(G), TupleGroup(G, fine=True)
    lift = G.section.tolist()
    if flip is not None and G.kernel_order == 2:
        lift = [a if f else s for f, a, s in zip(flip, G.alt_section().tolist(), lift)]
    trans, signs = [], []
    for j in range(1, X.g + 1):
        rj = gens.regularities[j - 1]
        tr = np.empty((X.tables[1 << (j - 1)].n, k + 1, k + 1), dtype=np.complex128)
        eps = np.empty(len(tr), dtype=np.int8)
        for v, (h, _) in enumerate(vertex_keys(ar)):
            for i in range(rj):
                h_top = coarse.mul(h, gens.images[j - 1][i])
                plus = fine.mul(lift[h], gens.images_fine[j - 1][i])
                e = 1 if plus == lift[h_top] else -1
                eps[v * rj + i] = e
                tr[v * rj + i] = (e ** k) * symm_rep(gens.gens[j - 1][i].conjugate(), k)
        inv = X.tables[1 << (j - 1)].inv[j]
        for e in range(len(inv)):
            if e < inv[e]:
                tr[inv[e]] = tr[e].conj().T
        trans.append(tr)
        signs.append(eps)
    return trans, signs


@pytest.mark.parametrize("fixture,k", [("x511", 1), ("x511", 2), ("lps513", 2),
                                       ("cover513", 2), ("x511", 3), ("cover13373", 1)])
def test_symm_system_matches_scalar_reference(request, fixture, k):
    X = request.getfixturevalue(fixture)
    flip = np.zeros(X.arith.group.order, dtype=bool)
    flip[::5] = True
    for perturb in (None, flip):
        L = rc.build_symm_system(X, k, perturb_section=perturb)
        trans, signs = scalar_symm_system(X, k, perturb)
        assert [t[:].tobytes() for t in L.transitions] == [t.tobytes() for t in trans]
        assert [e.tolist() for e in L.epsilons] == [e.tolist() for e in signs]


def test_flatness_on_square_cover(cover513):
    L = rc.build_symm_system(cover513, 2)
    fl = rc.verify_flatness(cover513, L)
    assert fl.max_residual < 1e-12
    assert fl.n_squares == 4032
    assert rc.verify_unitarity(cover513, L) < 1e-12


def test_flatness_violation_detected():
    X = rc.box_complex(2)
    L = rc.trivial_system(X)
    L.transitions[0] = L.transitions[0][:]  # explicit, one matrix per edge
    L.transitions[0][0] = -L.transitions[0][0]  # negate one transition
    fl = rc.verify_flatness(X, L)
    assert fl.witness is not None
    assert abs(fl.max_residual - 2.0) < 1e-12


def _flatness_by_full_svd(X, L):
    """Reference: the spectral norm of every square's defect, then the
    first maximum, the last direction pair winning a tie."""
    worst, witness = 0.0, None
    for mask in X.masks_of_dim(2):
        j, jp = dirs_of(mask)
        t = X.tables[mask]
        T = L.transitions
        diff = (np.einsum("nab,nbc->nac", T[jp - 1][t.top[j][:]], T[j - 1][X.edge_vector(mask, j)])
                - np.einsum("nab,nbc->nac", T[j - 1][t.top[jp][:]], T[jp - 1][X.edge_vector(mask, jp)]))
        norms = np.linalg.svd(diff, compute_uv=False)[:, 0]
        idx = int(np.argmax(norms))
        if norms[idx] >= worst:
            worst, witness = float(norms[idx]), (mask, idx)
    return worst, witness


def test_flatness_screen_matches_full_svd(cover513):
    """The Frobenius screen keeps the value and the witness of the SVD of
    every square: on a flat weight-2 system, with one transition and with
    many transitions perturbed, and with exact zero and tied defects."""
    L = rc.build_symm_system(cover513, 2)
    cases = [(cover513, L)]
    rng = np.random.default_rng(3)
    for count, scale in ((1, 1e-3), (40, 1e-6)):
        M = rc.build_symm_system(cover513, 2)
        for j in (0, 1):
            M.transitions[j] = M.transitions[j][:]
            pick = rng.choice(len(M.transitions[j]), count, replace=False)
            M.transitions[j][pick] += scale * rng.standard_normal(M.transitions[j][pick].shape)
        cases.append((cover513, M))
    box = rc.box_complex(2)
    broken = rc.trivial_system(box)
    broken.transitions[0] = broken.transitions[0][:]  # explicit, one matrix per edge
    broken.transitions[0][0] *= -1
    cases += [(box, rc.trivial_system(box)), (box, broken)]
    for X, M in cases:
        fl = rc.verify_flatness(X, M)
        assert (fl.max_residual, fl.witness) == _flatness_by_full_svd(X, M)
    assert rc.verify_flatness(*cases[1]).max_residual > 1e-5


def test_flatness_and_unitarity_run_in_bounded_memory():
    """Both checks gather the squares and edges in chunks of about 2^14
    matrix entries: on [5,13]@11 with k = 2 (110880 oriented squares) their
    peaks stay below 8 MB."""
    X = rc.build_complex([5, 13], 11)
    L = rc.build_symm_system(X, 2)
    for check in (rc.verify_flatness, rc.verify_unitarity):
        tracemalloc.start()
        try:
            check(X, L)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, (check.__name__, peak)


def test_flatness_witness_in_the_last_partial_chunk():
    """On C12 x C10 with the trivial rank-8 system, chunks hold 256 of the
    480 oriented squares, and the squares with the last direction-1 edge
    (e1, v2), e1 the last oriented edge of C12, are among the last 20.
    Negated, its transition puts a defect of exactly 2 on each of them: the
    check finds it in the last, partial chunk, with the witness at the first
    of them, as the unchunked reference does."""
    X, mask = rc.product(rc.cycle_complex(12), rc.cycle_complex(10)), 0b11
    t = X.tables[mask]
    L = rc.trivial_system(X, 8)
    assert [c[0] for c in chunks(t.n, L.fiber_dim)] == [0, 256] and t.n == 480
    edge = X.tables[1].n - 1
    with_edge = np.flatnonzero((X.edge_vector(mask, 1) == edge) | (t.top[2][:] == edge))
    assert len(with_edge) == 4 and with_edge.min() >= 460
    L.transitions[0] = L.transitions[0][:]  # explicit, one matrix per edge
    L.transitions[0][edge] *= -1
    fl = rc.verify_flatness(X, L)
    assert (fl.max_residual, fl.witness) == (2.0, (mask, int(with_edge.min())))
    assert (fl.max_residual, fl.witness) == _flatness_by_full_svd(X, L)


def test_odd_weight_flatness_needs_epsilon():
    """On a two-direction complex with a genuine section kernel, the sign
    twist is exactly what makes the odd-weight system flat."""
    X = rc.build_complex([5, 17], 19)
    assert X.arith.group.kernel_order == 2
    L = rc.build_symm_system(X, 1)
    assert rc.verify_flatness(X, L).max_residual < 1e-12
    for j in (0, 1):
        flip = (L.epsilons[j] < 0)[:, None, None]
        tr = L.transitions[j][:]
        L.transitions[j] = np.where(flip, -tr, tr)
    broken = rc.verify_flatness(X, L)
    assert broken.max_residual > 1.9


def test_external_product_trivial():
    A, B = rc.cycle_complex(4), rc.cycle_complex(6)
    X, L = rc.external_product(A, rc.trivial_system(A, 2), B, rc.trivial_system(B, 3))
    assert L.fiber_dim == 6
    assert rc.verify_unitarity(X, L) == 0.0
    assert rc.verify_flatness(X, L).max_residual == 0.0


def test_external_product_with_unit_fiber_keeps_transitions():
    A = rc.build_complex([5], 3)
    LA = rc.build_symm_system(A, 2)
    B = rc.cycle_complex(4)
    X, L = rc.external_product(A, LA, B, rc.trivial_system(B, 1))
    assert L.fiber_dim == 3
    # direction-1 edge (e1, v2): transition equals the factor transition
    n2 = B.n_vertices
    for e1 in range(0, A.tables[1].n, 17):
        for v2 in range(n2):
            assert np.allclose(L.transitions[0][e1 * n2 + v2], LA.transitions[0][e1])
    fl = rc.verify_flatness(X, L)
    assert fl.max_residual < 1e-12
    assert rc.verify_axioms(X).passed


def test_external_product_matches_per_edge_kron():
    """Each direction of a product system is the factor transition of the
    edge tensored with the other fiber's identity, edge by edge, and keeps
    the result_type of both systems: a trivial direction beside a complex
    weight-2 factor is complex too."""
    A = rc.build_complex([5], 3)
    LA, B = rc.build_symm_system(A, 2), rc.cycle_complex(4)
    LB = rc.trivial_system(B, 2)
    for X1, L1, X2, L2 in ((A, LA, B, LB), (B, LB, A, LA)):
        _, L = rc.external_product(X1, L1, X2, L2)
        m1, m2 = L1.fiber_dim, L2.fiber_dim
        dtype = np.result_type(L1.dtype, L2.dtype)
        reference = [np.array([np.kron(t, np.eye(m2)) for t in t1[:] for _ in range(X2.n_vertices)],
                              dtype=dtype) for t1 in L1.transitions]
        reference += [np.array([np.kron(np.eye(m1), t) for _ in range(X1.n_vertices) for t in t2[:]],
                               dtype=dtype) for t2 in L2.transitions]
        assert len(L.transitions) == len(reference) and L.dtype == dtype == np.complex128
        for got, want in zip(L.transitions, reference):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)


def test_external_product_of_arithmetic_systems_flat():
    A = rc.build_complex([5], 3)
    B = rc.build_complex([13], 3)
    X, L = rc.external_product(A, rc.build_symm_system(A, 2),
                               B, rc.build_symm_system(B, 2))
    assert L.fiber_dim == 9
    assert rc.verify_flatness(X, L).max_residual < 1e-12
    assert rc.verify_unitarity(X, L) < 1e-12


def test_external_product_of_certified_systems_is_certified():
    A = rc.build_complex([5], 3)
    LA = rc.build_symm_system(A, 2)
    B = rc.cycle_complex(4)
    assert rc.spectrum_report(A, LA).overall_ramanujan
    assert rc.spectrum_report(B, None).overall_ramanujan
    X, L = rc.external_product(A, LA, B, rc.trivial_system(B))
    assert rc.spectrum_report(X, L).overall_ramanujan
