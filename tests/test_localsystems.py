import numpy as np
import pytest

import ramcube as rc
from ramcube import Quaternion, SymmWeight, symm_rep
from ramcube.errors import CentralConditionError


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


def test_symm_weight():
    w = SymmWeight(2)
    assert w.s == -1.0 and w.fiber_dim == 3
    with pytest.raises(ValueError):
        SymmWeight(-1)


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
    S = rc.star_matrix(x511, L, 1)
    eigs = rc.spectrum(S)
    stripped = rc.build_symm_system(x511, 1)
    flip = (stripped.epsilons[0] < 0)[:, None, None]
    stripped.transitions[0][:] = np.where(flip, -stripped.transitions[0],
                                          stripped.transitions[0])
    eigs0 = rc.spectrum(rc.star_matrix(x511, stripped, 1))
    assert not np.allclose(eigs, eigs0, atol=1e-8)


def test_section_perturbation_invariance(x511):
    L = rc.build_symm_system(x511, 1)
    flip = np.zeros(x511.arith.group.order, dtype=bool)
    flip[::7] = True
    L2 = rc.build_symm_system(x511, 1, perturb_section=flip)
    changed = any(not np.array_equal(a, b)
                  for a, b in zip(L.transitions, L2.transitions))
    assert changed
    e1 = rc.spectrum(rc.star_matrix(x511, L, 1))
    e2 = rc.spectrum(rc.star_matrix(x511, L2, 1))
    assert np.abs(e1 - e2).max() < 1e-8


def test_section_perturbation_noop_for_trivial_kernel(lps513):
    flip = np.ones(lps513.arith.group.order, dtype=bool)
    L = rc.build_symm_system(lps513, 2)
    L2 = rc.build_symm_system(lps513, 2, perturb_section=flip)
    assert all(np.array_equal(a, b) for a, b in zip(L.transitions, L2.transitions))


def scalar_symm_system(X, k, flip=None):
    """Reference weight-k transitions and signs: one scalar group product
    per edge, opposite edges filled one by one."""
    ar = X.arith
    G, gens = ar.group, ar.gens
    lift = list(G.section)
    if flip is not None and G.kernel_order == 2:
        lift = [a if f else s for f, a, s in zip(flip, G.alt_section(), lift)]
    trans, signs = [], []
    for j in range(1, X.g + 1):
        rj = gens.regularities[j - 1]
        tr = np.empty((X.tables[1 << (j - 1)].n, k + 1, k + 1), dtype=np.complex128)
        eps = np.empty(len(tr), dtype=np.int8)
        for v, (h, _) in enumerate(ar.vertex_keys):
            for i in range(rj):
                h_top = G.mul(h, gens.images[j - 1][i])
                plus = G.mul_fine(lift[h], gens.images_fine[j - 1][i])
                e = 1 if plus == lift[h_top] else -1
                eps[v * rj + i] = e
                tr[v * rj + i] = (e ** k) * symm_rep(gens.quaternion(j, i).conjugate(), k)
        inv = X.tables[1 << (j - 1)].inv[j]
        for e in range(len(inv)):
            if e < inv[e]:
                tr[inv[e]] = tr[e].conj().T
        trans.append(tr)
        signs.append(eps)
    return trans, signs


@pytest.mark.parametrize("fixture,k", [("x511", 1), ("x511", 2), ("lps513", 2),
                                       ("cover513", 2)])
def test_symm_system_matches_scalar_reference(request, fixture, k):
    X = request.getfixturevalue(fixture)
    flip = np.zeros(X.arith.group.order, dtype=bool)
    flip[::5] = True
    for perturb in (None, flip):
        L = rc.build_symm_system(X, k, perturb_section=perturb)
        trans, signs = scalar_symm_system(X, k, perturb)
        assert [t.tobytes() for t in L.transitions] == [t.tobytes() for t in trans]
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
    L.transitions[0][0] = -L.transitions[0][0]  # negate one transition
    fl = rc.verify_flatness(X, L)
    assert fl.witness is not None
    assert abs(fl.max_residual - 2.0) < 1e-12


def test_odd_weight_flatness_needs_epsilon():
    """On a two-direction complex with a genuine section kernel, the sign
    twist is exactly what makes the odd-weight system flat."""
    X = rc.build_complex([5, 17], 19)
    assert X.arith.group.kernel_order == 2
    L = rc.build_symm_system(X, 1)
    assert rc.verify_flatness(X, L).max_residual < 1e-12
    for j in (0, 1):
        flip = (L.epsilons[j] < 0)[:, None, None]
        L.transitions[j][:] = np.where(flip, -L.transitions[j], L.transitions[j])
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
