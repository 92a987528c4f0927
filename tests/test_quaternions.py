import itertools
import random

import numpy as np
import pytest

import ramcube as rc
from ramcube import Quaternion
from ramcube.errors import ConstructionError, GeneratorCountError, InvalidModulusError
from ramcube.quaternions import (MAT_IDENTITY, _cyclic_subgroup, _least_code, mat_code, mat_det,
                                 mat_mul)
from tuple_reference import TupleGroup, canonical

ONE = Quaternion(1, 0, 0, 0)
I = Quaternion(0, 1, 0, 0)
J = Quaternion(0, 0, 1, 0)
K = Quaternion(0, 0, 0, 1)


def rand_quat(rng):
    return Quaternion(*(rng.randrange(-9, 10) for _ in range(4)))


def test_norm_values():
    assert Quaternion(1, 2, 0, 0).norm() == 5
    assert ONE.norm() == 1
    assert Quaternion(3, 2, 0, 0).norm() == 13


def test_conjugate():
    assert Quaternion(1, 2, 0, 0).conjugate() == Quaternion(1, -2, 0, 0)
    assert ONE.conjugate() == ONE
    q = Quaternion(3, -2, 2, -2)
    assert q * q.conjugate() == Quaternion(21, 0, 0, 0)


def test_hamilton_relations():
    assert I * J == K
    assert J * K == I
    assert K * I == J
    assert I * I == -ONE and J * J == -ONE and K * K == -ONE


def test_multiply_identity_and_norm_relation():
    q = Quaternion(1, 2, 0, 0)
    assert ONE * q == q and q * ONE == q
    assert q * q.conjugate() == Quaternion(5, 0, 0, 0)


def test_multiplicativity_and_associativity():
    rng = random.Random(7)
    for _ in range(100):
        a, b, c = (rand_quat(rng) for _ in range(3))
        assert (a * b).norm() == a.norm() * b.norm()
        assert (a * b) * c == a * (b * c)


def test_norm_multiplicative_on_all_generator_pairs():
    gens = rc.enumerate_generators(5) + rc.enumerate_generators(13)
    for a in gens:
        for b in gens:
            assert (a * b).norm() == a.norm() * b.norm()


def test_enumerate_generators_p5():
    gens = rc.enumerate_generators(5)
    expected = {(1, 2, 0, 0), (1, -2, 0, 0), (1, 0, 2, 0),
                (1, 0, -2, 0), (1, 0, 0, 2), (1, 0, 0, -2)}
    assert {g.coeffs() for g in gens} == expected
    assert len(gens) == 6


def test_enumerate_generators_p13():
    gens = rc.enumerate_generators(13)
    assert len(gens) == 14
    shapes = {tuple(sorted(map(abs, g.coeffs()))) for g in gens}
    assert shapes == {(0, 0, 2, 3), (1, 2, 2, 2)}
    assert all(g.norm() == 13 for g in gens)
    # closed under the main involution
    assert all(g.conjugate() in gens for g in gens)


def test_enumerate_generators_count_mismatch():
    # 7 = 3 (mod 4): no representation with odd scalar part at all
    with pytest.raises(GeneratorCountError):
        rc.enumerate_generators(7)
    with pytest.raises(ValueError):
        rc.enumerate_generators(9)
    with pytest.raises(ValueError):
        rc.enumerate_generators(2)


def test_solve_residue_examples():
    r13 = rc.solve_residue(13)
    assert (r13.x, r13.y) == (5, 0)
    r3 = rc.solve_residue(3)
    assert (r3.x, r3.y) == (1, 1)
    for n1 in (3, 5, 7, 11, 13, 17, 19, 23):
        r = rc.solve_residue(n1)
        assert (r.x ** 2 + r.y ** 2 + 1) % n1 == 0
    with pytest.raises(InvalidModulusError):
        rc.solve_residue(15)


def test_embed_example():
    res = rc.solve_residue(13)
    m = rc.embed(Quaternion(1, 2, 0, 0), res)
    assert m == (11, 0, 0, 4)
    assert mat_det(m, 13) == 5


def test_embed_defining_relation():
    for n1 in (5, 13, 17):
        res = rc.solve_residue(n1)
        mi = rc.embed(I, res)
        assert mat_mul(mi, mi, n1) == tuple((-x) % n1 for x in MAT_IDENTITY)


def test_embed_is_ring_homomorphism():
    rng = random.Random(1)
    res = rc.solve_residue(13)
    for _ in range(100):
        a, b = rand_quat(rng), rand_quat(rng)
        lhs = rc.embed(a * b, res)
        rhs = mat_mul(rc.embed(a, res), rc.embed(b, res), 13)
        assert lhs == rhs


def test_embed_det_equals_norm_on_generators():
    for p, n1 in ((5, 13), (13, 3), (5, 11)):
        res = rc.solve_residue(n1)
        for q in rc.enumerate_generators(p):
            assert mat_det(rc.embed(q, res), n1) == q.norm() % n1


def test_build_group_orders():
    G = rc.build_group([5, 13], n1=3)
    assert G.order == 24 == G.predicted_order()
    G2 = rc.build_group([5], n1=13)
    assert G2.order == 2184 == G2.predicted_order()
    assert G2.kernel_order == 1
    G3 = rc.build_group([5], n1=11)
    assert G3.order == 660 == G3.predicted_order()
    assert G3.order_fine == 1320
    assert G3.kernel_order == 2
    # all primes squares mod n1 and -1 outside: half the projective size
    G4 = rc.build_group([13], n1=3)
    assert G4.order == 12 == G4.predicted_order()


def test_build_group_rejects_bad_modulus():
    with pytest.raises(InvalidModulusError):
        rc.build_group([5], n1=5)
    with pytest.raises(InvalidModulusError):
        rc.build_group([5], n1=9)


def test_group_table_structure():
    G = rc.build_group([5], n1=11)
    T = TupleGroup(G)
    e = G.identity
    assert T.find(MAT_IDENTITY) == e
    rng = random.Random(3)
    sample = [rng.randrange(G.order) for _ in range(20)]
    for i in sample:
        assert T.mul(e, i) == i == T.mul(i, e)
        assert T.mul(i, T.inv(i)) == e
    for _ in range(50):
        a, b, c = (rng.randrange(G.order) for _ in range(3))
        assert T.mul(T.mul(a, b), c) == T.mul(a, T.mul(b, c))


def test_section_and_quotient():
    for primes, n1 in (([5], 13), ([5], 11)):
        G = rc.build_group(primes, n1=n1)
        coarse, fine = TupleGroup(G), TupleGroup(G, fine=True)

        def project(f):
            return coarse.find(fine.elements[f])

        for i in range(0, G.order, max(1, G.order // 97)):
            assert project(G.section[i]) == i
        alt = G.alt_section()
        for i in range(0, G.order, max(1, G.order // 97)):
            assert project(alt[i]) == i
        if G.kernel_order == 2:
            assert any(a != s for a, s in zip(alt, G.section))
        else:
            assert np.array_equal(alt, G.section)


def test_canonical_representative_is_minimal():
    G = rc.build_group([5], n1=13)
    elements = TupleGroup(G).elements
    rng = random.Random(5)
    for _ in range(30):
        m = elements[rng.randrange(G.order)]
        orbit = [tuple((s * x) % 13 for x in m) for s in G.B]
        assert min(orbit) == m


@pytest.mark.parametrize("n1", [3, 5, 13, 17, 29, 37])
def test_least_code_matches_minimum_over_scalar_multiples(n1):
    """The code decided by the first nonzero entry is the least code over
    all scalar multiples in B and in B', also for matrices with leading
    zero entries and for the zero matrix, from an entry array and from
    build_group's (scalar m00, arrays) form."""
    units = [p % n1 for p in (5, 13, 17) if p % n1][:2]
    B_prime = _cyclic_subgroup(units, n1)
    B = _cyclic_subgroup(units + [n1 - 1], n1)
    rng = np.random.default_rng(n1)
    m = rng.integers(0, n1, size=(4, 500))
    m[rng.random(m.shape) < 0.4] = 0
    m[:, 0] = 0
    m0 = m.copy()
    m0[0] = 0
    for scalars in (B, B_prime):
        for entries, given in ((m, m), (m0, (0, *m0[1:]))):
            brute = np.min([mat_code(s * entries % n1, n1) for s in scalars], axis=0)
            assert np.array_equal(_least_code(given, scalars, n1), brute)


def scan_group(G):
    """Reference enumeration: canonicalize all n1^4 matrices one by one."""
    n1 = G.n1
    coarse, fine = set(), set()
    for m in itertools.product(range(n1), repeat=4):
        if mat_det(m, n1) in G.A:
            coarse.add(canonical(m, G.B, n1))
            fine.add(canonical(m, G.B_prime, n1))
    return sorted(coarse), sorted(fine)


@pytest.mark.parametrize("n1", [3, 7, 11, 13])
@pytest.mark.parametrize("primes", [[5], [5, 17]])
def test_build_group_matches_full_scan(primes, n1):
    G = rc.build_group(primes, n1=n1)
    coarse, fine = scan_group(G)
    assert TupleGroup(G).elements == coarse
    assert TupleGroup(G, fine=True).elements == fine
    assert G.order == G.predicted_order()
    assert np.all(np.diff(G.codes) > 0) and np.all(np.diff(G.codes_fine) > 0)


def test_right_multiplication_matches_mul():
    G = rc.build_group([5], n1=11)
    assert G.kernel_order == 2
    coarse, fine = TupleGroup(G), TupleGroup(G, fine=True)
    rng = random.Random(11)
    for g in [G.identity] + [rng.randrange(G.order) for _ in range(8)]:
        right = G.right_multiplication(g)
        assert right.tolist() == [coarse.mul(h, g) for h in range(G.order)]
    for g in [fine.find(MAT_IDENTITY)] + [rng.randrange(G.order_fine) for _ in range(8)]:
        right = G.right_multiplication(g, fine=True)
        assert right.tolist() == [fine.mul(h, g) for h in range(G.order_fine)]


def test_left_multiplication_matches_mul():
    G = rc.build_group([5], n1=11)
    coarse, fine = TupleGroup(G), TupleGroup(G, fine=True)
    rng = random.Random(12)
    for g in [G.identity] + [rng.randrange(G.order) for _ in range(8)]:
        left = G.left_multiplication(g)
        assert left.tolist() == [coarse.mul(g, h) for h in range(G.order)]
    for g in [fine.find(MAT_IDENTITY)] + [rng.randrange(G.order_fine) for _ in range(8)]:
        left = G.left_multiplication(g, fine=True)
        assert left.tolist() == [fine.mul(g, h) for h in range(G.order_fine)]


def test_lookup_rejects_matrices_outside_the_group():
    G = rc.build_group([5], n1=11)
    assert 2 not in G.A
    for fine in (False, True):
        with pytest.raises(ConstructionError, match="not in the group"):
            G.lookup((1, 0, 0, 2), fine=fine)  # determinant 2
        with pytest.raises(ConstructionError, match="not in the group"):
            G.lookup((1, 1, 1, 1), fine=fine)  # singular
        good = np.array(MAT_IDENTITY)[:, None]
        with pytest.raises(ConstructionError, match="not in the group"):
            G.lookup(np.concatenate([good, np.array([[1], [0], [0], [2]])], axis=1), fine)
        assert G.lookup(good, fine).tolist() == [int(G.lookup(MAT_IDENTITY, fine))]


@pytest.mark.parametrize("n1,kernel", [(11, 2), (13, 1)])
def test_lookup_and_alt_section_match_tuple_reference(n1, kernel):
    """Every matrix with determinant in A, each a scalar multiple of some
    representative, is looked up in both groups; the other lift of each
    coarse element is the fine element projecting to it besides the
    section's."""
    G = rc.build_group([5], n1=n1)
    assert G.kernel_order == kernel
    coarse, fine = TupleGroup(G), TupleGroup(G, fine=True)
    mats = [m for m in itertools.product(range(n1), repeat=4) if mat_det(m, n1) in G.A]
    entries = np.array(mats).T
    assert G.lookup(entries).tolist() == [coarse.find(m) for m in mats]
    assert G.lookup(entries, fine=True).tolist() == [fine.find(m) for m in mats]
    lifts = [[] for _ in range(G.order)]
    for f, m in enumerate(fine.elements):
        lifts[coarse.find(m)].append(f)
    alt = G.alt_section()
    for i, (s, a) in enumerate(zip(G.section.tolist(), alt.tolist())):
        assert s == fine.find(coarse.elements[i])
        assert sorted({s, a}) == lifts[i]
