"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (run with -s to see them).  The expensive
eigensolves are shared through module fixtures.
"""

import functools
import math
import time

import numpy as np
import pytest

import ramcube as rc
from dense_reference import total_dstar_by_sum
from ramcube import Harmonics
from ramcube.complexes import mask_of

TOL = 1e-8
MAT_TOL = 1e-12
HODGE_TOL = 1e-10
PSD_SLACK = 1e-10


def criterion(n, desc):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            t0 = time.time()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[criterion {n}] FAIL: {desc}")
                raise
            print(f"\n[criterion {n}] PASS: {desc} ({time.time() - t0:.1f}s)")
        return run
    return wrap


@pytest.fixture(scope="module")
def lps_spectra(lps513):
    return rc.spectrum_report(lps513, tol=TOL)


@pytest.fixture(scope="module")
def lps_k2(lps513):
    return rc.build_symm_system(lps513, 2)


@pytest.fixture(scope="module")
def lps_k2_eigs(lps513, lps_k2):
    # the block route: 13 Fourier blocks of dimension 504, each solved
    # through its bipartite parity block
    return rc.spectrum_report(lps513, lps_k2).entries[0].eigenvalues


@pytest.fixture(scope="module")
def cover_spectra(cover513):
    return rc.spectrum_report(cover513, tol=TOL)


@pytest.fixture(scope="module")
def x511_k1(x511):
    return rc.build_symm_system(x511, 1)


@criterion(1, "LPS reproduction: 2184-vertex bipartite 6-regular graph, "
              "nontrivial spectrum within 2*sqrt(5)")
def test_criterion_1_lps_reproduction(lps513, lps_spectra):
    X = lps513
    assert X.g == 1 and X.regularities == (6,)
    assert X.n_vertices == 2184
    _, top, bot = X.link_edges(1, 0)
    n_comp, _ = rc.connected_components(X.n_vertices, top, bot)
    assert n_comp == 1
    entry = lps_spectra.entries[0]
    v = entry.verdict
    assert v.trivial_plus == 1          # connected
    assert v.trivial_minus == 1         # bipartite: -6 present
    nontrivial = [lam for lam in entry.eigenvalues
                  if abs(abs(lam) - 6) > TOL * 6]
    assert max(abs(lam) for lam in nontrivial) <= 2 * math.sqrt(5) + TOL
    assert v.is_ramanujan


@criterion(2, "(6,14)-regular square complex at the auto-searched level: "
              "axioms, parities, all four (j, I) Ramanujan")
def test_criterion_2_square_complex(cover513, cover_spectra):
    assert rc.find_valid_level([5, 13])[0] == 3
    X = cover513
    assert X.regularities == (6, 14)
    report = rc.verify_axioms(X)
    assert report.passed and all(report.checked.values())
    ok, _ = rc.verify_parities(X)
    assert ok
    assert len(cover_spectra.entries) == 4
    seen = {(e.j, e.dirs) for e in cover_spectra.entries}
    assert seen == {(1, ()), (2, ()), (1, (2,)), (2, (1,))}
    for e in cover_spectra.entries:
        assert e.verdict.is_ramanujan, (e.j, e.dirs, e.verdict.mu)


@criterion(3, "weight-2 system on the LPS graph: flat, unitary, Ramanujan, "
              "spectra invariant under section perturbation")
def test_criterion_3_local_system(lps513, lps_k2, lps_k2_eigs, x511, x511_k1):
    X, L = lps513, lps_k2
    assert rc.verify_flatness(X, L).max_residual < MAT_TOL
    assert rc.verify_unitarity(X, L) < MAT_TOL
    v = rc.classify_ramanujan(lps_k2_eigs, 6, TOL)
    assert v.is_ramanujan, v.mu

    # section perturbation: with a trivial kernel the lift is unique and the
    # rebuilt system is identical
    flip = np.ones(X.arith.group.order, dtype=bool)
    L2 = rc.build_symm_system(X, 2, perturb_section=flip)
    assert all(np.array_equal(a[:], b[:]) for a, b in zip(L.transitions, L2.transitions))

    # order-2 kernel: the perturbed section changes the transitions but not
    # the spectrum (the two systems are isomorphic)
    Xo, Lo = x511, x511_k1
    flip = np.zeros(Xo.arith.group.order, dtype=bool)
    flip[::3] = True
    Lp = rc.build_symm_system(Xo, 1, perturb_section=flip)
    assert any(not np.array_equal(a[:], b[:]) for a, b in zip(Lo.transitions, Lp.transitions))
    e1 = rc.spectrum(Harmonics(Xo, Lo).star_matrix(1, 0))
    e2 = rc.spectrum(Harmonics(Xo, Lp).star_matrix(1, 0))
    assert np.abs(e1 - e2).max() <= TOL
    assert rc.classify_ramanujan(e1, 6, TOL).is_ramanujan


@criterion(4, "cohomology of the square complex concentrates in degrees 0 "
              "and 2, with the Euler characteristic from cube counts")
def test_criterion_4_cohomology(cover513):
    X = cover513
    counts = X.unoriented_counts()
    euler = sum((-1) ** bin(m).count("1") * c for m, c in counts.items())
    assert euler == 576
    dims = Harmonics(X).cohomology_dims(rank_tol=TOL)
    assert dims[0] == 1
    assert dims[1] == 0
    assert dims[2] == euler - 1


@criterion(5, "girth of the LPS graph meets the level bound")
def test_criterion_5_girth(lps513):
    bound = math.ceil(2 * math.log(13 ** 2 / 4, 5))
    assert bound == 5
    res = rc.girth(lps513, max_depth=12)
    assert res.girth is not None      # completed within the depth cap
    assert res.bound == bound
    assert res.girth >= bound
    assert res.satisfied


def _identity_suite(X, L, label, star_cap=8000):
    """Operator identities for one built instance (criterion 6)."""
    H = Harmonics(X, L)
    g = X.g
    is_complex = np.issubdtype(H.dtype, np.complexfloating)
    weight = 2 if is_complex else 1
    rng = np.random.default_rng(0)

    # boundary commutation and vanishing squares
    for i in range(g):
        D_hi = H.total_d(i + 1) if i + 1 < g else None
        D = H.total_d(i)
        if D_hi is not None:
            assert abs(D_hi @ D).max() < 1e-12, label
        Ds = total_dstar_by_sum(H, i)
        assert abs(Ds - D.conj().T).max() < MAT_TOL, label
    for mask in X.masks():
        for j in range(1, g + 1):
            for jp in range(j + 1, g + 1):
                bj, bjp = 1 << (j - 1), 1 << (jp - 1)
                if mask & (bj | bjp):
                    continue
                lhs = H.partial_boundary(j, mask | bjp) @ H.partial_boundary(jp, mask)
                rhs = H.partial_boundary(jp, mask | bj) @ H.partial_boundary(j, mask)
                assert abs(lhs - rhs).max() < 1e-12, label

    # star identities and spectra ranges
    comps = rc.irreducibility_report(X) if L is None else None
    for mask in X.masks():
        for j in range(1, g + 1):
            bit = 1 << (j - 1)
            if mask & bit or (mask | bit) not in X.tables:
                continue
            r = X.r(j)
            dim = H.dim(mask)
            if dim * weight > star_cap:
                continue
            S = H.star_operator(j, mask)
            box = H.laplacian(j, mask)
            assert np.abs(box.toarray() - (r * np.eye(dim) - S.toarray())).max() < MAT_TOL, label
            # the library's block route, from B with parities; test_harmonics
            # checks it against the dense eigensolve on smaller instances
            parity = H.star_parity(j, mask)
            s_eigs = (H.block_spectrum(S, mask) if parity is None
                      else H.block_spectrum(H._cross(j, mask), mask, parity))
            assert np.abs(s_eigs).max() <= r + PSD_SLACK, label
            b_eigs = H.block_spectrum(box, mask)
            assert b_eigs.min() >= -PSD_SLACK, label
            assert b_eigs.max() <= 2 * r + PSD_SLACK, label
            if comps is not None:
                v = rc.classify_ramanujan(s_eigs, r, TOL)
                assert v.trivial_plus == comps[(j, tuple(
                    d for d in range(1, g + 1) if mask & (1 << (d - 1))))], label
            up_dim = H.dim(mask | bit)
            if up_dim * weight <= star_cap:
                ok, info = H.eigenspace_transfer_check(j, mask, TOL)
                assert ok, (label, info)

    # Hodge projection at every level
    for i in range(g + 1):
        n = H.level_dim(i)
        c = rng.normal(size=n)
        if is_complex:
            c = c + 1j * rng.normal(size=n)
        h, pd, pds = H.hodge_project(i, c)
        scale = np.linalg.norm(c)
        assert np.linalg.norm(h + pd + pds - c) <= HODGE_TOL * scale, label
        for a, b in ((h, pd), (h, pds), (pd, pds)):
            assert abs(np.vdot(a, b)) <= HODGE_TOL * scale ** 2, label


@criterion(6, "operator identity suite on every built instance")
def test_criterion_6_operator_identities(lps513, cover513, x511, lps_k2, x511_k1,
                                         lps_k2_eigs):
    _identity_suite(lps513, None, "lps trivial", star_cap=14000)
    _identity_suite(cover513, None, "square cover trivial")
    _identity_suite(cover513, rc.build_symm_system(cover513, 2), "square cover k=2")
    _identity_suite(x511, x511_k1, "(5,11) k=1")
    # the weight-2 system on the LPS graph: its star spectrum was computed
    # for criterion 3; check the ranges and the Laplacian identity here
    H = Harmonics(lps513, lps_k2)
    S = H.star_matrix(1, 0)
    box = H.laplacian(1, 0).toarray()
    assert np.abs(box - (6 * np.eye(len(S)) - S)).max() < MAT_TOL
    assert np.abs(lps_k2_eigs).max() <= 6 + PSD_SLACK
    assert abs(total_dstar_by_sum(H, 0) - H.total_d(0).conj().T).max() < MAT_TOL
    rng = np.random.default_rng(1)
    for i in (0, 1):
        n = H.level_dim(i)
        c = rng.normal(size=n) + 1j * rng.normal(size=n)
        h, pd, pds = H.hodge_project(i, c)
        scale = np.linalg.norm(c)
        assert np.linalg.norm(h + pd + pds - c) <= HODGE_TOL * scale
        for a, b in ((h, pd), (h, pds), (pd, pds)):
            assert abs(np.vdot(a, b)) <= HODGE_TOL * scale ** 2


@criterion(7, "eigenvalue trend across growing levels (reported); each "
              "instance within the tree bound")
def test_criterion_7_level_family():
    bound = 2 * math.sqrt(5)
    rows = []
    for n1 in (3, 7, 11):
        X = rc.build_complex([5], n1)
        e = rc.spectrum_report(X, tol=TOL).entries[0]
        rows.append((n1, X.n_vertices, e.verdict.mu))
        assert e.verdict.mu <= bound + TOL
    print()
    print(f"  level family for primes={{5}} (tree bound {bound:.6f}):")
    for n1, n, mu in rows:
        print(f"    N1={n1:2d}  vertices={n:5d}  mu={mu:.6f}")
