import itertools
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ramcube as rc
from ramcube.arithmetic import GeneratorSystem
from ramcube.complexes import CubeTable, CubicalComplex, dirs_of, link_dot
from ramcube.errors import ConstructionError, InvalidModulusError
from ramcube.quaternions import QUATERNION_ONE
from tuple_reference import TupleGroup, reorder_tables, vertex_keys, word_product


@pytest.fixture(scope="module")
def gens513():
    return GeneratorSystem([5, 13], 3)


@pytest.fixture(scope="module")
def gens51317():
    return GeneratorSystem([5, 13, 17], 3)


def scan_reorder(gens, word, dst_dirs):
    """Reference rewriting: scan every candidate word in the target order."""
    lhs = word_product(gens, word)
    matches = []
    for combo in itertools.product(*(range(len(gens.gens[d - 1])) for d in dst_dirs)):
        rhs = word_product(gens, zip(dst_dirs, combo))
        if rhs == lhs:
            matches.append((combo, 1))
        elif rhs == -lhs:
            matches.append((combo, -1))
    if len(matches) != 1:
        raise ConstructionError(f"{len(matches)} rewritings of {word} into {dst_dirs}")
    return matches[0]


def test_rewrite_identity_for_one_direction():
    gens = GeneratorSystem([5], 13)
    for i in range(6):
        assert gens.reorder(((1, i),), (1,)) == ((i,), 1)


def test_rewrite_all_transposed_pairs(gens513):
    """Each product w2 * w1 equals +-(w1' * w2') for exactly one choice."""
    g5, g13 = gens513.gens[0], gens513.gens[1]
    count = 0
    for a, w2 in enumerate(g13):
        for b, w1 in enumerate(g5):
            indices, unit = gens513.reorder(((2, a), (1, b)), (1, 2))
            lhs = w2 * w1
            rhs = g5[indices[0]] * g13[indices[1]]
            if unit == -1:
                rhs = -rhs
            assert lhs == rhs
            assert lhs.norm() == 65 == rhs.norm()
            count += 1
    assert count == 84


def test_rewrite_units_both_signs(gens513):
    units = set()
    for a in range(14):
        for b in range(6):
            units.add(gens513.reorder(((2, a), (1, b)), (1, 2))[1])
    assert units == {1, -1}


def test_reorder_matches_candidate_scan_on_every_pair(gens513):
    for a, b in itertools.product(range(6), range(14)):
        for word in (((1, a), (2, b)), ((2, b), (1, a))):
            for dst in ((1, 2), (2, 1)):
                assert gens513.reorder(word, dst) == scan_reorder(gens513, word, dst)
    for d, size in ((1, 6), (2, 14)):
        for i in range(size):
            assert gens513.reorder(((d, i),), (d,)) == scan_reorder(gens513, ((d, i),), (d,))


@settings(max_examples=40, deadline=None)
@given(st.permutations((1, 2, 3)), st.permutations((1, 2, 3)),
       st.tuples(st.integers(0, 5), st.integers(0, 13), st.integers(0, 17)),
       st.integers(1, 3))
def test_reorder_matches_candidate_scan_on_three_primes(gens51317, order, dst, indices, length):
    """Words over [5, 13, 17] with one to three distinct directions, in any
    order, rewritten into any order of the same directions."""
    word = tuple((d, indices[d - 1]) for d in order[:length])
    dst = tuple(d for d in dst if d in order[:length])
    assert gens51317.reorder(word, dst) == scan_reorder(gens51317, word, dst)


@pytest.mark.parametrize("fixture,src,dst", [
    ("gens513", (1, 2), (2, 1)), ("gens513", (2, 1), (1, 2)),
    ("gens51317", (1, 2, 3), (3, 1, 2)), ("gens51317", (3, 2, 1), (1, 2, 3))])
def test_batched_reorder_matches_per_word_reorder(request, fixture, src, dst):
    """Ranges rewrite the whole grid of words at once: every entry, unit
    included, is the per-word rewriting and, on a sample, the candidate
    scan's; a fixed index beside a range keeps an axis of length 1."""
    gens = request.getfixturevalue(fixture)
    sizes = [gens.regularities[d - 1] for d in src]
    indices, units = gens.reorder(tuple((d, range(r)) for d, r in zip(src, sizes)), dst)
    assert indices.shape == (len(dst), *sizes) and units.shape == tuple(sizes)
    assert set(units.ravel().tolist()) == {1, -1}
    for k, pos in enumerate(itertools.product(*map(range, sizes))):
        word = tuple(zip(src, pos))
        expected = gens.reorder(word, dst)
        assert (tuple(indices[(slice(None), *pos)].tolist()), units[pos]) == expected
        if k % 97 == 0:
            assert expected == scan_reorder(gens, word, dst)
    part, signs = gens.reorder(((2, 3), (1, range(6))), (1, 2))
    assert part.shape == (2, 1, 6) and signs.shape == (1, 6)
    for a in range(6):
        assert (tuple(part[:, 0, a].tolist()), signs[0, a]) == gens.reorder(((2, 3), (1, a)), (1, 2))


def test_batched_reorder_names_the_first_failing_word(gens513):
    with pytest.raises(ConstructionError, match=r"\(\(1, 0\),\) into order \(2,\): 0 left"):
        gens513.reorder(((1, range(6)),), (2,))
    with pytest.raises(ConstructionError, match=r"\(\(1, 0\), \(2, 0\)\) .*not a sign"):
        gens513.reorder(((1, range(6)), (2, range(14))), (1,))


def check_swap_pair(gens, i, j):
    S, back = gens.swap(i, j), gens.swap(j, i)
    ri, rj = gens.regularities[i - 1], gens.regularities[j - 1]
    assert S.shape == (2, ri, rj) and back.shape == (2, rj, ri)
    for a, b in itertools.product(range(ri), range(rj)):
        (b2, a2), _ = scan_reorder(gens, ((i, a), (j, b)), (j, i))
        assert (S[0, a, b], S[1, a, b]) == (b2, a2)
        assert (back[0, b2, a2], back[1, b2, a2]) == (a, b)


def test_swap_matches_candidate_scan(gens513, gens51317):
    """Every square table entry is the unique rewriting of its two-letter
    word, and the tables of (i, j) and (j, i) invert each other."""
    check_swap_pair(gens513, 1, 2)
    check_swap_pair(gens513, 2, 1)
    check_swap_pair(gens51317, 3, 1)


def test_swap_rejects_a_table_that_is_not_a_bijection(monkeypatch):
    """The reverse table is scattered from the forward one, so two words
    rewritten to the same pair must stop the build, not overwrite a slot."""
    gens = GeneratorSystem([5, 13], 3)
    monkeypatch.setattr(gens, "reorder", lambda word, dst: (np.zeros((2, 6, 14), dtype=np.int64),
                                                            np.ones((6, 14), dtype=np.int64)))
    with pytest.raises(ConstructionError, match="not a bijection"):
        gens.swap(1, 2)


def test_reorder_rejects_a_duplicated_generator(monkeypatch):
    from ramcube import quaternions
    honest = quaternions.enumerate_generators
    monkeypatch.setattr(quaternions, "enumerate_generators",
                        lambda p: honest(p) + honest(p)[:1] if p == 5 else honest(p))
    gens = GeneratorSystem([5, 13], 3)
    assert gens.regularities == (7, 14)
    word = ((1, 0), (2, 0))  # its direction-1 left divisor is generator 0
    with pytest.raises(ConstructionError, match="2 left divisors"):
        gens.reorder(word, (1, 2))
    with pytest.raises(ConstructionError):
        scan_reorder(gens, word, (1, 2))


def test_reorder_rejects_words_without_a_factorization(gens513):
    with pytest.raises(ConstructionError, match="0 left divisors"):
        gens513.reorder(((1, 0),), (2,))
    with pytest.raises(ConstructionError, match="not a sign"):
        gens513.reorder(((1, 0), (2, 0)), (1,))


def scalar_closure(gens):
    """Reference vertex numbering and steps: queue breadth-first search
    with scalar group products."""
    G = TupleGroup(gens.group)
    start = (gens.group.identity, (0,) * gens.g)
    index = {start: 0}
    queue = deque([start])
    while queue:
        h, c = queue.popleft()
        for j in range(gens.g):
            for img in gens.images[j]:
                v = (G.mul(h, img), c[:j] + (1 - c[j],) + c[j + 1:])
                if v not in index:
                    index[v] = len(index)
                    queue.append(v)
    keys = list(index)
    vstep = [[[index[(G.mul(h, img), c[:j] + (1 - c[j],) + c[j + 1:])] for h, c in keys]
              for img in gens.images[j]]
             for j in range(gens.g)]
    return keys, vstep


@pytest.mark.parametrize("fixture", ["cover513", "lps513", "x511"])
def test_vertex_closure_matches_scalar_reference(request, fixture):
    X = request.getfixturevalue(fixture)
    keys, vstep = scalar_closure(X.arith.gens)
    assert vertex_keys(X.arith) == keys
    assert [[v.tolist() for v in col] for col in X.arith.vstep] == vstep
    assert X.parities.tolist() == [list(c) for _, c in keys]


@pytest.fixture(scope="module")
def x51317():
    return rc.build_complex([5, 13, 17], 3)


@pytest.fixture(scope="module")
def x1713():
    return rc.build_complex([17], 13)


@pytest.fixture(scope="module")
def x513177():
    return rc.build_complex([5, 13, 17], 7)


@pytest.mark.parametrize("fixture", ["x511", "cover513", "cover13373", "x51317", "x5137",
                                     "x1713", "x513177"])
def test_cube_tables_match_word_rewriting(request, fixture):
    """Tables gathered from the square tables equal those of rewriting
    the generator words of every index tuple with a general reorder."""
    X = request.getfixturevalue(fixture)
    ref = reorder_tables(X.arith, X.n_vertices)
    assert sorted(ref) == [m for m in X.masks() if m]
    for mask, maps in ref.items():
        t = X.tables[mask]
        for got, want in zip((t.bot, t.top, t.inv), maps):
            assert got.keys() == want.keys()
            for j in want:
                assert got[j][:].dtype == want[j].dtype
                assert np.array_equal(got[j][:], want[j])


def test_complex_and_system_hold_only_factors():
    """After the build, [5,13,17]@7 and its weight-2 system hold under 2 MB
    (materialised, their cube maps alone would take 9 int64 per oriented
    cube, 2.68M of them): a table keeps T-sized tuple parts and leading
    letters and shares the vertex steps, a system direction r_j matrices."""
    build, symm = rc.build_complex, rc.build_symm_system  # imported before tracing
    tracemalloc.start()
    try:
        X = build([5, 13, 17], 7)
        L = symm(X, 2)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sum(t.n for t in X.tables.values()) == 2681280 and L.fiber_dim == 3
    assert held < 2 * 2**20


def _corrupt(X, rng):
    """One random single-entry change of a factor of X that changes the
    materialised tables: a vertex step, a tuple part or a leading letter.
    Returns the undo."""
    ar = X.arith
    while True:
        mask = int(rng.integers(1, 1 << X.g))
        t, j = X.tables[mask], int(rng.choice(dirs_of(mask)))
        kind = rng.integers(4)
        if kind == 0:
            a, bound = ar.vstep[j - 1], X.n_vertices
            pos = (int(rng.integers(a.shape[0])), int(rng.integers(a.shape[1])))
        else:
            f = (t.top, t.bot, t.inv)[kind - 1][j]
            a, bound = (f.part, f.size) if kind < 3 or rng.random() < 0.5 else (f.lead, X.r(j))
            pos = int(rng.integers(len(a)))
        old, new = a[pos], int(rng.integers(bound))
        before = [m[:] for t in X.tables.values() for d in (t.bot, t.top, t.inv) for m in d.values()]
        a[pos] = new
        after = [m[:] for t in X.tables.values() for d in (t.bot, t.top, t.inv) for m in d.values()]
        if any(not np.array_equal(x, y) for x, y in zip(before, after)):
            return lambda: a.__setitem__(pos, old)
        a[pos] = old


def _explicit(X):
    """A copy of X whose tables hold every map as an array (T = 0), which
    verify_axioms checks on every cube."""
    tables = {mask: CubeTable(t.n, *({j: f[:] for j, f in maps.items()}
                                     for maps in (t.bot, t.top, t.inv)))
              for mask, t in X.tables.items()}
    return CubicalComplex(X.g, X.regularities, tables, X.parities)


def test_factor_corruptions_fail_both_checks():
    """100 random single-entry corruptions of the factors each fail
    verify_axioms on the factors, as the build runs it, and on an explicit
    copy, where it checks every cube; both pass on the honest factors.  A
    corrupted vertex step also fails verify_parities."""
    X = rc.build_complex([5, 13], 3)
    assert rc.verify_axioms(X).passed and rc.verify_axioms(_explicit(X)).passed
    rng = np.random.default_rng(0)
    for _ in range(100):
        undo = _corrupt(X, rng)
        try:
            report = rc.verify_axioms(X)
            assert not report.passed
            assert not rc.verify_axioms(_explicit(X)).passed
            assert rc.verify_parities(X)[0] == (report.failures[0].axiom != 0)
        finally:
            undo()
    assert rc.verify_axioms(X).passed and rc.verify_parities(X)[0]


def test_public_checks_verify_vertex_steps_changed_after_the_build():
    """verify_axioms and verify_parities check the vertex steps of a built
    complex themselves, with the edge v*r_j + b of the wrong step as
    witness; a table with an explicit map is checked on every cube."""
    X = rc.build_complex([5, 13], 3)
    step = X.arith.vstep[1]
    step[[3, 4], 7] = step[[4, 3], 7]
    report = rc.verify_axioms(X)
    assert not report.passed
    assert (report.failures[0].axiom, report.failures[0].mask) == (0, 2)
    assert report.failures[0].index == 7 * 14 + 3
    assert rc.verify_parities(X) == (False, (2, 7 * 14 + 3))
    step[[3, 4], 7] = step[[4, 3], 7]
    assert rc.verify_axioms(X).passed and rc.verify_parities(X)[0]
    t = X.tables[3]
    t.top[1] = t.top[1][:]
    t.top[1][5] = t.top[1][6]
    assert not rc.verify_axioms(X).passed


def test_vertex_labels_are_formed_on_first_read(monkeypatch):
    """Building, extracting a vertex link and the girth search form no
    labels; the first read forms them once, and the DOT of a vertex link
    names its vertices as X's."""
    from ramcube import arithmetic
    calls = []
    honest = arithmetic._vertex_labels
    monkeypatch.setattr(arithmetic, "_vertex_labels", lambda ar: calls.append(1) or honest(ar))
    X = rc.build_complex([5, 13], 3)
    X.link_edges(1, 0)
    rc.girth(X)
    assert calls == []
    labels = X.vertex_labels
    assert calls == [1] and X.vertex_labels is labels and len(labels) == X.n_vertices
    assert labels[0] == "1,0,0,1|00"
    names = [f'  v{v} [label="{label}"];' for v, label in enumerate(labels)]
    assert link_dot(X, 1, 0).splitlines()[1:1 + len(labels)] == names
    assert link_dot(X, 1, 0b10).splitlines()[1] == '  v0 [label="0"];'
    assert calls == [1]


def test_generator_system_validation():
    with pytest.raises(ConstructionError):
        GeneratorSystem([5, 5], 3)
    with pytest.raises(InvalidModulusError):
        GeneratorSystem([5], 5)
    gens = GeneratorSystem([5], 13)
    # involution pairing is an involution without fixed points here
    iota = gens.iota[0]
    assert all(iota[iota[i]] == i for i in range(6))
    assert all(iota[i] != i for i in range(6))


@pytest.mark.parametrize("p", [5, 13, 17, 29, 37])
def test_iota_is_the_conjugate_involution(p):
    """iota points each generator at its conjugate, found by a scan of the
    list, and is an involution."""
    system = GeneratorSystem([p], 3)
    gens, iota = system.gens[0], system.iota[0]
    assert iota == [next(s for s, r in enumerate(gens) if r == q.conjugate()) for q in gens]
    assert [iota[s] for s in iota] == list(range(p + 1))


def test_lps_complex_counts(lps513):
    X = lps513
    assert X.g == 1 and X.regularities == (6,)
    assert X.n_vertices == 2184
    assert X.unoriented_counts()[1] == 6552
    assert X.arith.cover_index == 1  # the group itself is already graded
    # every vertex lies on exactly r_j edges in each direction
    t = X.tables[1]
    assert np.all(np.bincount(t.bot[1][:], minlength=2184) == 6)


def test_cover_complex_counts(cover513):
    X = cover513
    assert X.regularities == (6, 14)
    assert X.arith.group.order == 24
    assert X.arith.cover_index == 2
    assert X.n_vertices == 48
    assert X.unoriented_counts() == {0: 48, 1: 144, 2: 336, 3: 1008}


def test_square_commutation_consistency(cover513):
    """Stepping bottom-then-bottom along either direction order reaches the
    same vertex (the rewriting unit is invisible in the vertex group)."""
    X = cover513
    gens = X.arith.gens
    vstep = X.arith.vstep
    for i1 in range(6):
        for i2 in range(14):
            (a, b), _ = gens.reorder(((1, i1), (2, i2)), (1, 2))
            # w(1,i1) w(2,i2) = u * w(1,a) w(2,b): same endpoint from every vertex
            via_given = vstep[1][i2][vstep[0][i1]]
            via_rewritten = vstep[1][b][vstep[0][a]]
            assert np.array_equal(via_given, via_rewritten)


def test_involution_is_involution(cover513):
    X = cover513
    for mask in X.masks():
        for j, inv in X.tables[mask].inv.items():
            assert np.all(inv[inv[:]] == np.arange(len(inv)))


def test_irreducibility_reports(lps513, cover513):
    assert rc.irreducibility_report(lps513) == {(1, ()): 1}
    rep = rc.irreducibility_report(cover513)
    # pure single-direction links split along the other parity; mixed links connect
    assert rep == {(1, ()): 2, (2, ()): 2, (1, (2,)): 1, (2, (1,)): 1}


def test_irreducibility_negative_control():
    two = rc.disjoint_union(rc.cycle_complex(4), rc.cycle_complex(4))
    _, top, bot = two.link_edges(1, 0)
    count, _ = rc.connected_components(two.n_vertices, top, bot)
    assert count == 2
    assert rc.irreducibility_report(two) == {(1, ()): 2}


def test_girth_lps(lps513):
    res = rc.girth(lps513, max_depth=12)
    assert res.girth == 8
    assert res.bound == 5
    assert res.satisfied
    assert res.girth % 2 == 0  # bipartite skeleton forces even girth


def test_girth_bound_value():
    assert rc.girth_bound([5], 13) == 5


def test_girth_lower_bound_only(lps513):
    res = rc.girth(lps513, max_depth=1)
    assert res.girth is None
    assert res.lower_bound == 3
    assert not res.satisfied


def test_girth_requires_arithmetic_complex():
    with pytest.raises(ConstructionError):
        rc.girth(rc.cycle_complex(4))


def test_girth_on_square_cover(cover513):
    # generator images collide modulo 3, so doubled edges close 2-cycles
    res = rc.girth(cover513, max_depth=4)
    assert res.girth == 2
    assert res.satisfied  # bound degenerates to 1 at this shallow level


def test_girth_commutes_steps_past_higher_directions():
    """Girth 6 at [5,13]@19: the cover states there mix both directions, so
    the value rests on commuting direction-1 steps past direction-2 letters
    with the right square table."""
    res = rc.girth(rc.build_complex([5, 13], 19))
    assert (res.girth, res.bound) == (6, 4)


def test_find_valid_level():
    assert rc.find_valid_level([5, 13])[0] == 3
    assert rc.find_valid_level([5])[0] == 3


def test_find_valid_level_retries_only_rejected_levels(monkeypatch):
    from ramcube import arithmetic
    with pytest.raises(rc.GeneratorCountError):
        rc.find_valid_level([7])
    tried = []

    def shallow_below_11(primes, n1):
        tried.append(n1)
        if n1 < 11:
            raise rc.LevelRejectedError(f"level n1={n1} rejected")
        return n1

    monkeypatch.setattr(arithmetic, "build_complex", shallow_below_11)
    assert rc.find_valid_level([5])[0] == 11
    assert tried == [3, 7, 11]

    def broken(primes, n1):
        raise ConstructionError("not a level rejection")

    monkeypatch.setattr(arithmetic, "build_complex", broken)
    with pytest.raises(ConstructionError, match="not a level rejection"):
        rc.find_valid_level([5])


def test_build_rejects_dividing_level():
    with pytest.raises(InvalidModulusError):
        rc.build_complex([5], 5)


def test_vertex_group_closure(x511):
    """|vertices| = group order times the parity-cover index."""
    X = x511
    assert X.arith.group.order == 660
    assert X.arith.cover_index == 2
    assert X.n_vertices == 1320
    # identity-word length parity grading matches the stored parities
    gens = X.arith.gens
    img = gens.images[0]
    G = X.arith.group
    idx = {key: v for v, key in enumerate(vertex_keys(X.arith))}
    h = TupleGroup(G).mul(G.identity, img[0])
    assert idx[(h, (1,))] == X.tables[1].top[1][0 * 6 + 0]


def test_word_product_helper(gens513):
    w = word_product(gens513, ((1, 0), (2, 3)))
    assert w == gens513.gens[0][0] * gens513.gens[1][3]
    assert word_product(gens513, ()) == QUATERNION_ONE


def test_builder_rejects_on_axiom_failure(monkeypatch):
    """The reject path names the failed axiom (it never fires for honest
    levels, so the failure is injected)."""
    from ramcube import arithmetic
    from ramcube.complexes import AxiomFailure, AxiomReport

    def broken(X):
        return AxiomReport(False, [AxiomFailure(3, 1, 0, "injected")], {3: False})

    monkeypatch.setattr(arithmetic, "verify_axioms", broken)
    with pytest.raises(ConstructionError, match="axiom 3"):
        rc.build_complex([5], 3)


def test_residue_choice_invariance(monkeypatch, lps513):
    """A different matrix splitting conjugates the construction; spectra
    are unchanged."""
    from ramcube import quaternions as q

    alt = q.ResiduePair(13, 0, 5)  # 0^2 + 5^2 + 1 = 26
    assert (alt.x ** 2 + alt.y ** 2 + 1) % 13 == 0
    monkeypatch.setattr(q, "solve_residue", lambda n1: alt)
    X2 = rc.build_complex([5], 13)
    assert X2.n_vertices == lps513.n_vertices
    e1 = rc.spectrum(rc.Harmonics(lps513).star_matrix(1, 0))
    e2 = rc.spectrum(rc.Harmonics(X2).star_matrix(1, 0))
    assert np.abs(e1 - e2).max() < 1e-8
