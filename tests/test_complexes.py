import itertools

import numpy as np
import pytest

import ramcube as rc
from dense_reference import components_by_csgraph, link_by_parities
from ramcube.complexes import CubicalComplex, dirs_of, link_dot, mask_of, skeleton_dot
from ramcube.errors import ConstructionError


def test_mask_helpers():
    assert mask_of((1, 3)) == 0b101
    assert dirs_of(0b101) == (1, 3)
    assert dirs_of(0) == ()


def test_unit_square_axioms():
    X = rc.box_complex(2)
    assert X.n_vertices == 4
    counts = X.unoriented_counts()
    assert counts[0] == 4 and counts[0b11] == 1
    assert counts[0b01] + counts[0b10] == 4
    assert rc.verify_axioms(X).passed
    assert rc.verify_parities(X)[0]


def test_injected_inversion_fixed_point_fails_axiom1():
    X = rc.graph_complex(2, [(0, 1)], r=1, parities=[[0], [1]])
    X.tables[1].inv[1] = np.arange(2)  # inv now fixes every oriented edge
    report = rc.verify_axioms(X)
    assert not report.passed
    assert any(f.axiom == 1 for f in report.failures)
    assert report.failures[0].index >= 0


def test_orbit_shortened_by_a_triple_product_fails_axiom1():
    """inv_3 = inv_1 inv_2 is a fixed-point-free involution commuting with
    both, so only the product of all three inversions fixes a cube."""
    X = rc.box_complex(3)
    t = X.tables[7]
    t.inv[3] = t.inv[1][t.inv[2]]
    first = rc.verify_axioms(X).failures[0]
    assert (first.axiom, first.mask, first.index, first.detail) == (
        1, 7, 0, "orientation orbit smaller than 2^|I|")


def test_broken_top_count_fails_axiom4():
    X = rc.cycle_complex(4)
    X.tables[1].top[1] = np.zeros(8, dtype=np.int64)
    report = rc.verify_axioms(X)
    assert any(f.axiom == 4 for f in report.failures)


@pytest.mark.parametrize("n, edges, r", [(3, [(0, 1)], 1), (4, [(0, 1), (1, 2), (0, 2)], 2)])
def test_isolated_vertex_fails_axiom4(n, edges, r):
    """The last vertex is the top of no edge, and no edge names it."""
    report = rc.verify_axioms(rc.graph_complex(n, edges, r))
    assert [(f.axiom, f.mask, f.index) for f in report.failures] == [(4, 0, n - 1)]


def _small_complexes():
    """Complexes of every shape the link pairs and slots meet: a product,
    a disjoint union, a graph with an isolated vertex and the empty graph,
    all with parities."""
    C4, C6 = rc.cycle_complex(4), rc.cycle_complex(6)
    return {"box3": rc.box_complex(3), "C4xC6": rc.product(C4, C6),
            "C4+C6": rc.disjoint_union(C4, C6),
            "isolated": rc.graph_complex(3, [(0, 1)], r=1, parities=[[0], [1], [0]]),
            "empty": rc.graph_complex(0, [], r=1, parities=np.zeros((0, 1)))}


@pytest.fixture(params=["cover513", "x5137", *_small_complexes()])
def any_complex(request):
    return (request.getfixturevalue(request.param) if request.param in ("cover513", "x5137")
            else _small_complexes()[request.param])


def test_link_pairs_are_the_admissible_pairs(any_complex):
    X = any_complex
    assert X.link_pairs() == [(j, mask) for mask in X.masks() for j in range(1, X.g + 1)
                              if not mask & (1 << (j - 1)) and (mask | (1 << (j - 1))) in X.tables]


def test_slot_matches_searchsorted(any_complex):
    """For every mask the slot of every cube is its searchsorted position
    among the canonical cubes, -1 off them, also for two indices past the
    last cube; at mask 0, the cube itself, which passes any index on
    unchanged."""
    X = any_complex
    for mask in X.masks():
        n = X.tables[mask].n
        cubes = np.concatenate([np.arange(n)[::-1], [n, n + 1]])
        keys = X.canonical_indices(mask)
        want = cubes if mask == 0 else np.where(np.isin(cubes, keys),
                                                np.searchsorted(keys, cubes), -1)
        assert np.array_equal(X.slot(mask, cubes), want)
    if not X.n_vertices:  # no canonical cubes at all
        assert X.slot(1, np.array([3, 0])).tolist() == [-1, -1]


def _orbit_leaders(X, mask):
    """The least cube of each orientation orbit, ascending, from every
    product of the inversions applied to every cube in turn."""
    t, dirs = X.tables[mask], dirs_of(mask)
    leaders = set()
    for c in range(t.n):
        orbit = set()
        for k in range(len(dirs) + 1):
            for sub in itertools.combinations(dirs, k):
                d = c
                for j in sub:
                    d = int(t.inv[j][d])
                orbit.add(d)
        leaders.add(min(orbit))
    return sorted(leaders)


def test_canonical_indices_without_parities():
    """Without parities the representatives are the least cube of each
    orientation orbit."""
    K4, C5 = rc.complete_graph_complex(4), rc.cycle_complex(5)
    for X in (K4, C5, rc.product(K4, C5)):
        assert not X.has_parities
        for mask in X.masks():
            assert X.canonical_indices(mask).tolist() == _orbit_leaders(X, mask)


def test_parities_cycles():
    X4 = rc.cycle_complex(4)
    assert rc.verify_parities(X4)[0]
    X3 = rc.cycle_complex(3)
    assert X3.parities is None
    assert rc.infer_parities(X3) is None
    # any assignment on an odd cycle fails
    X3.parities = np.zeros((3, 1), dtype=np.uint8)
    ok, witness = rc.verify_parities(X3)
    assert not ok and witness is not None
    inferred = rc.infer_parities(X4)
    assert inferred is not None
    X4.parities = inferred
    assert rc.verify_parities(X4)[0]


def test_infer_parities_recovers_stored_parities():
    """With the parities stripped, the inference from the least vertex of
    each component gives back the stored ones, and None when a direction
    has an odd cycle."""
    def stripped(X):
        return CubicalComplex(X.g, X.regularities, X.tables)

    for X in (rc.box_complex(3), rc.build_complex([5, 13], 3),
              rc.product(rc.cycle_complex(4), rc.cycle_complex(6))):
        inferred = rc.infer_parities(stripped(X))
        assert inferred.dtype == np.uint8 and np.array_equal(inferred, X.parities)
    assert rc.infer_parities(stripped(rc.product(rc.cycle_complex(4), rc.cycle_complex(5)))) is None


def test_product_counts_and_axioms():
    K4 = rc.complete_graph_complex(4)
    P = rc.product(K4, K4)
    assert P.g == 2 and P.regularities == (3, 3)
    assert P.n_vertices == 16
    assert P.unoriented_counts()[0b11] == 16 * 3 * 3 // 4
    assert rc.verify_axioms(P).passed


def test_product_with_point_is_identity():
    X = rc.cycle_complex(4)
    point = rc.box_complex(0)
    P = rc.product(X, point)
    assert P.g == X.g and P.n_vertices == X.n_vertices
    for mask in X.masks():
        t, tp = X.tables[mask], P.tables[mask]
        assert t.n == tp.n
        for j in dirs_of(mask):
            assert np.array_equal(t.bot[j], tp.bot[j])
            assert np.array_equal(t.top[j], tp.top[j])
            assert np.array_equal(t.inv[j], tp.inv[j])


def test_product_of_bipartite_graphs_has_parities():
    P = rc.product(rc.cycle_complex(4), rc.cycle_complex(6))
    assert P.has_parities
    assert rc.verify_parities(P)[0]
    assert rc.verify_axioms(P).passed


def test_product_associative_as_labeled_complexes():
    A, B, C = rc.cycle_complex(4), rc.cycle_complex(6), rc.box_complex(1)
    left = rc.product(rc.product(A, B), C)
    right = rc.product(A, rc.product(B, C))
    assert left.masks() == right.masks()
    for mask in left.masks():
        for j in dirs_of(mask):
            assert np.array_equal(left.tables[mask].top[j], right.tables[mask].top[j])
            assert np.array_equal(left.tables[mask].bot[j], right.tables[mask].bot[j])
            assert np.array_equal(left.tables[mask].inv[j], right.tables[mask].inv[j])


def test_link_graph_of_graph_is_the_graph_itself():
    """The vertex link of a graph is the graph: one canonical edge per
    edge, read from the vertex it leaves to the one it enters."""
    X = rc.cycle_complex(4)
    cubes, top, bot = X.link_edges(1, 0)
    t = X.tables[1]
    assert len(cubes) == 4 and np.all(X.parities[t.bot[1][cubes], 0] == 0)
    assert np.array_equal(top, t.top[1][cubes])
    assert np.array_equal(bot, t.bot[1][cubes])
    # r-regular: every vertex on exactly r edges
    assert np.all(np.bincount(np.concatenate([top, bot]), minlength=4) == 2)


def test_link_graph_counts_on_square_complex(cover513):
    """One link edge per square; every canonical edge lies on r_j of them."""
    X = cover513
    counts = X.unoriented_counts()
    for j, mask, r in ((1, 0b10, 6), (2, 0b01, 14)):
        cubes, top, bot = X.link_edges(j, mask)
        assert len(cubes) == counts[0b11] == 1008
        assert np.all(np.bincount(np.concatenate([top, bot]), minlength=counts[mask]) == r)
    assert counts[0b10] == 336 and counts[0b01] == 144


def test_link_graph_requires_free_direction(cover513):
    with pytest.raises(ConstructionError):
        cover513.link_edges(1, 0b01)


def test_link_graph_requires_parities_on_positive_masks():
    K4 = rc.complete_graph_complex(4)
    P = rc.product(K4, K4)
    with pytest.raises(ConstructionError):
        P.link_edges(1, 0b10)


def _same_link(X, j, mask):
    """link_edges against the parity oracle: the cubes take one of the two
    orientations of each oracle edge, and each cube's faces are its
    oracle terminus and origin."""
    cubes, top, bot = X.link_edges(j, mask)
    ref = link_by_parities(X, j, mask)
    at = np.searchsorted(ref.edge_cubes, cubes)
    assert np.array_equal(ref.edge_cubes[at], cubes)
    assert np.array_equal(np.sort(np.concatenate([at, ref.opposite[at]])),
                          np.arange(len(ref.edge_cubes)))
    assert np.array_equal(top, ref.terminus[at]) and np.array_equal(bot, ref.origin[at])


def test_link_edges_match_the_parity_oracle(cover513, x5137, cover13373):
    """On every link pair of complexes with parities, and on the vertex
    links of graphs without them, one with isolated vertices."""
    for X in (cover513, x5137, cover13373, rc.box_complex(3),
              rc.product(rc.cycle_complex(4), rc.cycle_complex(6))):
        for j, mask in X.link_pairs():
            _same_link(X, j, mask)
    C3 = rc.cycle_complex(3)
    for X in (rc.complete_graph_complex(4), rc.cycle_complex(5), rc.disjoint_union(C3, C3),
              rc.graph_complex(6, [(0, 1), (3, 4)], r=1)):
        _same_link(X, 1, 0)


def _components(X, j, mask):
    _, top, bot = X.link_edges(j, mask)
    return X.unoriented_counts()[mask], top, bot


def test_connected_components():
    one = rc.cycle_complex(3)
    two = rc.disjoint_union(one, one)
    count, labels = rc.connected_components(*_components(two, 1, 0))
    assert count == 2
    assert len(set(labels)) == 2
    count1, _ = rc.connected_components(*_components(rc.cycle_complex(5), 1, 0))
    assert count1 == 1


def test_connected_components_match_csgraph(lps513, cover513, cover13373):
    """Count and labels equal csgraph's on every link of three arithmetic
    complexes, on a graph with isolated vertices and on a link with no
    vertices."""
    links = [_components(X, j, mask)
             for X in (lps513, cover513, cover13373) for j, mask in X.link_pairs()]
    assert len(links) == 1 + 4 + 4
    isolated = _components(rc.graph_complex(6, [(0, 1), (3, 4)], r=1), 1, 0)
    empty = _components(rc.graph_complex(0, [], r=1), 1, 0)
    assert rc.connected_components(*isolated)[0] == 4
    assert rc.connected_components(*empty)[0] == 0
    for link in links + [isolated, empty]:
        count, labels = rc.connected_components(*link)
        ref_count, ref_labels = components_by_csgraph(*link)
        assert count == ref_count
        assert np.array_equal(labels, ref_labels)


def test_vertex_count_formula(lps513, cover513):
    # unoriented I-cube count = vertices * prod r_j / 2^|I| on homogeneous complexes
    for X in (lps513, cover513):
        counts = X.unoriented_counts()
        for mask in X.masks():
            expect = X.n_vertices
            for j in dirs_of(mask):
                expect = expect * X.r(j)
            expect >>= bin(mask).count("1")
            assert counts[mask] == expect


def test_dot_exports(tmp_path):
    K4 = rc.complete_graph_complex(4)
    text = skeleton_dot(K4)
    assert text.count(" -- ") == 6
    assert text.count("label=") == 4
    ltext = link_dot(rc.cycle_complex(4), 1, 0)
    assert ltext.count(" -- ") == 4
    path = tmp_path / "k4.dot"
    rc.export_dot(K4, path)
    assert path.read_text().startswith("graph")
    rc.export_dot(K4, path, (1, 0))
    assert path.read_text() == link_dot(K4, 1, 0)


def _dot_by_loop(name, n, labels, edges):
    """DOT text one vertex and one oriented edge at a time, keeping the
    orientation e < opposite[e] of each edge."""
    lines = [f"graph {name} {{"]
    for v in range(n):
        lines.append(f'  v{v} [label="{labels[v] if labels is not None else v}"];')
    for tail, head, opposite, j in edges:
        for e in range(len(opposite)):
            if e < opposite[e]:
                lines.append(f"  v{tail[e]} -- v{head[e]} [dir={j}];")
    return "\n".join(lines + ["}"]) + "\n"


def test_dot_exports_match_edge_loop(cover513):
    """Against every oriented edge, and against both orientations of each
    edge of the parity oracle's link."""
    X = cover513
    assert X.vertex_labels is not None
    edges = [(X.tables[1 << (j - 1)].bot[j], X.tables[1 << (j - 1)].top[j],
              X.tables[1 << (j - 1)].inv[j], j) for j in (1, 2)]
    assert skeleton_dot(X) == _dot_by_loop("skeleton", X.n_vertices, X.vertex_labels, edges)
    for j, mask in X.link_pairs():
        lg = link_by_parities(X, j, mask)
        assert link_dot(X, j, mask, "l") == _dot_by_loop(
            "l", lg.n_vertices, None if mask else X.vertex_labels,
            [(lg.origin, lg.terminus, lg.opposite, j)])
    K4 = rc.complete_graph_complex(4)
    t = K4.tables[1]
    assert skeleton_dot(K4) == _dot_by_loop("skeleton", 4, None, [(t.bot[1], t.top[1], t.inv[1], 1)])
