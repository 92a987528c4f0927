"""Finite regular cubical complexes with oriented cube tables.

A complex of dimension g stores, for every direction subset I of {1..g},
the set of oriented I-cubes together with three families of maps:

  bot_j, top_j : oriented I-cubes -> oriented (I - {j})-cubes   (j in I)
  inv_j       : oriented I-cubes -> oriented I-cubes            (j in I)

subject to the axioms

  (1) the inv_j generate a copy of (Z/2)^I acting simply transitively on
      the orientations of each cube,
  (2) top_j inv_k = inv_k top_j and bot_j inv_k = inv_k bot_j for j != k,
  (3) top_j inv_j = bot_j,
  (4) every oriented I-cube is the j-th top of exactly r_j oriented
      (I + {j})-cubes for j not in I.

Direction subsets are keyed by bitmask (bit j-1 for direction j).  A map
is read by indexing it with cube indices or a slice: an array, or for an
arithmetic table a ``FactoredMap`` that gathers the rows from factors.  Vertices
may carry per-direction parities p_j in {0,1}, flipped exactly by
direction-j edges; when parities are present each unoriented cube has a
canonical orientation (the one whose bottom vertex has parity 0 in every
direction of I).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstructionError


def mask_of(dirs) -> int:
    m = 0
    for j in dirs:
        m |= 1 << (j - 1)
    return m


def dirs_of(mask: int) -> tuple[int, ...]:
    out = []
    j = 1
    while mask:
        if mask & 1:
            out.append(j)
        mask >>= 1
        j += 1
    return tuple(out)


def parity_code(parities) -> np.ndarray:
    """Per vertex, its parity bits as one integer, direction j at bit j - 1."""
    return parities.astype(np.int64) @ (1 << np.arange(parities.shape[1]))


class FactoredMap:
    """A cube map of a table whose cube v*T + s has bottom vertex v: of n
    cubes, cube v*T + s goes to step[lead[s], v] * size + part[s], step a
    (generator, vertex) -> vertex array, or to v * size + part[s] without
    step.  Indexing by cube indices or a slice gathers those rows, as an
    array would."""

    __iter__ = None  # read by indexing only, so that numpy never reads it row by row

    def __init__(self, n: int, T: int, size: int, part: np.ndarray, step=None, lead=None):
        self.n, self.T, self.size, self.part, self.step, self.lead = n, T, size, part, step, lead

    def __len__(self):
        return self.n

    def __getitem__(self, cubes):
        v, s = np.divmod(np.arange(self.n)[cubes] if isinstance(cubes, slice) else cubes, self.T)
        if self.step is not None:
            v = self.step[self.lead[s], v]
        return v * self.size + self.part[s]


@dataclass
class CubeTable:
    """Oriented cubes of one direction set, with face and inversion maps;
    T > 0 when cube v*T + s has bottom vertex v."""

    n: int
    bot: dict = field(default_factory=dict)
    top: dict = field(default_factory=dict)
    inv: dict = field(default_factory=dict)
    T: int = 0


class CubicalComplex:
    def __init__(self, g: int, regularities, tables: dict[int, CubeTable],
                 parities=None, vertex_labels=None):
        self.g = g
        self.regularities = tuple(regularities)
        self.tables = tables
        self.parities = None if parities is None else np.asarray(parities, dtype=np.uint8)
        self._vertex_labels = vertex_labels
        self.arith = None  # set by the arithmetic builder

    @property
    def vertex_labels(self) -> list[str] | None:
        """Vertex names, or None; a function given for them runs on first read."""
        if callable(self._vertex_labels):
            self._vertex_labels = self._vertex_labels()
        return self._vertex_labels

    @property
    def n_vertices(self) -> int:
        return self.tables[0].n

    @property
    def has_parities(self) -> bool:
        return self.parities is not None

    def masks(self):
        return sorted(self.tables)

    def masks_of_dim(self, i: int):
        return [m for m in self.masks() if bin(m).count("1") == i]

    def r(self, j: int) -> int:
        return self.regularities[j - 1]

    def origin(self, mask: int, cubes=None) -> np.ndarray:
        """Iterated bottom vertex of every oriented cube of this direction
        set, or of the given cubes: cube v*T + s has v when T > 0."""
        t = self.tables[mask]
        if t.T:
            return (np.arange(t.n) if cubes is None else cubes) // t.T
        return self.edge_vector(mask, 0, cubes)

    def edge_vector(self, mask: int, j: int, cubes=None) -> np.ndarray:
        """Oriented direction-j edge at the bottom corner of each cube, or of
        the given cubes (iterated bottom over all other directions; over
        all of them for j = 0, which gives the bottom vertex)."""
        idx = np.arange(self.tables[mask].n) if cubes is None else cubes
        for k in dirs_of(mask & ~(1 << (j - 1)) if j else mask):
            idx = self.tables[mask].bot[k][idx]
            mask &= ~(1 << (k - 1))
        return idx

    def canonical_indices(self, mask: int, dirs: int | None = None) -> np.ndarray:
        """Oriented cubes, ascending, whose bottom vertex has parity 0 in
        every direction of dirs (a mask; by default the cube's own, which
        gives one per unoriented cube).  No directions need no parities."""
        t, dirs = self.tables[mask], mask if dirs is None else dirs
        if dirs == 0:
            return np.arange(t.n)
        ok = self._even(dirs)
        if t.T:
            return (np.flatnonzero(ok)[:, None] * t.T + np.arange(t.T)).ravel()
        return np.flatnonzero(ok[self.origin(mask)])

    def _even(self, dirs: int) -> np.ndarray:
        """Whether each vertex has parity 0 in every direction of dirs."""
        if not self.has_parities:
            raise ConstructionError("canonical orientations require parities")
        return ~self.parities[:, [j - 1 for j in dirs_of(dirs)]].any(axis=1)

    def slot(self, mask: int, cubes, dirs: int | None = None) -> np.ndarray:
        """Position of each given cube among ``canonical_indices(mask,
        dirs)``, -1 for the others: with no direction fixed, the cube
        itself.  With T > 0 the canonical cubes are whole vertex blocks, so
        the slot is the rank of the block times T plus the place in it."""
        t, dirs = self.tables[mask], mask if dirs is None else dirs
        if dirs == 0:
            return np.asarray(cubes)
        if t.T:  # off the canonical blocks and past the end, base + s lies in [-T, -1]
            ok = np.append(self._even(dirs), False)
            base = np.where(ok, np.cumsum(ok) - 1, -1) * t.T
            v, s = np.divmod(np.minimum(cubes, t.n), t.T)
            s += base[v]
            return np.maximum(s, -1, out=s)
        keys = self.canonical_indices(mask, dirs)
        if not len(keys):
            return np.full(np.shape(cubes), -1)
        at = np.minimum(np.searchsorted(keys, cubes), len(keys) - 1)
        return np.where(keys[at] == cubes, at, -1)

    def link_pairs(self) -> list[tuple[int, int]]:
        """Every (j, I), I a direction mask and j not in I, with cubes in
        the directions I + {j}: the links, stars S_{j,I} and boundaries d_j,
        ordered by I then j."""
        return [(j, mask) for mask in self.masks() for j in range(1, self.g + 1)
                if not mask & (1 << (j - 1)) and mask | (1 << (j - 1)) in self.tables]

    def unoriented_counts(self) -> dict[int, int]:
        return {m: self.tables[m].n >> bin(m).count("1") for m in self.masks()}

    def __repr__(self):
        return (f"CubicalComplex(g={self.g}, r={self.regularities}, "
                f"vertices={self.n_vertices})")


@dataclass
class AxiomFailure:
    axiom: int
    mask: int
    index: int
    detail: str


@dataclass
class AxiomReport:
    passed: bool
    failures: list[AxiomFailure]
    checked: dict[int, bool]

    def __bool__(self):
        return self.passed


def _first_bad(cond: np.ndarray) -> int:
    return int(np.flatnonzero(~cond)[0])


def _factored(X: CubicalComplex) -> bool:
    """Whether every map is a ``FactoredMap`` between T-factored tables, its
    vertex step one of X.arith's or none: then ``_rows`` may read one base
    vertex per parity class, once ``ArithData.wrong_step`` finds no step
    that is not the right multiplication it stands for."""
    if X.arith is None or not X.has_parities:
        return False
    steps = [None, *X.arith.vstep]

    def ok(f, t, size):
        return (isinstance(f, FactoredMap) and (f.n, f.T, f.size) == (t.n, t.T, size) and t.T > 0
                and any(f.step is s for s in steps))

    return all(ok(t.bot[j], t, X.tables[mask & ~(1 << (j - 1))].T)
               and ok(t.top[j], t, X.tables[mask & ~(1 << (j - 1))].T) and ok(t.inv[j], t, t.T)
               for mask, t in X.tables.items() for j in dirs_of(mask))


def _rows(X: CubicalComplex, t: CubeTable, factored: bool) -> np.ndarray:
    """The cubes of a table that the checks read: all, or on a ``_factored``
    complex with verified vertex steps those of one base vertex per parity
    class.  That is exhaustive: the steps are right multiplications in the
    vertex group, so each map, and each composite of maps, takes (v, s) to
    (v x(s), f(s)), and two composites (or one and the identity) agree at
    (v, s) exactly when their x(s) and f(s) agree, whatever v is; the
    parities of v x(s) and v differ by those of x(s) alone."""
    if not factored:
        return np.arange(t.n)
    base = np.unique(parity_code(X.parities), return_index=True)[1]
    return (base[:, None] * t.T + np.arange(t.T)).ravel()


def verify_axioms(X: CubicalComplex) -> AxiomReport:
    """Check axioms (1)-(4) on the cubes ``_rows`` picks, and on a
    ``_factored`` complex first its vertex steps (a wrong one fails as
    axiom 0) and then axiom (4) on the tuple parts of the top maps: the
    steps are permutations, so (w, s') is the j-th top of one cube (v, s)
    for each s with part[s] = s'.  Failures are reported with a witness
    cube."""
    factored = _factored(X)
    if factored and (wrong := X.arith.wrong_step(X.parities)) is not None:
        return AxiomReport(False, [wrong], {})
    failures = []

    def check(ok: np.ndarray, axiom: int, mask: int, detail: str, at=None):
        if not np.all(ok):
            bad = _first_bad(ok)
            failures.append(AxiomFailure(axiom, mask, int(bad if at is None else at[bad]), detail))

    for mask in X.masks():
        if mask == 0:
            continue
        t = X.tables[mask]
        dirs = dirs_of(mask)
        idx = _rows(X, t, factored)
        inv = {j: t.inv[j][idx] for j in dirs}

        # (1) each inv_j is a fixed-point-free involution, they commute, and
        # orbits have full size 2^|I|
        for j in dirs:
            check(t.inv[j][inv[j]] == idx, 1, mask, f"inv_{j} is not an involution", idx)
            check(inv[j] != idx, 1, mask, f"inv_{j} has a fixed point", idx)
        for a, b in itertools.combinations(dirs, 2):
            check(t.inv[a][inv[b]] == t.inv[b][inv[a]], 1, mask,
                  f"inv_{a} and inv_{b} do not commute", idx)
        # with commuting inversions, an orbit is short iff some product fixes
        # it; depth first, each subset's product is one gather from that of
        # the subset without its last direction (a stack entry holds that
        # product and the position of the direction to append).  Dropping
        # both products after each step keeps at most two gathered arrays
        # alive.
        short = np.zeros(len(idx), dtype=bool)
        stack = [(None, pos) for pos in range(len(dirs))]
        while stack:
            prev, pos = stack.pop()
            moved = inv[dirs[pos]] if prev is None else t.inv[dirs[pos]][prev]
            short |= moved == idx
            stack.extend((moved, q) for q in range(pos + 1, len(dirs)))
            del prev, moved
        check(~short, 1, mask, "orientation orbit smaller than 2^|I|", idx)

        for j in dirs:
            ts = X.tables[mask & ~(1 << (j - 1))]
            top, bot = t.top[j][idx], t.bot[j][idx]
            # (2) face maps commute with inversions in other directions
            for k in dirs:
                if k != j:
                    check(t.top[j][inv[k]] == ts.inv[k][top], 2, mask,
                          f"top_{j} does not commute with inv_{k}", idx)
                    check(t.bot[j][inv[k]] == ts.inv[k][bot], 2, mask,
                          f"bot_{j} does not commute with inv_{k}", idx)
            # (3) top_j inv_j = bot_j
            check(t.top[j][inv[j]] == bot, 3, mask, f"top_{j} inv_{j} != bot_{j}", idx)

    # (4) every oriented I-cube is the j-th top of exactly r_j (I+{j})-cubes
    for j, mask in X.link_pairs():
        tops, lower = X.tables[mask | (1 << (j - 1))].top[j], X.tables[mask]
        counts = (np.bincount(tops.part, minlength=lower.T) if factored
                  else np.bincount(tops[:], minlength=lower.n))
        check(counts == X.r(j), 4, mask, f"not the {j}-top of exactly r_{j} cubes")

    checked = {a: all(f.axiom != a for f in failures) for a in (1, 2, 3, 4)}
    return AxiomReport(not failures, failures, checked)


def verify_parities(X: CubicalComplex):
    """Check p_j(top e) = p_j(bot e) exactly for j different from the edge
    direction, on the edges ``_rows`` picks (on a ``_factored`` complex
    after its vertex steps, as ``verify_axioms`` does).  Returns (ok,
    witness) with witness = (direction, edge index)."""
    if not X.has_parities:
        raise ConstructionError("complex carries no parities")
    factored = _factored(X)
    if factored and (wrong := X.arith.wrong_step(X.parities)) is not None:
        return False, (wrong.mask.bit_length(), wrong.index)
    p = X.parities
    for j in range(1, X.g + 1):
        mask = 1 << (j - 1)
        if mask not in X.tables:
            continue
        t, idx = X.tables[mask], _rows(X, X.tables[mask], factored)
        bv = p[t.bot[j][idx]]
        tv = p[t.top[j][idx]]
        same = bv == tv
        want = np.ones(X.g, dtype=bool)
        want[j - 1] = False
        ok = np.all(same == want[None, :], axis=1)
        if not np.all(ok):
            return False, (j, int(idx[_first_bad(ok)]))
    return True, None


def infer_parities(X: CubicalComplex):
    """Propagate parities from the least vertex of each component, where
    they are 0.

    Per direction j, the parity double cover has the vertices (v, b) at
    v + b n; a j-edge joins (bot, b) to (top, 1 - b), any other edge (bot,
    b) to (top, b).  p_j(v) = 1 when (v, 0) shares a component with (root,
    1), root the least vertex of v's component: components are labelled by
    least vertex, so when (v, 0) has the larger label of (v, 0), (v, 1).
    Returns an (n_vertices, g) array, or None when no consistent assignment
    exists: some (v, 0) and (v, 1) share a component (an odd closed walk)."""
    n, start = X.n_vertices, [np.zeros(0, np.int64)]
    edges = [(j, X.tables[1 << (j - 1)]) for j in range(1, X.g + 1) if 1 << (j - 1) in X.tables]
    bot = np.concatenate(start + [t.bot[j][:] for j, t in edges])
    top = np.concatenate(start + [t.top[j][:] for j, t in edges])
    along = np.concatenate(start + [np.full(t.n, j) for j, t in edges])
    par = np.zeros((n, X.g), dtype=np.uint8)
    for j in range(1, X.g + 1):
        cross = n * (along == j)
        _, label = connected_components(2 * n, np.concatenate([bot, bot + n]),
                                        np.concatenate([top + cross, top + n - cross]))
        if np.any(label[:n] == label[n:]):
            return None
        par[:, j - 1] = label[:n] > label[n:]
    return par


def product(X1: CubicalComplex, X2: CubicalComplex) -> CubicalComplex:
    """Product complex: directions of X2 are shifted past those of X1."""
    g = X1.g + X2.g
    tables: dict[int, CubeTable] = {}
    for m1 in X1.masks():
        for m2 in X2.masks():
            mask = m1 | (m2 << X1.g)
            t1, t2 = X1.tables[m1], X2.tables[m2]
            n1, n2 = t1.n, t2.n
            t = CubeTable(n1 * n2)
            i1 = np.repeat(np.arange(n1), n2)
            i2 = np.tile(np.arange(n2), n1)
            for j in dirs_of(m1):
                t.bot[j] = t1.bot[j][i1] * n2 + i2
                t.top[j] = t1.top[j][i1] * n2 + i2
                t.inv[j] = t1.inv[j][i1] * n2 + i2
            for j2 in dirs_of(m2):
                j = j2 + X1.g
                t.bot[j] = i1 * X2.tables[m2 & ~(1 << (j2 - 1))].n + t2.bot[j2][i2]
                t.top[j] = i1 * X2.tables[m2 & ~(1 << (j2 - 1))].n + t2.top[j2][i2]
                t.inv[j] = i1 * n2 + t2.inv[j2][i2]
            tables[mask] = t
    parities = None
    if X1.has_parities and X2.has_parities:
        n1, n2 = X1.n_vertices, X2.n_vertices
        i1 = np.repeat(np.arange(n1), n2)
        i2 = np.tile(np.arange(n2), n1)
        parities = np.concatenate([X1.parities[i1], X2.parities[i2]], axis=1)
    labels = None
    if X1.vertex_labels is not None and X2.vertex_labels is not None:
        labels = [f"{a}|{b}" for a in X1.vertex_labels for b in X2.vertex_labels]
    return CubicalComplex(g, X1.regularities + X2.regularities, tables, parities, labels)


def disjoint_union(X1: CubicalComplex, X2: CubicalComplex) -> CubicalComplex:
    if X1.g != X2.g or X1.regularities != X2.regularities:
        raise ConstructionError("disjoint union requires equal dimensions and regularities")
    tables = {}
    for mask in X1.masks():
        t1, t2 = X1.tables[mask], X2.tables[mask]
        t = CubeTable(t1.n + t2.n)
        for j in dirs_of(mask):
            sub = mask & ~(1 << (j - 1))
            off = X1.tables[sub].n
            t.bot[j] = np.concatenate([t1.bot[j][:], t2.bot[j][:] + off])
            t.top[j] = np.concatenate([t1.top[j][:], t2.top[j][:] + off])
            t.inv[j] = np.concatenate([t1.inv[j][:], t2.inv[j][:] + t1.n])
        tables[mask] = t
    parities = None
    if X1.has_parities and X2.has_parities:
        parities = np.concatenate([X1.parities, X2.parities], axis=0)
    return CubicalComplex(X1.g, X1.regularities, tables, parities)


@dataclass
class LinkGraph:
    """Directional link: vertices are canonical I-cubes, oriented edges are
    the (I + {j})-cubes whose I-part of the orientation is canonical."""

    j: int
    mask: int
    r: int
    n_vertices: int
    vertex_cubes: np.ndarray    # oriented I-cube index per link vertex
    edge_cubes: np.ndarray      # oriented (I+{j})-cube index per link edge
    origin: np.ndarray
    terminus: np.ndarray
    opposite: np.ndarray
    source: CubicalComplex | None = field(default=None, repr=False)

    @property
    def vertex_labels(self) -> list[str] | None:
        """The source's vertex labels, for a link of vertices (I empty)."""
        labels = None if self.mask or self.source is None else self.source.vertex_labels
        return None if labels is None else [labels[i] for i in self.vertex_cubes.tolist()]


def link_graph(X: CubicalComplex, j: int, dirs=()) -> LinkGraph:
    """The graph whose vertices are the I-cubes and whose edges are the
    (I + {j})-cubes, for j not in I.  Requires parities."""
    mask = mask_of(dirs) if not isinstance(dirs, int) else dirs
    if mask & (1 << (j - 1)):
        raise ConstructionError(f"direction {j} lies in the cube directions")
    up = mask | (1 << (j - 1))
    if up not in X.tables:
        raise ConstructionError("no cubes in the requested directions")
    verts, edges, t = X.canonical_indices(mask), X.canonical_indices(up, mask), X.tables[up]
    origin, terminus = X.slot(mask, t.bot[j][edges]), X.slot(mask, t.top[j][edges])
    opposite = X.slot(up, t.inv[j][edges], mask)
    if min(x.min(initial=0) for x in (origin, terminus, opposite)) < 0:
        raise ConstructionError("link extraction hit a non-canonical face; parities inconsistent")

    return LinkGraph(j, mask, X.r(j), len(verts), verts, edges, origin, terminus, opposite, X)


def connected_components(n_vertices: int, origin: np.ndarray, terminus: np.ndarray):
    """Components of the graph on n_vertices with the edges origin[e] --
    terminus[e]: (count, labels), labels 0..count-1 by least vertex.

    Min-label propagation: every vertex takes the least label among itself
    and its neighbours, then the label of that label (pointer jumping),
    until nothing changes.  A label is always a vertex of the same
    component and never above the vertex, so at the fixed point each
    vertex carries the least vertex of its component."""
    label = np.arange(n_vertices)
    while True:
        hooked = label.copy()
        np.minimum.at(hooked, origin, label[terminus])
        np.minimum.at(hooked, terminus, label[origin])
        hooked = hooked[hooked]
        if np.array_equal(hooked, label):
            break
        label = hooked
    leaders, labels = np.unique(label, return_inverse=True)
    return len(leaders), labels


# ----------------------------------------------------------------------
# small constructors (used by tests and demos)

def graph_complex(n_vertices: int, edges, r: int, parities=None) -> CubicalComplex:
    """A 1-dimensional complex from an undirected edge list."""
    m = len(edges)
    bot = np.empty(2 * m, dtype=np.int64)
    top = np.empty(2 * m, dtype=np.int64)
    inv = np.empty(2 * m, dtype=np.int64)
    for t, (u, v) in enumerate(edges):
        bot[2 * t], top[2 * t] = u, v
        bot[2 * t + 1], top[2 * t + 1] = v, u
        inv[2 * t], inv[2 * t + 1] = 2 * t + 1, 2 * t
    tables = {0: CubeTable(n_vertices), 1: CubeTable(2 * m, {1: bot}, {1: top}, {1: inv})}
    if parities is not None:
        parities = np.asarray(parities, dtype=np.uint8).reshape(n_vertices, 1)
    return CubicalComplex(1, (r,), tables, parities)


def cycle_complex(n: int) -> CubicalComplex:
    edges = [(v, (v + 1) % n) for v in range(n)]
    parities = [[v % 2] for v in range(n)] if n % 2 == 0 else None
    return graph_complex(n, edges, 2, parities)


def complete_graph_complex(n: int) -> CubicalComplex:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return graph_complex(n, edges, n - 1)


def box_complex(g: int) -> CubicalComplex:
    """The unit g-cube: a (1,...,1)-regular complex on 2^g vertices.

    Oriented I-cubes are encoded by their base corner in {0,1}^g; flipping
    the orientation in direction j moves the base across that direction."""
    tables = {}
    n = 1 << g
    for mask in range(1 << g):
        t = CubeTable(n)
        for j in dirs_of(mask):
            bit = 1 << (j - 1)
            idx = np.arange(n)
            t.bot[j] = idx
            t.top[j] = idx ^ bit
            t.inv[j] = idx ^ bit
        tables[mask] = t
    parities = np.array([[(c >> (j - 1)) & 1 for j in range(1, g + 1)] for c in range(n)],
                        dtype=np.uint8)
    return CubicalComplex(g, (1,) * g, tables, parities)


# ----------------------------------------------------------------------
# DOT export

def skeleton_dot(X: CubicalComplex, name: str = "skeleton") -> str:
    """The 1-skeleton as undirected DOT, one edge per unoriented edge,
    with a dir attribute naming the tree direction."""
    edges = [(j, X.tables.get(1 << (j - 1))) for j in range(1, X.g + 1)]
    return _dot(name, X.n_vertices, X.vertex_labels,
                [(t.bot[j][:], t.top[j][:], t.inv[j][:], j) for j, t in edges if t is not None])


def link_dot(link: LinkGraph, name: str = "link") -> str:
    return _dot(name, link.n_vertices, link.vertex_labels,
                [(link.origin, link.terminus, link.opposite, link.j)])


def _dot(name: str, n: int, labels, edges) -> str:
    """One line per vertex, then per (tail, head, opposite, j) of edges one
    line per unoriented edge, the orientation e < opposite[e]."""
    lines = [f"graph {name} {{"]
    lines += [f'  v{v} [label="{label}"];' for v, label in enumerate(labels or range(n))]
    for tail, head, opposite, j in edges:
        keep = np.arange(len(opposite)) < opposite
        pairs = zip(tail[keep].tolist(), head[keep].tolist())
        lines += [f"  v{a} -- v{b} [dir={j}];" for a, b in pairs]
    return "\n".join(lines + ["}"]) + "\n"


def export_dot(obj, path) -> None:
    text = skeleton_dot(obj) if isinstance(obj, CubicalComplex) else link_dot(obj)
    with open(path, "w") as fh:
        fh.write(text)
