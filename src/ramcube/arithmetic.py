"""Arithmetic cubical complexes from quaternion generator alphabets.

For a set of distinct odd primes p_1 < ... < p_g and an auxiliary odd prime
level n1, the vertex set is the subgroup of (coarse matrix group) x (Z/2)^g
generated by the pairs (image of a norm-p_j generator, j-th parity bit).
The parity component makes the per-direction 2-colourings exist by
construction; whenever the matrix group alone already admits them (e.g. the
classical bipartite one-prime graphs) the grading is redundant and the
vertex count equals the group order.

Oriented J-cubes are pairs (vertex, index tuple): the tuple lists, per
direction of J in ascending order, the generator stepping the monotone path
that starts at the vertex.  Face and inversion maps compose the square rule
gen_i[a] gen_j[b] = +-gen_j[b'] gen_i[a'] of each pair of directions (exact
and unique), applied to all index tuples at once, and are kept as factors:
a vertex step and a map of the tuple (``FactoredMap``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import quaternions as quat
from .complexes import (AxiomFailure, CubeTable, CubicalComplex, FactoredMap, connected_components,
                        dirs_of, parity_code, verify_axioms, verify_parities)
from .errors import ConstructionError, InvalidModulusError, LevelRejectedError
from .quaternions import Quaternion


class GeneratorSystem:
    """Generator alphabets for each direction with their finite-group images.

    Holds, per direction j: the norm-p_j quaternions, the involution pairing
    iota_j (the position of the conjugate), and the images in the coarse and
    fine matrix groups.  `swap` caches the two-letter rewrites of `reorder`.
    """

    def __init__(self, primes, n1: int):
        primes = tuple(sorted(primes))
        if len(set(primes)) != len(primes):
            raise ConstructionError(f"primes must be distinct, got {primes}")
        self.primes = primes
        self.g = len(primes)
        self.n1 = n1
        self.gens: list[list[Quaternion]] = [quat.enumerate_generators(p) for p in primes]
        self.group = quat.build_group(primes, n1)
        self.iota: list[list[int]] = []
        self.images: list[list[int]] = []
        self.images_fine: list[list[int]] = []
        G = self.group
        for p, gens in zip(primes, self.gens):
            at = {q: s for s, q in enumerate(gens)}  # keyed by coefficients
            self.iota.append([at[q.conjugate()] for q in gens])
            m = np.array([quat.embed(q, G.residue) for q in gens]).T
            if np.any(quat.mat_det(m, n1) != p % n1):
                raise ConstructionError("generator image has wrong determinant")
            self.images.append(G.lookup(m).tolist())
            self.images_fine.append(G.lookup(m, fine=True).tolist())
        self._coeffs = [np.array([q.coeffs() for q in gens]) for gens in self.gens]
        self._swaps: dict[tuple[int, int], np.ndarray] = {}

    @property
    def regularities(self) -> tuple[int, ...]:
        return tuple(len(g) for g in self.gens)

    def reorder(self, word, dst_dirs):
        """Rewrite a generator word into the target direction order.

        word is a tuple of (direction, index) pairs with all directions
        distinct; dst_dirs is a permutation of those directions.  Returns
        (indices, u) with u = +-1 such that the word equals
        u * prod(generator(d, i) for d, i in zip(dst_dirs, indices)),
        exactly as integer quaternions.

        An index may be a range: the word then stands for the grid of words,
        one axis per letter (length 1 for a fixed index), and the result is
        the arrays of indices (len(dst_dirs), *grid) and of units (grid).

        The factors are peeled off the product Q from the left: the factor
        of direction d is the generator a with conj(a) * Q = 0 (mod p_d) in
        every coefficient, and Q becomes conj(a) * Q / p_d.  Unique
        factorization of odd-norm Lipschitz quaternions makes that
        generator unique and leaves exactly +-1; anything else (no
        candidate, two candidates, another leftover) fails loudly.
        """
        mesh = np.ix_(*(np.atleast_1d(i) for _, i in word))
        q = (1, 0, 0, 0)
        for (d, _), i in zip(word, mesh):
            q = quat.hamilton(q, np.moveaxis(self._coeffs[d - 1][i], -1, 0))
        q = np.stack(q)  # (4, *grid)

        def fail(bad, what):
            pos = np.argwhere(bad)[0]
            one = tuple((d, int(i.ravel()[k])) for (d, _), i, k in zip(word, mesh, pos))
            raise ConstructionError(f"rewriting of {one} into order {dst_dirs}{what}")

        indices = []
        for d in dst_dirs:
            p = self.primes[d - 1]
            a_bar = (self._coeffs[d - 1] * [1, -1, -1, -1]).T.reshape(4, -1, *[1] * (q.ndim - 1))
            rest = np.stack(quat.hamilton(a_bar, q))  # (4, candidate, *grid)
            divides = ~np.any(rest % p, axis=0)
            count = divides.sum(axis=0)
            if np.any(count != 1):
                fail(count != 1, f": {count[count != 1].flat[0]} left divisors in "
                                 f"direction {d}, expected exactly one")
            indices.append(np.argmax(divides, axis=0))
            q = np.take_along_axis(rest, indices[-1][None, None], axis=1)[:, 0] // p
        bad = (np.abs(q[0]) != 1) | np.any(q[1:], axis=0)
        if np.any(bad):
            fail(bad, f" leaves {tuple(q[:, bad].T[0].tolist())}, not a sign")
        if any(isinstance(i, range) for _, i in word):
            return np.stack(indices), q[0]
        return tuple(i.item() for i in indices), q[0].item()

    def swap(self, i: int, j: int) -> np.ndarray:
        """Square table of directions i != j, cached: the array S of shape
        (2, r_i, r_j) with gen_i[a] gen_j[b] = +-gen_j[S[0, a, b]] gen_i[S[1, a, b]].

        One batched `reorder` of the whole grid of two-letter words fills
        the table of the first ordered pair asked for; the reverse table is
        its inverse scatter, since gen_j[b'] gen_i[a'] = +-gen_i[a] gen_j[b]
        is the same square read backwards.  The scatter must fill every
        slot exactly once."""
        S = self._swaps.get((i, j))
        if S is None:
            ri, rj = len(self.gens[i - 1]), len(self.gens[j - 1])
            S, _ = self.reorder(((i, range(ri)), (j, range(rj))), (j, i))
            hits = np.bincount((S[0] * ri + S[1]).ravel(), minlength=rj * ri)
            if np.any(hits != 1):
                raise ConstructionError(
                    f"square table of directions ({i}, {j}) is not a bijection")
            back = np.empty((2, rj, ri), dtype=S.dtype)
            back[:, S[0], S[1]] = np.indices((ri, rj))
            self._swaps[(i, j)], self._swaps[(j, i)] = S, back
        return S


@dataclass
class ArithData:
    """Construction data attached to an arithmetic complex."""

    primes: tuple[int, ...]
    n1: int
    gens: GeneratorSystem
    vertex_group: np.ndarray  # coarse group element index of each vertex
    parities: np.ndarray  # (vertex, direction - 1) -> parity bit
    vstep: list[np.ndarray]  # [direction-1][generator] -> vertex permutation
    cover_index: int  # vertex count / group order

    @property
    def group(self):
        return self.gens.group

    def _code(self, elements, bits) -> np.ndarray:
        """The vertex codes (group element << g) | parity code."""
        return elements << self.gens.g | bits

    def left_translation(self, m) -> np.ndarray | None:
        """Left translation by (m, 0), m = (m00, m01, m10, m11) a matrix
        over Z/n1, as a vertex permutation: v -> the vertex (m * h_v, parity
        bits of v); None when that leaves the vertex set.

        Left translation commutes with the right steps by generator images,
        so it preserves every edge and keeps every parity.  Vertices map to
        vertices whenever (m, 0) lies in the vertex group: for the
        unipotent u = [[1, 1], [0, 1]], of odd order n1, that holds as soon
        as u lies in the projection of the vertex group."""
        G = self.group
        try:
            element = int(G.lookup(m))
        except ConstructionError:  # m is not in the coarse group
            return None
        bits = parity_code(self.parities)
        codes = self._code(self.vertex_group, bits)
        moved = self._code(G.left_multiplication(element)[self.vertex_group], bits)
        order = np.argsort(codes)
        pos = order[np.minimum(np.searchsorted(codes, moved, sorter=order), len(codes) - 1)]
        return pos if np.array_equal(codes[pos], moved) else None

    def wrong_step(self, parities) -> AxiomFailure | None:
        """The first vertex step that is not the right multiplication by its
        generator image and parity bit on the vertex codes (group element,
        parities), as an axiom-0 failure at its edge v*r_j + b; or two
        vertices with one code.  None when there is none; O(n sum r_j)."""
        bits = parity_code(parities)
        codes = self._code(self.vertex_group, bits)
        ordered = np.sort(codes)  # (np.unique would import numpy.ma, 20 ms)
        if np.any(ordered[1:] == ordered[:-1]):
            return AxiomFailure(0, 0, 0, "two vertices share a group element and parities")
        for j, images in enumerate(self.gens.images):
            for b, img in enumerate(images):
                step = self.group.right_multiplication(img)[self.vertex_group]
                moved = self._code(step, bits ^ 1 << j)
                ok = codes[self.vstep[j][b]] == moved
                if not ok.all():
                    why = f"vstep[{j}][{b}] is not the right multiplication by its generator"
                    return AxiomFailure(0, 1 << j, int(np.argmin(ok)) * len(images) + b, why)
        return None


def _bubble(gens, dirs, rows, positions):
    """Rewrite a word, given by its directions and one row of generator
    indices per letter, by the square rule at each position p in turn (the
    letters at p and p + 1 trade places).  Returns the new (dirs, rows)."""
    dirs, rows = list(dirs), list(rows)
    for p in positions:
        S = gens.swap(dirs[p], dirs[p + 1])
        rows[p], rows[p + 1] = S[0, rows[p], rows[p + 1]], S[1, rows[p], rows[p + 1]]
        dirs[p], dirs[p + 1] = dirs[p + 1], dirs[p]
    return dirs, rows


def _vertex_labels(ar: ArithData) -> list[str]:
    """Label "m00,m01,m10,m11|bits" of each vertex: the entries of its group
    element and its parity bits, direction 1 first."""
    g = ar.parities.shape[1]
    bits = ["".join(str((c >> j) & 1) for j in range(g)) for c in range(1 << g)]
    entries = quat._decode(ar.group.codes[ar.vertex_group], ar.n1).T.tolist()
    return ["{},{},{},{}|{}".format(*e, bits[c])
            for e, c in zip(entries, parity_code(ar.parities).tolist())]


def build_complex(primes, n1: int) -> CubicalComplex:
    """Build the arithmetic complex for the given primes and level.

    The result carries parities by construction and is validated against
    the cube axioms; a failure rejects the level with a diagnostic.
    """
    gens = GeneratorSystem(primes, n1)
    g = gens.g
    r = gens.regularities
    G = gens.group

    # vertex group: closure of (identity, 0) under (generator image, e_j),
    # breadth first, on vertex codes h * 2^g + parity bits (bit j-1 for
    # direction j).  Each level lists its new vertices in order of first
    # discovery: the previous level in order, the steps of each vertex by
    # direction, then generator.
    right = [[G.right_multiplication(img) for img in imgs] for imgs in gens.images]

    def neighbours(codes):
        h, c = codes >> g, codes & ((1 << g) - 1)
        return [(rm[h] << g) | (c ^ (1 << j)) for j in range(g) for rm in right[j]]

    vertex_of = np.full(G.order << g, -1, dtype=np.int64)
    level = np.array([G.identity << g], dtype=np.int64)
    vertex_of[level] = 0
    levels, n = [], 1
    while level.size:
        levels.append(level)
        reached = np.stack(neighbours(level), axis=1).ravel()
        reached = reached[vertex_of[reached] < 0]
        _, first = np.unique(reached, return_index=True)
        level = reached[np.sort(first)]
        vertex_of[level] = np.arange(n, n + level.size)
        n += level.size
    codes = np.concatenate(levels)

    steps = np.stack([vertex_of[c] for c in neighbours(codes)])
    offsets = np.cumsum((0,) + r)
    vstep = [steps[offsets[j]:offsets[j + 1]] for j in range(g)]
    vertex_group = codes >> g
    parities = ((codes[:, None] >> np.arange(g)) & 1).astype(np.uint8)

    # cube (v, tuple) is v * T + rank(tuple): rewrite all T words; a map is
    # the step across j by the leading letter (top, inv), then a tuple part
    tables: dict[int, CubeTable] = {0: CubeTable(n, T=1)}
    for mask in range(1, 1 << g):
        dirs = dirs_of(mask)
        sizes = [r[d - 1] for d in dirs]
        T = math.prod(sizes)
        tuples = np.indices(sizes).reshape(len(dirs), T)
        t = CubeTable(n * T, T=T)
        for k, j in enumerate(dirs):
            sub = T // r[j - 1]
            # top: pull direction j to the front of the word
            order, front = _bubble(gens, dirs, tuples, range(k - 1, -1, -1))
            rank = np.ravel_multi_index(front, [r[d - 1] for d in order])
            t.top[j] = FactoredMap(n * T, T, sub, rank % sub, vstep[j - 1], front[0])
            # bot: push direction j to the back, keep the leading block
            order, back = _bubble(gens, dirs, tuples, range(k, len(dirs) - 1))
            rank = np.ravel_multi_index(back, [r[d - 1] for d in order])
            t.bot[j] = FactoredMap(n * T, T, sub, rank // r[j - 1])
            # inversion: step across j, then the reversed edge followed by
            # the bottom block, rewritten into ascending order
            reverse = np.asarray(gens.iota[j - 1])[front[0]]
            _, flip = _bubble(gens, [j] + order[:-1], [reverse] + back[:-1], range(k))
            t.inv[j] = FactoredMap(n * T, T, T, np.ravel_multi_index(flip, sizes),
                                   vstep[j - 1], front[0])
        tables[mask] = t

    ar = ArithData(gens.primes, n1, gens, vertex_group, parities, vstep, n // G.order)
    X = CubicalComplex(g, r, tables, parities, functools.partial(_vertex_labels, ar))
    X.arith = ar

    report = verify_axioms(X)
    if not report.passed:
        f = report.failures[0]
        raise LevelRejectedError(
            f"level n1={n1} rejected: axiom {f.axiom} fails at mask {f.mask} "
            f"index {f.index} ({f.detail}); the congruence level is too shallow")
    ok, witness = verify_parities(X)
    if not ok:
        raise LevelRejectedError(
            f"level n1={n1} rejected: parity relation fails at {witness}")
    return X


def find_valid_level(primes):
    """Smallest odd prime level n1 below 10000 coprime to the primes that
    builds cleanly, with the complex built there: (n1, X).

    A prime without a generator alphabet fails here with
    GeneratorCountError before any level is tried; only levels the builder
    rejects as too shallow are skipped.
    """
    for p in primes:
        quat.enumerate_generators(p)
    for n1 in range(3, 10001, 2):
        if quat.is_prime(n1) and n1 % 2 == 1 and all(p % n1 != 0 for p in primes):
            try:
                return n1, build_complex(primes, n1)
            except LevelRejectedError:
                pass
    raise InvalidModulusError("no valid level found below 10000")


def irreducibility_report(X: CubicalComplex) -> dict:
    """Connected-component counts of every directional link (``X.link_edges``).

    Keyed by (j, direction tuple).  Note that a complex with parities always
    has at least two components in the pure single-direction links for g >= 2
    (a parity in another direction is constant along them); the counts are
    reported, not asserted.
    """
    out = {}
    for j, mask in X.link_pairs():
        _, top, bot = X.link_edges(j, mask)
        out[(j, dirs_of(mask))] = connected_components(X.unoriented_counts()[mask], top, bot)[0]
    return out


# ----------------------------------------------------------------------
# girth

@dataclass
class GirthResult:
    girth: int | None      # None when only a lower bound is known
    lower_bound: int       # certified lower bound (equals girth when found)
    bound: int             # the level-based target ceil(2 log_q(n1^2 / 4))
    satisfied: bool        # certified girth/lower bound >= bound
    max_depth: int


def girth_bound(primes, n1: int) -> int:
    q = max(primes)
    return math.ceil(2 * math.log(n1 * n1 / 4.0, q))


def girth(X: CubicalComplex, max_depth: int = 12) -> GirthResult:
    """Girth of an arithmetic complex: the length of the shortest
    homotopically nontrivial closed path.

    Breadth-first search over the universal cover, whose vertex reached by
    a generator word is the word's quaternion product Q up to sign (unique
    factorization), normalised by a0 > 0 (a0 is odd for every product of
    generators).  A step by a norm-p generator multiplies Q by it and
    divides by p when all four coefficients are divisible by p, which
    happens exactly when the step backtracks.  Two distinct cover vertices
    with the same image close a nontrivial loop; the minimal depth-sum over
    such collisions is the girth, and scanning to depth D certifies any
    loop of length <= 2D.
    """
    if X.arith is None:
        raise ConstructionError("girth requires an arithmetic complex")
    ar = X.arith
    gens = ar.gens
    steps = [(gens.primes[j - 1], q.coeffs(), ar.vstep[j - 1][i])
             for j in range(1, gens.g + 1) for i, q in enumerate(gens.gens[j - 1])]

    base = (1, 0, 0, 0)
    visited = {base}
    image_first = {0: (base, 0)}  # vertex index -> (state, depth)
    frontier = [(base, 0)]
    best = None
    depth = 0
    while depth < max_depth:
        if best is not None and 2 * depth >= best:
            break
        nxt = []
        for state, img in frontier:
            for p, gen, step in steps:
                img2 = int(step[img])
                a0, a1, a2, a3 = quat.hamilton(state, gen)
                if not (a0 % p or a1 % p or a2 % p or a3 % p):
                    a0, a1, a2, a3 = a0 // p, a1 // p, a2 // p, a3 // p
                new_state = (a0, a1, a2, a3) if a0 > 0 else (-a0, -a1, -a2, -a3)
                if new_state in visited:
                    continue
                visited.add(new_state)
                d_new = depth + 1
                seen = image_first.get(img2)
                if seen is not None:
                    cand = d_new + seen[1]
                    if best is None or cand < best:
                        best = cand
                else:
                    image_first[img2] = (new_state, d_new)
                nxt.append((new_state, img2))
        frontier = nxt
        depth += 1

    target = girth_bound(ar.primes, ar.n1)
    if best is not None:
        return GirthResult(best, best, target, best >= target, max_depth)
    lower = 2 * depth + 1
    return GirthResult(None, lower, target, lower >= target, max_depth)
