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
that starts at the vertex.  Face and inversion maps are resolved by exact
integer rewriting of generator words (unique up to a sign).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import quaternions as quat
from .complexes import CubeTable, CubicalComplex, dirs_of, verify_axioms, verify_parities
from .errors import ConstructionError, InvalidModulusError, LevelRejectedError
from .quaternions import Quaternion


class GeneratorSystem:
    """Generator alphabets for each direction with their finite-group images.

    Holds, per direction j: the norm-p_j quaternions, the involution pairing
    iota_j (the position of the conjugate), and the images in the coarse and
    fine matrix groups.  Also memoizes exact word rewriting.
    """

    def __init__(self, primes, n1: int):
        primes = tuple(sorted(primes))
        if len(set(primes)) != len(primes):
            raise ConstructionError(f"primes must be distinct, got {primes}")
        self.primes = primes
        self.g = len(primes)
        self.n1 = n1
        self.gens: list[list[Quaternion]] = [quat.enumerate_generators(p) for p in primes]
        self.group = quat.build_group(primes, 2, n1)
        self.iota: list[list[int]] = []
        self.images: list[list[int]] = []
        self.images_fine: list[list[int]] = []
        G = self.group
        for p, gens in zip(primes, self.gens):
            self.iota.append([gens.index(q.conjugate()) for q in gens])
            img, img_f = [], []
            for q in gens:
                m = quat.embed(q, G.residue)
                if quat.mat_det(m, n1) != p % n1:
                    raise ConstructionError("generator image has wrong determinant")
                img.append(G.index[G.canonical(m)])
                img_f.append(G.index_fine[G.canonical_fine(m)])
            self.images.append(img)
            self.images_fine.append(img_f)
        self._conj_coeffs = [[q.conjugate().coeffs() for q in gens] for gens in self.gens]
        self._rewrite_memo: dict = {}

    @property
    def regularities(self) -> tuple[int, ...]:
        return tuple(len(g) for g in self.gens)

    def quaternion(self, j: int, i: int) -> Quaternion:
        """Generator i of direction j (directions are 1-based)."""
        return self.gens[j - 1][i]

    def conj_index(self, j: int, i: int) -> int:
        return self.iota[j - 1][i]

    def word_product(self, word) -> Quaternion:
        q = quat.QUATERNION_ONE
        for d, i in word:
            q = q * self.gens[d - 1][i]
        return q

    def reorder(self, word, dst_dirs):
        """Rewrite a generator word into the target direction order.

        word is a tuple of (direction, index) pairs with all directions
        distinct; dst_dirs is a permutation of those directions.  Returns
        (indices, u) with u = +-1 such that the word equals
        u * prod(generator(d, i) for d, i in zip(dst_dirs, indices)),
        exactly as integer quaternions.

        The factors are peeled off the product Q from the left: the factor
        of direction d is the generator a with conj(a) * Q = 0 (mod p_d) in
        every coefficient, and Q becomes conj(a) * Q / p_d.  Unique
        factorization of odd-norm Lipschitz quaternions makes that
        generator unique and leaves exactly +-1; anything else (no
        candidate, two candidates, another leftover) fails loudly.
        """
        word = tuple(word)
        dst_dirs = tuple(dst_dirs)
        key = (word, dst_dirs)
        hit = self._rewrite_memo.get(key)
        if hit is not None:
            return hit
        q = self.word_product(word).coeffs()
        indices = []
        for d in dst_dirs:
            p = self.primes[d - 1]
            found = []
            for i, a_bar in enumerate(self._conj_coeffs[d - 1]):
                rest = quat.hamilton(a_bar, q)
                if not any(c % p for c in rest):
                    found.append((i, rest))
            if len(found) != 1:
                raise ConstructionError(
                    f"rewriting of {word} into order {dst_dirs}: {len(found)} left "
                    f"divisors in direction {d}, expected exactly one")
            i, rest = found[0]
            indices.append(i)
            q = tuple(c // p for c in rest)
        if q not in ((1, 0, 0, 0), (-1, 0, 0, 0)):
            raise ConstructionError(
                f"rewriting of {word} into order {dst_dirs} leaves {q}, not a sign")
        result = (tuple(indices), q[0])
        self._rewrite_memo[key] = result
        return result


@dataclass
class ArithData:
    """Construction data attached to an arithmetic complex."""

    primes: tuple[int, ...]
    n1: int
    gens: GeneratorSystem
    vertex_group: np.ndarray  # coarse group element index of each vertex
    parities: np.ndarray  # (vertex, direction - 1) -> parity bit
    vstep: list[list[np.ndarray]]  # [direction-1][generator] -> vertex permutation
    cover_index: int  # vertex count / group order

    @property
    def group(self):
        return self.gens.group

    @cached_property
    def vertex_keys(self) -> list:
        """(coarse group element index, parity tuple) of each vertex."""
        return list(zip(self.vertex_group.tolist(), map(tuple, self.parities.tolist())))

    @cached_property
    def vertex_index(self) -> dict:
        """Vertex number of each key in vertex_keys."""
        return {v: i for i, v in enumerate(self.vertex_keys)}


def _tuple_rank(dirs, regular, tup):
    rank = 0
    for d, i in zip(dirs, tup):
        rank = rank * regular[d - 1] + i
    return rank


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

    steps = [vertex_of[c] for c in neighbours(codes)]
    offsets = np.cumsum((0,) + r)
    vstep = [steps[offsets[j]:offsets[j + 1]] for j in range(g)]
    vertex_group = codes >> g
    parities = ((codes[:, None] >> np.arange(g)) & 1).astype(np.uint8)

    tables: dict[int, CubeTable] = {0: CubeTable(n)}
    verts = np.arange(n)
    for mask in range(1, 1 << g):
        dirs = dirs_of(mask)
        sizes = [r[d - 1] for d in dirs]
        T = math.prod(sizes)
        t = CubeTable(n * T)
        for j in dirs:
            t.bot[j] = np.empty(n * T, dtype=np.int64)
            t.top[j] = np.empty(n * T, dtype=np.int64)
            t.inv[j] = np.empty(n * T, dtype=np.int64)
        sub_T = {j: T // r[j - 1] for j in dirs}
        for tup in itertools.product(*(range(s) for s in sizes)):
            rank = _tuple_rank(dirs, r, tup)
            rows = verts * T + rank
            word = tuple(zip(dirs, tup))
            for j in dirs:
                others = tuple(d for d in dirs if d != j)
                # top: pull direction j to the front of the word
                front, _ = gens.reorder(word, (j,) + others)
                f, dtup = front[0], front[1:]
                t.top[j][rows] = vstep[j - 1][f] * sub_T[j] + _tuple_rank(others, r, dtup)
                # bot: push direction j to the back, keep the leading block
                back, _ = gens.reorder(word, others + (j,))
                ctup = back[:-1]
                t.bot[j][rows] = verts * sub_T[j] + _tuple_rank(others, r, ctup)
                # inversion: step across j, then the reversed edge followed by
                # the bottom block, rewritten into ascending order
                inv_word = ((j, gens.conj_index(j, f)),) + tuple(zip(others, ctup))
                itup, _ = gens.reorder(inv_word, dirs)
                t.inv[j][rows] = vstep[j - 1][f] * T + _tuple_rank(dirs, r, itup)
        tables[mask] = t

    bits = ["".join(str((c >> j) & 1) for j in range(g)) for c in range(1 << g)]
    labels = ["{},{},{},{}|{}".format(*G.elements[h], bits[c])
              for h, c in zip(vertex_group.tolist(), (codes & ((1 << g) - 1)).tolist())]
    X = CubicalComplex(g, r, tables, parities, labels)
    X.arith = ArithData(gens.primes, n1, gens, vertex_group, parities, vstep, n // G.order)

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


def find_valid_level(primes, start: int = 3, limit: int = 10000) -> int:
    """Smallest odd prime level coprime to the primes that builds cleanly."""
    return _find_level(primes, start, limit)[0]


def _find_level(primes, start: int = 3, limit: int = 10000):
    """The level find_valid_level picks, with the complex built there.

    A prime without a generator alphabet fails here with
    GeneratorCountError before any level is tried; only levels the builder
    rejects as too shallow are skipped.
    """
    for p in primes:
        quat.enumerate_generators(p)
    for n1 in range(start, limit + 1, 2):
        if quat.is_prime(n1) and n1 % 2 == 1 and all(p % n1 != 0 for p in primes):
            try:
                return n1, build_complex(primes, n1)
            except LevelRejectedError:
                pass
    raise InvalidModulusError(f"no valid level found below {limit}")


def irreducibility_report(X: CubicalComplex) -> dict:
    """Connected-component counts of every directional link graph.

    Keyed by (j, direction tuple).  Note that a complex with parities always
    has at least two components in the pure single-direction links for g >= 2
    (a parity in another direction is constant along them); the counts are
    reported, not asserted.
    """
    from .complexes import connected_components, link_graph
    out = {}
    for mask in X.masks():
        for j in range(1, X.g + 1):
            if mask & (1 << (j - 1)) or (mask | (1 << (j - 1))) not in X.tables:
                continue
            count, _ = connected_components(link_graph(X, j, mask))
            out[(j, dirs_of(mask))] = count
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


def _commute_left(gens: GeneratorSystem, word: list, d_word: int, j: int, i: int):
    """Move generator (j, i) from the right of a direction-d_word block to
    its left, rewriting the block in place.  Returns the new index i."""
    for pos in range(len(word) - 1, -1, -1):
        combo, _ = gens.reorder(((d_word, word[pos]), (j, i)), (j, d_word))
        i, word[pos] = combo[0], combo[1]
    return i


def girth(X: CubicalComplex, max_depth: int = 12) -> GirthResult:
    """Girth of an arithmetic complex: the length of the shortest
    homotopically nontrivial closed path.

    Breadth-first search over the universal cover, whose vertices are
    tuples of per-direction reduced generator words (a step backtracks
    exactly when its generator is the involution partner of the previous
    one in the same direction; a step in direction j first commutes past
    the higher-direction blocks).  Two distinct cover vertices with the
    same image close a nontrivial loop; the minimal depth-sum over such
    collisions is the girth, and scanning to depth D certifies any loop
    of length <= 2D.
    """
    if X.arith is None:
        raise ConstructionError("girth requires an arithmetic complex")
    ar = X.arith
    gens = ar.gens
    g = gens.g
    iota = gens.iota

    base = tuple(() for _ in range(g))
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
            for j in range(1, g + 1):
                for i in range(gens.regularities[j - 1]):
                    img2 = int(ar.vstep[j - 1][i][img])
                    # commute (j, i) through the higher-direction blocks
                    blocks = [list(w) for w in state]
                    ii = i
                    for d in range(g, j, -1):
                        ii = _commute_left(gens, blocks[d - 1], d, j, ii)
                    wj = blocks[j - 1]
                    if wj and wj[-1] == iota[j - 1][ii]:
                        wj = wj[:-1]
                    else:
                        wj = wj + [ii]
                    blocks[j - 1] = wj
                    new_state = tuple(tuple(b) for b in blocks)
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
