"""Combinatorics of simple right-angled polytopes in dimensions 2 to 4.

A polytope is stored facet-first: the list of vertices, each the sorted
tuple of the n facets through it, and the facet adjacency graph, the pairs
of facets that share a vertex.  For a simple polytope the vertices
determine the whole face lattice: a codimension-k face corresponds to a
k-subset of facets contained in some vertex, so face counts, subpolytopes
and orbifold Euler characteristics can all be read off combinatorially.

Facet ordering is deterministic for every generator in this module, so
serialized polytopes are stable across runs.

Automorphisms and isomorphisms come from flag propagation.  A flag is a
vertex with an ordering of its n facets; each edge lies on exactly two
vertices, so the image of one flag fixes a whole map, walked vertex to
vertex without branching and then checked in full.  The symmetry group is
generated by the maps found from flags outside the orbit of the base flag
(a handful: four for the 120-cell), and listed breadth first from them.
The scan for those maps stops by orbit-stabiliser counting: once the
flags of the first vertex are scanned, the stabiliser of that vertex is
known, and when its order times the first vertex's orbit under the maps
found equals the number of flags, every flag is in the base flag's orbit.
Polytopes that are not flag-transitive never reach that count; there the
base flag's orbit is listed to skip flags, and every vertex is scanned.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import (
    Callable, Collection, Dict, FrozenSet, Hashable, Iterable, List, Optional, Sequence, Set, Tuple, TypeVar
)

__all__ = [
    "PolytopeError",
    "Polytope",
    "FacetMatching",
    "make_polygon",
    "make_dodecahedron",
    "make_120cell",
    "facet_subpolytope",
    "connected_sum",
    "chain_sum",
    "orbifold_euler_characteristic",
    "codim_faces",
    "symmetry_group",
    "symmetry_generators",
    "find_isomorphism",
    "greedy_facet_order",
    "antipodal_facet",
    "reachable",
]


class PolytopeError(ValueError):
    pass


_Node = TypeVar("_Node", bound=Hashable)


def reachable(start: _Node, moves: Callable[[_Node], Iterable[_Node]]) -> Set[_Node]:
    """Every node reachable from `start` under the neighbour function
    `moves`, `start` included, found breadth first."""
    seen = {start}
    queue = [start]
    # nodes appended to the queue are visited in turn
    for node in queue:
        for nxt in moves(node):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def _bits(mask: int) -> Iterable[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _pair_masks(pairs: Iterable[Tuple[int, int]], m: int) -> Tuple[int, ...]:
    """Bit j of masks[i], i and j below m, is set when the pairs hold (i, j)
    or (j, i)."""
    masks = [0] * m
    for i, j in pairs:
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    return tuple(masks)


def _vertex_fault(t: Tuple[int, ...], dimension: int, m: int, unseen: Set[Tuple[int, int]]) -> str:
    """What is wrong with the sorted vertex t, checked in this order: its
    size, its index range, then its first pair in `unseen`, which the
    adjacency does not name."""
    if len(t) != dimension or len(set(t)) != dimension:
        return f"vertex {t} is not a set of {dimension} facets"
    if t[0] < 0 or t[-1] >= m:
        return f"vertex {t} has an invalid facet index"
    a, b = next(p for p in itertools.combinations(t, 2) if p in unseen)
    return f"vertex {t} contains non-adjacent facets {a},{b}"


class Polytope:
    """Immutable simple polytope, dimension 2 to 4, facet-first encoding.

    Treat instances as frozen.  The given adjacency must equal the facet
    pairs that share a vertex row; duplicate and reversed pairs and rows
    are merged.  Neighbour lists and facet-vertex incidence are built at
    construction; the bit masks, the vertex-set lookup and the edge table
    (`edge_flips`, which checks that the polytope is simple), which only
    small polytopes need, are computed once, on first use.
    """

    def __init__(
        self,
        dimension: int,
        facet_labels: Sequence[str],
        adjacency: Iterable[Tuple[int, int]],
        vertices: Iterable[Sequence[int]],
    ):
        if not 2 <= dimension <= 4:
            raise PolytopeError(f"dimension {dimension} outside supported range 2..4")
        self.dimension = dimension
        self.facet_labels = tuple(str(x) for x in facet_labels)
        m = len(self.facet_labels)
        if len(set(self.facet_labels)) != m:
            raise PolytopeError("facet labels not unique")
        if m < dimension + 1:
            raise PolytopeError("too few facets")

        # the sorted rows in input order, duplicates merged, and the facet
        # pairs they show, which the given adjacency must equal
        rows = dict.fromkeys(map(tuple, map(sorted, vertices)))
        shown = set(itertools.chain.from_iterable(
            map(itertools.combinations, rows, itertools.repeat(2))
        ))
        unseen, extra = shown.copy(), []  # shown pairs not given, given pairs not shown
        for i, j in adjacency:
            if not (0 <= i < m and 0 <= j < m) or i == j:
                raise PolytopeError(f"bad adjacency pair ({i}, {j})")
            p = (i, j) if i < j else (j, i)
            unseen.discard(p)
            if p not in shown:
                extra.append(p)
        # every given pair holds two distinct valid indices, so n entries
        # none of whose pairs is unseen are n distinct valid facets
        if unseen or not {dimension}.issuperset(map(len, rows)):
            t = next(t for t in rows if len(t) != dimension
                     or not unseen.isdisjoint(itertools.combinations(t, 2)))
            raise PolytopeError(_vertex_fault(t, dimension, m, unseen))
        if extra:
            i, j = min(extra)
            raise PolytopeError(f"adjacent facets {i},{j} share no vertex")
        self.adjacency = tuple(sorted(shown))
        self.vertices = tuple(sorted(rows))

        # in sorted pair order, facet i meets its lower neighbours (as the
        # second entry) before its higher ones, so each list comes out sorted
        nb: List[List[int]] = [[] for _ in range(m)]
        for i, j in self.adjacency:
            nb[i].append(j)
            nb[j].append(i)
        self.neighbours = tuple(map(tuple, nb))

        # one pass in ascending vertex order keeps each list sorted
        incidence: List[List[int]] = [[] for _ in range(m)]
        for k, v in enumerate(self.vertices):
            for i in v:
                incidence[i].append(k)
        if not all(incidence):
            raise PolytopeError("some facet lies on no vertex")

        if len(reachable(0, nb.__getitem__)) != m:
            raise PolytopeError("facet adjacency graph is disconnected")

        self.facet_vertices: Tuple[Tuple[int, ...], ...] = tuple(map(tuple, incidence))
        # kept on the polytope, not in a module cache, so that a chain's are freed with it
        self.subpolytopes: Dict[int, Tuple[Polytope, Tuple[int, ...]]] = {}

    @cached_property
    def adjacency_masks(self) -> Tuple[int, ...]:
        """Bit j of adjacency_masks[i] is set when facets i and j are adjacent."""
        return _pair_masks(self.adjacency, self.facet_count)

    @cached_property
    def vertex_sets(self) -> FrozenSet[FrozenSet[int]]:
        return frozenset(map(frozenset, self.vertices))

    @cached_property
    def edge_flips(self) -> _Flips:
        """The table of `_edge_flips`, whose checks it raises."""
        return _edge_flips(self)

    @property
    def facet_count(self) -> int:
        return len(self.facet_labels)

    def adjacent(self, i: int, j: int) -> bool:
        return j in self.neighbours[i]

    def same_structure(self, other: "Polytope") -> bool:
        return (
            self.dimension == other.dimension
            and self.facet_labels == other.facet_labels
            and self.vertices == other.vertices
        )

    def __repr__(self) -> str:
        return (
            f"Polytope(dim={self.dimension}, facets={self.facet_count}, "
            f"vertices={len(self.vertices)})"
        )


# ---------------------------------------------------------------------------
# generators

def make_polygon(k: int) -> Polytope:
    """The k-gon as a 2-polytope: facets are edges, cyclically adjacent,
    and each vertex is a pair of adjacent edges."""
    if k < 3:
        raise PolytopeError("polygon needs at least 3 edges")
    edges = [(i, (i + 1) % k) for i in range(k)]
    return Polytope(2, [f"e{i}" for i in range(k)], edges, edges)


# Canonical face numbering of the dodecahedron used throughout this project:
# face 0 on top, faces 1..5 the upper ring (cyclic), faces 6..10 the lower
# ring (cyclic, face 5+k below the gap between upper faces k and k+1), face
# 11 at the bottom.  The facet adjacency graph is the icosahedron skeleton.
_DODECA_ADJ = (
    [(0, k) for k in range(1, 6)]
    + [(k, k % 5 + 1) for k in range(1, 6)]
    + [(k, 5 + k) for k in range(1, 6)]
    + [(k, 5 + k % 5 + 1) for k in range(1, 6)]
    + [(5 + k, 5 + k % 5 + 1) for k in range(1, 6)]
    + [(5 + k, 11) for k in range(1, 6)]
)


def _cliques(masks: Sequence[int], size: int) -> List[Tuple[int, ...]]:
    """The `size`-cliques of the graph whose vertex i has neighbour bits
    masks[i], as ascending tuples in lexicographic order."""
    # each partial clique with the bits of the vertices above its last one
    # that are adjacent to all of it
    grown: List[Tuple[Tuple[int, ...], int]] = [((), (1 << len(masks)) - 1)]
    for _ in range(size):
        grown = [(c + (j,), common & masks[j] & (-1 << (j + 1)))
                 for c, common in grown for j in _bits(common)]
    return [c for c, _ in grown]


@lru_cache(maxsize=None)
def make_dodecahedron() -> Polytope:
    """The right-angled dodecahedron, canonical face numbering 0..11."""
    verts = _cliques(_pair_masks(_DODECA_ADJ, 12), 3)
    return Polytope(3, [f"f{i}" for i in range(12)], _DODECA_ADJ, verts)


# Exact arithmetic in Z[phi], phi = (1+sqrt5)/2, phi^2 = phi + 1.
# An element a + b*phi is the int pair (a, b).

def _600cell_points() -> List[Tuple[Tuple[int, int], ...]]:
    """The 120 vertices of the 600-cell, doubled so coordinates live in Z[phi].

    Orbits: 8 axis points (+-2, 0, 0, 0), 16 half-integer points
    (+-1, +-1, +-1, +-1), and 96 even permutations of (+-phi, +-1, +-1/phi, 0).
    """
    pts = set()
    for i in range(4):
        for s in (2, -2):
            v = [(0, 0)] * 4
            v[i] = (s, 0)
            pts.add(tuple(v))
    for signs in itertools.product((1, -1), repeat=4):
        pts.add(tuple((s, 0) for s in signs))
    evens = [p for p in itertools.permutations(range(4)) if _perm_parity(p) == 0]
    for perm in evens:
        for s0, s1, s2 in itertools.product((1, -1), repeat=3):
            vals = [(0, s0), (s1, 0), (-s2, s2), (0, 0)]  # phi, 1, phi-1, 0
            v = [None] * 4  # type: ignore[list-item]
            for slot, val in zip(perm, vals):
                v[slot] = val
            pts.add(tuple(v))  # type: ignore[arg-type]
    assert len(pts) == 120
    return sorted(pts)


def _perm_parity(p: Sequence[int]) -> int:
    inv = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
    return inv & 1


@lru_cache(maxsize=None)
def make_120cell() -> Polytope:
    """The right-angled 120-cell, via the 600-cell in exact coordinates.

    Facets of the 120-cell correspond to vertices of the 600-cell; facets
    are adjacent when the vertices are joined by a 600-cell edge (inner
    product 2*phi at doubled scale); 120-cell vertices correspond to the
    600 tetrahedral cells, i.e. 4-cliques of the edge graph.
    """
    pts = _600cell_points()
    adj = []
    for i, j in itertools.combinations(range(120), 2):
        # (a + b*phi)(c + d*phi) = ac + bd + (ad + bc + bd)*phi
        re = im = 0
        for (a, b), (c, d) in zip(pts[i], pts[j]):
            re += a * c + b * d
            im += a * d + b * c + b * d
        if (re, im) == (0, 2):  # 2*phi
            adj.append((i, j))
    cliques = _cliques(_pair_masks(adj, 120), 4)
    assert len(cliques) == 600
    return Polytope(4, [f"f{i}" for i in range(120)], adj, cliques)


# ---------------------------------------------------------------------------
# derived polytopes

def facet_subpolytope(P: Polytope, F: int) -> Tuple[Polytope, Tuple[int, ...]]:
    """The facet F as an (n-1)-polytope, plus the incidence map.

    Facets of the result are the facets of P adjacent to F, in ascending
    P-index order; the incidence map sends sub-facet position j to the
    P-facet it came from.  Sub-vertices are the P-vertices on F with F
    dropped; two sub-facets are adjacent when they share such a vertex.
    Built once per polytope and facet, and kept in `P.subpolytopes`.
    """
    facet = P.subpolytopes.get(F)
    if facet is None:
        if not 0 <= F < P.facet_count:
            raise PolytopeError(f"no facet {F}")
        inc = P.neighbours[F]
        pos = {g: j for j, g in enumerate(inc)}
        verts = []
        for vi in P.facet_vertices[F]:
            verts.append(tuple(sorted(pos[g] for g in P.vertices[vi] if g != F)))
        adj = itertools.chain.from_iterable(map(itertools.combinations, verts, itertools.repeat(2)))
        labels = [P.facet_labels[g] for g in inc]
        facet = P.subpolytopes[F] = (Polytope(P.dimension - 1, labels, adj, verts), inc)
    return facet


@dataclass(frozen=True)
class FacetMatching:
    """Identification of facet `facet1` of one polytope with `facet2` of another.

    `pairing` lists (G, sigma(G)) for every facet G adjacent to facet1; it
    must induce a bijection of the vertices on facet1 onto those on facet2
    and preserve adjacency among the paired facets.
    """

    facet1: int
    facet2: int
    pairing: Tuple[Tuple[int, int], ...]

    def validate(self, P1: Polytope, P2: Polytope) -> None:
        if P1.dimension != P2.dimension:
            raise PolytopeError("dimension mismatch")
        n1 = P1.neighbours[self.facet1]
        n2 = P2.neighbours[self.facet2]
        src = [a for a, _ in self.pairing]
        dst = [b for _, b in self.pairing]
        if sorted(src) != sorted(n1) or sorted(dst) != sorted(n2):
            raise PolytopeError("pairing is not a bijection of the glued facets' neighbours")
        sigma = dict(self.pairing)
        for a, a2 in itertools.combinations(src, 2):
            if P1.adjacent(a, a2) != P2.adjacent(sigma[a], sigma[a2]):
                raise PolytopeError("pairing does not preserve adjacency")
        targets = set()
        for vi in P1.facet_vertices[self.facet1]:
            image = frozenset(
                sigma[g] if g != self.facet1 else self.facet2 for g in P1.vertices[vi]
            )
            if image not in P2.vertex_sets:
                raise PolytopeError("pairing does not map vertices to vertices")
            targets.add(image)
        if len(targets) != len(P2.facet_vertices[self.facet2]):
            raise PolytopeError("pairing does not cover the target facet's vertices")


def _glue(
    parts: Sequence[Tuple[Polytope, str]],
    joins: Sequence[Tuple[int, int, Dict[int, int]]],
) -> Tuple[Polytope, Tuple[Tuple[Optional[int], ...], ...]]:
    """Glue parts[s] = (polytope, label prefix) end to end in one pass.

    joins[s] = (F, F2, sigma) glues facet F of part s to facet F2 of part
    s + 1; both disappear, and sigma maps each neighbour of F to its
    partner at F2, with which it merges.  Facets are laid out part by part
    in index order: a merged facet sits at the position of its first piece
    and its label joins the pieces' prefixed labels with '|'.  Vertices on
    a glued facet become interior and are dropped.  Returns the sum plus
    one provenance map per part from its facets to the sum's (None for the
    glued facets).
    """
    prov: List[List[Optional[int]]] = []
    pieces: List[List[str]] = []
    for s, (P, prefix) in enumerate(parts):
        glued = set()
        partner: Dict[int, Optional[int]] = {}
        if s:
            _, F2, sigma = joins[s - 1]
            glued.add(F2)
            partner = {b: prov[-1][a] for a, b in sigma.items()}
        if s < len(joins):
            glued.add(joins[s][0])
        row: List[Optional[int]] = [None] * P.facet_count
        for g, label in enumerate(P.facet_labels):
            if g in glued:
                continue
            if g in partner:
                row[g] = partner[g]
            else:
                row[g] = len(pieces)
                pieces.append([])
            pieces[row[g]].append(prefix + label)  # type: ignore[index]
        prov.append(row)

    adj = ((row[i], row[j]) for (P, _), row in zip(parts, prov) for i, j in P.adjacency
           if row[i] is not None and row[j] is not None)
    verts = []
    for (P, _), row in zip(parts, prov):
        for v in P.vertices:
            mapped = [row[g] for g in v]
            if None not in mapped:
                verts.append(mapped)
    # the pairs are mapped as the constructor reads them and the labels
    # joined last: both keep certification's peak memory lower
    labels = ["|".join(p) for p in pieces]
    if len(set(labels)) != len(labels):
        raise PolytopeError("facet label collision; relabel the summands first")
    out = Polytope(parts[0][0].dimension, labels, adj, verts)
    return out, tuple(map(tuple, prov))


def connected_sum(
    P1: Polytope, P2: Polytope, m: FacetMatching
) -> Tuple[Polytope, Tuple[Optional[int], ...], Tuple[Optional[int], ...]]:
    """Glue P1 and P2 along the matched facets, which disappear.

    Each facet adjacent to the glued one merges with its partner on the
    other side (they continue each other across the gluing locus); vertices
    on the glued facets become interior and are dropped.  Returns the sum
    plus provenance maps from old facet indices to new (None for the glued
    facets).
    """
    m.validate(P1, P2)
    out, (map1, map2) = _glue([(P1, ""), (P2, "")], [(m.facet1, m.facet2, dict(m.pairing))])
    return out, map1, map2


def chain_sum(
    base: Polytope, attach: Sequence[int]
) -> Tuple[Polytope, Tuple[Tuple[Optional[int], ...], ...]]:
    """Glue len(attach) + 1 copies of `base` end to end in one pass.

    Copy s (labels '<s+1>.<old>') is glued to copy s + 1 at facet
    attach[s] of both by the label-identity matching, so a merged facet is
    the run of pieces (s, g), (s + 1, g), ... of one base facet g.
    Returns the chain plus one provenance map per copy from base facets to
    chain facets (None for the glued facets).
    """
    for t, a in enumerate(attach):
        if not 0 <= a < base.facet_count:
            raise PolytopeError(f"no facet {a}")
        if t and (a == attach[t - 1] or base.adjacent(a, attach[t - 1])):
            raise PolytopeError(f"facet {a} of summand {t + 1} is not pure")
    parts = [(base, f"{s + 1}.") for s in range(len(attach) + 1)]
    joins = [(a, a, {g: g for g in base.neighbours[a]}) for a in attach]
    return _glue(parts, joins)


# ---------------------------------------------------------------------------
# face counting

def codim_faces(P: Polytope, k: int) -> Dict[Tuple[int, ...], None]:
    """The faces of codimension k, 2 < k < n (the edges of a 4-polytope),
    as dict keys, each the sorted tuple of the k facets it lies on.  The
    vertices are distinct sorted tuples, so their k-subsets name each face
    once after deduplication; a dict holds them in less memory than a set."""
    return dict.fromkeys(itertools.chain.from_iterable(
        map(itertools.combinations, P.vertices, itertools.repeat(k))
    ))


def _faces(P: Polytope, k: int) -> Collection[Tuple[int, ...]]:
    """The faces of codimension k, for 1 < k <= n, as sorted facet tuples:
    the ridges are the adjacency when n >= 3 (the constructor requires it
    to be the pairs inside a vertex) and the corners the vertices, so only
    2 < k < n needs `codim_faces`."""
    n = P.dimension
    return P.vertices if k == n else P.adjacency if k == 2 else codim_faces(P, k)


def _face_counts(P: Polytope) -> Dict[int, int]:
    """Number of codimension-k faces for k = 0..n."""
    counts = {k: len(_faces(P, k)) for k in range(2, P.dimension + 1)}
    return {0: 1, 1: P.facet_count, **counts}


def _orbifold_sum(counts: Dict[int, int]) -> Fraction:
    """Sum of (-1)^dim / 2^codim over faces counted by codimension 0..n."""
    n = max(counts)
    return sum(Fraction((-1) ** (n - k) * c, 2 ** k) for k, c in counts.items())


def orbifold_euler_characteristic(P: Polytope) -> Fraction:
    """Sum of (-1)^dim / 2^codim over all faces, the polytope included."""
    return _orbifold_sum(_face_counts(P))


# ---------------------------------------------------------------------------
# automorphisms and isomorphisms

def greedy_facet_order(P: Polytope, start: Sequence[int]) -> List[int]:
    """Static facet order: given ones first, then repeatedly the facet with
    most already-ordered neighbours (ties to lowest index).

    Unplaced facets sit in bitmask buckets by that count, so each step
    takes the lowest facet of the highest non-empty bucket."""
    order = list(start)
    placed = set(order)
    scores = [0] * P.facet_count
    for f in order:
        for g in P.neighbours[f]:
            scores[g] += 1
    buckets = [0] * (max(map(len, P.neighbours), default=0) + 1)
    for f, s in enumerate(scores):
        if f not in placed:
            buckets[s] |= 1 << f
    top = len(buckets) - 1
    for _ in range(P.facet_count - len(order)):
        while not buckets[top]:
            top -= 1
        best = (buckets[top] & -buckets[top]).bit_length() - 1
        buckets[top] ^= 1 << best
        order.append(best)
        placed.add(best)
        for g in P.neighbours[best]:
            if g not in placed:
                s = scores[g]
                buckets[s] ^= 1 << g
                buckets[s + 1] |= 1 << g
                top = max(top, s + 1)
            scores[g] += 1
    return order


_Perm = Tuple[int, ...]  # facet permutation: sigma[f] is the image of f
_Flag = Tuple[int, ...]  # the facets of one vertex, in a chosen order
_Flips = List[List[Tuple[int, int]]]


def _edge_flips(P: Polytope) -> _Flips:
    """The edge table of P, built once as `Polytope.edge_flips`:
    flips[k][i] = (k2, g) when dropping the i-th facet of vertex k leaves
    an edge whose other vertex is k2, where facet g takes the dropped
    one's place.

    Raises unless every edge lies on exactly two vertices and the vertex
    graph is connected, as propagation needs, and the sum of (-1)^dim
    over all faces, the polytope's own included, is 1, as for a ball.
    That Euler relation rules out rows that close up into a torus, but is
    necessary only: in dimension 4 every closed 3-manifold meets it.
    """
    ends: Dict[Tuple[int, ...], List[Tuple[int, int]]] = {}
    for k, v in enumerate(P.vertices):
        for i in range(len(v)):
            ends.setdefault(v[:i] + v[i + 1 :], []).append((k, i))
    flips: _Flips = [[(-1, -1)] * P.dimension for _ in P.vertices]
    for e, on in ends.items():
        if len(on) != 2:
            raise PolytopeError(f"edge {e} does not lie on exactly two vertices ({len(on)} found)")
        (k, i), (k2, i2) = on
        flips[k][i] = (k2, P.vertices[k2][i2])
        flips[k2][i2] = (k, P.vertices[k][i])
    if len(reachable(0, lambda k: (k2 for k2, _ in flips[k]))) != len(P.vertices):
        raise PolytopeError("vertex graph is disconnected")
    euler = sum((-1) ** (P.dimension - k) * c for k, c in _face_counts(P).items())
    if euler != 1:
        raise PolytopeError(f"faces break the Euler relation: sum of (-1)^dim is {euler}, not 1")
    return flips


def _propagate(src: Polytope, dst: Polytope, target: int, flag: _Flag) -> Optional[_Perm]:
    """The isomorphism src -> dst sending the facets of src.vertices[0], in
    order, to `flag`, an ordering of the facets of dst.vertices[target];
    None if there is none.

    Walking vertex to vertex across edges, read from both edge tables
    (`Polytope.edge_flips`), fixes each facet's image without branching;
    the result is then checked in full by `_isomorphism_fault`.
    """
    m = src.facet_count
    src_nb, dst_nb = src.neighbours, dst.neighbours
    src_flips, dst_flips = src.edge_flips, dst.edge_flips
    img = [-1] * m
    for f, t in zip(src.vertices[0], flag):
        if len(src_nb[f]) != len(dst_nb[t]):
            return None
        img[f] = t
    at = [-1] * len(src.vertices)
    at[0] = target
    queue = [0]
    for k in queue:
        w = dst.vertices[at[k]]
        for f, (k2, g) in zip(src.vertices[k], src_flips[k]):
            w2, h = dst_flips[at[k]][w.index(img[f])]
            if img[g] < 0:
                if len(src_nb[g]) != len(dst_nb[h]):
                    return None
                img[g] = h
            elif img[g] != h:
                return None
            if at[k2] < 0:
                at[k2] = w2
                queue.append(k2)
    return None if _isomorphism_fault(src, dst, img) else tuple(img)


def _isomorphism_fault(src: Polytope, dst: Polytope, sigma: Sequence[int]) -> Optional[str]:
    """Why the facet map sigma is no isomorphism src -> dst, or None when
    it is one: a bijection onto dst's facets mapping the vertex family
    onto dst's, which also preserves adjacency.  The one test of every
    facet map, whether propagated or read off a construction."""
    if sorted(sigma) != list(range(dst.facet_count)):
        return "facet map is not a bijection"
    if {frozenset(map(sigma.__getitem__, v)) for v in src.vertices} != dst.vertex_sets:
        return "facet map breaks the vertex family"
    return None


def _comparable(src: Polytope, dst: Polytope) -> bool:
    """Cheap invariants every isomorphism preserves."""
    return (
        src.dimension == dst.dimension
        and src.facet_count == dst.facet_count
        and len(src.vertices) == len(dst.vertices)
        and sorted(map(len, src.neighbours)) == sorted(map(len, dst.neighbours))
    )


def _orbit(start: Tuple[int, ...], gens: Sequence[_Perm]) -> Set[Tuple[int, ...]]:
    """Images of a tuple of facets under the group generated by `gens`.
    From a flag this is its orbit; from the identity permutation, the
    group itself."""
    # itemgetter(*t)(g) = (g[t[0]], g[t[1]], ...), as a tuple: len(t) >= 2
    return reachable(start, lambda t: map(itemgetter(*t), gens))


@lru_cache(maxsize=None)
def symmetry_generators(P: Polytope) -> Tuple[_Perm, ...]:
    """Generators of the automorphism group of P, computed once per polytope.

    A flag is a vertex with an ordering of its facets; the base flag is
    P.vertices[0] in sorted order.  An automorphism is fixed by the flag
    it sends the base flag to, so the group acts freely on flags.  Flags
    are tried in vertex order, and one is propagated only when it lies
    outside the orbit of the base flag under the generators found so
    far: then it either admits no automorphism or yields a new generator.
    A flag that admits none rules out its whole orbit under the generators
    found so far (were tau to send the base flag to g(flag), g^-1 tau
    would send it to flag), so that orbit is skipped too.

    The scan stops by orbit-stabiliser counting.  Once the flags of vertex
    0 are scanned, the generators found generate its whole stabiliser, of
    order the base flag's orbit size then; later generators cannot enlarge
    it.  So after each later generator the group found has order (orbit of
    vertex 0 as a facet set) x (that stabiliser order).  This equals the
    number of flags only when the stabiliser has order n! and the orbit
    holds every vertex; then every flag is in the base flag's orbit, no
    later flag can add a generator, and the scan stops without building
    that orbit.  Otherwise, as on polytopes that are not flag-transitive,
    the orbit is built to skip flags and the scan goes on; where vertex
    0's stabiliser is smaller than n!, no vertex orbit is built at all.
    """
    base = P.vertices[0]
    per_vertex = math.factorial(P.dimension)  # flags at one vertex
    found: List[_Perm] = []
    orbit = {base}
    failed: Set[_Flag] = set()
    stabiliser = 0  # order of the stabiliser of vertex 0, once its flags are scanned
    scan = ((k, flag) for k, v in enumerate(P.vertices) for flag in itertools.permutations(v))
    for k, flag in scan:
        if k and not stabiliser:
            stabiliser = len(orbit)
        if flag in orbit or flag in failed:
            continue
        sigma = _propagate(P, P, k, flag)
        if sigma is None:
            failed |= _orbit(flag, found)
            continue
        found.append(sigma)
        # both factors of (orbit of vertex 0) x stabiliser must be full
        if stabiliser == per_vertex:
            vertices = reachable(
                frozenset(base), lambda s: map(frozenset, map(itemgetter(*s), found))
            )
            if len(vertices) == len(P.vertices):
                break
        orbit = _orbit(base, found)
    return tuple(found)


@lru_cache(maxsize=None)
def symmetry_group(P: Polytope) -> Tuple[_Perm, ...]:
    """All facet permutations preserving adjacency and the vertex family,
    sorted, computed once per polytope; sigma[f] is the image of facet f."""
    identity = tuple(range(P.facet_count))
    return tuple(sorted(_orbit(identity, symmetry_generators(P))))


def find_isomorphism(src: Polytope, dst: Polytope) -> Optional[_Perm]:
    """The facet bijection realizing an isomorphism src -> dst, or None.

    Of all isomorphisms, the one whose images listed in
    `greedy_facet_order(src, [0])` are lexicographically least.  That
    order starts at facet 0, which is also the first facet of
    src.vertices[0], so flags are tried by ascending image of facet 0 and
    the first image that admits an isomorphism settles the search.
    """
    if not _comparable(src, dst):
        return None
    order = greedy_facet_order(src, [0])
    for first in range(dst.facet_count):
        best: Optional[Tuple[List[int], _Perm]] = None
        for k in dst.facet_vertices[first]:
            rest = [t for t in dst.vertices[k] if t != first]
            for tail in itertools.permutations(rest):
                sigma = _propagate(src, dst, k, (first,) + tail)
                if sigma is not None:
                    key = [sigma[f] for f in order]
                    if best is None or key < best[0]:
                        best = (key, sigma)
        if best is not None:
            return best[1]
    return None


def antipodal_facet(P: Polytope, f: int) -> int:
    """The unique facet whose closed neighbourhood avoids that of f."""
    closed = P.adjacency_masks[f] | 1 << f
    hits = [
        g
        for g in range(P.facet_count)
        if g != f and not closed >> g & 1 and P.adjacency_masks[g] & closed == 0
    ]
    if len(hits) != 1:
        raise PolytopeError(f"facet {f} has no unique antipode")
    return hits[0]
