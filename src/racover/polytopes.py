"""Combinatorics of simple right-angled polytopes in dimensions 2 to 4.

A polytope is stored facet-first: the adjacency graph on facet indices plus
the list of vertices, each vertex given as the sorted tuple of the n facets
through it.  For a simple polytope this determines the whole face lattice:
a codimension-k face corresponds to a k-subset of facets contained in some
vertex, so face counts, subpolytopes and orbifold Euler characteristics can
all be read off combinatorially.

Facet ordering is deterministic for every generator in this module, so
serialized polytopes are stable across runs.
"""
from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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
    "relabel",
    "f_vector",
    "orbifold_euler_characteristic",
    "symmetry_group",
    "find_isomorphism",
    "greedy_facet_order",
    "antipodal_facet",
]


class PolytopeError(ValueError):
    pass


def _bits(mask: int) -> Iterable[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Polytope:
    """Immutable simple polytope, dimension 2 to 4, facet-first encoding.

    Treat instances as frozen; derived structures (neighbour lists, bit
    masks, the vertex-set lookup) are computed once at construction.
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

        pairs = set()
        for i, j in adjacency:
            if not (0 <= i < m and 0 <= j < m) or i == j:
                raise PolytopeError(f"bad adjacency pair ({i}, {j})")
            pairs.add((min(i, j), max(i, j)))
        self.adjacency = tuple(sorted(pairs))

        masks = [0] * m
        for i, j in self.adjacency:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        self.adjacency_masks = tuple(masks)
        self.neighbours = tuple(tuple(_bits(masks[i])) for i in range(m))

        vs = set()
        for v in vertices:
            t = tuple(sorted(v))
            if len(t) != dimension or len(set(t)) != dimension:
                raise PolytopeError(f"vertex {t} is not a set of {dimension} facets")
            if any(not 0 <= i < m for i in t):
                raise PolytopeError(f"vertex {t} has an invalid facet index")
            for a, b in itertools.combinations(t, 2):
                if not masks[a] >> b & 1:
                    raise PolytopeError(f"vertex {t} contains non-adjacent facets {a},{b}")
            vs.add(t)
        self.vertices = tuple(sorted(vs))
        self.vertex_sets = frozenset(frozenset(v) for v in self.vertices)

        covered = set(itertools.chain.from_iterable(self.vertices))
        if covered != set(range(m)):
            raise PolytopeError("some facet lies on no vertex")

        # facet adjacency graph must be connected
        seen = 1
        frontier = [0]
        while frontier:
            nxt = []
            for i in frontier:
                fresh = masks[i] & ~seen
                seen |= fresh
                nxt.extend(_bits(fresh))
            frontier = nxt
        if seen != (1 << m) - 1:
            raise PolytopeError("facet adjacency graph is disconnected")

        # one pass in ascending vertex order keeps each list sorted
        incidence: List[List[int]] = [[] for _ in range(m)]
        for k, v in enumerate(self.vertices):
            for i in v:
                incidence[i].append(k)
        self.facet_vertices: Tuple[Tuple[int, ...], ...] = tuple(map(tuple, incidence))
        self._digest: Optional[str] = None

    @property
    def facet_count(self) -> int:
        return len(self.facet_labels)

    def adjacent(self, i: int, j: int) -> bool:
        return bool(self.adjacency_masks[i] >> j & 1)

    @property
    def digest(self) -> str:
        """Content hash; equal digests mean identical facet-level structure."""
        if self._digest is None:
            h = hashlib.sha256()
            h.update(repr((self.dimension, self.facet_labels, self.adjacency, self.vertices)).encode())
            self._digest = h.hexdigest()
        return self._digest

    def same_structure(self, other: "Polytope") -> bool:
        return (
            self.dimension == other.dimension
            and self.facet_labels == other.facet_labels
            and self.adjacency == other.adjacency
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
    """The k-gon as a 2-polytope: facets are edges, cyclically adjacent."""
    if k < 3:
        raise PolytopeError("polygon needs at least 3 edges")
    if k == 3:
        adj = [(0, 1), (1, 2), (0, 2)]
    else:
        adj = [(i, (i + 1) % k) for i in range(k)]
    verts = [(i, (i + 1) % k) for i in range(k)]
    return Polytope(2, [f"e{i}" for i in range(k)], adj, verts)


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


def _triangles(masks: Sequence[int]) -> List[Tuple[int, int, int]]:
    out = []
    for i in range(len(masks)):
        above_i = masks[i] & (-1 << (i + 1))
        for j in _bits(above_i):
            for k in _bits(above_i & masks[j] & (-1 << (j + 1))):
                out.append((i, j, k))
    return out


@lru_cache(maxsize=None)
def make_dodecahedron() -> Polytope:
    """The right-angled dodecahedron, canonical face numbering 0..11."""
    masks = [0] * 12
    for i, j in _DODECA_ADJ:
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    verts = _triangles(masks)
    return Polytope(3, [f"f{i}" for i in range(12)], _DODECA_ADJ, verts)


# Exact arithmetic in Z[phi], phi = (1+sqrt5)/2, phi^2 = phi + 1.
# An element a + b*phi is the int pair (a, b).

def _gmul(x: Tuple[int, int], y: Tuple[int, int]) -> Tuple[int, int]:
    a, b = x
    c, d = y
    return (a * c + b * d, a * d + b * c + b * d)


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
    target = (0, 2)  # 2*phi
    masks = [0] * 120
    for i in range(120):
        for j in range(i + 1, 120):
            acc = (0, 0)
            for x, y in zip(pts[i], pts[j]):
                m = _gmul(x, y)
                acc = (acc[0] + m[0], acc[1] + m[1])
            if acc == target:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    adj = [(i, j) for i in range(120) for j in _bits(masks[i]) if j > i]

    cliques = []
    for i in range(120):
        above_i = masks[i] & (-1 << (i + 1))
        for j in _bits(above_i):
            common = above_i & masks[j] & (-1 << (j + 1))
            for k in _bits(common):
                for l in _bits(common & masks[k] & (-1 << (k + 1))):
                    cliques.append((i, j, k, l))
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
    """
    if not 0 <= F < P.facet_count:
        raise PolytopeError(f"no facet {F}")
    inc = P.neighbours[F]
    pos = {g: j for j, g in enumerate(inc)}
    verts = []
    for vi in P.facet_vertices[F]:
        verts.append(tuple(sorted(pos[g] for g in P.vertices[vi] if g != F)))
    adj = set()
    for v in verts:
        adj.update(itertools.combinations(v, 2))
    labels = [P.facet_labels[g] for g in inc]
    sub = Polytope(P.dimension - 1, labels, adj, verts)
    return sub, inc


def relabel(P: Polytope, prefix: str) -> Polytope:
    """Copy of P with labels '<prefix>.<old>'; used to keep summands apart."""
    return Polytope(
        P.dimension,
        [f"{prefix}.{l}" for l in P.facet_labels],
        P.adjacency,
        P.vertices,
    )


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


def identity_matching(P1: Polytope, F1: int, P2: Polytope, F2: int) -> FacetMatching:
    """Label-identity matching; valid when P2 is a relabelled copy of P1 and F1 = F2."""
    return FacetMatching(F1, F2, tuple((g, g) for g in P1.neighbours[F1]))


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
    F1, F2 = m.facet1, m.facet2
    sigma = dict(m.pairing)
    sigma_inv = {b: a for a, b in m.pairing}

    map1: List[Optional[int]] = [None] * P1.facet_count
    map2: List[Optional[int]] = [None] * P2.facet_count
    labels: List[str] = []
    for g in range(P1.facet_count):
        if g == F1:
            continue
        map1[g] = len(labels)
        if g in sigma:
            labels.append(f"{P1.facet_labels[g]}|{P2.facet_labels[sigma[g]]}")
        else:
            labels.append(P1.facet_labels[g])
    for h in range(P2.facet_count):
        if h == F2:
            continue
        if h in sigma_inv:
            map2[h] = map1[sigma_inv[h]]
        else:
            map2[h] = len(labels)
            labels.append(P2.facet_labels[h])
    if len(set(labels)) != len(labels):
        raise PolytopeError("facet label collision; relabel the summands first")

    adj = set()
    for i, j in P1.adjacency:
        if F1 in (i, j):
            continue
        a, b = map1[i], map1[j]
        adj.add((min(a, b), max(a, b)))  # type: ignore[type-var]
    for i, j in P2.adjacency:
        if F2 in (i, j):
            continue
        a, b = map2[i], map2[j]
        adj.add((min(a, b), max(a, b)))  # type: ignore[type-var]

    verts = []
    for v in P1.vertices:
        if F1 in v:
            continue
        verts.append(tuple(map1[g] for g in v))
    for v in P2.vertices:
        if F2 in v:
            continue
        verts.append(tuple(map2[g] for g in v))

    out = Polytope(P1.dimension, labels, adj, verts)
    return out, tuple(map1), tuple(map2)


def chain_sum(
    base: Polytope, attach: Sequence[int]
) -> Tuple[Polytope, Tuple[Tuple[Optional[int], ...], ...]]:
    """Glue len(attach) + 1 copies of `base` end to end in one pass.

    Copy s (labels '<s+1>.<old>') is glued to copy s + 1 at facet
    attach[s] of both by the label-identity matching.  The result equals
    folding `connected_sum` over relabelled copies: a merged facet is the
    run of pieces (s, g), (s + 1, g), ... of one base facet g, it sits at
    the position of its first piece in (summand, base index) order, and
    its label joins the pieces in summand order.  Returns the chain plus
    one provenance map per copy from base facets to chain facets (None
    for the glued facets).
    """
    m = base.facet_count
    for t, a in enumerate(attach):
        if t and (a == attach[t - 1] or base.adjacent(a, attach[t - 1])):
            raise PolytopeError(f"facet {a} of summand {t + 1} is not pure")
    for a in set(attach):
        identity_matching(base, a, base, a).validate(base, base)

    prov: List[List[Optional[int]]] = []
    pieces: List[List[str]] = []
    for s in range(len(attach) + 1):
        # copy s loses the facets it is glued at to copies s - 1 and s + 1
        glued = set(attach[max(s - 1, 0) : s + 1])
        merged = base.adjacency_masks[attach[s - 1]] if s else 0
        row: List[Optional[int]] = [None] * m
        for g in range(m):
            if g in glued:
                continue
            if merged >> g & 1:
                row[g] = prov[s - 1][g]
            else:
                row[g] = len(pieces)
                pieces.append([])
            pieces[row[g]].append(f"{s + 1}.{base.facet_labels[g]}")  # type: ignore[index]
        prov.append(row)

    adj = set()
    verts = []
    for row in prov:
        for i, j in base.adjacency:
            a, b = row[i], row[j]
            if a is not None and b is not None:
                adj.add((min(a, b), max(a, b)))
        for v in base.vertices:
            mapped = [row[g] for g in v]
            if None not in mapped:
                verts.append(mapped)
    out = Polytope(base.dimension, ["|".join(p) for p in pieces], adj, verts)
    return out, tuple(tuple(row) for row in prov)


# ---------------------------------------------------------------------------
# face counting

def _face_counts(P: Polytope) -> Dict[int, int]:
    """Number of codimension-k faces for k = 0..n, via subsets of vertices."""
    n = P.dimension
    subsets: List[set] = [set() for _ in range(n + 1)]
    for v in P.vertices:
        for k in range(1, n + 1):
            subsets[k].update(itertools.combinations(v, k))
    counts = {0: 1}
    for k in range(1, n + 1):
        counts[k] = len(subsets[k])
    return counts


def f_vector(P: Polytope) -> Tuple[int, ...]:
    """Face counts (f_0, ..., f_{n-1}), vertices first, facets last."""
    counts = _face_counts(P)
    n = P.dimension
    fv = tuple(counts[n - d] for d in range(n))
    if fv[-1] != P.facet_count:
        raise PolytopeError("face count disagrees with facet list")
    if n == 3 and fv[0] - fv[1] + fv[2] != 2:
        raise PolytopeError("Euler relation fails; polytope is not spherical")
    return fv


def orbifold_euler_characteristic(P: Polytope) -> Fraction:
    """Sum of (-1)^dim / 2^codim over all faces, the polytope included."""
    counts = _face_counts(P)
    n = P.dimension
    total = Fraction(0)
    for k, c in counts.items():
        total += Fraction((-1) ** (n - k) * c, 2 ** k)
    return total


def gauss_bonnet_pi2_multiple(P: Polytope) -> Fraction:
    """Volume of a right-angled hyperbolic 4-polytope as a multiple of pi^2.

    Gauss-Bonnet in dimension four: vol = (4 pi^2 / 3) * chi_orb.
    """
    if P.dimension != 4:
        raise PolytopeError("Gauss-Bonnet volume formula implemented for dimension 4 only")
    return Fraction(4, 3) * orbifold_euler_characteristic(P)


# ---------------------------------------------------------------------------
# automorphisms and isomorphisms

def greedy_facet_order(P: Polytope, start: Sequence[int]) -> List[int]:
    """Static facet order: given ones first, then repeatedly the facet with
    most already-ordered neighbours (ties to lowest index)."""
    m = P.facet_count
    placed = [False] * m
    scores = [0] * m
    order = list(start)
    for f in order:
        placed[f] = True
    for f in order:
        for g in P.neighbours[f]:
            scores[g] += 1
    for _ in range(m - len(order)):
        best = max(
            (f for f in range(m) if not placed[f]), key=lambda f: (scores[f], -f)
        )
        order.append(best)
        placed[best] = True
        for g in P.neighbours[best]:
            scores[g] += 1
    return order


def _iso_search(src: Polytope, dst: Polytope, find_all: bool) -> List[Tuple[int, ...]]:
    """Backtracking search for facet bijections src -> dst.

    Candidates for each facet are narrowed by intersecting the target
    adjacency masks of already-mapped neighbours; a full pairwise
    consistency check runs per placement, so accepted leaves preserve
    adjacency exactly.  The vertex families are compared at each leaf.
    """
    m = src.facet_count
    if dst.facet_count != m or src.dimension != dst.dimension:
        return []
    if len(src.adjacency) != len(dst.adjacency) or len(src.vertices) != len(dst.vertices):
        return []
    deg_src = [len(src.neighbours[i]) for i in range(m)]
    deg_dst = [len(dst.neighbours[i]) for i in range(m)]
    if sorted(deg_src) != sorted(deg_dst):
        return []
    deg_mask = {}
    for t, d in enumerate(deg_dst):
        deg_mask[d] = deg_mask.get(d, 0) | 1 << t

    # the greedy order keeps candidate masks tight
    order = greedy_facet_order(src, [0])
    prev_nbrs = []
    pos = {f: k for k, f in enumerate(order)}
    for k, f in enumerate(order):
        prev_nbrs.append([pos[g] for g in src.neighbours[f] if pos[g] < k])

    dst_masks = dst.adjacency_masks
    src_vertex_tuples = src.vertices
    dst_vertex_sets = dst.vertex_sets
    sols: List[Tuple[int, ...]] = []
    img = [0] * m

    def rec(k: int, used: int) -> bool:
        if k == m:
            perm = [0] * m
            for p, f in enumerate(order):
                perm[f] = img[p]
            for v in src_vertex_tuples:
                if frozenset(perm[i] for i in v) not in dst_vertex_sets:
                    return False
            sols.append(tuple(perm))
            return not find_all
        f = order[k]
        cand = deg_mask.get(deg_src[f], 0) & ~used
        tnb = 0
        for p in prev_nbrs[k]:
            cand &= dst_masks[img[p]]
            tnb |= 1 << img[p]
        for t in _bits(cand):
            if dst_masks[t] & used == tnb:
                img[k] = t
                if rec(k + 1, used | 1 << t):
                    return True
        return False

    rec(0, 0)
    return sols


_symmetry_cache: Dict[str, Tuple[Tuple[int, ...], ...]] = {}


def symmetry_group(P: Polytope) -> Tuple[Tuple[int, ...], ...]:
    """All facet permutations preserving adjacency and the vertex family."""
    cached = _symmetry_cache.get(P.digest)
    if cached is None:
        cached = tuple(sorted(_iso_search(P, P, find_all=True)))
        _symmetry_cache[P.digest] = cached
    return cached


def find_isomorphism(src: Polytope, dst: Polytope) -> Optional[Tuple[int, ...]]:
    """One facet bijection realizing an isomorphism, or None."""
    sols = _iso_search(src, dst, find_all=False)
    return sols[0] if sols else None


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
