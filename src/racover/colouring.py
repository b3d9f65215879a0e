"""Facet colourings by vectors of GF(2)^s and their basic calculus.

A colour is a bit-packed int: coordinate i of the vector is bit i-1, so
coordinate 1 is the least significant bit and the tuple (v1, ..., vs) is
encoded as v1*2^0 + ... + vs*2^(s-1).  Properness asks the colours at each
vertex to be linearly independent; orientability of the associated cover is
equivalent to a covector hitting 1 on every colour.
"""
from __future__ import annotations

import bisect
import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from . import gf2
from .polytopes import (
    Polytope,
    facet_subpolytope,
    symmetry_group,
)

__all__ = [
    "ColouringError",
    "Colouring",
    "PartialColouring",
    "is_proper",
    "dependent_vertex",
    "image_dimension",
    "is_orientable",
    "zero_sum_triples",
    "non_orientability_witness",
    "from_k_colouring",
    "induced_colouring",
    "equivalent",
    "normal_sequence",
    "orbit_keys",
    "canonical_form",
    "automorphism_order",
    "transport",
]


class ColouringError(ValueError):
    pass


@dataclass(frozen=True)
class Colouring:
    """Total assignment of GF(2)^rank vectors to the facets of a polytope.

    Zero colours are representable (they arise on error paths and in
    degenerate inputs) but can never be part of a proper colouring.
    Properness on `polytope` is computed at most once per instance.
    """

    polytope: Polytope
    rank: int
    colours: Tuple[int, ...]

    def __post_init__(self):
        if self.rank < 1:
            raise ColouringError("rank must be at least 1")
        if len(self.colours) != self.polytope.facet_count:
            raise ColouringError("one colour per facet required")
        for c in self.colours:
            if c < 0 or c.bit_length() > self.rank:
                raise ColouringError(f"colour {c} outside GF(2)^{self.rank}")

    @cached_property
    def _proper(self) -> bool:
        return _independent_at_vertices(self.polytope, self.colours)


@dataclass(frozen=True)
class PartialColouring:
    """Colouring with gaps; proper at every fully assigned vertex, the only
    vertices its construction tests (`dependent_vertex`)."""

    polytope: Polytope
    rank: int
    colours: Tuple[Optional[int], ...]

    def __post_init__(self):
        if self.rank < 1:
            raise ColouringError("rank must be at least 1")
        if len(self.colours) != self.polytope.facet_count:
            raise ColouringError("one entry per facet required")
        for c in self.colours:
            if c is not None and (c < 0 or c.bit_length() > self.rank):
                raise ColouringError(f"colour {c} outside GF(2)^{self.rank}")
        v = dependent_vertex(self.polytope, self.colours)
        if v is not None:
            raise ColouringError(f"dependent colours at vertex {v}")

    @property
    def assigned(self) -> int:
        return sum(1 for c in self.colours if c is not None)


# Whether the colours at a vertex are linearly independent, by colour
# tuple: a chain has thousands of vertices but a few hundred distinct
# tuples, and a census meets the same tuples at every leaf.  Only tuples
# of assigned colours enter it.  Process-wide, and cleared before it
# would pass _INDEPENDENCE_LIMIT entries.
_independence: Dict[Tuple[int, ...], bool] = {}
_INDEPENDENCE_LIMIT = 1 << 14
# _COLUMN[j] reads the j-th facet of a vertex (dimension is at most 4)
_COLUMN = tuple(map(operator.itemgetter, range(4)))


def _vertex_colours(
    P: Polytope, rows: Sequence[Tuple[int, ...]], cols: Sequence[Optional[int]]
) -> Iterator[tuple]:
    # the colour tuple at each of the vertex rows of P, in their order,
    # built column by column in C from streamed columns: stored ones would
    # cost memory on chains, and transposed 20-tuples (the dodecahedron's)
    # pile up in CPython's tuple free list
    get = cols.__getitem__
    return zip(*[map(get, map(column, rows)) for column in _COLUMN[:P.dimension]])


def _independent_at(
    P: Polytope, rows: Sequence[Tuple[int, ...]], cols: Sequence[Optional[int]]
) -> bool:
    """Whether the colours at each of the vertex rows, all assigned, are
    independent: the tuples are read once, into a set of distinct keys,
    and only the keys the memo lacks are ranked."""
    memo = _independence
    keys = set(_vertex_colours(P, rows, cols))
    missing = keys.difference(memo)
    if missing:
        if len(memo) + len(missing) > _INDEPENDENCE_LIMIT:
            memo.clear()
            missing = keys
        for key in missing:
            memo[key] = gf2.rank(key) == len(key)
    return all(map(memo.__getitem__, keys))


def _independent_at_vertices(P: Polytope, cols: Sequence[int]) -> bool:
    return _independent_at(P, P.vertices, cols)


def _assigned_rows(P: Polytope, cols: Sequence[Optional[int]]) -> Sequence[Tuple[int, ...]]:
    """The vertex rows of P whose facets are all assigned (not None), in
    vertex order, found from the facet-vertex incidences of the assigned
    facets: a vertex lies on P.dimension facets."""
    if None not in cols:
        return P.vertices
    on = Counter(itertools.chain.from_iterable(
        P.facet_vertices[f] for f, c in enumerate(cols) if c is not None
    ))
    n = P.dimension
    return [P.vertices[vi] for vi in sorted(vi for vi, k in on.items() if k == n)]


def dependent_vertex(
    P: Polytope, cols: Sequence[Optional[int]]
) -> Optional[Tuple[int, ...]]:
    """The first vertex of P whose colours are all assigned (not None) and
    linearly dependent, or None when there is none.  Only the vertices
    whose facets are all assigned are read."""
    rows = _assigned_rows(P, cols)
    if _independent_at(P, rows, cols):
        return None
    # the check above put every tuple of these rows in the memo
    return next(
        v for v, key in zip(rows, _vertex_colours(P, rows, cols)) if not _independence[key]
    )


def is_proper(P: Polytope, lam: Colouring) -> bool:
    """True when the colours at every vertex are linearly independent; a
    colouring with one colour per facet of another polytope raises."""
    if P is lam.polytope:
        return lam._proper
    if len(lam.colours) != P.facet_count:
        raise ColouringError(
            f"colouring has {len(lam.colours)} colours for {P.facet_count} facets"
        )
    return _independent_at_vertices(P, lam.colours)


def image_dimension(lam: Colouring) -> int:
    """Dimension of the span of all colours; the cover degree is 2^this."""
    return gf2.rank(lam.colours)


def _require_proper(P: Polytope, lam: Colouring) -> None:
    if not is_proper(P, lam):
        raise ColouringError("colouring is not proper")


def is_orientable(P: Polytope, lam: Colouring) -> Optional[int]:
    """A covector x with gf2.parity(x & c) == 1 for every colour c, as a bit
    mask, or None if none exists.

    When the colours span their space, existence is equivalent to
    orientability of the associated manifold cover.
    """
    _require_proper(P, lam)
    return gf2.solve_all_ones(lam.colours)


def zero_sum_triples(colours: Sequence[int]) -> Iterator[Tuple[int, int, int]]:
    """Facet triples i < j < k with zero colour sum, in lexicographic order.

    Per-colour index lists turn each pair into one lookup, so the first
    triple costs O(m^2) and later ones come lazily.
    """
    where: Dict[int, List[int]] = {}
    for k, c in enumerate(colours):
        where.setdefault(c, []).append(k)
    m = len(colours)
    for i in range(m):
        for j in range(i + 1, m):
            ks = where.get(colours[i] ^ colours[j], [])
            for k in ks[bisect.bisect_right(ks, j):]:
                yield (i, j, k)


def non_orientability_witness(
    P: Polytope, lam: Colouring
) -> Optional[Tuple[int, int, int]]:
    """The lexicographically first three facets with zero colour sum, if any.

    Such a triple rules out an orienting covector; its absence decides
    nothing.
    """
    return next(zero_sum_triples(lam.colours), None)


def from_k_colouring(P: Polytope, assignment: Sequence[int]) -> Colouring:
    """Lift a chromatic k-colouring to GF(2)^k by sending colour i to e_i."""
    k = max(assignment, default=0)
    for i, a in enumerate(assignment):
        if a < 1:
            raise ColouringError(f"chromatic colour {a} at facet {i} is not positive")
    for i, j in P.adjacency:
        if assignment[i] == assignment[j]:
            raise ColouringError(f"adjacent facets {i},{j} share chromatic colour")
    return Colouring(P, k, tuple(1 << (a - 1) for a in assignment))


def induced_colouring(P: Polytope, F: int, lam: Colouring) -> Colouring:
    """The colouring a proper lam induces on the facet F.

    Values live in the quotient by the colour of F, written in the echelon
    complement: the pivot coordinate of lam_F (its lowest set bit) is
    eliminated and the remaining coordinates close up in increasing order.
    Properness is inherited, so the result is again proper, of rank s - 1.
    """
    _require_proper(P, lam)
    sub, inc = facet_subpolytope(P, F)
    q = gf2.quotient_map(lam.colours[F])
    out = Colouring(sub, lam.rank - 1, tuple(q(lam.colours[g]) for g in inc))
    if not is_proper(sub, out):
        raise ColouringError("induced colouring failed to be proper")
    return out


# The frame of a basis, by basis tuple: each vector of its span mapped to
# its coordinates, bit j for the j-th basis vector.  Process-wide, and
# cleared before it would pass _FRAMES_LIMIT entries, about 1.3 MiB of
# rank-5 frames; the census memoises 168 rank-3 frames (70 KiB).
_frames: Dict[Tuple[int, ...], Dict[int, int]] = {}
_FRAMES_LIMIT = 1 << 10


def _frame(basis: Tuple[int, ...]) -> Dict[int, int]:
    frame = _frames.get(basis)
    if frame is None:
        frame = {0: 0}
        for j, b in enumerate(basis):
            frame.update([(v ^ b, c | 1 << j) for v, c in frame.items()])
        if len(_frames) >= _FRAMES_LIMIT:
            _frames.clear()
        _frames[basis] = frame
    return frame


def _greedy_frame(colours: Iterable[int], r: Optional[int]) -> Dict[int, int]:
    """The frame of the greedy basis of the colours, each one outside the
    span of those before it; reading stops once r of them are found."""
    basis: List[int] = []
    span = {0}
    for v in colours:
        if v not in span:
            basis.append(v)
            if len(basis) == r:
                break
            span.update([v ^ w for w in span])
    return _frame(tuple(basis))


def _key(colours: Sequence[int], sigma: Sequence[int], r: int) -> Tuple[int, ...]:
    """The normal sequence of the colours read in the order sigma, whose
    span has dimension r.  When the first r read are a basis the memo
    holds, they are the greedy basis, and the frame costs one lookup."""
    seq = operator.itemgetter(*sigma)(colours)
    return tuple(map((_frames.get(seq[:r]) or _greedy_frame(seq, r)).__getitem__, seq))


def normal_sequence(seq: Sequence[int]) -> Tuple[int, ...]:
    """Greedy re-echelonization: the j-th new independent colour becomes
    e_j and every colour is rewritten in the resulting basis, read off the
    basis's frame.  The output is a complete invariant for the action of
    invertible linear maps."""
    seq = tuple(seq)
    return tuple(map(_greedy_frame(seq, None).__getitem__, seq))


def orbit_keys(
    P: Polytope, lam: Colouring, reading: Optional[Sequence[int]] = None
) -> FrozenSet[Tuple[int, ...]]:
    """Normal sequences of lam composed with every symmetry of P, each
    colouring read in the facet order `reading` (index order by default).

    A colouring mu of P is equivalent to lam exactly when the normal
    sequence of mu's colours, read in the same order, is one of them.
    """
    _require_proper(P, lam)
    group = symmetry_group(P)
    if reading is not None:
        group = map(operator.itemgetter(*reading), group)  # type: ignore[assignment]
    r = gf2.rank(lam.colours)
    return frozenset(_key(lam.colours, sigma, r) for sigma in group)


def canonical_form(P: Polytope, lam: Colouring) -> bytes:
    """Class invariant: the least of the orbit keys.

    Each symmetry's key is read entry by entry, through the frame of the
    basis read so far, up to its first entry that differs from the least
    key so far; only a key that is smaller there is read in full.  Equal
    byte strings exactly characterize equivalence (an invertible map of
    the images combined with a symmetry of the polytope).
    """
    _require_proper(P, lam)
    colours = lam.colours
    get = colours.__getitem__
    r = gf2.rank(colours)
    group = symmetry_group(P)
    best = _key(colours, group[0], r)
    for sigma in group:
        basis: Tuple[int, ...] = ()
        frame = _frame(basis)
        for i, v in enumerate(map(get, sigma)):
            c = frame.get(v)
            if c is None:
                c = 1 << len(basis)
                basis += (v,)
                frame = _frame(basis)
            if c != best[i]:
                break
        if c < best[i]:
            best = _key(colours, sigma, r)
    return " ".join(map(str, best)).encode()


def equivalent(P: Polytope, lam1: Colouring, lam2: Colouring) -> bool:
    """Same class under symmetries of P and invertible maps of the image:
    lam2's normal sequence is one of lam1's orbit keys.  lam1's orbit is
    walked only up to the first symmetry whose key matches."""
    _require_proper(P, lam1)
    _require_proper(P, lam2)
    r = gf2.rank(lam1.colours)
    keys = (_key(lam1.colours, sigma, r) for sigma in symmetry_group(P))
    return normal_sequence(lam2.colours) in keys


def automorphism_order(P: Polytope, lam: Colouring) -> int:
    """Order of the group of symmetries fixing the colouring up to a linear map.

    A symmetry sigma qualifies when lam_F -> lam_{sigma F} extends to a
    well-defined (hence invertible) linear map of the image.  The
    symmetries sending lam to one orbit key form a coset of that group, so
    by orbit-stabiliser its order is |symmetries| / |orbit keys|.
    """
    return len(symmetry_group(P)) // len(orbit_keys(P, lam))


def transport(lam: Colouring, perm: Sequence[int], Q: Polytope) -> Colouring:
    """Move a colouring along a facet bijection onto Q."""
    if len(perm) != len(lam.colours) or Q.facet_count != len(perm):
        raise ColouringError("facet map does not fit the polytopes")
    vals = [0] * Q.facet_count
    for f, c in enumerate(lam.colours):
        vals[perm[f]] = c
    return Colouring(Q, lam.rank, tuple(vals))
