"""Depth-first search engines over facet colourings.

Three searches: enumerate all small-cover colourings of a polytope, count
chromatic colourings up to symmetry, and complete a seeded partial
colouring of the 120-cell to a fully odd-weight one.  Each sets up a
static facet order, a palette and per depth one function generated from
the facets that forbid colours there (`_forbidding_sets`): single facets,
and vertex groups whose span a table of the palette looks up
(`_span_table`).  It hands them to one shared node (`_depth_first`) with
a leaf callback.  All are deterministic; budgets cut them off
reproducibly by node count and coarsely by wall clock.
"""
from __future__ import annotations

import itertools
import math
import operator
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from . import gf2
from .colouring import (
    Colouring,
    ColouringError,
    PartialColouring,
    is_orientable,
    is_proper,
    orbit_keys,
)
from .polytopes import (
    Polytope,
    facet_subpolytope,
    greedy_facet_order,
    reachable,
    symmetry_generators,
    symmetry_group,
)

__all__ = [
    "SearchBudget",
    "BudgetError",
    "ClassRecord",
    "EnumerationResult",
    "ChromaticResult",
    "SearchOutcome",
    "enumerate_small_covers",
    "enumerate_chromatic_colourings",
    "seed_from_facet",
    "search_orientable_extension",
]


@dataclass(frozen=True)
class SearchBudget:
    """Node and wall-clock limits for one search."""

    nodes: int = 10 ** 8
    seconds: float = 1800.0

    def __post_init__(self):
        for name in ("nodes", "seconds"):
            value = getattr(self, name)
            if not value > 0:  # NaN too: no clock reading exceeds it
                raise ValueError(f"budget {name} must be positive, got {value}")


class BudgetError(Exception):
    """Internal signal that a budget ran out; callers see a flag instead."""


class _Meter:
    def __init__(self, budget: Optional[SearchBudget]):
        self.nodes = 0
        self._limit = budget.nodes if budget else None
        self._t0 = time.monotonic()
        self._deadline = self._t0 + budget.seconds if budget else None
        # time checks are amortized: the clock is read when the count
        # crosses _mark, the next multiple of 4096; the node limit provides
        # hard determinism.  A count below _next, the lower of _mark and
        # limit + 1, needs no check.
        self._mark = 4096
        self._next = min(4096, budget.nodes + 1) if budget else math.inf

    def _check(self, nodes: int) -> int:
        """Take a count that reached _next: raise BudgetError where the
        budget stops it, else return the next _next.  The count rose from
        below _next, so _mark is the first multiple of 4096 it may have
        crossed."""
        self.nodes = nodes
        limit = self._limit
        assert limit is not None
        crossing = self._mark
        if (
            crossing <= nodes
            and crossing <= limit
            and time.monotonic() > self._deadline  # type: ignore[operator]
        ):
            self.nodes = crossing
            raise BudgetError
        if nodes > limit:
            self.nodes = limit + 1
            raise BudgetError
        self._mark = ((nodes >> 12) + 1) << 12
        return min(self._mark, limit + 1)

    @property
    def seconds(self) -> float:
        return time.monotonic() - self._t0


@dataclass(frozen=True)
class ClassRecord:
    """One equivalence class: representative, orientability, symmetry order."""

    colouring: Colouring
    orientable: bool
    automorphisms: int


@dataclass(frozen=True)
class EnumerationResult:
    classes: Tuple[ClassRecord, ...]
    complete: bool
    nodes: int
    seconds: float


@dataclass(frozen=True)
class ChromaticResult:
    """`count` is the number of proper k-colourings distinct up to renaming
    the colours; `orbit_count` additionally identifies colourings related
    by a symmetry of the polytope, so it never exceeds `count`."""

    count: int
    orbit_count: int
    complete: bool
    nodes: int
    seconds: float
    representatives: Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True)
class SearchOutcome:
    """Completion search result; `status` separates a fruitless exhaustive
    sweep ("exhausted") from one the budget interrupted ("budget-out")."""

    status: str
    colouring: Optional[Colouring]
    nodes: int
    seconds: float


_Sets = Tuple[Tuple[int, ...], Tuple[Tuple[int, ...], ...]]


def _forbidding_sets(P: Polytope, order: Sequence[int], smallest: int) -> List[_Sets]:
    """Per depth d, the facets coloured before order[d] at its vertices, as
    (singles, groups).  Facets outside `order` count as coloured from the
    start.

    A candidate colour is forbidden for order[d] exactly when it lies in
    the span of the coloured facets at one of its vertices.  A group is
    the tuple of those facets at one vertex, each distinct tuple once, in
    the order they were coloured, when it holds at least `smallest`
    facets; the singles are the coloured neighbours of order[d] in no
    group, each forbidding only its own colour.  The census takes 2.  The
    extension search takes 3: every colour has odd weight there, so a
    pair only adds an even-weight colour to its span and counts as two
    singles.  The chromatic count, whose colours are labels, not vectors,
    takes P.dimension: a group leaves the facet order[d] of its vertex
    out, so it has at most dimension - 1 facets, and there are singles
    only.  Built in one pass over the facet-vertex incidences of `order`.
    """
    # coloured[vi] lists the facets at vertex vi coloured so far, in the
    # order they were coloured, so a group always comes out as the same tuple
    coloured: List[List[int]] = [[] for _ in P.vertices]
    rest = set(order)
    for g in range(P.facet_count):
        if g not in rest:
            for vi in P.facet_vertices[g]:
                coloured[vi].append(g)
    sets = []
    for f in order:
        # a dict as an ordered set, so the groups come out the same every run
        groups: Dict[Tuple[int, ...], None] = {}
        for vi in P.facet_vertices[f]:
            before = coloured[vi]
            if len(before) >= smallest:
                groups[tuple(before)] = None
            before.append(f)
        rest.discard(f)
        grouped = {g for group in groups for g in group}
        singles = tuple(g for g in P.neighbours[f] if g not in rest and g not in grouped)
        sets.append((singles, tuple(groups)))
    return sets


_Span = Dict[int, int]
_Mask = Callable[[List[int], _Span], int]
_span_tables: Dict[Tuple[Tuple[int, ...], int], _Span] = {}


def _span_table(palette: Sequence[int], size: int) -> _Span:
    """For every set of 1 to `size` palette positions, keyed by the OR of
    their bits (bit k for palette[k]): the bits of the palette colours in
    the nonzero span of their colours.  Built at the first search that
    asks for it and cached by (palette, size); a search asks for
    dimension - 1, the most facets a group holds, so at rank 5 the odd
    palette's table has 16 + 120 + 560 = 696 entries."""
    key = (tuple(palette), size)
    table = _span_tables.get(key)
    if table is None:
        bit = {v: 1 << k for k, v in enumerate(palette)}
        table = {}
        for r in range(1, size + 1):
            for ks in itertools.combinations(range(len(palette)), r):
                spanned = gf2.span(palette[k] for k in ks)
                table[sum(1 << k for k in ks)] = sum(bit.get(x, 0) for x in spanned)
        _span_tables[key] = table
    return table


# terms per parenthesised group of a generated mask: one flat `a | b | ...`
# expression nests one level per term, and the compiler's recursion limit
# stops a few thousand levels deep, so longer ones are grouped, in groups
# of groups as needed
_TERMS_PER_GROUP = 64
# the globals of every mask function, which reads none; never written
_MASK_GLOBALS: Dict[str, object] = {"__builtins__": {}}


def _mask_function(sets: _Sets) -> _Mask:
    """One depth's forbidden mask as a generated function of (b, s), where
    b[f] is the bit of facet f's colour and s a span table (see
    `_span_table`): the OR of b[g] over the singles and of s[OR of b over
    the group] over each group of `_forbidding_sets`, such as
    `b[3] | b[7] | s[b[1] | b[2] | b[5]]`.  With bit k for palette[k]
    that is the mask of the palette positions the coloured facets at the
    depth's vertices span.  Only integer facet indices, formatted here,
    reach the compiled source; anything else raises TypeError."""
    singles, groups = sets
    for g in itertools.chain(singles, *groups):
        if type(g) is not int:
            raise TypeError(f"facet index {g!r} is not an int")
    terms = [f"b[{g}]" for g in singles]
    terms += ["s[" + " | ".join(f"b[{g}]" for g in group) + "]" for group in groups]
    while len(terms) > _TERMS_PER_GROUP:
        terms = [
            "(" + " | ".join(terms[i:i + _TERMS_PER_GROUP]) + ")"
            for i in range(0, len(terms), _TERMS_PER_GROUP)
        ]
    return eval("lambda b, s: " + (" | ".join(terms) or "0"), _MASK_GLOBALS)


def _depth_first(
    colours: List[Optional[int]],
    order: Sequence[int],
    masks: Sequence[_Mask],
    palette: Sequence[int],
    span: _Span,
    budget: Optional[SearchBudget],
    leaf: Callable[[], bool],
) -> Tuple[str, int, float]:
    """The search node all three searches share.

    Colours order[d] at depth d, in place in `colours`, with each colour of
    `palette` that masks[d] (see `_mask_function`) does not forbid, in
    palette order, and calls `leaf` once every facet of `order` is
    coloured; a true return stops the search.  Masks read only the bits
    b[f], bit k for palette[k], never the colours, so they have only
    len(palette) bits (8 at rank 4, 16 at rank 5) and stay cheap small
    integers; the span table `span` (`_span_table` of the palette) turns
    the bits of a group into the bits of its span.  Colours are written
    for `leaf`, which reads them.  One node is counted per
    candidate: the inadmissible ones below an admissible colour are ticked
    in one batch with it, and the rest of the palette at the end, so a
    budget stops where one tick per candidate would.  A facet's colour is
    only read at later depths, so nothing is undone on the way back.  One
    loop over an explicit stack (the colours left and the last candidate
    ticked per depth, written on the way down and read only when backing
    up), so the depth is not bounded by the interpreter's recursion limit.
    Returns the status ("found" when `leaf` stopped the search, "exhausted"
    or "budget-out"), the node count and the seconds taken.
    """
    meter = _Meter(budget)
    count = 0
    nxt = meter._next
    end = len(order)
    size = len(palette)
    palette_mask = (1 << size) - 1
    # pick[1 << k] = (the colour at position k, k + 1)
    pick: Dict[int, Tuple[int, int]] = {}
    position: Dict[int, int] = {}
    for k, v in enumerate(palette):
        pick[1 << k] = (v, k + 1)
        position[v] = 1 << k
    # bit[f] = 1 << (position of colours[f] in the palette), 0 for a facet
    # not coloured yet (None, or 0 in the chromatic count)
    bit = [position.get(c, 0) for c in colours]
    left = [0] * end
    ticked = [0] * end
    depth = 0
    try:
        while True:
            if depth < end:
                allowed = palette_mask & ~masks[depth](bit, span)
                tick = 0
            elif leaf():
                meter.nodes = count
                return "found", count, meter.seconds
            else:
                # a leaf has no palette: back up from it, ticking nothing
                allowed = 0
                tick = size
            # back up to the deepest depth with a colour left, ticking the
            # rest of the palette at each spent one
            while not allowed:
                count += size - tick
                if count >= nxt:
                    nxt = meter._check(count)
                if not depth:
                    meter.nodes = count
                    return "exhausted", count, meter.seconds
                depth -= 1
                allowed = left[depth]
                tick = ticked[depth]
            low = allowed & -allowed
            left[depth] = allowed ^ low
            v, k = pick[low]
            count += k - tick
            if count >= nxt:
                nxt = meter._check(count)
            ticked[depth] = k
            f = order[depth]
            colours[f] = v
            bit[f] = low
            depth += 1
    except BudgetError:
        return "budget-out", meter.nodes, meter.seconds


def _proper_leaf(P: Polytope, rank: int, colours: Sequence[Optional[int]]) -> Colouring:
    """The colouring a search completed, asserted proper: the forbidden
    masks that built it should have kept every vertex independent."""
    lam = Colouring(P, rank, tuple(colours))  # type: ignore[arg-type]
    if not is_proper(P, lam):
        raise AssertionError("incremental properness bookkeeping failed")
    return lam


def enumerate_small_covers(
    P: Polytope, budget: Optional[SearchBudget] = None
) -> EnumerationResult:
    """All proper GF(2)^n-colourings of the n-polytope P up to equivalence.

    Depth-first over facets in index order.  The facets of the first vertex
    are pinned to e_1, ..., e_n, which loses no classes (any proper
    colouring can be moved there by a linear map) and removes the GL(n)
    factor from the search.  The order is static, so the coloured facets
    at each facet's vertices are fixed per depth (`_forbidding_sets`), and
    `_depth_first` reads them through one generated mask function per
    depth.  A leaf is read with the pinned
    facets first; read so, its first n colours are e_1, ..., e_n, which
    makes the tuple its own normal sequence.  Each new class stores its
    orbit keys in that reading order, so a later leaf is recognised by
    one read and one set lookup.
    """
    n = P.dimension
    m = P.facet_count
    colours: List[Optional[int]] = [None] * m
    for k, f in enumerate(P.vertices[0]):
        colours[f] = 1 << k
    rest = [f for f in range(m) if colours[f] is None]
    reading = (*P.vertices[0], *rest)
    read = operator.itemgetter(*reading)
    seen: Set[Tuple[int, ...]] = set()
    records: List[ClassRecord] = []

    def leaf() -> bool:
        # Only a leaf with a new key is built and proven proper.  A repeat
        # leaf equals, read in this order, the normal form of a symmetry
        # image of a representative proven proper here.  A proper
        # colouring spans GF(2)^n, so that normal form is its image under
        # an invertible linear map, and proper too.  An improper leaf can
        # never match a key and always reaches the assertion.
        if read(colours) not in seen:
            lam = _proper_leaf(P, n, colours)
            keys = orbit_keys(P, lam, reading)
            seen.update(keys)
            # orbit-stabiliser, as in `automorphism_order`
            order = len(symmetry_group(P)) // len(keys)
            records.append(ClassRecord(lam, is_orientable(P, lam) is not None, order))
        return False

    palette = range(1, 1 << n)
    status, nodes, seconds = _depth_first(
        colours, rest, [_mask_function(s) for s in _forbidding_sets(P, rest, 2)],
        palette, _span_table(palette, n - 1), budget, leaf,
    )
    return EnumerationResult(tuple(records), status != "budget-out", nodes, seconds)


def enumerate_chromatic_colourings(
    P: Polytope, k: int, budget: Optional[SearchBudget] = None
) -> ChromaticResult:
    """Count proper k-colourings of the facets at both quotient stages.

    Colourings that differ by a renaming of the colours are counted once
    (`count`); colourings additionally related by a symmetry of P collapse
    further to `orbit_count`.  The first vertex's facets are pinned to
    colours 1..n, which meets every renaming class: the residual renaming
    freedom only permutes the colours beyond n, and first-occurrence
    normalisation cancels it, so each class is recorded exactly once.  On
    budget exhaustion both counts cover the portion swept so far and
    `complete` is false.
    """
    n = P.dimension
    if k < n:
        raise ValueError(f"{k} colours cannot colour an {n}-polytope (clique bound)")
    m = P.facet_count
    gens = symmetry_generators(P)

    colours = [0] * m
    v0 = P.vertices[0]
    for i, f in enumerate(v0):
        colours[f] = i + 1
    order = greedy_facet_order(P, v0)[n:]
    # two facets that share a vertex differ, so a facet's colour is
    # forbidden by the neighbours pinned or earlier in the order: singles
    masks = [_mask_function(s) for s in _forbidding_sets(P, order, n)]

    classes: Dict[bytes, Tuple[int, ...]] = {}

    def norm(seq: Sequence[int]) -> bytes:
        ren: Dict[int, int] = {}
        out = bytearray()
        for c in seq:
            r = ren.get(c)
            if r is None:
                ren[c] = r = len(ren) + 1
            out.append(r)
        return bytes(out)

    def leaf() -> bool:
        classes.setdefault(norm(colours), tuple(colours))
        return False

    status, nodes, seconds = _depth_first(
        colours, order, masks, range(1, k + 1), {}, budget, leaf  # type: ignore[arg-type]
    )

    # Symmetry orbits of classes, walked breadth-first under the group's
    # generators.  A key is itself a colouring of its class, so the walk
    # needs no representative and also crosses classes a budgeted sweep
    # missed, exactly as the whole group would.
    visited: Set[bytes] = set()
    orbit_count = 0
    for key in sorted(classes):
        if key not in visited:
            orbit_count += 1
            visited |= reachable(
                key, lambda seq: (norm(tuple(map(seq.__getitem__, g))) for g in gens)
            )
    reps = tuple(classes[key] for key in sorted(classes))
    return ChromaticResult(
        len(classes), orbit_count, status != "budget-out", nodes, seconds, reps
    )


def seed_from_facet(Z: Polytope, F0: int, mu: Colouring, rank: int = 5) -> PartialColouring:
    """Seed a rank-5 (or rank-4) search from a colouring of one facet.

    The facet itself is coloured by the top basis vector; each neighbour
    takes its trace colour v, which lives in the first three coordinates,
    padded with a top coordinate that forces odd weight (1 exactly when v
    has even weight).  At rank 5 the fourth coordinate stays zero on all 13
    seeded facets; at rank 4 it is the top coordinate.
    """
    sub, inc = facet_subpolytope(Z, F0)
    if not mu.polytope.same_structure(sub):
        raise ColouringError("seed colouring does not live on the chosen facet")
    if mu.rank != 3:
        raise ColouringError("facet colouring must have rank 3")
    if not is_proper(sub, mu):
        raise ColouringError("facet colouring is not proper")
    if rank not in (4, 5):
        raise ColouringError("seed rank must be 4 or 5")
    top = 1 << (rank - 1)
    vals: List[Optional[int]] = [None] * Z.facet_count
    vals[F0] = top
    for j, g in enumerate(inc):
        v = mu.colours[j]
        vals[g] = v | (gf2.parity(v) ^ 1) * top
    return PartialColouring(Z, rank, tuple(vals))


_Plan = Tuple[Tuple[int, ...], Tuple[_Mask, ...]]
_plan_cache: Dict[Tuple[str, Tuple[int, ...]], _Plan] = {}


def _extension_plan(Z: Polytope, seeded: Tuple[int, ...]) -> _Plan:
    """The static order of the unseeded facets and the mask function of
    each depth's singles and vertex groups of at least 3 facets,
    cached by (Z.digest, seeded facets): they depend on nothing else, so
    searches at either rank from one facet share them."""
    key = (Z.digest, seeded)
    plan = _plan_cache.get(key)
    if plan is None:
        order = tuple(greedy_facet_order(Z, seeded)[len(seeded):])
        masks = tuple(map(_mask_function, _forbidding_sets(Z, order, 3)))
        plan = _plan_cache[key] = (order, masks)
    return plan


def search_orientable_extension(
    Z: Polytope, seed: PartialColouring, budget: Optional[SearchBudget] = None
) -> SearchOutcome:
    """Complete the seed to a proper colouring with every colour odd-weight.

    Odd weight everywhere makes the coordinate-sum covector orient the
    cover, so any completion is orientable by construction.  The palette is
    the 2^(rank-1) odd-weight vectors.  Facets are coloured most-constrained
    first (most coloured neighbours, ties to lowest index); that choice
    depends only on which facets are coloured, so it is the static
    `greedy_facet_order` from the seeded facets.  With the order fixed, the
    coloured facets at each facet's vertices are fixed per depth
    (`_forbidding_sets` with groups of at least 3, where a pair forbids no
    more than its two colours), each depth compiled to one mask function for
    `_depth_first`.  Order and masks are planned once per
    seeded facet set (`_extension_plan`).
    """
    rank = seed.rank
    colours: List[Optional[int]] = list(seed.colours)
    for c in colours:
        if c is not None and not gf2.parity(c):
            raise ColouringError("seed contains an even-weight colour")
    seeded = tuple(f for f, c in enumerate(colours) if c is not None)
    # a vertex on no seeded facet has no colour yet to be dependent, and
    # one on a single seeded facet has one colour, odd-weight so nonzero
    on = Counter(itertools.chain.from_iterable(map(Z.facet_vertices.__getitem__, seeded)))
    for vi in sorted(vi for vi, k in on.items() if k > 1):
        v = Z.vertices[vi]
        if not gf2.independent([colours[g] for g in v if colours[g] is not None]):
            raise ColouringError(f"seed already breaks properness at vertex {v}")

    palette = [v for v in range(1, 1 << rank) if gf2.parity(v)]
    order, masks = _extension_plan(Z, seeded)
    result: List[Colouring] = []

    def leaf() -> bool:
        result.append(_proper_leaf(Z, rank, colours))
        return True

    status, nodes, seconds = _depth_first(
        colours, order, masks, palette, _span_table(palette, Z.dimension - 1), budget, leaf
    )
    lam = result[0] if result else None
    assert lam is None or is_orientable(Z, lam) is not None
    return SearchOutcome(status, lam, nodes, seconds)
