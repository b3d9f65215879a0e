"""Enumeration and completion searches against independent oracles."""
from __future__ import annotations

import itertools
import math
import random
import time
from functools import lru_cache
from types import SimpleNamespace

import pytest

from conftest import least_orbit_key_form, renumbered
from racover import gf2, search
from racover.colouring import (
    Colouring,
    ColouringError,
    PartialColouring,
    automorphism_order,
    canonical_form,
    equivalent,
    induced_colouring,
    is_orientable,
    is_proper,
    normal_sequence,
    orbit_keys,
)
from racover.pipeline import assemble_chain, select_class
from racover.polytopes import (
    Polytope,
    facet_subpolytope,
    find_isomorphism,
    greedy_facet_order,
    symmetry_group,
)
from racover.search import (
    ClassRecord,
    SearchBudget,
    _forbidding_sets,
    enumerate_chromatic_colourings,
    enumerate_small_covers,
    search_orientable_extension,
    seed_from_facet,
)


def _pentagon_forms_by_brute_force(pentagon):
    """Every proper rank-2 colouring of the pentagon, 3^5 assignments."""
    forms = set()
    for cols in itertools.product((1, 2, 3), repeat=5):
        lam = Colouring(pentagon, 2, cols)
        if is_proper(pentagon, lam):
            forms.add(canonical_form(pentagon, lam))
    return forms


def test_pentagon_enumeration_matches_brute_force(pentagon):
    result = enumerate_small_covers(pentagon)
    assert result.complete
    got = {canonical_form(pentagon, r.colouring) for r in result.classes}
    assert got == _pentagon_forms_by_brute_force(pentagon)
    # the pentagon has a single class, and it is non-orientable
    assert len(result.classes) == 1
    assert not result.classes[0].orientable
    assert result.classes[0].automorphisms == 2


def test_enumeration_orientability_flags_are_recomputable(pentagon, census):
    for result in (enumerate_small_covers(pentagon), census):
        for rec in result.classes:
            P = rec.colouring.polytope
            assert is_proper(P, rec.colouring)
            assert rec.orientable == (is_orientable(P, rec.colouring) is not None)


def test_dodecahedron_census_shape(census):
    assert census.complete
    assert len(census.classes) == 25
    orientable = [i for i, r in enumerate(census.classes) if r.orientable]
    assert orientable == [5]
    orders = sorted(r.automorphisms for r in census.classes)
    assert orders == [1] * 14 + [2] * 7 + [4, 6, 12, 24]


def _census_by_canonical_form(P):
    """Reference census: the same search tree, every leaf grouped by its
    canonical form, the first leaf of each class kept."""
    n, m = P.dimension, P.facet_count
    colours = [None] * m
    for k, f in enumerate(P.vertices[0]):
        colours[f] = 1 << k
    rest = [f for f in range(m) if colours[f] is None]
    first = {}

    def rec(idx):
        if idx == len(rest):
            lam = Colouring(P, n, tuple(colours))
            first.setdefault(canonical_form(P, lam), lam)
            return
        f = rest[idx]
        for v in range(1, 1 << n):
            ok = all(
                gf2.independent([v] + [colours[g] for g in P.vertices[vi]
                                       if g != f and colours[g] is not None])
                for vi in P.facet_vertices[f]
            )
            if ok:
                colours[f] = v
                rec(idx + 1)
                colours[f] = None

    rec(0)
    return tuple(
        ClassRecord(lam, is_orientable(P, lam) is not None, automorphism_order(P, lam))
        for lam in first.values()
    )


@pytest.mark.parametrize("seed", [None, 7])
def test_orbit_set_census_matches_canonical_form_grouping(dodecahedron, census, seed):
    if seed is None:
        P, result = dodecahedron, census
        assert result.nodes == 55797
    else:
        P = renumbered(dodecahedron, random.Random(seed))
        result = enumerate_small_covers(P)
    assert result.complete
    assert result.classes == _census_by_canonical_form(P)
    assert len(result.classes) == 25
    assert sum(r.orientable for r in result.classes) == 1


def _pinned_proper_count(P):
    """The proper rank-n colourings of the n-polytope P whose first vertex
    carries e_1, ..., e_n, counted by plain backtracking: the other facets
    take every nonzero colour in index order, and a vertex is tested by
    span closure once its last facet is coloured."""
    n = P.dimension
    colours = [0] * P.facet_count
    for k, f in enumerate(P.vertices[0]):
        colours[f] = 1 << k
    free = [f for f, c in enumerate(colours) if not c]
    # closing[i]: the vertices whose last free facet is free[i]
    closing = [[] for _ in free]
    for v in P.vertices:
        last = max((free.index(g) for g in v if g in free), default=None)
        if last is not None:
            closing[last].append(v)

    def independent(vectors):
        span = {0}
        for x in vectors:
            if x in span:
                return False
            span |= {s ^ x for s in span}
        return True

    def count(i):
        if i == len(free):
            return 1
        total = 0
        for c in range(1, 1 << n):
            colours[free[i]] = c
            if all(independent([colours[g] for g in v]) for v in closing[i]):
                total += count(i + 1)
        colours[free[i]] = 0
        return total

    return count(0)


@pytest.mark.parametrize("seed", [None, 3, 7])
def test_census_orbit_count_matches_plain_backtracking(dodecahedron, census, seed):
    # GL(n) acts freely on proper colourings, and each orbit has exactly one
    # member with the first vertex on e_1..e_n; so by orbit-stabiliser in
    # Aut(P) x GL(n), the pinned count is the sum of |Aut(P)| / automorphisms
    if seed is None:
        P, result = dodecahedron, census
    else:
        P = renumbered(dodecahedron, random.Random(seed))
        result = enumerate_small_covers(P)
    assert len(symmetry_group(P)) == 120  # H3
    assert sum(120 // r.automorphisms for r in result.classes) == 2165
    assert _pinned_proper_count(P) == 2165


def test_pentagon_orbit_count_matches_plain_backtracking(pentagon):
    assert len(symmetry_group(pentagon)) == 10
    result = enumerate_small_covers(pentagon)
    assert sum(10 // r.automorphisms for r in result.classes) == _pinned_proper_count(pentagon) == 5


def test_120cell_group_has_the_order_of_h4(z120):
    assert len(symmetry_group(z120)) == 14400


@pytest.mark.parametrize("keep", ["nothing", "singles"])
def test_a_sabotaged_census_trips_the_leaf_assertion(dodecahedron, monkeypatch, keep):
    # masks that forbid too little let improper leaves through; the census
    # must not recognise one as a known class instead of asserting
    # ("singles": each coloured facet forbids its own colour, no span does)
    real = search._mask_function
    sabotaged = {
        "nothing": lambda sets: real(((), ())),
        "singles": lambda sets: real((tuple({*sets[0], *itertools.chain(*sets[1])}), ())),
    }[keep]
    monkeypatch.setattr(search, "_mask_function", sabotaged)
    with pytest.raises(AssertionError, match="^incremental properness bookkeeping failed$"):
        enumerate_small_covers(dodecahedron)


def _cold(memo):
    """A fresh cache over an lru_cache function, to patch in for one test."""
    return lru_cache(maxsize=None)(memo.__wrapped__)


@pytest.mark.parametrize("rank", [4, 5])
def test_a_sabotaged_extension_search_trips_the_leaf_assertion(z120, census, monkeypatch, rank):
    # with masks that forbid nothing, the first leaf colours every unseeded
    # facet alike; the one-pass leaf check must still reject it
    real = search._mask_function
    monkeypatch.setattr(search, "_mask_function", lambda sets: real(((), ())))
    # a fresh plan cache, so that no sabotaged plan outlives the test
    monkeypatch.setattr(search, "_extension_plan", _cold(search._extension_plan))
    with pytest.raises(AssertionError, match="^incremental properness bookkeeping failed$"):
        search_orientable_extension(z120, _class_seed(z120, census, 0, rank=rank))


def test_enumeration_budget_cuts_off(dodecahedron):
    result = enumerate_small_covers(dodecahedron, SearchBudget(nodes=100, seconds=60))
    assert not result.complete
    assert result.nodes <= 101
    assert len(result.classes) <= 25


def _labelled_count(P, k):
    """Backtracking count of proper chromatic k-colourings, the classical
    chromatic-polynomial value; independent of the class enumerator."""
    m = P.facet_count
    assign = [0] * m

    def rec(f: int) -> int:
        if f == m:
            return 1
        total = 0
        for c in range(1, k + 1):
            # facets are filled in index order, so only g < f are assigned
            if all(assign[g] != c for g in P.neighbours[f]):
                assign[f] = c
                total += rec(f + 1)
                assign[f] = 0
        return total

    return rec(0)


def test_pentagon_chromatic_counts(pentagon):
    result = enumerate_chromatic_colourings(pentagon, 3)
    assert result.complete
    assert result.count == 5
    assert result.orbit_count == 1
    assert len(result.representatives) == 5
    # every labelled colouring is a colour-renaming of exactly one class
    assert _labelled_count(pentagon, 3) == 30
    assert result.count * 6 == 30


def test_dodecahedron_chromatic_counts(dodecahedron):
    result = enumerate_chromatic_colourings(dodecahedron, 4)
    assert result.complete
    assert result.count == 10
    assert result.orbit_count == 1
    assert _labelled_count(dodecahedron, 4) == 240
    assert result.count * 24 == 240
    for rep in result.representatives:
        for i, j in dodecahedron.adjacency:
            assert rep[i] != rep[j]


def _norm(seq):
    """Colours renamed in order of first occurrence."""
    ren = {}
    return bytes(ren.setdefault(c, len(ren) + 1) for c in seq)


def _full_sweep(P, result):
    """Reference orbit count: one sweep over the whole symmetry group per
    unvisited class, as the count was first computed.  Returns the count
    and the sum over the orbits of |Aut| / |stabiliser of the first class
    met|, the stabiliser read off the same sweep."""
    group = symmetry_group(P)
    rem = {_norm(rep) for rep in result.representatives}
    count = 0
    orbit_sizes = 0
    for rep in result.representatives:
        key = _norm(rep)
        if key not in rem:
            continue
        count += 1
        stabiliser = 0
        for sigma in group:
            image = _norm([rep[sigma[j]] for j in range(P.facet_count)])
            rem.discard(image)
            stabiliser += image == key
        assert len(group) % stabiliser == 0
        orbit_sizes += len(group) // stabiliser
    return count, orbit_sizes


@pytest.mark.parametrize(
    "name,k,nodes",
    [
        ("dodecahedron", 4, None), ("dodecahedron", 5, None), ("z120", 5, 7910),
    ],
)
def test_generator_orbit_count_matches_the_full_sweep(request, name, k, nodes):
    P = request.getfixturevalue(name)
    result = enumerate_chromatic_colourings(P, k)
    assert result.complete
    if nodes is not None:
        assert result.nodes == nodes
    orbits, orbit_sizes = _full_sweep(P, result)
    assert result.orbit_count == orbits
    # orbit-stabiliser: the orbits partition the classes counted up to renaming
    assert orbit_sizes == result.count


def test_budgeted_orbit_count_matches_the_full_sweep(dodecahedron):
    for nodes in (40, 400, 4000):
        result = enumerate_chromatic_colourings(
            dodecahedron, 5, SearchBudget(nodes=nodes, seconds=60)
        )
        assert result.orbit_count == _full_sweep(dodecahedron, result)[0]


def test_chromatic_budget_cuts_off(dodecahedron):
    result = enumerate_chromatic_colourings(
        dodecahedron, 4, SearchBudget(nodes=50, seconds=60)
    )
    assert not result.complete
    assert result.count <= 10


def _class_on_facet(z120, census, cls, facet):
    """Census class `cls` carried onto the facet subpolytope of a 120-cell facet."""
    lam = census.classes[cls].colouring
    sub, _ = facet_subpolytope(z120, facet)
    psi = find_isomorphism(sub, lam.polytope)
    return Colouring(sub, 3, tuple(lam.colours[psi[j]] for j in range(12)))


def _class_seed(z120, census, cls, facet=0, rank=5):
    """The seed of census class `cls` on a 120-cell facet."""
    return seed_from_facet(z120, facet, _class_on_facet(z120, census, cls, facet), rank=rank)


def test_seed_from_facet_structure(z120, census):
    lam = census.classes[0].colouring
    sub, inc = facet_subpolytope(z120, 0)
    psi = find_isomorphism(sub, lam.polytope)
    mu = Colouring(sub, 3, tuple(lam.colours[psi[j]] for j in range(12)))
    seed = seed_from_facet(z120, 0, mu)
    assert seed.rank == 5
    assert seed.assigned == 13
    assert seed.colours[0] == 16
    for g, c in enumerate(seed.colours):
        if c is None:
            continue
        assert c.bit_count() % 2 == 1
        assert g == 0 or g in inc


def test_seed_from_facet_rejects_bad_input(z120, pentagon, census):
    lam = census.classes[0].colouring
    sub, _ = facet_subpolytope(z120, 0)
    psi = find_isomorphism(sub, lam.polytope)
    mu = Colouring(sub, 3, tuple(lam.colours[psi[j]] for j in range(12)))
    with pytest.raises(ColouringError):
        seed_from_facet(z120, 0, mu, rank=3)
    with pytest.raises(ColouringError):
        seed_from_facet(z120, 0, Colouring(pentagon, 2, (1, 2, 1, 2, 3)))


def test_extension_search_finds_an_orientable_colouring(z120, census):
    outcome = search_orientable_extension(z120, _class_seed(z120, census, 0))
    assert outcome.status == "found"
    assert outcome.colouring is not None
    assert is_proper(z120, outcome.colouring)
    assert is_orientable(z120, outcome.colouring) is not None
    assert outcome.colouring.colours[0] == 16


def test_extension_search_budget_out(z120, census):
    outcome = search_orientable_extension(
        z120, _class_seed(z120, census, 0), SearchBudget(nodes=50, seconds=60)
    )
    assert outcome.status == "budget-out"
    assert outcome.colouring is None


def test_extension_search_exhausts_an_impossible_space(dodecahedron):
    # only two odd-weight colours exist at rank 2; no vertex of a
    # 3-polytope can carry three independent ones
    seed = PartialColouring(dodecahedron, 2, (None,) * 12)
    outcome = search_orientable_extension(dodecahedron, seed)
    assert outcome.status == "exhausted"
    assert outcome.colouring is None
    assert _reference_extension(dodecahedron, seed) == ("exhausted", outcome.nodes, None)


def test_extension_search_rejects_even_weight_seed(dodecahedron):
    seed = PartialColouring(dodecahedron, 2, (3,) + (None,) * 11)
    with pytest.raises(ColouringError):
        search_orientable_extension(dodecahedron, seed)


class _BudgetOut(Exception):
    pass


class _PerCandidateMeter:
    """The budget meter as first written: one tick per candidate tried."""

    def __init__(self, budget):
        self.nodes = 0
        self._limit = budget.nodes if budget else None
        self._t0 = time.monotonic()
        self._deadline = self._t0 + budget.seconds if budget else None

    def tick(self):
        self.nodes += 1
        if self._limit is not None and self.nodes > self._limit:
            raise _BudgetOut
        if (
            self._deadline is not None
            and self.nodes % 4096 == 0
            and time.monotonic() > self._deadline
        ):
            raise _BudgetOut


def _reference_extension(Z, seed, budget=None, picks=None):
    """Reference extension search: the same search tree, with the facet
    chosen by a max over all unassigned facets, candidates tested vertex
    by vertex, spans grown bit by bit and one meter tick per candidate.
    If `picks` is a dict, picks[depth] collects every facet chosen at that
    depth."""
    rank = seed.rank
    colours = list(seed.colours)
    for v in Z.vertices:
        if not gf2.independent([colours[g] for g in v if colours[g] is not None]):
            raise ColouringError(f"seed already breaks properness at vertex {v}")
    palette = [v for v in range(1, 1 << rank) if gf2.parity(v)]
    meter = _PerCandidateMeter(budget)
    spans = []
    for v in Z.vertices:
        mask = 0
        for x in gf2.span([colours[g] for g in v if colours[g] is not None]):
            mask |= 1 << x
        spans.append(mask)
    unassigned = [f for f in range(Z.facet_count) if colours[f] is None]
    coloured_nb = [
        sum(1 for g in Z.neighbours[f] if colours[g] is not None)
        for f in range(Z.facet_count)
    ]

    def assign(f, v):
        undo = []
        colours[f] = v
        for g in Z.neighbours[f]:
            coloured_nb[g] += 1
        for vi in Z.facet_vertices[f]:
            old = spans[vi]
            grown = old
            probe = old
            while probe:
                low = probe & -probe
                grown |= 1 << ((low.bit_length() - 1) ^ v)
                probe ^= low
            spans[vi] = grown
            undo.append((vi, old))
        return undo

    def unassign(f, undo):
        colours[f] = None
        for g in Z.neighbours[f]:
            coloured_nb[g] -= 1
        for vi, old in undo:
            spans[vi] = old

    def rec(depth):
        if depth == len(unassigned):
            return True
        f = max(
            (g for g in unassigned if colours[g] is None),
            key=lambda g: (coloured_nb[g], -g),
        )
        if picks is not None:
            picks.setdefault(depth, set()).add(f)
        for v in palette:
            meter.tick()
            if any(spans[vi] >> v & 1 for vi in Z.facet_vertices[f]):
                continue
            undo = assign(f, v)
            if rec(depth + 1):
                return True
            unassign(f, undo)
        return False

    try:
        hit = rec(0)
    except _BudgetOut:
        return "budget-out", meter.nodes, None
    if hit:
        return "found", meter.nodes, tuple(colours)
    return "exhausted", meter.nodes, None


def _run(Z, seed, budget=None):
    outcome = search_orientable_extension(Z, seed, budget)
    colours = outcome.colouring.colours if outcome.colouring else None
    return outcome.status, outcome.nodes, colours


NON_ORIENTABLE = [i for i in range(25) if i != 5]


@pytest.mark.parametrize("facet", [0, 7, 86])
def test_rank5_extension_matches_the_reference(z120, census, facet):
    assert not any(census.classes[i].orientable for i in NON_ORIENTABLE)
    for cls in NON_ORIENTABLE:
        seed = _class_seed(z120, census, cls, facet)
        got = _run(z120, seed)
        assert got == _reference_extension(z120, seed), cls
        assert got[0] == "found"


def _static_order(Z, seed):
    seeded = [f for f, c in enumerate(seed.colours) if c is not None]
    return greedy_facet_order(Z, seeded)[len(seeded):]


@pytest.mark.parametrize("facet", [0, 7])
def test_reference_picks_follow_the_static_order(z120, census, facet):
    # every path of the reference chooses the same facet at each depth,
    # the one the static order puts there
    for cls in NON_ORIENTABLE:
        seed = _class_seed(z120, census, cls, facet)
        picks = {}
        ref = _reference_extension(z120, seed, picks=picks)
        assert ref[0] == "found", cls
        assert picks == {d: {f} for d, f in enumerate(_static_order(z120, seed))}, cls
        assert _run(z120, seed) == ref, cls


def test_reference_picks_follow_the_static_order_when_exhausted(dodecahedron):
    seed = PartialColouring(dodecahedron, 2, (None,) * 12)
    picks = {}
    ref = _reference_extension(dodecahedron, seed, picks=picks)
    order = _static_order(dodecahedron, seed)
    assert len(picks) >= 3
    assert picks == {d: {order[d]} for d in range(len(picks))}
    assert _run(dodecahedron, seed) == ref


@pytest.mark.parametrize("nodes", [2_000, 20_000])
@pytest.mark.parametrize("cls", [0, 2, 14])
def test_rank4_extension_matches_the_reference(z120, census, cls, nodes):
    seed = _class_seed(z120, census, cls, rank=4)
    budget = SearchBudget(nodes=nodes, seconds=600)
    assert _run(z120, seed, budget) == _reference_extension(z120, seed, budget)


def test_rank4_extension_matches_the_reference_for_every_class(z120, census):
    budget = SearchBudget(nodes=2_000, seconds=600)
    for cls in NON_ORIENTABLE:
        seed = _class_seed(z120, census, cls, rank=4)
        assert _run(z120, seed, budget) == _reference_extension(z120, seed, budget), cls


@pytest.mark.parametrize(
    "nodes", [1, 7, 8, 9, 4_095, 4_096, 4_097, 8_191, 8_192, 8_193]
)
def test_batched_meter_stops_where_single_ticks_stop(z120, census, nodes):
    seed = _class_seed(z120, census, 0, rank=4)
    budget = SearchBudget(nodes=nodes, seconds=600)
    got = _run(z120, seed, budget)
    assert got == _reference_extension(z120, seed, budget)
    assert got == ("budget-out", nodes + 1, None)


def test_batched_meter_reads_the_clock_at_the_first_4096_crossing(
    z120, census, monkeypatch
):
    seed = _class_seed(z120, census, 0, rank=4)
    budget = SearchBudget(nodes=10 ** 8, seconds=1)
    for search in (_run, _reference_extension):
        # the start time, then every later reading is past the deadline
        clock = itertools.chain([0.0], itertools.repeat(10.0))
        monkeypatch.setattr(time, "monotonic", lambda: next(clock))
        assert search(z120, seed, budget) == ("budget-out", 4096, None)


def test_batched_meter_reads_the_clock_at_each_4096_crossing(z120, census, monkeypatch):
    # the clock passes the deadline only at the third crossing, so the
    # first two readings must leave the meter counting on
    seed = _class_seed(z120, census, 0, rank=4)
    budget = SearchBudget(nodes=10 ** 8, seconds=1)
    for search_ in (_run, _reference_extension):
        clock = itertools.chain([0.0] * 3, itertools.repeat(10.0))
        monkeypatch.setattr(time, "monotonic", lambda: next(clock))
        assert search_(z120, seed, budget) == ("budget-out", 12_288, None)


@pytest.mark.parametrize(
    "cls,nodes", [(1, 79_256), (6, 4_328), (8, 132_664), (9, 45_496), (10, 45_496)]
)
def test_recorded_rank4_proofs(z120, census, cls, nodes):
    # the classes criterion 9 decides at facet 0 within 150 000 nodes
    seed = _class_seed(z120, census, cls, rank=4)
    outcome = search_orientable_extension(
        z120, seed, SearchBudget(nodes=150_000, seconds=600)
    )
    assert (outcome.status, outcome.nodes) == ("exhausted", nodes)


def test_the_budgeted_rank4_experiment_spends_a_fixed_node_count(z120, census):
    # the work counter of the benchmark's 24 budgeted searches at facet 0
    budget = SearchBudget(nodes=150_000, seconds=600)
    got = {}
    for cls in NON_ORIENTABLE:
        outcome = search_orientable_extension(z120, _class_seed(z120, census, cls, rank=4), budget)
        got[cls] = (outcome.status, outcome.nodes)
    proofs = {1: 79_256, 6: 4_328, 8: 132_664, 9: 45_496, 10: 45_496}
    assert got == {
        cls: ("exhausted", proofs[cls]) if cls in proofs else ("budget-out", 150_001)
        for cls in NON_ORIENTABLE
    }
    assert sum(nodes for _, nodes in got.values()) == 3_157_259


@pytest.mark.parametrize(
    "facet, cls, nodes", [(0, 22, 2_105_415), (0, 2, 3_891_765), (7, 22, 421_335)]
)
def test_decided_rank4_extensions(z120, census, facet, cls, nodes):
    # with no node limit the search finds a rank-4 orientable extension;
    # each one is checked independently of the search's own leaf test
    mu = _class_on_facet(z120, census, cls, facet)
    outcome = search_orientable_extension(z120, seed_from_facet(z120, facet, mu, rank=4))
    assert (outcome.status, outcome.nodes) == ("found", nodes)
    lam = outcome.colouring
    assert is_proper(z120, lam)
    assert is_orientable(z120, lam) is not None
    assert all(gf2.rank(lam.colours[f] for f in v) == 4 for v in z120.vertices)
    assert equivalent(mu.polytope, induced_colouring(z120, facet, lam), mu)


@pytest.mark.parametrize("facet, cls, rank", [(7, 22, 4), (7, 0, 5)])
def test_canonical_form_is_the_least_orbit_key_on_the_120cell(z120, census, facet, cls, rank):
    # an orientable extension found by the search, against all 14 400 keys
    # computed in full by the pivot loop; a moved copy is equivalent to it
    mu = _class_on_facet(z120, census, cls, facet)
    lam = search_orientable_extension(z120, seed_from_facet(z120, facet, mu, rank=rank)).colouring
    assert canonical_form(z120, lam) == least_orbit_key_form(z120, lam)
    rng = random.Random(rank)
    sigma = rng.choice(symmetry_group(z120))
    # v -> v + v_1 shift is invertible, as shift has no first coordinate
    shift = rng.randrange(2, 1 << rank, 2)
    moved = Colouring(z120, rank, tuple(
        lam.colours[sigma[f]] ^ (shift if lam.colours[sigma[f]] & 1 else 0) for f in range(120)
    ))
    assert equivalent(z120, lam, moved)
    assert canonical_form(z120, moved) == canonical_form(z120, lam)


@pytest.mark.parametrize(
    "facet, cls, nodes",
    [
        (0, 1, 79_256), (0, 6, 4_328), (0, 8, 132_664), (0, 9, 45_496), (0, 10, 45_496),
        (7, 1, 137_840), (7, 6, 15_656), (7, 8, 507_808), (7, 9, 425_368), (7, 10, 425_368),
    ],
)
def test_decided_rank4_proofs(z120, census, facet, cls, nodes):
    # with no node limit the search proves that no rank-4 extension exists
    outcome = search_orientable_extension(z120, _class_seed(z120, census, cls, facet, rank=4))
    assert (outcome.status, outcome.nodes, outcome.colouring) == ("exhausted", nodes, None)


def test_extension_search_rejects_a_dependent_seed(dodecahedron):
    # a partly coloured vertex passes PartialColouring, but its two equal
    # colours already span too little
    cols = [None] * 12
    for f in dodecahedron.vertices[0][:2]:
        cols[f] = 1
    seed = PartialColouring(dodecahedron, 2, tuple(cols))
    for search in (search_orientable_extension, _reference_extension):
        with pytest.raises(ColouringError, match="breaks properness at vertex"):
            search(dodecahedron, seed)


def _reference_census(P, budget=None):
    """Reference census: the same search tree, each candidate tested vertex
    by vertex with `gf2.independent` and one meter tick per candidate."""
    n, m = P.dimension, P.facet_count
    meter = _PerCandidateMeter(budget)
    colours = [None] * m
    for k, f in enumerate(P.vertices[0]):
        colours[f] = 1 << k
    rest = [f for f in range(m) if colours[f] is None]
    seen = set()
    records = []

    def feasible(f, v):
        for vi in P.facet_vertices[f]:
            vec = [v] + [colours[g] for g in P.vertices[vi] if g != f and colours[g] is not None]
            if not gf2.independent(vec):
                return False
        return True

    def rec(idx):
        if idx == len(rest):
            lam = Colouring(P, n, tuple(colours))
            if normal_sequence(lam.colours) not in seen:
                seen.update(orbit_keys(P, lam))
                records.append(
                    ClassRecord(lam, is_orientable(P, lam) is not None, automorphism_order(P, lam))
                )
            return
        f = rest[idx]
        for v in range(1, 1 << n):
            meter.tick()
            if feasible(f, v):
                colours[f] = v
                rec(idx + 1)
                colours[f] = None

    complete = True
    try:
        rec(0)
    except _BudgetOut:
        complete = False
    return meter.nodes, tuple(records), complete


@pytest.mark.parametrize("seed", [None, 3, 11])
@pytest.mark.parametrize("nodes", [None, 1, 4_096, 20_000])
def test_span_mask_census_matches_the_reference(dodecahedron, seed, nodes):
    P = dodecahedron if seed is None else renumbered(dodecahedron, random.Random(seed))
    budget = None if nodes is None else SearchBudget(nodes=nodes, seconds=600)
    result = enumerate_small_covers(P, budget)
    assert (result.nodes, result.classes, result.complete) == _reference_census(P, budget)
    if nodes is None:
        assert len(result.classes) == 25
        assert seed is not None or result.nodes == 55797
    else:
        assert (result.nodes, result.complete) == (nodes + 1, False)


def _mask_from_sets(sets, colours):
    """The forbidden colours of one depth's sets, bit x for colour x: each
    single's colour and the nonzero span of each group's colours."""
    singles, groups = sets
    mask = 0
    for g in singles:
        mask |= 1 << colours[g]
    for group in groups:
        for x in gf2.span(colours[g] for g in group):
            mask |= 1 << x
    return mask & ~1


def _vertex_spans(P, colours, f):
    """The colours in the span of the coloured facets at a vertex of f."""
    spanned = set()
    for vi in P.facet_vertices[f]:
        spanned.update(gf2.span([colours[g] for g in P.vertices[vi]
                                 if colours[g] is not None]))
    return spanned


def _check_sets_along_a_walk(P, colours, order, palette, smallest, choose):
    """Walk the static order, colouring order[d] with choose(d, free) from
    the palette colours outside its vertex spans; at every depth reached,
    the palette colours the sets forbid must be those the spans at
    order[d]'s vertices hold.  Returns how many depths were checked and
    how many of them had groups; a group has at least `smallest` facets
    and at most dimension - 1, each group comes once, and no single lies
    in a group."""
    colours = list(colours)
    sets = _forbidding_sets(P, order, smallest)
    assert len(sets) == len(order)
    larger = 0
    for d, f in enumerate(order):
        spanned = _vertex_spans(P, colours, f)
        mask = _mask_from_sets(sets[d], colours)
        assert {v for v in palette if mask >> v & 1} == spanned & set(palette), (d, f)
        singles, groups = sets[d]
        assert all(smallest <= len(s) < P.dimension for s in groups)
        assert len(set(groups)) == len(groups)
        assert not set(singles) & {g for s in groups for g in s}
        larger += bool(groups)
        free = [v for v in palette if v not in spanned]
        if not free:
            return d + 1, larger
        colours[f] = choose(d, free)
    return len(order), larger


def _random_choice(seed):
    rng = random.Random(seed)
    return lambda d, free: rng.choice(free)


@pytest.mark.parametrize("rank", [4, 5])
@pytest.mark.parametrize("facet", [0, 7])
def test_extension_sets_match_the_vertex_spans(z120, census, facet, rank):
    palette = [v for v in range(1, 1 << rank) if gf2.parity(v)]
    for cls, walk in [(0, 0), (0, 1), (14, 2), (23, 3)]:
        seed = _class_seed(z120, census, cls, facet, rank)
        order = _static_order(z120, seed)
        depths, larger = _check_sets_along_a_walk(
            z120, seed.colours, order, palette, 3, _random_choice(walk)
        )
        assert depths >= 5 and larger >= 1, (cls, depths, larger)
        if rank == 5:
            # the search's own path, down to a complete colouring
            found = search_orientable_extension(z120, seed).colouring.colours
            depths, larger = _check_sets_along_a_walk(
                z120, seed.colours, order, palette, 3,
                lambda d, free: found[order[d]],
            )
            assert depths == len(order)


@pytest.mark.parametrize("name", ["dodecahedron", "pentagon"])
def test_census_sets_match_the_vertex_spans(request, name):
    P = request.getfixturevalue(name)
    colours = [None] * P.facet_count
    for k, f in enumerate(P.vertices[0]):
        colours[f] = 1 << k
    order = [f for f in range(P.facet_count) if colours[f] is None]
    palette = range(1, 1 << P.dimension)
    for walk in range(4):
        depths, larger = _check_sets_along_a_walk(
            P, colours, order, palette, 2, _random_choice(walk)
        )
        assert depths > len(order) // 2
        # groups (pairs) in three dimensions, none on a polygon
        assert (larger > 0) == (P.dimension == 3)


def _check_masks_along_the_order(
    P, colours, order, sets, masks, palette, seed, walks=4, spans=True
):
    """On random partial colourings along the order (palette colours, not
    necessarily proper), each depth's generated mask, read with bit k for
    palette[k] and the palette's span table as the search reads it, holds
    the positions of the palette colours its sets forbid; with `spans`,
    those are the palette colours in the span of the coloured facets at
    one of order[d]'s vertices."""
    assert len(masks) == len(sets) == len(order)
    position = {v: 1 << k for k, v in enumerate(palette)}
    span = search._span_table(palette, P.dimension - 1) if spans else {}
    rng = random.Random(seed)
    for _ in range(walks):
        cols = list(colours)
        for d, f in enumerate(order):
            want = _mask_from_sets(sets[d], cols)
            bit = [position.get(c, 0) for c in cols]
            got = masks[d](bit, span)
            assert got == sum(1 << k for k, v in enumerate(palette) if want >> v & 1), d
            if spans:
                spanned = _vertex_spans(P, cols, f)
                assert got == sum(position[v] for v in spanned if v in position), d
            cols[f] = rng.choice(palette)


@pytest.mark.parametrize("rank", [4, 5])
@pytest.mark.parametrize("facet", [0, 7])
def test_extension_masks_match_the_sets(z120, census, facet, rank):
    palette = tuple(v for v in range(1, 1 << rank) if gf2.parity(v))
    for cls in (0, 14, 23):
        seed = _class_seed(z120, census, cls, facet, rank)
        seeded = tuple(f for f, c in enumerate(seed.colours) if c is not None)
        # the plan the search itself runs on
        order, masks = search._extension_plan(z120, seeded)
        assert list(order) == _static_order(z120, seed)
        sets = _forbidding_sets(z120, order, 3)
        _check_masks_along_the_order(z120, seed.colours, order, sets, masks, palette, cls)


def test_census_masks_match_the_sets(dodecahedron):
    P = dodecahedron
    colours = [None] * P.facet_count
    for k, f in enumerate(P.vertices[0]):
        colours[f] = 1 << k
    order = [f for f in range(P.facet_count) if colours[f] is None]
    sets = _forbidding_sets(P, order, 2)
    masks = [search._mask_function(s) for s in sets]
    assert any(groups for _, groups in sets)
    _check_masks_along_the_order(P, colours, order, sets, masks, range(1, 8), 0, walks=20)


@pytest.mark.parametrize("name, k", [("dodecahedron", 4), ("z120", 5)])
def test_chromatic_masks_match_the_sets(request, monkeypatch, name, k):
    # the chromatic count forbids the colours of the neighbours pinned or
    # earlier in the order, singletons only: `_forbidding_sets` asking for
    # groups of P.dimension facets, which no vertex holds
    P = request.getfixturevalue(name)
    v0 = P.vertices[0]
    colours = [None] * P.facet_count
    for i, f in enumerate(v0):
        colours[f] = i + 1
    order = greedy_facet_order(P, v0)[P.dimension:]
    coloured = set(v0)
    sets = []
    for f in order:
        sets.append((tuple(g for g in P.neighbours[f] if g in coloured), ()))
        coloured.add(f)
    assert _forbidding_sets(P, order, P.dimension) == sets
    # the order and masks the count itself runs on
    runs = []
    real = search._depth_first
    monkeypatch.setattr(
        search, "_depth_first",
        lambda cols, run_order, masks, *rest: runs.append((list(run_order), masks))
        or real(cols, run_order, masks, *rest),
    )
    assert enumerate_chromatic_colourings(P, k).count == 10
    [(run_order, masks)] = runs
    assert run_order == order
    _check_masks_along_the_order(
        P, colours, order, sets, masks, range(1, k + 1), k, spans=False
    )


def test_a_mask_of_thousands_of_terms_compiles():
    # a flat expression this long would exceed the compiler's recursion limit
    rng = random.Random(1)
    facets = range(5_000)
    sets = (
        tuple(rng.sample(facets, 2_000)),
        tuple(tuple(rng.sample(facets, 2)) for _ in range(1_500))
        + tuple(tuple(rng.sample(facets, 3)) for _ in range(1_500)),
    )
    mask = search._mask_function(sets)
    palette = range(1, 32)
    span = search._span_table(palette, 3)
    for _ in range(3):
        cols = [rng.choice(palette) for _ in facets]
        # colour v sits at palette position v - 1
        assert mask([1 << c - 1 for c in cols], span) == _mask_from_sets(sets, cols) >> 1
    assert search._mask_function(((), ()))([], {}) == 0


@pytest.mark.parametrize("palette", [
    tuple(range(1, 8)),
    tuple(v for v in range(1, 16) if gf2.parity(v)),
    tuple(v for v in range(1, 32) if gf2.parity(v)),
], ids=["census", "odd-rank-4", "odd-rank-5"])
def test_the_span_table_holds_the_span_of_every_small_set(palette, monkeypatch):
    monkeypatch.setattr(search, "_span_table", _cold(search._span_table))
    table = search._span_table(palette, 3)
    position = {v: 1 << k for k, v in enumerate(palette)}
    subsets = [ks for r in (1, 2, 3) for ks in itertools.combinations(range(len(palette)), r)]
    assert len(table) == len(subsets)
    for ks in subsets:
        spanned = gf2.span(palette[k] for k in ks)
        want = sum(position[v] for v in spanned if v in position)
        assert table[sum(1 << k for k in ks)] == want, ks
    # cached per palette and size, and the smaller table is a part of it
    assert search._span_table(tuple(list(palette)), 3) is table
    small = search._span_table(palette, 2)
    assert small.items() <= table.items()
    assert len(small) == len(subsets) - math.comb(len(palette), 3)


def test_span_tables_are_built_at_the_first_search(dodecahedron, monkeypatch):
    built = []
    build = search._span_table.__wrapped__
    monkeypatch.setattr(search, "_span_table", lru_cache(maxsize=None)(
        lambda palette, size: built.append((tuple(palette), size)) or build(palette, size)
    ))
    enumerate_small_covers(dodecahedron, SearchBudget(nodes=10, seconds=60))
    assert built == [(tuple(range(1, 8)), 2)]


@pytest.mark.parametrize("sets", [
    (("0] or __import__('os').getpid() or b[0",), ()),
    ((1, 2.0), ()),
    ((), ((1, True),)),
    ((), ((1, 2, "3"),)),
])
def test_the_mask_generator_takes_only_int_indices(sets):
    with pytest.raises(TypeError, match="is not an int"):
        search._mask_function(sets)


@pytest.fixture
def plan_builds(monkeypatch):
    """An empty extension plan cache; the returned list collects the
    polytope of every plan built."""
    builds = []
    real = search._forbidding_sets
    monkeypatch.setattr(search, "_extension_plan", _cold(search._extension_plan))
    monkeypatch.setattr(
        search, "_forbidding_sets",
        lambda P, *args, **kwargs: builds.append(P) or real(P, *args, **kwargs),
    )
    return builds


def test_both_ranks_at_one_facet_share_one_plan(z120, census, plan_builds):
    budget = SearchBudget(nodes=2_000, seconds=600)
    for cls in (0, 14):
        for rank in (4, 5):
            seed = _class_seed(z120, census, cls, 0, rank)
            assert _run(z120, seed, budget) == _reference_extension(z120, seed, budget)
    assert plan_builds == [z120]
    seed = _class_seed(z120, census, 0, 7)
    assert _run(z120, seed, budget) == _reference_extension(z120, seed, budget)
    assert plan_builds == [z120, z120]


class _ShuffleOutside:
    """Stands in for the rng of `renumbered`: shuffles only the facets
    outside `keep`, which keep their numbers."""

    def __init__(self, keep, seed):
        self.keep = set(keep)
        self.rng = random.Random(seed)

    def shuffle(self, p):
        moved = [f for f in p if f not in self.keep]
        self.rng.shuffle(moved)
        it = iter(moved)
        p[:] = [f if f in self.keep else next(it) for f in p]


def test_a_renumbered_polytope_gets_its_own_plan(z120, census, plan_builds):
    # the same seeded facets with the same colours on a renumbered 120-cell:
    # only the polytope differs, and with it the static order
    seed = _class_seed(z120, census, 0)
    seeded = [f for f, c in enumerate(seed.colours) if c is not None]
    Z2 = renumbered(z120, _ShuffleOutside(seeded, 5))
    seed2 = PartialColouring(Z2, seed.rank, seed.colours)
    assert _static_order(Z2, seed2) != _static_order(z120, seed)
    assert _run(z120, seed) == _reference_extension(z120, seed)
    got = _run(Z2, seed2)
    assert plan_builds == [z120, Z2]
    assert got == _reference_extension(Z2, seed2)
    assert got[0] == "found"


def _cube(n):
    """The n-cube: facet 2i + s is x_i = s, and a vertex picks one of each pair."""
    return Polytope(
        n,
        [f"x{i}={s}" for i in range(n) for s in (0, 1)],
        [(2 * i + s, 2 * j + t) for i, j in itertools.combinations(range(n), 2)
         for s in (0, 1) for t in (0, 1)],
        [[2 * i + b for i, b in enumerate(bits)] for bits in itertools.product((0, 1), repeat=n)],
    )


def test_tesseract_census_matches_the_reference():
    C = _cube(4)
    result = enumerate_small_covers(C)
    assert (result.nodes, result.classes, result.complete) == _reference_census(C)
    assert (result.nodes, len(result.classes)) == (3_855, 19)
    rest = [f for f in range(C.facet_count) if f not in C.vertices[0]]
    sizes = {len(s) for _, groups in _forbidding_sets(C, rest, 2) for s in groups}
    assert sizes == {2, 3}


@pytest.mark.parametrize("rank", [4, 5])
def test_tesseract_extension_matches_the_reference(rank):
    C = _cube(4)
    palette = [v for v in range(1, 1 << rank) if gf2.parity(v)]
    bases = [b for b in itertools.permutations(palette, 4) if gf2.independent(b)]
    statuses = set()
    for base in random.Random(rank).sample(bases, 20):
        cols = [None] * C.facet_count
        for f, v in zip(C.vertices[0], base):
            cols[f] = v
        seed = PartialColouring(C, rank, tuple(cols))
        got = _run(C, seed)
        assert got == _reference_extension(C, seed), base
        statuses.add(got[0])
    assert "found" in statuses


def test_tesseract_dependent_seed_names_the_first_bad_vertex():
    # facets 1 and 3 share a colour; their first common vertex is not the
    # first vertex, and the vertices of facet 0 before it are fine
    C = _cube(4)
    cols = [None] * C.facet_count
    cols[0], cols[1], cols[3] = 2, 1, 1
    seed = PartialColouring(C, 2, tuple(cols))
    messages = []
    for search_ in (search_orientable_extension, _reference_extension):
        with pytest.raises(ColouringError) as err:
            search_(C, seed)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0].endswith(f"vertex {(1, 3, 4, 6)}")
    assert C.vertices[0] == (0, 2, 4, 6)


def _reference_chromatic(P, k, budget=None):
    """Reference chromatic search, the recursion as first written: the same
    search tree, every neighbour read at every node, the colour reset on
    the way back and one meter tick per candidate.  Returns (count,
    orbit_count, complete, nodes, representatives), the orbits counted by
    a sweep over the whole group."""
    n, m = P.dimension, P.facet_count
    meter = _PerCandidateMeter(budget)
    assign = [0] * m
    v0 = P.vertices[0]
    for i, f in enumerate(v0):
        assign[f] = i + 1
    order = greedy_facet_order(P, v0)[n:]
    classes = {}

    def rec(idx):
        if idx == len(order):
            classes.setdefault(_norm(assign), tuple(assign))
            return
        f = order[idx]
        used = 0
        for g in P.neighbours[f]:
            used |= 1 << assign[g]
        for c in range(1, k + 1):
            meter.tick()
            if not used >> c & 1:
                assign[f] = c
                rec(idx + 1)
                assign[f] = 0

    complete = True
    try:
        rec(0)
    except _BudgetOut:
        complete = False
    reps = tuple(classes[key] for key in sorted(classes))
    orbits = _full_sweep(P, SimpleNamespace(representatives=reps))[0]
    return len(reps), orbits, complete, meter.nodes, reps


def _chromatic(P, k, budget=None):
    r = enumerate_chromatic_colourings(P, k, budget)
    return r.count, r.orbit_count, r.complete, r.nodes, r.representatives


@pytest.mark.parametrize(
    "name,k",
    [("pentagon", 3), ("dodecahedron", 4), ("dodecahedron", 5), ("renumbered", 4),
     ("renumbered", 5), ("z120", 5), ("tesseract", 4)],
)
def test_chromatic_search_matches_the_reference(request, dodecahedron, name, k):
    if name == "renumbered":
        P = renumbered(dodecahedron, random.Random(k))
    elif name == "tesseract":
        P = _cube(4)
    else:
        P = request.getfixturevalue(name)
    got = _chromatic(P, k)
    assert got == _reference_chromatic(P, k)
    assert got[2]


# the search has 11 795 nodes and ends with end-of-palette ticks, so
# 11 794 stops in one of them and nowhere else
@pytest.mark.parametrize("nodes", [1, 40, 4_095, 4_096, 4_097, 11_794])
def test_budgeted_chromatic_search_stops_where_the_reference_stops(dodecahedron, nodes):
    budget = SearchBudget(nodes=nodes, seconds=600)
    got = _chromatic(dodecahedron, 5, budget)
    assert got == _reference_chromatic(dodecahedron, 5, budget)
    assert got[2:4] == (False, nodes + 1)


def test_chromatic_search_on_a_ten_summand_chain(census):
    # one search depth per facet: 1 074 of them, more than the interpreter's
    # default recursion limit
    Q = assemble_chain(select_class(census, "max-symmetry"), 10).Q
    assert Q.facet_count == 1074
    got = _chromatic(Q, 5, SearchBudget(nodes=100_000))
    assert got[:4] == (10, 1, True, 76_320)
    for rep in got[4]:
        assert all(rep[i] != rep[j] for i, j in Q.adjacency)


def test_chromatic_search_reads_the_clock_at_the_first_4096_crossing(
    dodecahedron, monkeypatch
):
    budget = SearchBudget(nodes=10 ** 8, seconds=1)
    results = []
    for search_ in (_chromatic, _reference_chromatic):
        clock = itertools.chain([0.0], itertools.repeat(10.0))
        monkeypatch.setattr(time, "monotonic", lambda: next(clock))
        results.append(search_(dodecahedron, 5, budget))
    assert results[0] == results[1]
    assert results[0][2:4] == (False, 4096)
