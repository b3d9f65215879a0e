"""Enumeration and completion searches against independent oracles."""
from __future__ import annotations

import itertools
import random

import pytest

from conftest import renumbered
from racover import gf2
from racover.colouring import (
    Colouring,
    ColouringError,
    PartialColouring,
    automorphism_order,
    canonical_form,
    is_orientable,
    is_proper,
)
from racover.polytopes import facet_subpolytope, find_isomorphism, symmetry_group
from racover.search import (
    ClassRecord,
    SearchBudget,
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


def _orbit_count_by_full_sweep(P, result):
    """Reference orbit count: one sweep over the whole symmetry group per
    unvisited class, as the count was first computed."""

    def norm(seq):
        ren = {}
        return bytes(ren.setdefault(c, len(ren) + 1) for c in seq)

    rem = {norm(rep) for rep in result.representatives}
    count = 0
    for rep in result.representatives:
        if norm(rep) not in rem:
            continue
        count += 1
        for sigma in symmetry_group(P):
            rem.discard(norm([rep[sigma[j]] for j in range(P.facet_count)]))
    return count


@pytest.mark.parametrize(
    "name,k,nodes", [("dodecahedron", 4, None), ("dodecahedron", 5, None), ("z120", 5, 7910)]
)
def test_generator_orbit_count_matches_the_full_sweep(request, name, k, nodes):
    P = request.getfixturevalue(name)
    result = enumerate_chromatic_colourings(P, k)
    assert result.complete
    if nodes is not None:
        assert result.nodes == nodes
    assert result.orbit_count == _orbit_count_by_full_sweep(P, result)


def test_budgeted_orbit_count_matches_the_full_sweep(dodecahedron):
    for nodes in (40, 400, 4000):
        result = enumerate_chromatic_colourings(
            dodecahedron, 5, SearchBudget(nodes=nodes, seconds=60)
        )
        assert result.orbit_count == _orbit_count_by_full_sweep(dodecahedron, result)


def test_chromatic_budget_cuts_off(dodecahedron):
    result = enumerate_chromatic_colourings(
        dodecahedron, 4, SearchBudget(nodes=50, seconds=60)
    )
    assert not result.complete
    assert result.count <= 10


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
    lam = census.classes[0].colouring
    sub, _ = facet_subpolytope(z120, 0)
    psi = find_isomorphism(sub, lam.polytope)
    mu = Colouring(sub, 3, tuple(lam.colours[psi[j]] for j in range(12)))
    outcome = search_orientable_extension(z120, seed_from_facet(z120, 0, mu))
    assert outcome.status == "found"
    assert outcome.colouring is not None
    assert is_proper(z120, outcome.colouring)
    assert is_orientable(z120, outcome.colouring) is not None
    assert outcome.colouring.colours[0] == 16


def test_extension_search_budget_out(z120, census):
    lam = census.classes[0].colouring
    sub, _ = facet_subpolytope(z120, 0)
    psi = find_isomorphism(sub, lam.polytope)
    mu = Colouring(sub, 3, tuple(lam.colours[psi[j]] for j in range(12)))
    outcome = search_orientable_extension(
        z120, seed_from_facet(z120, 0, mu), SearchBudget(nodes=50, seconds=60)
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


def test_extension_search_rejects_even_weight_seed(dodecahedron):
    seed = PartialColouring(dodecahedron, 2, (3,) + (None,) * 11)
    with pytest.raises(ColouringError):
        search_orientable_extension(dodecahedron, seed)
