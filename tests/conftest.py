"""Shared fixtures: session-cached polytopes, censuses and certificates.

Heavy objects (the 120-cell, the dodecahedral census, the chain
certificates) are built once per session; the library's own caches make
repeats cheap, but the fixtures keep the dependency explicit.
"""
from __future__ import annotations

import itertools
import random
from typing import List, Optional

import pytest

from racover import gf2
from racover.colouring import Colouring
from racover.pipeline import Certificate, _dodecahedron_census, certify
from racover.polytopes import (
    FacetMatching,
    Polytope,
    antipodal_facet,
    chain_sum,
    make_120cell,
    make_dodecahedron,
    make_polygon,
)
from racover.search import EnumerationResult


@pytest.fixture(scope="session")
def pentagon() -> Polytope:
    return make_polygon(5)


@pytest.fixture(scope="session")
def dodecahedron() -> Polytope:
    return make_dodecahedron()


@pytest.fixture(scope="session")
def z120() -> Polytope:
    return make_120cell()


@pytest.fixture(scope="session")
def census() -> EnumerationResult:
    return _dodecahedron_census()


@pytest.fixture(scope="session")
def cert1() -> Certificate:
    return certify(1)


def renumbered(P: Polytope, rng: random.Random) -> Polytope:
    """P with its facets renumbered at random; labels travel with facets."""
    p = list(range(P.facet_count))
    rng.shuffle(p)
    labels = [""] * P.facet_count
    for f, lab in enumerate(P.facet_labels):
        labels[p[f]] = lab
    return Polytope(
        P.dimension,
        labels,
        [(p[i], p[j]) for i, j in P.adjacency],
        [[p[g] for g in v] for v in P.vertices],
    )


def relabel(P: Polytope, prefix: str) -> Polytope:
    """Copy of P with labels '<prefix>.<old>'; used to keep summands apart."""
    return Polytope(
        P.dimension,
        [f"{prefix}.{l}" for l in P.facet_labels],
        P.adjacency,
        P.vertices,
    )


def identity_matching(P1: Polytope, F1: int, P2: Polytope, F2: int) -> FacetMatching:
    """Label-identity matching; valid when P2 is a relabelled copy of P1 and F1 = F2."""
    return FacetMatching(F1, F2, tuple((g, g) for g in P1.neighbours[F1]))


def dodecahedral_chain(n: int) -> Polytope:
    """n dodecahedra glued end to end at facet 0 and its antipode in turn."""
    D = make_dodecahedron()
    ends = (0, antipodal_facet(D, 0))
    return chain_sum(D, [ends[s % 2] for s in range(n - 1)])[0]


def octagons() -> List[Polytope]:
    """Two octagons with two adjacencies each that no vertex shows,
    diameters and short chords: same vertices, same degrees, not
    isomorphic."""
    ring = [(i, (i + 1) % 8) for i in range(8)]
    labels = [f"e{i}" for i in range(8)]
    return [Polytope(2, labels, ring + extra, ring)
            for extra in ([(0, 4), (2, 6)], [(0, 6), (2, 4)])]


def two_tetrahedra() -> Polytope:
    """Tetrahedra on facets 0-3 and 4-7, joined only by the adjacency
    (0, 4) that no vertex shows: the facet graph is connected, the vertex
    graph is not."""
    blocks = (range(4), range(4, 8))
    adjacency = [p for b in blocks for p in itertools.combinations(b, 2)] + [(0, 4)]
    vertices = [v for b in blocks for v in itertools.combinations(b, 3)]
    return Polytope(3, [f"t{i}" for i in range(8)], adjacency, vertices)


def random_proper_colouring(P: Polytope, rank: int, rng: random.Random) -> Colouring:
    """A uniformly seeded (not uniformly distributed) proper colouring.

    Randomized first-solution backtracking: facet order and palette order
    are shuffled, then the first proper completion wins.  Deterministic
    for a given rng state; raises if no proper colouring exists at all.
    """
    m = P.facet_count
    order = list(range(m))
    rng.shuffle(order)
    palette = list(range(1, 1 << rank))
    vals: List[Optional[int]] = [None] * m

    def admissible(f: int, v: int) -> bool:
        for vertex in P.facet_vertices[f]:
            chosen = [vals[g] for g in P.vertices[vertex] if vals[g] is not None]
            if not gf2.independent(chosen + [v]):
                return False
        return True

    def rec(k: int) -> bool:
        if k == m:
            return True
        f = order[k]
        options = palette[:]
        rng.shuffle(options)
        for v in options:
            if admissible(f, v):
                vals[f] = v
                if rec(k + 1):
                    return True
                vals[f] = None
        return False

    if not rec(0):
        raise ValueError(f"no proper rank-{rank} colouring on {P!r}")
    return Colouring(P, rank, tuple(vals))  # type: ignore[arg-type]
