"""Shared fixtures: session-cached polytopes, censuses and certificates,
and the reference helpers the tests compare the library against.

Heavy objects (the 120-cell, the dodecahedral census, the chain
certificates) are built once per session; the library's own caches make
repeats cheap, but the fixtures keep the dependency explicit.  The
helpers include the brute-force GL(s, 2) oracle (`invertible_maps`,
`apply_map`), the pivot-loop normal sequence and the canonical form as
the least of all orbit keys, the generic orientable extension of a facet
colouring and the f-vector; no command of the package needs them.
"""
from __future__ import annotations

import itertools
import random
from typing import List, Optional, Tuple

import pytest

from racover import gf2
from racover.colouring import Colouring, ColouringError, is_proper
from racover.pipeline import Certificate, _dodecahedron_census, certify
from racover.polytopes import (
    FacetMatching,
    Polytope,
    _face_counts,
    antipodal_facet,
    chain_sum,
    facet_subpolytope,
    make_120cell,
    make_dodecahedron,
    make_polygon,
    symmetry_group,
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


@pytest.fixture(scope="session")
def cert3() -> Certificate:
    return certify(3)


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


def two_tetrahedra() -> Polytope:
    """Tetrahedra on facets 0-3 and 0, 4-6, sharing only facet 0: every
    edge lies on two vertices and the facet graph is connected, the vertex
    graph is not."""
    blocks = ((0, 1, 2, 3), (0, 4, 5, 6))
    adjacency = [p for b in blocks for p in itertools.combinations(b, 2)]
    vertices = [v for b in blocks for v in itertools.combinations(b, 3)]
    return Polytope(3, [f"t{i}" for i in range(7)], adjacency, vertices)


def torus_dual() -> Polytope:
    """The dual of the 7-vertex torus: 7 facets, all 21 pairs adjacent, and
    the vertex rows the 14 triangles {i, i+1, i+3} and {i, i+2, i+3} mod 7.
    Every edge lies on two vertices and the vertex graph is connected, but
    the faces sum to -1 in the Euler relation, not 1."""
    vertices = [sorted({i, (i + a) % 7, (i + 3) % 7}) for i in range(7) for a in (1, 2)]
    return Polytope(3, [f"t{i}" for i in range(7)], itertools.combinations(range(7), 2), vertices)


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


def f_vector(P: Polytope) -> Tuple[int, ...]:
    """Face counts (f_0, ..., f_{n-1}), vertices first, facets last; in
    dimension 3 they must satisfy Euler's relation."""
    counts = _face_counts(P)
    n = P.dimension
    fv = tuple(counts[n - d] for d in range(n))
    assert n != 3 or fv[0] - fv[1] + fv[2] == 2, "Euler relation fails"
    return fv


def invertible_maps(dim: int) -> List[List[int]]:
    """All invertible dim x dim matrices over GF(2), as column lists: a
    matrix is the list of images of the standard basis vectors.  The
    brute-force GL(dim, 2) oracle, for small dim (168 matrices at 3)."""
    maps: List[List[int]] = []
    cols: List[int] = []

    def rec() -> None:
        if len(cols) == dim:
            maps.append(cols.copy())
            return
        spanned = gf2.span(cols)
        for c in range(1, 1 << dim):
            if c not in spanned:
                cols.append(c)
                rec()
                cols.pop()

    rec()
    return maps


def apply_map(cols: List[int], v: int) -> int:
    """Image of v under the matrix with the given basis-vector images."""
    out = 0
    i = 0
    while v:
        if v & 1:
            out ^= cols[i]
        v >>= 1
        i += 1
    return out


def pivot_normal_sequence(seq) -> Tuple[int, ...]:
    """Greedy re-echelonization by elimination on pivot bits: the j-th new
    independent entry becomes e_j, and each entry is rewritten in that
    basis.  The reference for `colouring.normal_sequence`, which reads the
    entries through the frame of their greedy basis."""
    pivots: List[Tuple[int, int]] = []
    out = []
    for v in seq:
        im = 0
        for p, pim in pivots:
            if v & (p & -p):
                v ^= p
                im ^= pim
        if v:
            e = 1 << len(pivots)
            pivots.append((v, e ^ im))
            im = e
        out.append(im)
    return tuple(out)


def least_orbit_key_form(P: Polytope, lam: Colouring) -> bytes:
    """The canonical form as the least of all orbit keys, each key computed
    in full by the pivot loop.  The reference for `colouring.canonical_form`,
    which drops each key at its first entry above the least so far."""
    keys = (pivot_normal_sequence([lam.colours[f] for f in sigma]) for sigma in symmetry_group(P))
    return " ".join(map(str, min(keys))).encode()


def extend_colouring_generic(P: Polytope, F: int, lam_sub: Colouring) -> Colouring:
    """Extend a proper colouring of the facet F to an orientable one of P.

    The target space is GF(2) + GF(2)^s + GF(2)^f where s is the input rank
    and f counts the facets of P not touching F.  Facet F gets (1, 0, 0);
    a neighbour G gets (w+1, v, 0) with v the colour of its trace and w the
    parity of v; the i-th remaining facet gets (0, 0, e_i).  Every colour
    has odd weight, so the result is orientable, and it induces the input
    back on F up to equivalence.
    """
    sub, inc = facet_subpolytope(P, F)
    if not lam_sub.polytope.same_structure(sub):
        raise ColouringError("colouring does not live on the facet subpolytope")
    if not is_proper(sub, lam_sub):
        raise ColouringError("colouring of the facet is not proper")
    s = lam_sub.rank
    others = [
        g
        for g in range(P.facet_count)
        if g != F and not P.adjacency_masks[F] >> g & 1
    ]
    rank = 1 + s + len(others)
    vals = [0] * P.facet_count
    vals[F] = 1
    for j, g in enumerate(inc):
        v = lam_sub.colours[j]
        vals[g] = (gf2.parity(v) ^ 1) | v << 1
    for i, g in enumerate(others):
        vals[g] = 1 << (1 + s + i)
    out = Colouring(P, rank, tuple(vals))
    if not is_proper(P, out):
        raise ColouringError("generic extension failed to be proper")
    return out
