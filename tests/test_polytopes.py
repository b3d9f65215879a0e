"""Combinatorial polytopes: generators, invariants, sums, isomorphisms."""
from __future__ import annotations

import itertools
import random
from fractions import Fraction
from types import SimpleNamespace
from typing import List, Tuple

import pytest

from conftest import (
    dodecahedral_chain,
    f_vector,
    identity_matching,
    relabel,
    renumbered,
    torus_dual,
    two_tetrahedra,
)
from racover import covers, polytopes
from racover.polytopes import (
    FacetMatching,
    Polytope,
    PolytopeError,
    antipodal_facet,
    chain_sum,
    connected_sum,
    facet_subpolytope,
    find_isomorphism,
    greedy_facet_order,
    make_120cell,
    make_dodecahedron,
    make_polygon,
    orbifold_euler_characteristic,
    symmetry_generators,
    symmetry_group,
)


def _iso_search(src: Polytope, dst: Polytope, find_all: bool) -> List[Tuple[int, ...]]:
    """Reference engine: backtracking search for facet bijections src -> dst.

    Candidates for each facet are narrowed by intersecting the target
    adjacency masks of already-mapped neighbours; a full pairwise
    consistency check runs per placement, so accepted leaves preserve
    adjacency exactly.  The vertex families are compared at each leaf.
    Leaves come in lexicographic order of the images along
    `greedy_facet_order(src, [0])`.
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

    order = greedy_facet_order(src, [0])
    prev_nbrs = []
    pos = {f: k for k, f in enumerate(order)}
    for k, f in enumerate(order):
        prev_nbrs.append([pos[g] for g in src.neighbours[f] if pos[g] < k])

    dst_masks = dst.adjacency_masks
    sols: List[Tuple[int, ...]] = []
    img = [0] * m

    def bits(mask: int):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def rec(k: int, used: int) -> bool:
        if k == m:
            perm = [0] * m
            for p, f in enumerate(order):
                perm[f] = img[p]
            for v in src.vertices:
                if frozenset(perm[i] for i in v) not in dst.vertex_sets:
                    return False
            sols.append(tuple(perm))
            return not find_all
        f = order[k]
        cand = deg_mask.get(deg_src[f], 0) & ~used
        tnb = 0
        for p in prev_nbrs[k]:
            cand &= dst_masks[img[p]]
            tnb |= 1 << img[p]
        for t in bits(cand):
            if dst_masks[t] & used == tnb:
                img[k] = t
                if rec(k + 1, used | 1 << t):
                    return True
        return False

    rec(0, 0)
    return sols


def _reference_isomorphism(src: Polytope, dst: Polytope):
    sols = _iso_search(src, dst, find_all=False)
    return sols[0] if sols else None


def _is_automorphism(P: Polytope, sigma) -> bool:
    if sorted(sigma) != list(range(P.facet_count)):
        return False
    if any(not P.adjacent(sigma[i], sigma[j]) for i, j in P.adjacency):
        return False
    return all(frozenset(map(sigma.__getitem__, v)) in P.vertex_sets for v in P.vertices)


def _flip(P: Polytope, a: int, b: int):
    """Dual of an edge flip: facets a, b stop touching, the two facets
    meeting them at their two common vertices start touching.  None when
    that would leave a facet with fewer than three sides."""
    v1, v2 = [v for v in P.vertices if a in v and b in v]
    (c,) = set(v1) - {a, b}
    (d,) = set(v2) - {a, b}
    if P.adjacent(c, d) or min(len(P.neighbours[a]), len(P.neighbours[b])) <= 3:
        return None
    adj = [e for e in P.adjacency if set(e) != {a, b}] + [(c, d)]
    verts = [v for v in P.vertices if v not in (v1, v2)] + [(a, c, d), (b, c, d)]
    return Polytope(3, P.facet_labels, adj, verts)


def test_polygon_f_vector_and_adjacency(pentagon):
    assert f_vector(pentagon) == (5, 5)
    for i in range(5):
        assert sorted(pentagon.neighbours[i]) == sorted([(i - 1) % 5, (i + 1) % 5])


def test_dodecahedron_f_vector(dodecahedron):
    assert f_vector(dodecahedron) == (20, 30, 12)
    assert all(len(nb) == 5 for nb in dodecahedron.neighbours)
    assert all(len(fv) == 5 for fv in dodecahedron.facet_vertices)


def test_120cell_f_vector(z120):
    assert f_vector(z120) == (600, 1200, 720, 120)
    assert all(len(nb) == 12 for nb in z120.neighbours)


def test_every_dodecahedron_facet_is_a_pentagon(dodecahedron, pentagon):
    for F in range(12):
        sub, inc = facet_subpolytope(dodecahedron, F)
        assert sub.facet_count == 5
        assert find_isomorphism(sub, pentagon) is not None
        assert sorted(inc) == sorted(dodecahedron.neighbours[F])


def test_120cell_facet_is_a_dodecahedron(dodecahedron, z120):
    sub, inc = facet_subpolytope(z120, 0)
    assert sub.facet_count == 12
    assert find_isomorphism(sub, dodecahedron) is not None
    assert sorted(inc) == sorted(z120.neighbours[0])


def test_orbifold_euler_characteristics(pentagon, dodecahedron, z120):
    assert orbifold_euler_characteristic(pentagon) == Fraction(-1, 4)
    assert orbifold_euler_characteristic(dodecahedron) == 0
    assert orbifold_euler_characteristic(z120) == Fraction(17, 2)


def test_gauss_bonnet_volume(z120):
    # Gauss-Bonnet in dimension four, vol = (4 pi^2 / 3) * chi_orb, gives
    # the constant the certificate's volume ledger uses
    assert covers.V_120CELL_PI2 == Fraction(4, 3) * orbifold_euler_characteristic(z120)


def test_symmetry_group_orders(pentagon, dodecahedron):
    assert len(symmetry_group(pentagon)) == 10
    assert len(symmetry_group(dodecahedron)) == 120
    # the identity is present and every element is a permutation
    assert tuple(range(12)) in symmetry_group(dodecahedron)
    for sigma in symmetry_group(pentagon):
        assert sorted(sigma) == list(range(5))


@pytest.mark.parametrize(
    "name", ["triangle", "pentagon", "dodecahedron", "renumbered", "2-chain"]
)
def test_symmetry_group_matches_the_backtracking_reference(name):
    D = make_dodecahedron()
    P = {
        "triangle": lambda: make_polygon(3),
        "pentagon": lambda: make_polygon(5),
        "dodecahedron": lambda: D,
        "renumbered": lambda: renumbered(D, random.Random(3)),
        "2-chain": lambda: chain_sum(D, [0])[0],
    }[name]()
    assert symmetry_group(P) == tuple(sorted(_iso_search(P, P, find_all=True)))
    assert all(_is_automorphism(P, g) for g in symmetry_generators(P))


def test_symmetry_group_of_the_120cell(z120):
    group = symmetry_group(z120)
    assert len(group) == 14400
    assert len(set(group)) == 14400
    assert tuple(range(120)) in group
    members = set(group)
    for g in symmetry_generators(z120):
        assert all(tuple(map(a.__getitem__, g)) in members for a in group)
    rng = random.Random(0)
    for _ in range(200):
        a, b = rng.choice(group), rng.choice(group)
        assert tuple(map(a.__getitem__, b)) in members
    # the 120-cell's vertices are exactly the 4-cliques of its facet graph,
    # so a facet bijection preserving adjacency preserves them too
    edges = {i * 120 + j for i, j in z120.adjacency}
    edges |= {j * 120 + i for i, j in z120.adjacency}
    for g in group:
        assert all(g[i] * 120 + g[j] in edges for i, j in z120.adjacency)
    assert all(_is_automorphism(z120, g) for g in rng.sample(group, 300))


def _generators_by_full_scan(P):
    """`symmetry_generators` without its early stop: every flag is scanned."""
    base = P.vertices[0]
    found, orbit, failed = [], {base}, set()
    for k, v in enumerate(P.vertices):
        for flag in itertools.permutations(v):
            if flag in orbit or flag in failed:
                continue
            sigma = polytopes._propagate(P, P, k, flag)
            if sigma is None:
                failed |= polytopes._orbit(flag, found)
            else:
                found.append(sigma)
                orbit = polytopes._orbit(base, found)
    return tuple(found)


@pytest.mark.parametrize(
    "name",
    ["pentagon", "dodecahedron", "renumbered", "120-cell", "2-chain", "3-chain", "20-chain"],
)
def test_symmetry_generators_match_a_full_flag_scan(name, pentagon, dodecahedron, z120):
    # the chains are not flag-transitive, so their scans never stop by
    # counting and build the base flag's orbit after every generator
    P = {
        "pentagon": lambda: pentagon,
        "dodecahedron": lambda: dodecahedron,
        "renumbered": lambda: renumbered(dodecahedron, random.Random(5)),
        "120-cell": lambda: z120,
        "2-chain": lambda: chain_sum(dodecahedron, [0])[0],
        "3-chain": lambda: dodecahedral_chain(3),
        "20-chain": lambda: dodecahedral_chain(20),
    }[name]()
    assert symmetry_generators(P) == _generators_by_full_scan(P)


def test_120cell_generator_scan_builds_no_flag_orbit(monkeypatch):
    # the scan stops by orbit-stabiliser counting: no set it builds is
    # larger than the 600 vertices, where the base flag's orbit has 14 400
    sizes = []
    real = polytopes.reachable

    def recording(start, moves):
        found = real(start, moves)
        sizes.append(len(found))
        return found

    monkeypatch.setattr(polytopes, "reachable", recording)
    monkeypatch.setattr(polytopes, "_generator_cache", {})
    Z = make_120cell()
    sizes.clear()
    assert len(symmetry_generators(Z)) == 4
    assert max(sizes) == len(Z.vertices) == 600


@pytest.mark.parametrize("name", ["dodecahedron", "120-cell", "2-chain", "3-chain"])
def test_symmetry_group_order_is_orbit_times_stabiliser(name, dodecahedron, z120):
    P = {
        "dodecahedron": lambda: dodecahedron,
        "120-cell": lambda: z120,
        "2-chain": lambda: chain_sum(dodecahedron, [0])[0],
        "3-chain": lambda: dodecahedral_chain(3),
    }[name]()
    v0 = frozenset(P.vertices[0])
    images = [frozenset(map(g.__getitem__, v0)) for g in symmetry_group(P)]
    assert len(symmetry_group(P)) == len(set(images)) * images.count(v0)


def test_120cell_symmetries_need_few_flag_propagations(monkeypatch):
    calls = []
    real = polytopes._propagate

    def counting(*args):
        calls.append(args[-1])
        return real(*args)

    monkeypatch.setattr(polytopes, "_propagate", counting)
    monkeypatch.setattr(polytopes, "_generator_cache", {})
    monkeypatch.setattr(polytopes, "_group_cache", {})
    assert len(symmetry_group(make_120cell())) == 14400
    assert len(calls) <= 16


def test_find_isomorphism_matches_the_reference_on_every_120cell_facet(z120, dodecahedron):
    for F in range(z120.facet_count):
        sub, _ = facet_subpolytope(z120, F)
        psi = find_isomorphism(sub, dodecahedron)
        assert psi is not None
        assert psi == _reference_isomorphism(sub, dodecahedron)


def test_find_isomorphism_on_twisted_dodecahedra(dodecahedron):
    # two flips far from a first one: same facet, edge and vertex counts
    # and the same degree sequence, isomorphic or not by where they sit
    once = _flip(dodecahedron, 0, 1)
    A, B, C = _flip(once, 3, 9), _flip(once, 4, 9), _flip(once, 8, 9)
    assert sorted(map(len, A.neighbours)) == sorted(map(len, C.neighbours))
    assert find_isomorphism(A, C) is None
    assert _reference_isomorphism(A, C) is None
    psi = find_isomorphism(A, B)
    assert psi is not None and psi == _reference_isomorphism(A, B)


def test_find_isomorphism_matches_the_reference_on_random_simple_polytopes(dodecahedron):
    # less symmetric polytopes, some with three pairwise adjacent facets
    # and no common vertex, renumbered twice: the least bijection among
    # several must be the reference's first leaf
    rng = random.Random(1)
    for _ in range(200):
        P = dodecahedron
        for _ in range(rng.randint(1, 6)):
            P = _flip(P, *rng.choice(P.adjacency)) or P
        A, B = renumbered(P, rng), renumbered(P, rng)
        assert find_isomorphism(A, B) == _reference_isomorphism(A, B)


def test_antipodal_facets(dodecahedron):
    pairing = [antipodal_facet(dodecahedron, f) for f in range(12)]
    assert pairing == [11, 9, 10, 6, 7, 8, 3, 4, 5, 1, 2, 0]
    for f in range(12):
        assert pairing[pairing[f]] == f
        assert not dodecahedron.adjacent(f, pairing[f])


def test_antipode_requires_uniqueness(pentagon, z120):
    # two non-neighbours tie on the pentagon; on the 120-cell many facets
    # sit at graph distance three or more, so neither has a unique antipode
    with pytest.raises(PolytopeError):
        antipodal_facet(pentagon, 0)
    with pytest.raises(PolytopeError):
        antipodal_facet(z120, 0)


def test_relabel_keeps_structure(dodecahedron):
    R = relabel(dodecahedron, "7")
    assert R.facet_labels == tuple(f"7.{lab}" for lab in dodecahedron.facet_labels)
    assert R.adjacency == dodecahedron.adjacency
    assert R.vertices == dodecahedron.vertices


def test_connected_sum_of_dodecahedra(dodecahedron):
    A = relabel(dodecahedron, "1")
    B = relabel(dodecahedron, "2")
    out, m1, m2 = connected_sum(A, B, identity_matching(A, 0, B, 0))
    assert f_vector(out) == (30, 45, 17)
    # the glued facet disappears from both sides
    assert m1[0] is None and m2[0] is None
    # facets adjacent to the glued one merge pairwise and carry both labels
    for g in dodecahedron.neighbours[0]:
        assert m1[g] == m2[g]
        assert "|" in out.facet_labels[m1[g]]
    # all remaining facets survive injectively
    survivors = [x for x in list(m1) + list(m2) if x is not None]
    assert sorted(set(survivors)) == list(range(17))


def test_connected_sum_of_120cells(z120):
    A = relabel(z120, "1")
    B = relabel(z120, "2")
    out, _, _ = connected_sum(A, B, identity_matching(A, 0, B, 0))
    assert f_vector(out) == (1160, 2320, 1386, 226)
    assert orbifold_euler_characteristic(out) == 17


def test_connected_sum_rejects_a_broken_matching(dodecahedron):
    A = relabel(dodecahedron, "1")
    B = relabel(dodecahedron, "2")
    nb = dodecahedron.neighbours[0]
    # swap two targets: the pairing no longer respects the facet structure
    pairing = list(zip(nb, nb))
    pairing[0] = (nb[0], nb[1])
    pairing[1] = (nb[1], nb[0])
    with pytest.raises(PolytopeError):
        connected_sum(A, B, FacetMatching(0, 0, tuple(pairing)))


def test_chain_sum_rejects_a_consumed_glue_facet(dodecahedron):
    # facet 1 touches facet 0, so after the first gluing it is merged
    for attach in ([0, 1], [0, 0]):
        with pytest.raises(PolytopeError, match="not pure"):
            chain_sum(dodecahedron, attach)


@pytest.mark.parametrize("attach, bad", [([12], 12), ([-1], -1), ([0, -12], -12)])
def test_chain_sum_rejects_a_glue_facet_out_of_range(dodecahedron, attach, bad):
    with pytest.raises(PolytopeError, match=f"^no facet {bad}$"):
        chain_sum(dodecahedron, attach)


@pytest.mark.parametrize("name", ["pentagon", "dodecahedron", "z120", "3-chain"])
def test_facet_vertices_match_the_incidence_definition(request, name):
    if name == "3-chain":
        P, _ = chain_sum(make_dodecahedron(), [0, antipodal_facet(make_dodecahedron(), 0)])
    else:
        P = request.getfixturevalue(name)
    assert P.facet_vertices == tuple(
        tuple(k for k, v in enumerate(P.vertices) if i in v) for i in range(P.facet_count)
    )


def test_find_isomorphism_positive_and_negative(pentagon):
    assert find_isomorphism(pentagon, relabel(pentagon, "x")) is not None
    assert find_isomorphism(pentagon, make_polygon(6)) is None
    assert find_isomorphism(make_polygon(7), make_dodecahedron()) is None


def test_symmetries_need_every_edge_on_two_vertices(dodecahedron):
    # dropping one vertex leaves three edges on a single vertex
    broken = Polytope(3, dodecahedron.facet_labels, dodecahedron.adjacency,
                      dodecahedron.vertices[1:])
    with pytest.raises(PolytopeError, match=r"does not lie on exactly two vertices \(1 found\)"):
        symmetry_group(broken)
    assert find_isomorphism(dodecahedron, broken) is None


def test_symmetries_need_a_connected_vertex_graph():
    with pytest.raises(PolytopeError, match="^vertex graph is disconnected$"):
        symmetry_group(two_tetrahedra())


def test_symmetries_need_the_euler_relation():
    # every edge of the torus's dual lies on two vertices and its vertex
    # graph is connected: only the face counts tell it from a sphere
    msg = r"^faces break the Euler relation: sum of \(-1\)\^dim is -1, not 1$"
    with pytest.raises(PolytopeError, match=msg):
        symmetry_group(torus_dual())


def test_the_edge_table_is_built_once_per_polytope(monkeypatch, dodecahedron):
    builds = []
    real = polytopes._edge_flips
    monkeypatch.setattr(polytopes, "_edge_flips", lambda P: builds.append(P) or real(P))
    monkeypatch.setattr(polytopes, "_generator_cache", {})
    P = Polytope(3, dodecahedron.facet_labels, dodecahedron.adjacency, dodecahedron.vertices)
    assert symmetry_generators(P) == symmetry_generators(dodecahedron)
    assert find_isomorphism(P, P) == tuple(range(12))
    assert builds == [P]


def test_the_generated_polytopes_keep_their_digests():
    # a digest covers the vertex rows, so the clique listing that builds
    # them must keep their order
    assert make_dodecahedron().digest == "0ef32aa995a402f488bfd5328ff6eaa13229097f50190331e00d84e4ed16871c"
    assert make_120cell().digest == "6f79c08f3a656a7c2784a17dd04b09153b90761e2e33f78a8c73b1ce0af440bf"


def test_constructor_rejects_bad_input():
    with pytest.raises(PolytopeError):
        make_polygon(2)
    with pytest.raises(PolytopeError):
        Polytope(5, ["a"] * 6, [], [])
    with pytest.raises(PolytopeError):
        Polytope(2, ["a", "a", "b"], [(0, 1), (1, 2), (2, 0)], [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(PolytopeError):
        # vertex on non-adjacent facets
        Polytope(2, ["a", "b", "c", "d"], [(0, 1), (1, 2), (2, 3), (3, 0)],
                 [(0, 1), (1, 2), (2, 3), (0, 2)])


def test_digest_tracks_structure(pentagon):
    assert pentagon.digest == make_polygon(5).digest
    assert pentagon.digest != make_polygon(6).digest
    assert pentagon.same_structure(make_polygon(5))
    assert not pentagon.same_structure(relabel(pentagon, "x"))


def test_relabelled_copies_share_a_digest_but_not_their_structure(pentagon, dodecahedron, z120):
    for P in (pentagon, dodecahedron, z120):
        copy = relabel(P, "1.")
        assert copy.digest == P.digest
        assert not copy.same_structure(P)


def test_a_relabelled_copy_reuses_the_symmetry_group(monkeypatch, dodecahedron):
    builds = []
    real = polytopes._edge_flips
    monkeypatch.setattr(polytopes, "_edge_flips", lambda P: builds.append(P) or real(P))
    monkeypatch.setattr(polytopes, "_generator_cache", {})
    monkeypatch.setattr(polytopes, "_group_cache", {})
    group = symmetry_group(dodecahedron)
    builds.clear()
    assert symmetry_group(relabel(dodecahedron, "1.")) is group
    assert builds == []


def _mask_polytope(dimension, facet_labels, adjacency, vertices):
    """Reference constructor: the big-int adjacency masks first, then the
    vertex checks, the adjacency pairs no vertex holds, the coverage check
    and the connectivity BFS on them, as `Polytope.__init__` was first
    written."""

    def bits(mask):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    if not 2 <= dimension <= 4:
        raise PolytopeError(f"dimension {dimension} outside supported range 2..4")
    labels = tuple(str(x) for x in facet_labels)
    m = len(labels)
    if len(set(labels)) != m:
        raise PolytopeError("facet labels not unique")
    if m < dimension + 1:
        raise PolytopeError("too few facets")
    pairs = set()
    for i, j in adjacency:
        if not (0 <= i < m and 0 <= j < m) or i == j:
            raise PolytopeError(f"bad adjacency pair ({i}, {j})")
        pairs.add((min(i, j), max(i, j)))
    masks = [0] * m
    for i, j in pairs:
        masks[i] |= 1 << j
        masks[j] |= 1 << i
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
    verts = tuple(sorted(vs))
    for a, b in sorted(pairs):
        if not any(a in v and b in v for v in verts):
            raise PolytopeError(f"adjacent facets {a},{b} share no vertex")
    if set(itertools.chain.from_iterable(verts)) != set(range(m)):
        raise PolytopeError("some facet lies on no vertex")
    seen = 1
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            fresh = masks[i] & ~seen
            seen |= fresh
            nxt.extend(bits(fresh))
        frontier = nxt
    if seen != (1 << m) - 1:
        raise PolytopeError("facet adjacency graph is disconnected")
    return SimpleNamespace(
        neighbours=tuple(tuple(bits(x)) for x in masks),
        adjacency=tuple(sorted(pairs)),
        vertices=verts,
        facet_vertices=tuple(tuple(k for k, v in enumerate(verts) if i in v) for i in range(m)),
        adjacency_masks=tuple(masks),
        vertex_sets=frozenset(frozenset(v) for v in verts),
    )


_REFERENCE_FIELDS = (
    "neighbours", "adjacency", "vertices", "facet_vertices", "adjacency_masks", "vertex_sets",
)


@pytest.mark.parametrize("name", ["pentagon", "dodecahedron", "z120", "3-chain"])
def test_constructor_matches_the_mask_reference(request, name):
    if name == "3-chain":
        D = make_dodecahedron()
        P, _ = chain_sum(D, [0, antipodal_facet(D, 0)])
    else:
        P = request.getfixturevalue(name)
    # shuffled, reversed and duplicated input must not matter
    rng = random.Random(1)
    adjacency = [(j, i) for i, j in P.adjacency] + list(P.adjacency[:3])
    vertices = [list(reversed(v)) for v in P.vertices] + [P.vertices[0]]
    rng.shuffle(adjacency)
    rng.shuffle(vertices)
    args = (P.dimension, P.facet_labels, adjacency, vertices)
    got, ref = Polytope(*args), _mask_polytope(*args)
    for field in _REFERENCE_FIELDS:
        assert getattr(got, field) == getattr(ref, field), field
    assert got.same_structure(P)


def _max_greedy_facet_order(P: Polytope, start) -> List[int]:
    """Reference facet order: a max over all unplaced facets at each step."""
    m = P.facet_count
    placed = [False] * m
    scores = [0] * m
    order = list(start)
    for f in order:
        placed[f] = True
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


@pytest.mark.parametrize("renumber", [False, True], ids=["as-built", "renumbered"])
@pytest.mark.parametrize("name", ["pentagon", "dodecahedron", "z120", "3-chain"])
def test_greedy_facet_order_matches_the_max_reference(request, name, renumber):
    if name == "3-chain":
        D = make_dodecahedron()
        P, _ = chain_sum(D, [0, antipodal_facet(D, 0)])
    else:
        P = request.getfixturevalue(name)
    if renumber:
        P = renumbered(P, random.Random(name))
    starts = [[], [0], [0, *P.neighbours[0]], list(P.vertices[0])]
    for start in starts:
        order = greedy_facet_order(P, start)
        assert order == _max_greedy_facet_order(P, start), start
        assert sorted(order) == list(range(P.facet_count))


_SQUARE = [(0, 1), (1, 2), (2, 3), (3, 0)]
_OCTAGON = [(i, (i + 1) % 8) for i in range(8)]


@pytest.mark.parametrize(
    "args",
    [
        (5, ["a"] * 6, [], []),
        (2, ["a", "a", "b"], [(0, 1), (1, 2), (2, 0)], [(0, 1), (1, 2), (2, 0)]),
        (3, ["a", "b", "c"], [(0, 1)], []),
        (2, "abcd", _SQUARE + [(0, 4)], []),
        (2, "abcd", _SQUARE + [(2, 2)], []),
        (2, "abcd", _SQUARE + [(-1, 2)], []),
        (2, "abcd", _SQUARE, [(0, 1), (1, 2), (2, 3), (0, 2)]),
        (3, "abcd", _SQUARE + [(0, 2)], [(0, 1, 2), (0, 2, 3), (3, 2, 1)]),
        (2, "abcd", _SQUARE, [(0, 1), (1, 2, 3)]),
        (2, "abcd", _SQUARE, [(0, 1), (1, 1)]),
        (2, "abcd", _SQUARE, [(0, 1), (3, 4)]),
        (2, "abcd", _SQUARE, [(0, 1), (-1, 0)]),
        (2, "abcd", _SQUARE, [(0, 1), (1, 2)]),
        (3, "abcde", [(0, 1), (3, 4)], [(4, 3, 0)]),
        (2, "abcdef", _SQUARE + [(4, 5)], [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)]),
        # an octagon with one chord that no vertex holds
        (2, "abcdefgh", _OCTAGON + [(4, 0)], _OCTAGON),
        # a facet on no vertex and in no adjacency pair
        (2, "abcd", [(0, 1), (1, 2), (2, 0)], [(0, 1), (1, 2), (2, 0)]),
    ],
)
def test_constructor_errors_match_the_mask_reference(args):
    with pytest.raises(PolytopeError) as ref:
        _mask_polytope(*args)
    with pytest.raises(PolytopeError) as got:
        Polytope(*args)
    assert str(got.value) == str(ref.value)


def test_adjacency_checks_leave_the_masks_unbuilt(z120):
    far = next(g for g in range(1, 120) if not z120.adjacency_masks[0] >> g & 1)
    P = Polytope(z120.dimension, z120.facet_labels, z120.adjacency, z120.vertices)
    assert P.adjacent(0, P.neighbours[0][0])
    assert not P.adjacent(0, far)
    assert "adjacency_masks" not in vars(P)
    assert "vertex_sets" not in vars(P)


def _generators_from_every_failed_flag(P):
    """Reference generator search: a flag is skipped only when it lies in
    the orbit of the base flag, so every flag that admits no automorphism
    is propagated."""
    base = P.vertices[0]
    found = []
    orbit = {base}
    for k, v in enumerate(P.vertices):
        for flag in itertools.permutations(v):
            if flag not in orbit:
                sigma = polytopes._propagate(P, P, k, flag)
                if sigma is not None:
                    found.append(sigma)
                    orbit = polytopes._orbit(base, found)
    return tuple(found)


def test_generators_skip_the_orbits_of_failed_flags(monkeypatch):
    D = make_dodecahedron()
    ends = (0, antipodal_facet(D, 0))
    chain20, _ = chain_sum(D, [ends[t % 2] for t in range(19)])
    calls = []
    real = polytopes._propagate

    def counting(*args):
        calls.append(args[-1])
        return real(*args)

    monkeypatch.setattr(polytopes, "_propagate", counting)
    for P in (D, make_120cell(), chain20):
        monkeypatch.setattr(polytopes, "_generator_cache", {})
        calls.clear()
        expected = _generators_from_every_failed_flag(P)
        reference_calls = len(calls)
        calls.clear()
        assert symmetry_generators(P) == expected
        if P is chain20:
            assert len(calls) < reference_calls
