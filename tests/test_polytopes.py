"""Combinatorial polytopes: generators, invariants, sums, isomorphisms."""
from __future__ import annotations

from fractions import Fraction

import pytest

from racover.polytopes import (
    FacetMatching,
    Polytope,
    PolytopeError,
    antipodal_facet,
    chain_sum,
    connected_sum,
    f_vector,
    facet_subpolytope,
    find_isomorphism,
    gauss_bonnet_pi2_multiple,
    identity_matching,
    make_120cell,
    make_dodecahedron,
    make_polygon,
    orbifold_euler_characteristic,
    relabel,
    symmetry_group,
)


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


def test_gauss_bonnet_volume(z120, pentagon):
    assert gauss_bonnet_pi2_multiple(z120) == Fraction(34, 3)
    with pytest.raises(PolytopeError):
        gauss_bonnet_pi2_multiple(pentagon)


def test_symmetry_group_orders(pentagon, dodecahedron):
    assert len(symmetry_group(pentagon)) == 10
    assert len(symmetry_group(dodecahedron)) == 120
    # the identity is present and every element is a permutation
    assert tuple(range(12)) in symmetry_group(dodecahedron)
    for sigma in symmetry_group(pentagon):
        assert sorted(sigma) == list(range(5))


def test_symmetry_group_of_the_120cell(z120):
    assert len(symmetry_group(z120)) == 14400


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
