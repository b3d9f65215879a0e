"""Covers, facet preimages, cuts and volumes on desk-sized examples."""
from __future__ import annotations

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from conftest import dodecahedral_chain, f_vector
from racover import gf2
from racover.colouring import Colouring, from_k_colouring, is_proper
from racover.covers import (
    CoverComplex,
    CoverError,
    HypersurfaceComponent,
    _components,
    _face_tallies,
    build_cover,
    cover_connected,
    cover_euler_characteristic,
    cover_orientable,
    cut_along,
    facet_preimage,
    volume,
    volume_of_cells,
)
from racover.polytopes import _face_counts, codim_faces

DODECA_4COL = [1, 2, 3, 4, 2, 4, 3, 4, 1, 3, 1, 2]


def test_components_ignore_neighbours_outside_the_node_set():
    # on the integer line, the nodes split at the missing 2, 6 and 7; each
    # component comes back sorted, and the components by least node
    got = _components([8, 5, 4, 3, 1, 0], lambda g: (g + 1, g - 1))
    assert got == [[0, 1], [3, 4, 5], [8]]


def _pentagon_cover(pentagon, cols):
    return build_cover(pentagon, Colouring(pentagon, 2, cols))


def test_build_cover_requires_properness(pentagon):
    with pytest.raises(CoverError):
        build_cover(pentagon, Colouring(pentagon, 2, (1, 1, 2, 1, 2)))


def test_pentagon_rank2_cover(pentagon):
    C = _pentagon_cover(pentagon, (1, 2, 1, 2, 3))
    assert C.copies == 4
    assert C.cells == 4
    assert cover_connected(C)
    assert not cover_orientable(C)
    assert cover_euler_characteristic(C) == -1
    vol = volume(C)
    assert vol.exact == "(2)*pi"
    assert vol.numeric == pytest.approx(2 * 3.141592653589793)


def test_pentagon_rank3_cover(pentagon):
    lam = from_k_colouring(pentagon, [1, 2, 1, 2, 3])
    C = build_cover(pentagon, lam)
    assert C.copies == 8
    assert cover_connected(C)
    assert cover_orientable(C)
    assert cover_euler_characteristic(C) == -2
    assert volume(C).exact == "(4)*pi"


def test_dodecahedron_class_cover(census):
    rec = census.classes[24]
    C = build_cover(rec.colouring.polytope, rec.colouring)
    assert C.copies == 8
    assert cover_connected(C)
    assert not cover_orientable(C)
    assert cover_euler_characteristic(C) == 0


def test_dodecahedron_from_k_cover(dodecahedron):
    lam = from_k_colouring(dodecahedron, DODECA_4COL)
    C = build_cover(dodecahedron, lam)
    assert C.copies == 16
    assert cover_connected(C)
    assert cover_orientable(C)
    assert cover_euler_characteristic(C) == 0


def test_partner_involution(dodecahedron):
    lam = from_k_colouring(dodecahedron, DODECA_4COL)
    C = build_cover(dodecahedron, lam)
    # copy g meets copy g + colour(F) across facet F
    for g in C.group:
        for F in range(12):
            assert g ^ C.colouring.colours[F] in C.group


def test_facet_preimage_pieces_and_subcovers(dodecahedron, census):
    rec = census.classes[5]
    assert rec.orientable
    C = build_cover(dodecahedron, rec.colouring)
    for F in range(12):
        comps = facet_preimage(C, F)
        # each piece is a pair of copies, every copy meets the facet once
        assert sum(len(c.pieces) for c in comps) == C.copies // 2
        for comp in comps:
            assert comp.facet == F
            assert comp.subcover.copies == len(comp.pieces)


def test_facet_preimage_needs_dimension_three(pentagon):
    C = _pentagon_cover(pentagon, (1, 2, 1, 2, 3))
    with pytest.raises(CoverError):
        facet_preimage(C, 0)


def test_cut_two_sided_case(dodecahedron):
    lam = from_k_colouring(dodecahedron, DODECA_4COL)
    C = build_cover(dodecahedron, lam)
    comps = facet_preimage(C, 0)
    assert len(comps) == 1
    cut = cut_along(C, comps[0])
    assert not cut.one_sided
    assert cut.boundary_components == 2
    assert cut.boundary_cell_counts == (8, 8)
    assert cut.boundary_orientable == (True, True)
    assert cut.ambient_cells == 16
    assert cut.ratio_exact == "16:16"


def test_cut_rejects_part_of_a_component(dodecahedron):
    C = build_cover(dodecahedron, from_k_colouring(dodecahedron, DODECA_4COL))
    (comp,) = facet_preimage(C, 0)
    part = HypersurfaceComponent(0, comp.pieces[:-1], comp.subcover)
    with pytest.raises(CoverError, match="not a component"):
        cut_along(C, part)


def test_cut_one_sided_case(dodecahedron, census):
    rec = census.classes[5]
    C = build_cover(dodecahedron, rec.colouring)
    comps = facet_preimage(C, 0)
    cut = cut_along(C, comps[0])
    assert cut.one_sided
    assert cut.boundary_components == 1
    assert cut.boundary_cell_counts == (8,)
    assert cut.boundary_orientable == (True,)


def test_cut_boundary_count_matches_sidedness(dodecahedron, census):
    lam_k = from_k_colouring(dodecahedron, DODECA_4COL)
    covers = [
        build_cover(dodecahedron, lam_k),
        build_cover(dodecahedron, census.classes[5].colouring),
    ]
    for C in covers:
        for F in range(12):
            for comp in facet_preimage(C, F):
                cut = cut_along(C, comp)
                assert cut.boundary_components == (1 if cut.one_sided else 2)
                assert sum(cut.boundary_cell_counts) == 2 * len(comp.pieces)


def test_cut_requires_an_orientable_ambient_cover(dodecahedron, census):
    rec = census.classes[24]
    C = build_cover(dodecahedron, rec.colouring)
    comps = facet_preimage(C, 0)
    with pytest.raises(CoverError):
        cut_along(C, comps[0])


def test_volume_of_cells_forms():
    v4 = volume_of_cells(32, 4)
    assert v4.exact == "32*V_Z"
    assert v4.pi2_multiple == Fraction(1088, 3)
    assert v4.numeric == pytest.approx(float(Fraction(1088, 3)) * 3.141592653589793 ** 2)
    v3 = volume_of_cells(16, 3)
    assert v3.exact == "16*V_D"
    assert v3.pi2_multiple is None
    assert v3.numeric == pytest.approx(68.8992, abs=5e-4)
    with pytest.raises(CoverError):
        volume_of_cells(4, 2)
    with pytest.raises(CoverError):
        volume_of_cells(4, 2, polygon_edges=4)


def test_euler_characteristic_two_ways_on_every_cover(pentagon, dodecahedron, census):
    # cover_euler_characteristic already cross-checks the orbifold formula
    # against direct face counting and raises on any disagreement
    covers = [
        _pentagon_cover(pentagon, (1, 2, 1, 2, 3)),
        build_cover(pentagon, from_k_colouring(pentagon, [1, 2, 1, 2, 3])),
        build_cover(dodecahedron, from_k_colouring(dodecahedron, DODECA_4COL)),
    ]
    covers += [build_cover(dodecahedron, r.colouring) for r in census.classes]
    for C in covers:
        chi = cover_euler_characteristic(C)
        assert isinstance(chi, int)
        if C.polytope.dimension == 3:
            assert chi == 0


def _per_face_euler_characteristic(C):
    """Reference direct count: every face found as a vertex subset and
    ranked on its own."""
    P = C.polytope
    n = P.dimension
    cols = C.colouring.colours
    subsets = [set() for _ in range(n + 1)]
    for v in P.vertices:
        for k in range(1, n + 1):
            subsets[k].update(itertools.combinations(v, k))
    copies = len(C.group)
    total = (-1) ** n * copies
    for k in range(1, n + 1):
        for S in subsets[k]:
            total += (-1) ** (n - k) * (copies >> gf2.rank(cols[f] for f in S))
    return total


POLYTOPE_NAMES = ["pentagon", "dodecahedron", "z120", "3-chain", "10-chain"]


def _named_polytope(request, name):
    if name.endswith("-chain"):
        return dodecahedral_chain(int(name[: -len("-chain")]))
    return request.getfixturevalue(name)


@pytest.mark.parametrize("name", POLYTOPE_NAMES)
def test_direct_euler_characteristic_matches_the_per_face_count(request, name):
    P = _named_polytope(request, name)
    rng = random.Random(5)
    rank = P.dimension + 1
    # repeated and zero colours included: the direct count assumes no
    # properness, so it must agree on improper colourings too
    repeated = [1] * P.facet_count
    repeated[P.vertices[0][0]] = 2
    colourings = [repeated] + [
        [rng.randrange(1 << rank) for _ in range(P.facet_count)] for _ in range(3)
    ]
    # a zero colour on one facet, met by both the facet tally (k = 1) and
    # the vertex tally (k = n)
    zeroed = [rng.randrange(1, 1 << rank) for _ in range(P.facet_count)]
    zeroed[P.vertices[-1][-1]] = 0
    colourings.append(zeroed)
    for cols in colourings:
        lam = Colouring(P, rank, tuple(cols))
        assert not is_proper(P, lam)
        C = CoverComplex(P, lam, tuple(gf2.span(cols)))
        # the direct count, `_face_tallies`'s second value
        assert _face_tallies(C)[1] == _per_face_euler_characteristic(C)


@pytest.mark.parametrize("name", POLYTOPE_NAMES)
def test_face_counts_match_vertex_subsets(request, name):
    # reference: every codimension-k face as a k-subset of some vertex,
    # k = 1 and k = n included
    P = _named_polytope(request, name)
    n = P.dimension
    reference = {0: 1}
    for k in range(1, n + 1):
        reference[k] = len(set(itertools.chain.from_iterable(
            itertools.combinations(v, k) for v in P.vertices
        )))
    assert _face_counts(P) == reference
    assert f_vector(P) == tuple(reference[n - d] for d in range(n))


@pytest.mark.parametrize("name, rank", [("z120", 5), ("dodecahedron", 4)])
@pytest.mark.parametrize("seed", [0, 1])
def test_euler_cross_check_rejects_a_random_colouring(request, name, rank, seed):
    # random nonzero colours repeat around faces, so the direct count ranks
    # some faces below their codimension and the two counts part
    P = request.getfixturevalue(name)
    rng = random.Random(seed)
    cols = tuple(rng.randrange(1, 1 << rank) for _ in range(P.facet_count))
    C = CoverComplex(P, Colouring(P, rank, cols), tuple(gf2.span(cols)))
    with pytest.raises(CoverError, match="face count disagrees with orbifold formula"):
        cover_euler_characteristic(C)


def test_euler_cross_check_rejects_a_non_integral_value(pentagon):
    # two copies of a pentagon, chi_orb = -1/4
    C = CoverComplex(pentagon, Colouring(pentagon, 1, (1,) * 5), (0, 1))
    with pytest.raises(CoverError, match="non-integral Euler characteristic -1/2"):
        cover_euler_characteristic(C)


@pytest.mark.parametrize("name, calls", [("cert1", 1), ("cert3", 1), ("dodecahedron", 0)])
def test_euler_check_enumerates_only_the_edges_of_a_4_polytope(
    request, monkeypatch, name, calls
):
    # ridges are the adjacency and corners the vertices, and both counts
    # read one tally per codimension, so only a 4-polytope's edges (k = 3)
    # are enumerated, once per check
    base = request.getfixturevalue(name)
    if name == "dodecahedron":
        C = build_cover(base, from_k_colouring(base, DODECA_4COL))
    else:
        # a fresh copy of the certificate's cover (over the 120-cell at
        # n = 1), whose Euler characteristic is not cached yet
        C = dataclasses.replace(base.cover)
    seen = []
    counted = lambda P, k: seen.append(k) or codim_faces(P, k)
    # wrapped wherever a module may hold it by name, so no call goes uncounted
    for module in ("racover.covers", "racover.polytopes"):
        monkeypatch.setattr(f"{module}.codim_faces", counted, raising=False)
    cover_euler_characteristic(C)
    assert seen == [3] * calls
