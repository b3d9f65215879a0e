"""Facet colourings: properness, orientability, induction, equivalence."""
from __future__ import annotations

import functools
import hashlib
import itertools
import operator
import random
import sys

import pytest

from conftest import (
    apply_map,
    dodecahedral_chain,
    extend_colouring_generic,
    invertible_maps,
    least_orbit_key_form,
    pivot_normal_sequence,
    random_proper_colouring,
)
from racover import colouring, gf2
from racover.colouring import (
    Colouring,
    ColouringError,
    PartialColouring,
    automorphism_order,
    canonical_form,
    dependent_vertex,
    equivalent,
    from_k_colouring,
    image_dimension,
    induced_colouring,
    is_orientable,
    is_proper,
    non_orientability_witness,
    normal_sequence,
    orbit_keys,
    transport,
    zero_sum_triples,
)
from racover.covers import CoverError, build_cover
from racover.pipeline import extend_from_facet
from racover.polytopes import Polytope, facet_subpolytope, symmetry_group
from racover.search import enumerate_chromatic_colourings

# a proper 4-colouring of the dodecahedron in the canonical face numbering
DODECA_4COL = [1, 2, 3, 4, 2, 4, 3, 4, 1, 3, 1, 2]


def test_colouring_validation(pentagon):
    with pytest.raises(ColouringError):
        Colouring(pentagon, 0, (0,) * 5)
    with pytest.raises(ColouringError):
        Colouring(pentagon, 2, (1, 2, 3))
    with pytest.raises(ColouringError):
        Colouring(pentagon, 2, (1, 2, 4, 1, 2))


def test_properness_on_the_pentagon(pentagon):
    assert is_proper(pentagon, Colouring(pentagon, 2, (1, 2, 1, 2, 3)))
    # equal colours on adjacent edges are dependent
    assert not is_proper(pentagon, Colouring(pentagon, 2, (1, 1, 2, 1, 2)))
    # a zero colour is dependent on anything
    assert not is_proper(pentagon, Colouring(pentagon, 2, (1, 0, 1, 2, 3)))


def test_from_k_colouring(dodecahedron):
    lam = from_k_colouring(dodecahedron, DODECA_4COL)
    assert lam.rank == 4
    assert lam.colours[:4] == (1, 2, 4, 8)
    assert is_proper(dodecahedron, lam)
    assert image_dimension(lam) == 4
    with pytest.raises(ColouringError):
        from_k_colouring(dodecahedron, [1] * 12)
    with pytest.raises(ColouringError):
        from_k_colouring(dodecahedron, [0] + DODECA_4COL[1:])


def test_orientability_of_basis_colourings(dodecahedron):
    lam = from_k_colouring(dodecahedron, DODECA_4COL)
    chi = is_orientable(dodecahedron, lam)
    assert chi is not None
    assert all(gf2.parity(chi & c) == 1 for c in lam.colours)
    assert non_orientability_witness(dodecahedron, lam) is None


def test_witness_blocks_orientability(pentagon):
    lam = Colouring(pentagon, 2, (1, 2, 1, 2, 3))
    assert is_orientable(pentagon, lam) is None
    w = non_orientability_witness(pentagon, lam)
    assert w is not None
    i, j, k = w
    assert lam.colours[i] ^ lam.colours[j] ^ lam.colours[k] == 0


def _brute_force_zero_sum_triples(colours):
    m = len(colours)
    return [
        (i, j, k)
        for i in range(m)
        for j in range(i + 1, m)
        for k in range(j + 1, m)
        if colours[i] ^ colours[j] ^ colours[k] == 0
    ]


def test_zero_sum_triples_match_brute_force(pentagon, census):
    cases = [rec.colouring for rec in census.classes]
    cases.append(Colouring(pentagon, 2, (1, 2, 1, 2, 3)))
    assert len(cases) == 26
    for lam in cases:
        want = _brute_force_zero_sum_triples(lam.colours)
        assert list(zero_sum_triples(lam.colours)) == want
        witness = non_orientability_witness(lam.polytope, lam)
        assert witness == (want[0] if want else None)


def test_is_orientable_requires_properness(pentagon):
    with pytest.raises(ColouringError):
        is_orientable(pentagon, Colouring(pentagon, 2, (1, 1, 2, 1, 2)))


def test_every_entry_point_rejects_an_improper_colouring(dodecahedron):
    cols = list(DODECA_4COL)
    cols[1] = cols[0]  # facets 0 and 1 touch
    lam = Colouring(dodecahedron, 4, tuple(1 << (c - 1) for c in cols))
    proper = from_k_colouring(dodecahedron, DODECA_4COL)
    calls = [
        lambda: is_orientable(dodecahedron, lam),
        lambda: induced_colouring(dodecahedron, 3, lam),
        lambda: canonical_form(dodecahedron, lam),
        lambda: orbit_keys(dodecahedron, lam),
        lambda: automorphism_order(dodecahedron, lam),
        lambda: equivalent(dodecahedron, proper, lam),
    ]
    # twice over: a remembered verdict must still reject
    for _ in range(2):
        assert not is_proper(dodecahedron, lam)
        for call in calls:
            with pytest.raises(ColouringError, match="not proper"):
                call()
        with pytest.raises(CoverError):
            build_cover(dodecahedron, lam)


def test_properness_is_checked_once_per_colouring(monkeypatch, dodecahedron):
    seen = []
    real = colouring._independent_at_vertices

    def counting(P, cols):
        seen.append((P, tuple(cols)))
        return real(P, cols)

    monkeypatch.setattr(colouring, "_independent_at_vertices", counting)
    lam = from_k_colouring(dodecahedron, DODECA_4COL)
    assert is_proper(dodecahedron, lam)
    assert is_orientable(dodecahedron, lam) is not None
    for F in range(12):
        induced_colouring(dodecahedron, F, lam)
    build_cover(dodecahedron, lam)
    canonical_form(dodecahedron, lam)
    assert seen.count((dodecahedron, lam.colours)) == 1
    # an equal colouring is a separate object and is checked on its own
    twin = Colouring(dodecahedron, lam.rank, lam.colours)
    assert is_proper(dodecahedron, twin)
    assert seen.count((dodecahedron, lam.colours)) == 2
    # checked against a polytope other than its own, nothing is remembered
    sub = facet_subpolytope(dodecahedron, 0)[0]
    copy = Polytope(sub.dimension, sub.facet_labels, sub.adjacency, sub.vertices)
    mu = Colouring(sub, 2, (1, 2, 1, 2, 3))
    for _ in range(2):
        assert is_proper(copy, mu)
    assert seen.count((copy, mu.colours)) == 2


def _first_dependent_by_rank(P, cols):
    """The per-vertex loop the properness memo replaced: the first vertex
    whose colours are all assigned (not None) and have rank below the
    dimension, or None."""
    for v in P.vertices:
        key = [cols[i] for i in v]
        if None not in key and gf2.rank(key) != P.dimension:
            return v
    return None


def _colourings_to_check(P, rank, rng, count=3):
    """Proper colourings, each followed by improper variants: one colour
    zeroed, one colour repeated from a neighbour, at rank 4 one vertex's
    fourth colour replaced by the XOR of its other three, and a uniformly
    random assignment.  The 120-cell's proper rank-4 colourings send the
    five colours of a chromatic colouring to four basis vectors and their
    sum, any four of which are independent."""
    if P.dimension == 4:
        reps = enumerate_chromatic_colourings(P, 5).representatives
        basis = [1, 2, 4, 8, 15]
        propers = []
        for _ in range(count):
            rng.shuffle(basis)
            propers.append([basis[c - 1] for c in rng.choice(reps)])
    else:
        propers = [list(random_proper_colouring(P, rank, rng).colours) for _ in range(count)]
    out = []
    for cols in propers:
        f = rng.randrange(P.facet_count)
        zero, repeat = cols[:], cols[:]
        zero[f] = 0
        repeat[f] = cols[rng.choice(P.neighbours[f])]
        out += [tuple(cols), tuple(zero), tuple(repeat)]
        if rank == 4:
            a, b, c, d = P.vertices[rng.randrange(len(P.vertices))]
            xor = cols[:]
            xor[d] = cols[a] ^ cols[b] ^ cols[c]
            out.append(tuple(xor))
        out.append(tuple(rng.randrange(1 << rank) for _ in cols))
    return out


def _agrees_with_the_rank_loop(P, rank, cols):
    first = _first_dependent_by_rank(P, cols)
    assert is_proper(P, Colouring(P, rank, cols)) == (first is None)
    assert dependent_vertex(P, cols) == first
    return first is None


@pytest.mark.parametrize(
    "name,rank", [("pentagon", 2), ("dodecahedron", 3), ("z120", 4), ("chain", 3)]
)
def test_memoised_properness_matches_a_per_vertex_rank_loop(request, name, rank):
    P = dodecahedral_chain(3) if name == "chain" else request.getfixturevalue(name)
    verdicts = {
        _agrees_with_the_rank_loop(P, rank, cols)
        for cols in _colourings_to_check(P, rank, random.Random(rank))
    }
    assert verdicts == {True, False}


def _partial_colourings_to_check(P, rank, propers, rng):
    """Partial colourings cut from the proper colourings `propers`, with 0
    to all facets assigned, each followed by variants made dependent on
    purpose: an assigned colour repeated from an assigned neighbour, one
    zeroed, and a fully assigned vertex's last colour replaced by the XOR
    of two of its others."""
    m = P.facet_count
    out = []
    for cols in propers:
        for count in sorted({0, 1, 2, m // 4, m // 2, 3 * m // 4, m - 1, m}):
            part = [None] * m
            for f in rng.sample(range(m), count):
                part[f] = cols[f]
            out.append(tuple(part))
            assigned = [f for f in range(m) if part[f] is not None]
            pairs = [(f, g) for f in assigned for g in P.neighbours[f] if part[g] is not None]
            if pairs:
                f, g = rng.choice(pairs)
                repeat = part[:]
                repeat[f] = part[g]
                out.append(tuple(repeat))
            if assigned:
                zero = part[:]
                zero[rng.choice(assigned)] = 0
                out.append(tuple(zero))
            full = [v for v in P.vertices if None not in map(part.__getitem__, v)]
            if full:
                *rest, last = rng.choice(full)
                xor = part[:]
                xor[last] = 0
                for f in rest[-2:]:
                    xor[last] ^= part[f]
                out.append(tuple(xor))
    return out


@pytest.mark.parametrize("name,rank", [("dodecahedron", 3), ("z120", 4), ("z120", 5)])
def test_partial_colourings_match_a_per_vertex_rank_loop(request, census, name, rank):
    # PartialColouring tests only the vertices whose facets are all
    # assigned; the reference ranks every vertex and skips the others
    P = request.getfixturevalue(name)
    rng = random.Random(100 + rank)
    if name == "dodecahedron":
        propers = [random_proper_colouring(P, rank, rng).colours for _ in range(3)]
    elif rank == 4:
        propers = [cols for cols in _colourings_to_check(P, rank, rng) if
                   is_proper(P, Colouring(P, rank, cols))]
    else:
        propers = [extend_from_facet(census.classes[k].colouring).colouring.colours
                   for k in (0, 3, 14)]
    assert len(propers) == 3
    accepted, firsts = 0, set()
    for cols in _partial_colourings_to_check(P, rank, propers, rng):
        first = _first_dependent_by_rank(P, cols)
        assert dependent_vertex(P, cols) == first
        if first is None:
            assert PartialColouring(P, rank, cols).colours == cols
            accepted += 1
        else:
            with pytest.raises(ColouringError) as err:
                PartialColouring(P, rank, cols)
            assert str(err.value) == f"dependent colours at vertex {first}"
            firsts.add(first)
    assert accepted >= 3
    # rejections name more vertices than the first one
    assert len(firsts - {P.vertices[0]}) >= 5


def test_partial_colourings_leave_unassigned_tuples_out_of_the_memo(dodecahedron):
    colouring._independence.clear()
    cols = [None] * 12
    for k, f in enumerate(dodecahedron.vertices[0]):
        cols[f] = 1 << k
    PartialColouring(dodecahedron, 3, tuple(cols))
    assert list(colouring._independence) == [(1, 2, 4)]
    assert dependent_vertex(dodecahedron, (None,) * 12) is None
    assert list(colouring._independence) == [(1, 2, 4)]


def test_properness_needs_one_colour_per_facet(dodecahedron, z120):
    # a colouring of another polytope with a different facet count is a
    # ColouringError naming both counts, in both directions
    lam = from_k_colouring(dodecahedron, DODECA_4COL)
    big = Colouring(z120, 4, (1,) * 120)
    calls = [
        (z120, lam, "12 colours for 120 facets"),
        (dodecahedron, big, "120 colours for 12 facets"),
    ]
    for P, mu, counts in calls:
        for call in (
            lambda: is_proper(P, mu),
            lambda: is_orientable(P, mu),
            lambda: orbit_keys(P, mu),
            lambda: equivalent(P, mu, mu),
        ):
            with pytest.raises(ColouringError, match=f"^colouring has {counts}$"):
                call()


def test_properness_memo_is_shared_across_polytopes_and_survives_clearing(
    monkeypatch, dodecahedron
):
    chain = dodecahedral_chain(3)
    rng = random.Random(7)
    first = [(dodecahedron, cols) for cols in _colourings_to_check(dodecahedron, 3, rng)]
    then = [(chain, cols) for cols in _colourings_to_check(chain, 3, rng)]
    colouring._independence.clear()
    for P, cols in first:
        _agrees_with_the_rank_loop(P, 3, cols)
    # tuples the dodecahedron left in the memo, both verdicts, are met on the chain
    on_chain = {tuple(cols[i] for i in v) for _, cols in then for v in chain.vertices}
    met = on_chain & colouring._independence.keys()
    assert {colouring._independence[key] for key in met} == {True, False}
    for P, cols in then:
        _agrees_with_the_rank_loop(P, 3, cols)
    # after a clear, and with a limit a single call can exceed
    colouring._independence.clear()
    monkeypatch.setattr(colouring, "_INDEPENDENCE_LIMIT", 16)
    for P, cols in first + then:
        _agrees_with_the_rank_loop(P, 3, cols)
        distinct = {tuple(cols[i] for i in v) for v in P.vertices}
        assert len(colouring._independence) <= max(16, len(distinct))


def test_induced_colouring_on_a_dodecahedron_facet(dodecahedron):
    lam = from_k_colouring(dodecahedron, DODECA_4COL)
    for F in range(12):
        mu = induced_colouring(dodecahedron, F, lam)
        assert mu.rank == 3
        assert mu.polytope.facet_count == 5
        assert is_proper(mu.polytope, mu)


def test_generic_extension_round_trip(dodecahedron):
    sub, _ = facet_subpolytope(dodecahedron, 0)
    mu = Colouring(sub, 2, (1, 2, 1, 2, 3))
    assert is_proper(sub, mu)
    lam = extend_colouring_generic(dodecahedron, 0, mu)
    assert is_proper(dodecahedron, lam)
    assert is_orientable(dodecahedron, lam) is not None
    back = induced_colouring(dodecahedron, 0, lam)
    assert equivalent(sub, back, mu)


def test_generic_extension_rejects_wrong_subpolytope(dodecahedron, pentagon):
    mu = Colouring(pentagon, 2, (1, 2, 1, 2, 3))
    with pytest.raises(ColouringError):
        extend_colouring_generic(dodecahedron, 0, mu)


def test_random_round_trips_on_dodecahedron_facets(dodecahedron):
    rng = random.Random(2026)
    for _ in range(25):
        F = rng.randrange(12)
        sub, _ = facet_subpolytope(dodecahedron, F)
        mu = random_proper_colouring(sub, rng.choice([2, 3]), rng)
        lam = extend_colouring_generic(dodecahedron, F, mu)
        back = induced_colouring(dodecahedron, F, lam)
        assert equivalent(sub, back, mu)


def test_canonical_form_is_a_class_invariant(pentagon):
    rng = random.Random(5)
    lam = Colouring(pentagon, 2, (1, 2, 1, 2, 3))
    base = canonical_form(pentagon, lam)
    # invariant under any symmetry of the polytope
    for sigma in symmetry_group(pentagon):
        moved = Colouring(
            pentagon, 2, tuple(lam.colours[sigma[j]] for j in range(5))
        )
        assert canonical_form(pentagon, moved) == base
    # invariant under any invertible map of the colour space
    for cols in rng.sample(invertible_maps(2), 4):
        mapped = Colouring(
            pentagon, 2, tuple(apply_map(cols, c) for c in lam.colours)
        )
        assert canonical_form(pentagon, mapped) == base
        assert equivalent(pentagon, mapped, lam)


def _random_sequence(rng, rank):
    """A sequence of GF(2)^5 vectors spanning a space of dimension `rank`:
    random combinations of a random basis, zeros and repeats among them,
    after a prefix that is dependent (zeros and copies of one vector)."""
    basis = []
    while len(basis) < rank:
        v = rng.randrange(1, 32)
        if gf2.independent(basis + [v]):
            basis.append(v)
    body = basis + [
        functools.reduce(operator.xor, rng.sample(basis, rng.randint(0, rank)), 0)
        for _ in range(rng.randint(0, 10))
    ]
    rng.shuffle(body)
    prefix = [rng.choice((0, body[0])) for _ in range(rng.randint(0, 3))]
    return prefix + body


def test_normal_sequence_matches_the_pivot_loop():
    rng = random.Random(32)
    for trial in range(500):
        rank = 1 + trial % 5
        seq = _random_sequence(rng, rank)
        assert gf2.rank(seq) == rank
        assert normal_sequence(seq) == pivot_normal_sequence(seq), seq
    for seq in ((), (0,), (0, 0, 3), (5, 5, 0, 5), (1, 2, 3, 4, 8, 16, 31)):
        assert normal_sequence(seq) == pivot_normal_sequence(seq), seq


def test_normal_sequence_is_invariant_under_invertible_maps():
    rng = random.Random(33)
    for trial in range(200):
        seq = _random_sequence(rng, 1 + trial % 5)
        cols = []
        while len(cols) < 5:
            c = rng.randrange(1, 32)
            if gf2.independent(cols + [c]):
                cols.append(c)
        assert normal_sequence([apply_map(cols, v) for v in seq]) == normal_sequence(seq)


def test_canonical_form_is_the_least_orbit_key(pentagon, dodecahedron, census):
    # the early abort against every key computed in full by the pivot loop:
    # every census class, and proper pentagon colourings of ranks 2 and 3
    P = dodecahedron
    for rec in census.classes:
        lam = rec.colouring
        assert canonical_form(P, lam) == least_orbit_key_form(P, lam)
        assert orbit_keys(P, lam) == {
            pivot_normal_sequence([lam.colours[f] for f in sigma]) for sigma in symmetry_group(P)
        }
    rng = random.Random(3)
    for rank in (2, 3):
        tuples = list(itertools.product(range(1, 1 << rank), repeat=5))
        proper = [
            lam for lam in (Colouring(pentagon, rank, cols) for cols in tuples)
            if is_proper(pentagon, lam)
        ]
        for lam in rng.sample(proper, min(60, len(proper))):
            assert canonical_form(pentagon, lam) == least_orbit_key_form(pentagon, lam)


def test_frame_memo_is_bounded_and_answers_survive_clearing(monkeypatch, dodecahedron, census):
    P = dodecahedron
    classes = [r.colouring for r in census.classes]
    rng = random.Random(34)
    seqs = [_random_sequence(rng, 1 + k % 5) for k in range(100)]

    def answers():
        return (
            [orbit_keys(P, lam) for lam in classes],
            [canonical_form(P, lam) for lam in classes],
            [equivalent(P, classes[k], classes[k - k % 2]) for k in range(len(classes))],
            [normal_sequence(seq) for seq in seqs],
        )

    want = answers()
    clears = []

    class Bounded(dict):
        def __setitem__(self, basis, frame):
            super().__setitem__(basis, frame)
            assert len(self) <= 8

        def clear(self):
            clears.append(len(self))
            super().clear()

    monkeypatch.setattr(colouring, "_FRAMES_LIMIT", 8)
    monkeypatch.setattr(colouring, "_frames", Bounded())
    assert answers() == want
    assert clears and set(clears) == {8}
    assert 0 < len(colouring._frames) <= 8


def test_a_full_frame_memo_of_rank5_frames_stays_small():
    # each rank-5 frame maps the 32 vectors of its span; the limit keeps
    # a full memo of them under 1.5 MiB
    basis = (1, 2, 4, 8, 16)
    frame = colouring._frame(basis)
    assert frame == {v: v for v in range(32)}
    assert colouring._FRAMES_LIMIT * (sys.getsizeof(frame) + sys.getsizeof(basis)) < 1.5 * 2 ** 20


def test_census_class_ids_are_pinned(dodecahedron, census):
    # the 25 canonical forms, the class ids certificates record, in census order
    forms = b"\n".join(canonical_form(dodecahedron, r.colouring) for r in census.classes)
    assert hashlib.sha256(forms).hexdigest() == (
        "8c59b75e9b386f9e637026ed9fa4c1af74073eff96633056eac13463c13c7436"
    )


def test_census_classes_are_pairwise_inequivalent(dodecahedron, census):
    forms = {canonical_form(dodecahedron, r.colouring) for r in census.classes}
    assert len(forms) == len(census.classes)


def test_equivalent_agrees_with_canonical_forms_on_the_census(dodecahedron, census):
    # each class against a random symmetry and linear image of every class,
    # so the equivalent pairs are not equal colourings
    P = dodecahedron
    rng = random.Random(7)
    group = symmetry_group(P)
    maps = invertible_maps(3)
    classes = [r.colouring for r in census.classes]
    images = []
    for lam in classes:
        sigma, a = rng.choice(group), rng.choice(maps)
        images.append(Colouring(
            P, 3, tuple(apply_map(a, lam.colours[sigma[f]]) for f in range(P.facet_count))
        ))
    forms = [canonical_form(P, lam) for lam in classes]
    image_forms = [canonical_form(P, mu) for mu in images]
    assert image_forms == forms
    for i, lam in enumerate(classes):
        for j, mu in enumerate(images):
            assert equivalent(P, lam, mu) == (forms[i] == image_forms[j]) == (i == j)
        # and with the sides swapped
        assert equivalent(P, images[i], lam)
        assert not equivalent(P, images[i - 1], lam)


def test_equivalent_agrees_with_canonical_forms_on_moved_pairs(dodecahedron, census):
    # every ordered pair of classes, both sides moved by their own random
    # symmetry and linear map; the walk over lam1's orbit stops at a match
    P = dodecahedron
    rng = random.Random(11)
    group = symmetry_group(P)
    maps = invertible_maps(3)
    classes = [r.colouring for r in census.classes]
    forms = [canonical_form(P, lam) for lam in classes]

    def moved(lam):
        sigma, a = rng.choice(group), rng.choice(maps)
        return Colouring(
            P, 3, tuple(apply_map(a, lam.colours[sigma[f]]) for f in range(P.facet_count))
        )

    for i, j in itertools.product(range(len(classes)), repeat=2):
        lam1, lam2 = moved(classes[i]), moved(classes[j])
        assert equivalent(P, lam1, lam2) == (forms[i] == forms[j]) == (i == j), (i, j)


def test_equivalent_rejects_an_improper_colouring_on_either_side(dodecahedron, census):
    lam = census.classes[0].colouring
    cols = list(lam.colours)
    f, g = next(iter(dodecahedron.adjacency))
    cols[g] = cols[f]
    bad = Colouring(dodecahedron, 3, tuple(cols))
    for pair in ((lam, bad), (bad, lam), (bad, bad)):
        with pytest.raises(ColouringError, match="not proper"):
            equivalent(dodecahedron, *pair)


def test_automorphism_order_counts_colour_preserving_symmetries(pentagon, census):
    lam = Colouring(pentagon, 2, (1, 2, 1, 2, 3))
    order = automorphism_order(pentagon, lam)
    assert 1 <= order <= 10
    assert 10 % order == 0
    # census records agree with a recomputation
    rec = census.classes[0]
    assert automorphism_order(rec.colouring.polytope, rec.colouring) == rec.automorphisms


def _automorphism_order_by_elimination(P, lam):
    """Reference count: the symmetries sigma for which lam_F -> lam_{sigma F}
    extends to a well-defined linear map, each tested by elimination."""
    cols = lam.colours
    count = 0
    for sigma in symmetry_group(P):
        pairs = []
        ok = True
        for f in range(len(cols)):
            v, w = cols[f], cols[sigma[f]]
            for a, b in pairs:
                if v & (a & -a):
                    v ^= a
                    w ^= b
            if v:
                pairs.append((v, w))
            elif w:
                ok = False
                break
        if ok:
            count += 1
    return count


def test_automorphism_order_matches_the_elimination_count(dodecahedron, census):
    lams = [r.colouring for r in census.classes]
    lams.append(from_k_colouring(dodecahedron, DODECA_4COL))
    orders = []
    for lam in lams:
        order = automorphism_order(dodecahedron, lam)
        assert order == _automorphism_order_by_elimination(dodecahedron, lam)
        orders.append(order)
    assert [r.automorphisms for r in census.classes] == orders[:-1]
    assert sorted(orders[:-1]) == [1] * 14 + [2] * 7 + [4, 6, 12, 24]


def test_transport_round_trip(pentagon):
    lam = Colouring(pentagon, 2, (1, 2, 1, 2, 3))
    sigma = symmetry_group(pentagon)[3]
    inv = [0] * 5
    for f, t in enumerate(sigma):
        inv[t] = f
    there = transport(lam, sigma, pentagon)
    back = transport(there, inv, pentagon)
    assert back.colours == lam.colours
    with pytest.raises(ColouringError):
        transport(lam, [0, 1, 2], pentagon)


def test_partial_colouring_behaviour(pentagon):
    part = PartialColouring(pentagon, 2, (1, None, 1, 2, None))
    assert part.assigned == 3
    with pytest.raises(ColouringError):
        # adjacent equal colours are dependent at their shared vertex
        PartialColouring(pentagon, 2, (1, 1, None, None, None))
