"""Chain assembly, class selection and the self-checking certificate."""
from __future__ import annotations

import dataclasses
import sys
from functools import lru_cache

import pytest

from conftest import f_vector, identity_matching, relabel
from racover import gf2, pipeline, polytopes
from racover.colouring import equivalent, induced_colouring, is_orientable, is_proper, transport
from racover.fileio import load_certificate, write_certificate
from racover.pipeline import (
    _BASE_FACET,
    Finding,
    GlueStep,
    _facet_map,
    _verify_facet_map,
    assemble_chain,
    certificate_files,
    certificate_object,
    certify,
    extend_class,
    extend_from_facet,
    select_class,
    validate_certificate,
)
from racover.polytopes import (
    FacetMatching,
    PolytopeError,
    antipodal_facet,
    connected_sum,
    facet_subpolytope,
    make_120cell,
    make_dodecahedron,
)
from racover.search import BudgetError, EnumerationResult, SearchBudget

CHECK_NAMES = [
    "ambient-colouring-proper",
    "ambient-colouring-orientable",
    "chain-colouring-proper",
    "chain-colouring-non-orientable",
    "cover-size",
    "cover-connected",
    "cover-orientable",
    "euler-characteristic",
    "cut-locus-pieces",
    "cut-locus-one-sided",
    "boundary-connected",
    "boundary-cells",
    "boundary-orientable",
    "ambient-volume",
    "boundary-volume",
    "volume-ratio",
    "long-facet-subpolytope",
    "induced-colouring",
]


def test_max_symmetry_selection(census):
    chosen = select_class(census)
    assert chosen.index == 24
    assert chosen.automorphisms == 24
    assert chosen.witness == (0, 1, 3)
    assert chosen.glue_facet == 10
    c = chosen.colouring.colours
    assert c[0] ^ c[1] ^ c[3] == 0
    P = chosen.colouring.polytope
    assert all(not P.adjacent(chosen.glue_facet, t) for t in chosen.witness)


def test_index_selection_policies(census):
    chosen = select_class(census, "index:0")
    assert chosen.index == 0
    with pytest.raises(ValueError):
        select_class(census, "index:5")  # the orientable class
    with pytest.raises(ValueError):
        select_class(census, "index:99")
    with pytest.raises(ValueError):
        select_class(census, "index:zero")
    with pytest.raises(ValueError):
        select_class(census, "loudest")


def test_selection_needs_a_complete_enumeration(census):
    partial = EnumerationResult(census.classes, False, census.nodes, census.seconds)
    with pytest.raises(ValueError):
        select_class(partial)


def test_every_non_orientable_class_selects(census):
    for i, rec in enumerate(census.classes):
        if rec.orientable:
            continue
        chosen = select_class(census, f"index:{i}")
        c = chosen.colouring.colours
        i0, j0, k0 = chosen.witness
        assert c[i0] ^ c[j0] ^ c[k0] == 0
        P = chosen.colouring.polytope
        assert all(not P.adjacent(chosen.glue_facet, t) for t in chosen.witness)


def test_extend_class_budget_out(census):
    chosen = select_class(census)
    with pytest.raises(BudgetError):
        extend_class(chosen, budget=SearchBudget(nodes=50, seconds=60))


def test_assemble_chain_length_one(census):
    chosen = select_class(census)
    a = assemble_chain(chosen, 1)
    assert a.n == 1
    assert a.glue_steps == ()
    assert a.P.facet_count == 12
    assert a.mu_P.colours == chosen.colouring.colours
    assert a.Q.facet_count == 120
    assert a.d_facet == 0
    assert a.witness_facets == chosen.witness
    assert sorted(a.natural_map) == list(range(12))


def test_assemble_chain_length_three(census):
    chosen = select_class(census)
    a = assemble_chain(chosen, 3)
    assert f_vector(a.P) == (40, 60, 22)
    assert f_vector(a.Q)[-1] == 332
    # gluing alternates across each summand: facet 10, then its antipode 2
    assert [(s.step, s.dodeca_facet) for s in a.glue_steps] == [(2, 10), (3, 2)]
    assert [s.z_facet for s in a.glue_steps] == [36, 41]
    # chain colourings stay proper, ambient orientable, chain not
    assert is_proper(a.P, a.mu_P)
    assert is_proper(a.Q, a.lam_Q)
    assert is_orientable(a.Q, a.lam_Q) is not None
    assert is_orientable(a.P, a.mu_P) is None
    assert all(gf2.parity(c) for c in a.lam_Q.colours)
    # the witness facets of the first summand survive every gluing
    for w in a.witness_facets:
        assert "|" not in a.P.facet_labels[w]
    w1, w2, w3 = a.witness_facets
    assert a.mu_P.colours[w1] ^ a.mu_P.colours[w2] ^ a.mu_P.colours[w3] == 0


def test_natural_map_carries_the_induced_colouring(census):
    chosen = select_class(census)
    a = assemble_chain(chosen, 2)
    sub, _ = facet_subpolytope(a.Q, a.d_facet)
    assert sub.facet_count == a.P.facet_count == 17
    mu = induced_colouring(a.Q, a.d_facet, a.lam_Q)
    assert equivalent(a.P, transport(mu, a.natural_map, a.P), a.mu_P)


def test_chain_length_must_be_positive(census):
    chosen = select_class(census)
    with pytest.raises(ValueError):
        assemble_chain(chosen, 0)


def test_certificate_passes_all_checks(cert1):
    assert [c.name for c in cert1.checks] == CHECK_NAMES
    assert cert1.passed
    assert cert1.n == 1
    assert cert1.chosen.index == 24
    assert cert1.chosen.witness == (0, 1, 3)
    assert cert1.chosen.glue_facet == 10
    assert cert1.cover.cells == 32
    assert cert1.cut.boundary_cell_counts == (16,)
    notes = certificate_object(cert1, certificate_files(cert1.assembly))["notes"]
    assert len(notes) == 3
    assert any("four copies" in note for note in notes)


def test_certificate_revalidates(cert1):
    checks = validate_certificate(cert1)
    assert all(c.passed for c in checks)


def test_validation_detects_tampering(cert1):
    flipped = tuple(
        dataclasses.replace(c, passed=not c.passed) if c.name == "cover-size" else c
        for c in cert1.checks
    )
    with pytest.raises(Finding):
        validate_certificate(dataclasses.replace(cert1, checks=flipped))


def test_certify_with_an_index_policy(census):
    cert = certify(1, policy="index:0")
    assert cert.passed
    assert cert.chosen.index == 0
    assert cert.policy == "index:0"


def _reference_connected_sum(P1, P2, m):
    """Two-polytope gluing written out on its own, as the reference for
    `polytopes.connected_sum` and the chains: P1's facets in order without
    the glued one, a merged facet labelled '<P1 label>|<P2 label>', then
    P2's unmerged facets in order."""
    m.validate(P1, P2)
    F1, F2 = m.facet1, m.facet2
    sigma = dict(m.pairing)
    sigma_inv = {b: a for a, b in m.pairing}

    map1 = [None] * P1.facet_count
    map2 = [None] * P2.facet_count
    labels = []
    for g in range(P1.facet_count):
        if g == F1:
            continue
        map1[g] = len(labels)
        if g in sigma:
            labels.append(f"{P1.facet_labels[g]}|{P2.facet_labels[sigma[g]]}")
        else:
            labels.append(P1.facet_labels[g])
    for h in range(P2.facet_count):
        if h == F2:
            continue
        if h in sigma_inv:
            map2[h] = map1[sigma_inv[h]]
        else:
            map2[h] = len(labels)
            labels.append(P2.facet_labels[h])
    if len(set(labels)) != len(labels):
        raise PolytopeError("facet label collision; relabel the summands first")

    adj = set()
    for i, j in P1.adjacency:
        if F1 not in (i, j):
            a, b = map1[i], map1[j]
            adj.add((min(a, b), max(a, b)))
    for i, j in P2.adjacency:
        if F2 not in (i, j):
            a, b = map2[i], map2[j]
            adj.add((min(a, b), max(a, b)))

    verts = [tuple(map1[g] for g in v) for v in P1.vertices if F1 not in v]
    verts += [tuple(map2[g] for g in v) for v in P2.vertices if F2 not in v]
    out = polytopes.Polytope(P1.dimension, labels, adj, verts)
    return out, tuple(map1), tuple(map2)


def _same_sum(got, want):
    (P, m1, m2), (R, r1, r2) = got, want
    assert P.facet_labels == R.facet_labels
    assert P.adjacency == R.adjacency
    assert P.vertices == R.vertices
    assert (m1, m2) == (r1, r2)


@pytest.mark.parametrize(
    "make",
    [lambda: polytopes.make_polygon(5), make_dodecahedron, make_120cell],
    ids=["pentagon", "dodecahedron", "120cell"],
)
def test_connected_sum_matches_the_reference(make):
    base = make()
    A, B = relabel(base, "1"), relabel(base, "2")
    for F in range(base.facet_count):
        m = identity_matching(A, F, B, F)
        _same_sum(connected_sum(A, B, m), _reference_connected_sum(A, B, m))

    # a chain glued onto a fresh base at a facet of its last summand
    far = next(g for g in range(1, base.facet_count) if not base.adjacent(0, g))
    chain, prov = polytopes.chain_sum(base, [0, far])
    pairing = tuple((prov[-1][g], g) for g in base.neighbours[0])
    m = FacetMatching(prov[-1][0], 0, pairing)
    fresh = relabel(base, "4")
    _same_sum(connected_sum(chain, fresh, m), _reference_connected_sum(chain, fresh, m))

    same = identity_matching(base, 0, base, 0)
    for glue in (connected_sum, _reference_connected_sum):
        with pytest.raises(PolytopeError, match="^facet label collision; relabel the summands first$"):
            glue(base, base, same)


def _grow_by_connected_sum(cur, vals, prov, base, tag, base_vals, attach):
    """One step of the reference chain: glue a fresh copy of `base` onto
    the newest summand's facet `attach` with `_reference_connected_sum`."""
    newest = prov[-1]
    F1 = newest[attach]
    assert F1 is not None and "|" not in cur.facet_labels[F1]
    pairing = tuple((newest[g], g) for g in base.neighbours[attach])
    out, m1, m2 = _reference_connected_sum(
        cur, relabel(base, tag), FacetMatching(F1, attach, pairing)
    )
    new_vals = [None] * out.facet_count
    for old, ni in enumerate(m1):
        if ni is not None:
            new_vals[ni] = vals[old]
    for h, ni in enumerate(m2):
        if ni is not None:
            assert new_vals[ni] in (None, base_vals[h])
            new_vals[ni] = base_vals[h]
    new_prov = [[None if old is None else m1[old] for old in arr] for arr in prov]
    new_prov.append(list(m2))
    return out, new_vals, new_prov


def _reference_chain(chosen, n):
    """The chain glued one summand at a time, rebuilding after each step;
    the natural map is read off the facet labels."""
    D, Z = make_dodecahedron(), make_120cell()
    lam_Z = extend_class(chosen).colouring
    _, inc, psi = _facet_map(_BASE_FACET)
    z_of_d = {psi[j]: inc[j] for j in range(len(inc))}
    d_of_z = {z: d for d, z in z_of_d.items()}
    P, Q = relabel(D, "1"), relabel(Z, "1")
    mu_vals, lam_vals = list(chosen.colouring.colours), list(lam_Z.colours)
    p_prov, q_prov = [list(range(12))], [list(range(120))]
    steps = []
    attach = chosen.glue_facet
    for t in range(2, n + 1):
        P, mu_vals, p_prov = _grow_by_connected_sum(
            P, mu_vals, p_prov, D, str(t), chosen.colouring.colours, attach
        )
        Q, lam_vals, q_prov = _grow_by_connected_sum(
            Q, lam_vals, q_prov, Z, str(t), lam_Z.colours, z_of_d[attach]
        )
        steps.append(GlueStep(t, attach, z_of_d[attach]))
        attach = antipodal_facet(D, attach)
    d_facet = q_prov[0][_BASE_FACET]
    nat = []
    for qf in facet_subpolytope(Q, d_facet)[1]:
        targets = set()
        for piece in Q.facet_labels[qf].split("|"):
            tag, zlab = piece.split(".", 1)
            targets.add(p_prov[int(tag) - 1][d_of_z[Z.facet_labels.index(zlab)]])
        (target,) = targets
        nat.append(target)
    witness = tuple(p_prov[0][w] for w in chosen.witness)
    return P, tuple(mu_vals), Q, tuple(lam_vals), tuple(steps), d_facet, witness, tuple(nat)


@pytest.mark.parametrize("policy", ["max-symmetry", "index:0", "index:24"])
def test_one_shot_assembly_matches_the_summand_by_summand_reference(census, policy):
    chosen = select_class(census, policy)
    for n in range(1, 5):
        a = assemble_chain(chosen, n)
        P, mu, Q, lam, steps, d_facet, witness, nat = _reference_chain(chosen, n)
        assert a.P.same_structure(P) and a.Q.same_structure(Q)
        assert a.mu_P.colours == mu and a.lam_Q.colours == lam
        assert a.glue_steps == steps
        assert a.d_facet == d_facet
        assert a.witness_facets == witness
        assert a.natural_map == nat


def test_assembly_builds_a_constant_number_of_polytopes(census, z120, monkeypatch):
    chosen = select_class(census)
    built = []
    init = polytopes.Polytope.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(polytopes.Polytope, "__init__", counting_init)
    counts = []
    for n in (2, 8):
        built.clear()
        assemble_chain(chosen, n)
        counts.append(len(built))
    assert counts[0] == counts[1]


@pytest.fixture
def facet_builds(monkeypatch):
    """Cold facet caches; the returned list collects the facet of every
    facet subpolytope built, counted as the `Polytope` constructions that
    `facet_subpolytope` makes, so calls the memo answers are not counted."""
    built = []
    init = polytopes.Polytope.__init__
    code = polytopes.facet_subpolytope.__code__

    def counting_init(self, *args, **kwargs):
        caller = sys._getframe(1)
        if caller.f_code is code:
            built.append(caller.f_locals["F"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(polytopes.Polytope, "__init__", counting_init)
    monkeypatch.setattr(make_120cell(), "subpolytopes", {})
    _facet_map.cache_clear()
    yield built
    _facet_map.cache_clear()


def test_an_extend_loop_builds_its_facet_subpolytope_once(census, facet_builds):
    # every class at both ranks from one facet, as the `extend` benchmark runs
    budget = SearchBudget(nodes=2_000, seconds=600)
    for record in census.classes:
        if not record.orientable:
            for rank in (5, 4):
                extend_from_facet(record.colouring, 7, rank, budget)
    assert facet_builds == [7]


def test_induced_colourings_on_one_facet_build_its_subpolytope_once(census, facet_builds):
    # the `extend` benchmark's gate induces each class's rank-5 extension
    # back onto the seed facet
    Z = make_120cell()
    extensions = [
        extend_from_facet(record.colouring, 7).colouring
        for record in census.classes if not record.orientable
    ]
    Z.subpolytopes.clear()
    facet_builds.clear()
    for lam in extensions:
        induced_colouring(Z, 7, lam)
    assert len(extensions) == 24
    assert facet_builds == [7]


def test_certificate_round_trip_builds_few_facet_subpolytopes(census, tmp_path, facet_builds):
    # each step starts cold, as a `racover` process does
    for n in (1, 3):
        facet_builds.clear()
        _facet_map.cache_clear()
        make_120cell().subpolytopes.clear()
        cert = certify(n)
        # the base facet, shared by the search seed, and the merged facet of Q
        assert len(facet_builds) <= 2, n
        path = write_certificate(cert, tmp_path / str(n))
        facet_builds.clear()
        _facet_map.cache_clear()
        make_120cell().subpolytopes.clear()
        validate_certificate(load_certificate(path))
        # the rebuild traces the chains through the 120-cell's base facet,
        # and the long-facet check builds the merged facet of Q
        assert len(facet_builds) <= 2, n


def test_certify_builds_one_edge_table_per_structure(monkeypatch, facet_builds):
    # cold symmetry caches, edge tables and census, as in a fresh process
    builds = []
    real = polytopes._edge_flips
    monkeypatch.setattr(polytopes, "_edge_flips", lambda P: builds.append(P) or real(P))
    monkeypatch.setattr(polytopes, "_generator_cache", {})
    monkeypatch.setattr(polytopes, "_group_cache", {})
    for P in (make_dodecahedron(), make_120cell()):
        monkeypatch.delitem(P.__dict__, "edge_flips", raising=False)
    census = lru_cache(maxsize=1)(pipeline._dodecahedron_census.__wrapped__)
    monkeypatch.setattr(pipeline, "_dodecahedron_census", census)
    certify(1)
    # the dodecahedron, for the census, and the 120-cell's base facet, which
    # `find_isomorphism` maps onto it; the summand relabelled `1.f*` shares
    # the dodecahedron's symmetries by digest
    assert builds == [make_dodecahedron(), facet_subpolytope(make_120cell(), _BASE_FACET)[0]]


def test_verify_facet_map_rejects_two_swapped_facets(dodecahedron):
    identity = list(range(12))
    _verify_facet_map(dodecahedron, dodecahedron, identity)
    swapped = identity[:]
    swapped[0], swapped[1] = swapped[1], swapped[0]
    with pytest.raises(PolytopeError, match="^facet map breaks the vertex family$"):
        _verify_facet_map(dodecahedron, dodecahedron, swapped)
