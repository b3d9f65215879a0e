"""Acceptance gate: nine criteria, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
are produced; without -s pytest shows them for failing criteria only.
Budgets follow the stated contract: generous hard caps for the searches
that must succeed, a fixed moderate budget for the recorded experiment.
"""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import (
    apply_map,
    extend_colouring_generic,
    invertible_maps,
    random_proper_colouring,
)
from racover import gf2
from racover.colouring import (
    Colouring,
    equivalent,
    from_k_colouring,
    induced_colouring,
    is_proper,
    transport,
)
from racover.covers import (
    V_120CELL_PI2,
    build_cover,
    cover_euler_characteristic,
    cut_along,
    facet_preimage,
)
from racover.pipeline import _facet_map, certify, extend_class, select_class
from racover.polytopes import (
    facet_subpolytope,
    find_isomorphism,
    orbifold_euler_characteristic,
)
from racover.search import (
    SearchBudget,
    enumerate_chromatic_colourings,
    search_orientable_extension,
    seed_from_facet,
)

# fixed budget for the rank-4 experiment; the node cap binds first, so
# the recorded statuses are deterministic
RANK4_BUDGET = SearchBudget(nodes=150_000, seconds=600.0)

DODECA_4COL = [1, 2, 3, 4, 2, 4, 3, 4, 1, 3, 1, 2]


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def certs(cert1, cert3):
    return {1: cert1, 2: certify(2), 3: cert3}


def test_criterion_1_small_cover_census(census):
    orientable = sum(1 for r in census.classes if r.orientable)
    total = len(census.classes)
    ok = census.complete and total == 25 and orientable == 1
    _report(
        1,
        "small-cover census",
        ok,
        f"{total} classes, {total - orientable} non-orientable, "
        f"{orientable} orientable ({census.nodes} nodes)",
    )


def test_criterion_2_witness_structure(census):
    good = 0
    bad = []
    for i, rec in enumerate(census.classes):
        if rec.orientable:
            continue
        try:
            chosen = select_class(census, f"index:{i}")
        except Exception as exc:  # noqa: BLE001 - tallied and reported below
            bad.append(f"class {i}: {exc}")
            continue
        c = chosen.colouring.colours
        w1, w2, w3 = chosen.witness
        P = chosen.colouring.polytope
        if c[w1] ^ c[w2] ^ c[w3] == 0 and all(
            not P.adjacent(chosen.glue_facet, t) for t in chosen.witness
        ):
            good += 1
        else:
            bad.append(f"class {i}: witness data inconsistent")
    _report(
        2,
        "witness structure",
        good == 24 and not bad,
        f"{good}/24 non-orientable classes have a zero-sum triple "
        f"with a disjoint fourth face" + (f"; {bad}" if bad else ""),
    )


def test_criterion_3_extension_existence(census, dodecahedron):
    budget = SearchBudget(nodes=10**8, seconds=1800.0)
    found = 0
    max_nodes = 0
    bad = []
    # the map the search transports each class onto 120-cell facet 0 by
    psi = _facet_map(0)[2]
    for i, rec in enumerate(census.classes):
        if rec.orientable:
            continue
        chosen = select_class(census, f"index:{i}")
        try:
            outcome = extend_class(chosen, budget=budget)
        except Exception as exc:  # noqa: BLE001 - tallied and reported below
            bad.append(f"class {i}: {exc}")
            continue
        lam = outcome.colouring
        max_nodes = max(max_nodes, outcome.nodes)
        mu = induced_colouring(lam.polytope, 0, lam)
        if equivalent(dodecahedron, transport(mu, psi, dodecahedron), rec.colouring):
            found += 1
        else:
            bad.append(f"class {i}: induced colouring differs from the seed class")
    _report(
        3,
        "extension existence",
        found == 24 and not bad,
        f"{found}/24 classes extend orientably over the 120-cell, induced "
        f"colouring matching; max {max_nodes} nodes"
        + (f"; {bad}" if bad else ""),
    )


def test_criterion_4_chain_certificates(certs):
    problems = []
    for n, cert in sorted(certs.items()):
        cut = cert.cut
        checks = {c.name: c.passed for c in cert.checks}
        if not cert.passed:
            problems.append(f"n={n}: failing checks "
                            f"{[k for k, v in checks.items() if not v]}")
            continue
        if cert.cover.cells != 32 * n:
            problems.append(f"n={n}: {cert.cover.cells} cells")
        if cover_euler_characteristic(cert.cover) != 272 * n:
            problems.append(f"n={n}: wrong Euler characteristic")
        if cut.boundary_components != 1 or cut.boundary_cell_counts != (16 * n,):
            problems.append(f"n={n}: boundary {cut.boundary_cell_counts}")
        if not all(cut.boundary_orientable):
            problems.append(f"n={n}: non-orientable boundary")
        if cut.ambient_volume.pi2_multiple != Fraction(1088 * n, 3):
            problems.append(f"n={n}: ambient volume {cut.ambient_volume.exact}")
        if n == 1 and abs(cut.boundary_volume.numeric - 68.8992) > 5e-4:
            problems.append(f"n=1: boundary volume {cut.boundary_volume.numeric}")
        if cut.ratio_exact != "2*V_Z/V_D" or not cut.ratio_numeric < 53:
            problems.append(f"n={n}: ratio {cut.ratio_exact} = {cut.ratio_numeric}")
    r1 = certs[1].cut
    _report(
        4,
        "certificates for n = 1, 2, 3",
        not problems,
        problems
        and "; ".join(problems)
        or (
            "32n cells, chi = 272n, boundary one orientable component of 16n "
            f"dodecahedra; n=1 boundary volume {r1.boundary_volume.numeric:.4f}, "
            f"ratio {r1.ratio_exact} = {r1.ratio_numeric:.4f} < 53"
        ),
    )


def test_criterion_5_gauss_bonnet(z120):
    chi = orbifold_euler_characteristic(z120)
    # Gauss-Bonnet in dimension four: vol = (4 pi^2 / 3) * chi_orb
    vol = Fraction(4, 3) * chi
    ok = chi == Fraction(17, 2) and vol == Fraction(34, 3) == V_120CELL_PI2
    _report(
        5,
        "Gauss-Bonnet consistency",
        ok,
        f"chi_orb = {chi}, (4/3)*chi_orb = {vol} (exact multiples of pi^2)",
    )


def test_criterion_6_induced_cover_lemma(dodecahedron, census, certs):
    # facet_preimage certifies every component isomorphic to the cover of
    # the induced colouring and raises on any mismatch
    verified = 0
    rec = census.classes[5]
    C = build_cover(dodecahedron, rec.colouring)
    for F in range(12):
        comps = facet_preimage(C, F)
        assert sum(len(c.pieces) for c in comps) == C.copies // 2
        verified += len(comps)
    cover1 = certs[1].cover
    for F in range(cover1.polytope.facet_count):
        comps = facet_preimage(cover1, F)
        assert sum(len(c.pieces) for c in comps) == cover1.copies // 2
        verified += len(comps)
    _report(
        6,
        "induced-cover lemma",
        verified > 0,
        f"{verified} hypersurface components certified isomorphic to their "
        "induced-colouring covers (orientable dodecahedral class and the "
        "n=1 certificate cover)",
    )


def test_criterion_7_chromatic_counts(dodecahedron, z120):
    d = enumerate_chromatic_colourings(dodecahedron, 4)
    z = enumerate_chromatic_colourings(
        z120, 5, SearchBudget(nodes=10**9, seconds=7200.0)
    )
    if z.complete:
        ok = d.complete and d.orbit_count == 1 and z.count == 10
        state = "complete"
        # cross-quotient ground truth: the counts agree across both stages
        assert d.count == 10 and z.orbit_count == 1
    else:
        # budget exhausted: accept a lower bound of ten inequivalent ones
        ok = d.complete and d.orbit_count == 1 and z.count >= 10
        state = f"INCOMPLETE after {z.nodes} nodes (lower bounds)"
    _report(
        7,
        "chromatic counts",
        ok,
        f"dodecahedron 4-colourings up to symmetry: {d.orbit_count} "
        f"({d.count} up to renaming); 120-cell 5-colourings up to renaming: "
        f"{z.count} ({z.orbit_count} up to symmetry); {state}",
    )


def test_criterion_8_property_suites(pentagon, dodecahedron, z120, census, certs):
    rng = random.Random(40961)
    problems = []

    # 8a: extend -> induce round trip on 100 random proper facet colourings
    trips = 0
    for _ in range(60):
        F = rng.randrange(12)
        sub, _ = facet_subpolytope(dodecahedron, F)
        mu = random_proper_colouring(sub, rng.choice([2, 3]), rng)
        lam = extend_colouring_generic(dodecahedron, F, mu)
        if equivalent(sub, induced_colouring(dodecahedron, F, lam), mu):
            trips += 1
    zF = 0
    subz, _ = facet_subpolytope(z120, zF)
    for _ in range(40):
        mu = random_proper_colouring(subz, 3, rng)
        lam = extend_colouring_generic(z120, zF, mu)
        if equivalent(subz, induced_colouring(z120, zF, lam), mu):
            trips += 1
    if trips != 100:
        problems.append(f"round trips {trips}/100")

    # 8b: orientability covector criterion vs brute force over GL(s), s <= 3
    pool = [rec.colouring for rec in census.classes]
    pool.append(Colouring(pentagon, 2, (1, 2, 1, 2, 3)))
    for _ in range(20):
        pool.append(random_proper_colouring(pentagon, rng.choice([2, 3]), rng))
    for _ in range(10):
        pool.append(random_proper_colouring(dodecahedron, 3, rng))
    agreements = 0
    for lam in pool:
        direct = gf2.solve_all_ones(lam.colours) is not None
        brute = any(
            all(gf2.parity(apply_map(cols, c)) for c in lam.colours)
            for cols in invertible_maps(lam.rank)
        )
        if direct == brute:
            agreements += 1
        else:
            problems.append(f"orientability mismatch on {lam.colours}")

    # 8c: cut dichotomy, with both sidedness values represented
    sides = set()
    dichot = 0
    for lam in (
        from_k_colouring(dodecahedron, DODECA_4COL),
        census.classes[5].colouring,
    ):
        C = build_cover(dodecahedron, lam)
        for F in range(12):
            for comp in facet_preimage(C, F):
                cut = cut_along(C, comp)
                sides.add(cut.one_sided)
                if cut.boundary_components == (1 if cut.one_sided else 2):
                    dichot += 1
                else:
                    problems.append(
                        f"facet {F}: {cut.boundary_components} boundary "
                        f"components, one_sided={cut.one_sided}"
                    )
    cut1 = certs[1].cut
    sides.add(cut1.one_sided)
    if cut1.boundary_components != (1 if cut1.one_sided else 2):
        problems.append("certificate cut breaks the dichotomy")
    if sides != {True, False}:
        problems.append("only one sidedness value was exercised")

    # 8d: Euler characteristic two ways on every built cover; the library
    # raises whenever the direct face count disagrees with the orbifold
    # formula, so a clean pass is the agreement
    covers = [
        build_cover(pentagon, Colouring(pentagon, 2, (1, 2, 1, 2, 3))),
        build_cover(pentagon, from_k_colouring(pentagon, [1, 2, 1, 2, 3])),
        build_cover(dodecahedron, from_k_colouring(dodecahedron, DODECA_4COL)),
    ]
    covers += [build_cover(dodecahedron, r.colouring) for r in census.classes]
    covers += [cert.cover for cert in certs.values()]
    eulers = [cover_euler_characteristic(C) for C in covers]

    _report(
        8,
        "property suites",
        not problems,
        problems
        and "; ".join(problems)
        or (
            f"100/100 round trips; {agreements}/{len(pool)} orientability "
            f"agreements; {dichot} cuts obey the dichotomy (both sides seen); "
            f"{len(eulers)} covers pass the two-way Euler computation"
        ),
    )


def test_criterion_9_rank4_recorded_experiment(census, z120, dodecahedron):
    sub, _ = facet_subpolytope(z120, 0)
    psi = find_isomorphism(sub, dodecahedron)
    statuses = {}
    for i, rec in enumerate(census.classes):
        if rec.orientable:
            continue
        mu = Colouring(sub, 3, tuple(rec.colouring.colours[psi[j]] for j in range(12)))
        outcome = search_orientable_extension(
            z120, seed_from_facet(z120, 0, mu, rank=4), RANK4_BUDGET
        )
        statuses[i] = outcome.status
        if outcome.status == "found":
            # a rank-4 orientable extension would be a genuine discovery;
            # record it loudly but the criterion only asks for a status
            print(f"[criterion 9] NOTE class {i} yielded a rank-4 extension")
            assert outcome.colouring is not None
            assert is_proper(z120, outcome.colouring)
    tally = {}
    for s in statuses.values():
        tally[s] = tally.get(s, 0) + 1
    definitive = {"exhausted", "found", "budget-out"}
    ok = len(statuses) == 24 and set(statuses.values()) <= definitive
    _report(
        9,
        "rank-4 recorded experiment",
        ok,
        f"per-class statuses at {RANK4_BUDGET.nodes} nodes: "
        + ", ".join(f"{k}: {v}" for k, v in sorted(tally.items())),
    )
