"""Chain construction and certification.

Starting from a non-orientable colouring class of the dodecahedron, builds
the mirrored chain P of n dodecahedra and the companion chain Q of n
120-cells carrying an orientable extension, then certifies the resulting
cover: copy counts, connectivity, orientability, Euler characteristic, the
preimage of the merged dodecahedral facet, the cut along one of its
components, and the volume ledger.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from json.encoder import encode_basestring_ascii
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple, Union,
)

from . import gf2
from .colouring import (
    Colouring,
    ColouringError,
    PartialColouring,
    canonical_form,
    image_dimension,
    is_orientable,
    is_proper,
    normal_sequence,
    transport,
    zero_sum_triples,
)
from .covers import (
    V_120CELL_PI2,
    V_DODECAHEDRON,
    CoverComplex,
    CutReport,
    HypersurfaceComponent,
    build_cover,
    cover_connected,
    cover_euler_characteristic,
    cover_orientable,
    cover_summary,
    cut_along,
    facet_preimage,
    json_record,
)
from .polytopes import (
    Polytope,
    PolytopeError,
    _isomorphism_fault,
    antipodal_facet,
    chain_sum,
    facet_subpolytope,
    find_isomorphism,
    make_120cell,
    make_dodecahedron,
)
from .search import (
    BudgetError,
    EnumerationResult,
    SearchBudget,
    SearchOutcome,
    enumerate_small_covers,
    search_orientable_extension,
    seed_from_facet,
)


# the 120-cell facet that carries the class colouring in the extension
# search; in the chain Q the summands' copies of it merge into `d_facet`
_BASE_FACET = 0


class Finding(Exception):
    """A mathematical expectation failed.  Kept distinct from usage errors
    so callers can exit with the dedicated status code."""


@dataclass(frozen=True)
class ChosenClass:
    """A non-orientable dodecahedral class with the data the chain needs:
    a zero-sum witness triple and a gluing facet disjoint from it."""

    index: int
    colouring: Colouring
    automorphisms: int
    witness: Tuple[int, int, int]
    glue_facet: int

    @cached_property
    def id(self) -> str:
        """The canonical form of the class colouring, computed once."""
        return canonical_form(self.colouring.polytope, self.colouring).decode()


@dataclass(frozen=True)
class GlueStep:
    """One chain gluing: summand `step` was attached through the
    dodecahedral facet `dodeca_facet` and the 120-cell facet `z_facet`
    (both in base-polytope numbering, identical on either side)."""

    step: int
    dodeca_facet: int
    z_facet: int


@dataclass(frozen=True)
class ChainAssembly:
    """The two companion chains and the bookkeeping connecting them.

    `d_facet` is the facet of Q into which the summands' dodecahedral
    facets merged; `natural_map` sends facet j of its subpolytope to the
    facet of P it corresponds to under the per-summand trace maps.
    """

    n: int
    P: Polytope
    mu_P: Colouring
    Q: Polytope
    lam_Q: Colouring
    d_facet: int
    witness_facets: Tuple[int, int, int]
    glue_steps: Tuple[GlueStep, ...]
    natural_map: Tuple[int, ...]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class Certificate:
    """Everything the construction produced plus one pass/fail per check.

    `stored` is the parsed certificate file a certificate was loaded from,
    and None for one built in memory.  See `load_certificate` for what
    loading rebuilds.  The chain length is the assembly's.
    """

    policy: str
    chosen: ChosenClass
    assembly: ChainAssembly
    cover: CoverComplex
    components: Tuple[HypersurfaceComponent, ...]
    cut: CutReport
    checks: Tuple[CheckResult, ...]
    stored: Optional[Mapping[str, Any]] = None

    @property
    def n(self) -> int:
        return self.assembly.n

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


@lru_cache(maxsize=1)
def _dodecahedron_census() -> EnumerationResult:
    return enumerate_small_covers(make_dodecahedron())


def select_class(result: EnumerationResult, policy: str = "max-symmetry") -> ChosenClass:
    """Pick a non-orientable class and equip it with witness and glue data.

    "max-symmetry" takes the class with the largest colouring-automorphism
    group (ties to the lowest index); "index:<k>" takes class k of the
    enumeration.  The witness is the first zero-sum triple, in facet-lex
    order, that leaves some facet disjoint from all three; absence of such
    a facet in every triple is a genuine finding, not a usage error.
    """
    if not result.complete:
        raise ValueError("class selection needs a complete enumeration")
    if policy == "max-symmetry":
        candidates = [
            (i, r) for i, r in enumerate(result.classes) if not r.orientable
        ]
        if not candidates:
            raise ValueError("enumeration contains no non-orientable class")
        index, record = max(candidates, key=lambda t: (t[1].automorphisms, -t[0]))
    elif policy.startswith("index:"):
        digits = policy[len("index:"):]
        # ASCII decimal digits only: int() would also take '+2', '2_2',
        # ' 22' and non-ASCII digits
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"malformed policy {policy!r}")
        index = int(digits)
        if not 0 <= index < len(result.classes):
            raise ValueError(f"class index {index} outside the enumeration")
        record = result.classes[index]
        if record.orientable:
            raise ValueError(f"class {index} is orientable; no witness triple exists")
    else:
        raise ValueError(f"unknown policy {policy!r}")

    lam = record.colouring
    P = lam.polytope
    for triple in zero_sum_triples(lam.colours):
        for f in range(P.facet_count):
            if f in triple:
                continue
            if all(not P.adjacent(f, t) for t in triple):
                return ChosenClass(index, lam, record.automorphisms, triple, f)
    raise Finding(f"class {index} has no witness triple with a disjoint facet")


@lru_cache(maxsize=None)
def _facet_map(base_facet: int) -> Tuple[Polytope, Tuple[int, ...], Tuple[int, ...]]:
    """The facet subpolytope of a 120-cell facet, the one the extension
    search seeds from, with its incidence and trace maps: facet j of it
    sits on 120-cell facet inc[j] and corresponds to dodecahedron facet
    psi[j]."""
    sub, inc = facet_subpolytope(make_120cell(), base_facet)
    psi = find_isomorphism(sub, make_dodecahedron())
    if psi is None:
        raise PolytopeError(f"facet {base_facet} of the 120-cell is not dodecahedral")
    return sub, inc, psi


def extend_from_facet(
    mu: Colouring,
    base_facet: int = 0,
    rank: int = 5,
    budget: Optional[SearchBudget] = None,
) -> SearchOutcome:
    """Transport a colouring of `make_dodecahedron()` onto a 120-cell facet
    and search an orientable extension from it; returns the search
    outcome, whatever its status."""
    sub, _, psi = _facet_map(base_facet)
    mu_sub = Colouring(
        sub, mu.rank, tuple(mu.colours[psi[j]] for j in range(sub.facet_count))
    )
    Z = make_120cell()
    seed = seed_from_facet(Z, base_facet, mu_sub, rank)
    return search_orientable_extension(Z, seed, budget)


def extend_class(
    chosen: ChosenClass,
    rank: int = 5,
    budget: Optional[SearchBudget] = None,
) -> SearchOutcome:
    """`extend_from_facet` for a chosen class from the chain's base facet,
    raising on anything but success: budget exhaustion and a genuinely
    empty search space are kept distinct."""
    outcome = extend_from_facet(chosen.colouring, _BASE_FACET, rank, budget)
    if outcome.status == "budget-out":
        raise BudgetError(f"extension search stopped after {outcome.nodes} nodes")
    if outcome.colouring is None:
        raise Finding(f"class {chosen.index} admits no orientable rank-{rank} extension")
    return outcome


def _glued(
    out: Polytope, prov: Sequence[Sequence[Optional[int]]], base: Colouring
) -> Colouring:
    """The colouring of a chain glued from copies of one coloured base:
    every piece of a merged facet must carry the same colour."""
    vals: List[Optional[int]] = [None] * out.facet_count
    for row in prov:
        for g, ni in enumerate(row):
            if ni is None:
                continue
            if vals[ni] is None:
                vals[ni] = base.colours[g]
            elif vals[ni] != base.colours[g]:
                raise ColouringError(
                    f"colour mismatch across the gluing at {out.facet_labels[ni]}"
                )
    return Colouring(out, base.rank, tuple(vals))  # type: ignore[arg-type]


def build_chain(
    chosen: ChosenClass,
    n: int,
    colour_Q: Callable[[Polytope, Sequence[Sequence[Optional[int]]]], Colouring],
) -> ChainAssembly:
    """The length-n dodecahedron chain of a class, its 120-cell companion
    and all read off their provenance, a fixed function of the class and n;
    the colouring of Q alone comes from outside, as `colour_Q(Q, prov)`.

    Both chains are glued by label-identity matchings at matching facets:
    the dodecahedral glue facet traces the 120-cell facet glued on the
    other side, so the summands' dodecahedral facets merge into the single
    facet `d_facet` of Q whose subpolytope is a twin of P.  Summand t is
    glued to summand t + 1 at the chosen glue facet for odd t and at its
    antipode for even t, so each summand's two glue facets are disjoint
    and each chain is built in one pass.  The witness triple of the first
    summand is never touched by any gluing, so the chain colouring stays
    non-orientable for every n.  The natural map is verified once, by the
    `long-facet-subpolytope` check.
    """
    if n < 1:
        raise ValueError("chain length must be at least 1")
    D = make_dodecahedron()
    if not chosen.colouring.polytope.same_structure(D):
        raise ValueError("chain assembly starts from a dodecahedral class")
    # by dodecahedral facet, the 120-cell facet next to the base facet that
    # traces it, through the map `extend_class` seeds the search by
    _, inc, psi = _facet_map(_BASE_FACET)
    z_of_d = [z for _, z in sorted(zip(psi, inc))]

    ends = (chosen.glue_facet, antipodal_facet(D, chosen.glue_facet))
    attach = [ends[t % 2] for t in range(n - 1)]
    attach_z = [z_of_d[a] for a in attach]
    P, p_prov = chain_sum(D, attach)
    Q, q_prov = chain_sum(make_120cell(), attach_z)
    mu_P = _glued(P, p_prov, chosen.colouring)
    glue_steps = tuple(
        GlueStep(t + 2, a, z) for t, (a, z) in enumerate(zip(attach, attach_z))
    )

    d_facet = q_prov[0][_BASE_FACET]
    assert d_facet is not None
    witness_facets = tuple(p_prov[0][w] for w in chosen.witness)
    if any(w is None for w in witness_facets):
        raise Finding("a witness facet was consumed by the gluings")
    nat = _natural_map(Q, Q.neighbours[d_facet], z_of_d, q_prov, p_prov)
    return ChainAssembly(
        n,
        P,
        mu_P,
        Q,
        colour_Q(Q, q_prov),
        d_facet,
        witness_facets,  # type: ignore[arg-type]
        glue_steps,
        nat,
    )


def assemble_chain(
    chosen: ChosenClass,
    n: int,
    budget: Optional[SearchBudget] = None,
) -> ChainAssembly:
    """Search the orientable extension of a class, then build its length-n
    chains, gluing the colouring of Q from copies of the extension."""
    lam_Z = extend_class(chosen, 5, budget).colouring
    assert lam_Z is not None
    return build_chain(chosen, n, lambda Q, prov: _glued(Q, prov, lam_Z))


def _natural_map(
    Q: Polytope,
    incQ: Sequence[int],
    z_of_d: Sequence[int],
    q_prov: Sequence[Sequence[Optional[int]]],
    p_prov: Sequence[Sequence[Optional[int]]],
) -> Tuple[int, ...]:
    """Facet map from the subpolytope of the merged facet, whose facets sit
    on the chain facets `incQ`, onto P, read off the chain provenance.

    In every summand, the 120-cell facet z_of_d[d] next to the base facet
    traces the dodecahedral facet d.  A chain facet joins pieces of one base
    facet, so each piece of a chain facet next to the merged one is such a
    z, and all of them must point at the same facet of P.
    """
    targets: Dict[int, Set[Optional[int]]] = {}
    for q_row, p_row in zip(q_prov, p_prov):
        for d, z in enumerate(z_of_d):
            if q_row[z] is not None:
                targets.setdefault(q_row[z], set()).add(p_row[d])
    nat = []
    for qf in incQ:
        found = targets.get(qf, set())
        if len(found) != 1 or None in found:
            raise PolytopeError(
                f"chain facet {Q.facet_labels[qf]} does not align across summands"
            )
        nat.append(found.pop())
    return tuple(nat)  # type: ignore[arg-type]


def run_checks(
    a: ChainAssembly,
    cover: CoverComplex,
    components: Sequence[HypersurfaceComponent],
    cut: CutReport,
) -> Tuple[CheckResult, ...]:
    """Evaluate every certified property; one CheckResult per property.

    A crash inside a check must surface as that check failing, not abort
    the whole certificate, so each one runs under a blanket handler.
    """
    n = a.n

    def expect(cond: bool, msg: str) -> None:
        if not cond:
            raise Finding(msg)

    def ambient_proper() -> str:
        expect(is_proper(a.Q, a.lam_Q), "ambient colouring is not proper")
        return f"rank {a.lam_Q.rank}, image dimension {image_dimension(a.lam_Q)}"

    def ambient_orientable() -> str:
        chi = is_orientable(a.Q, a.lam_Q)
        expect(chi is not None, "ambient colouring is not orientable")
        odd = all(gf2.parity(c) for c in a.lam_Q.colours)
        expect(odd, "an ambient colour has even weight")
        return f"covector {chi:#x}, all colours odd-weight"

    def chain_proper() -> str:
        expect(is_proper(a.P, a.mu_P), "chain colouring is not proper")
        return f"{a.P.facet_count} facets at rank {a.mu_P.rank}"

    def chain_non_orientable() -> str:
        expect(is_orientable(a.P, a.mu_P) is None, "chain colouring is orientable")
        i, j, k = a.witness_facets
        s = a.mu_P.colours[i] ^ a.mu_P.colours[j] ^ a.mu_P.colours[k]
        expect(s == 0, "witness triple no longer sums to zero")
        return f"witness facets {a.witness_facets} sum to zero"

    def cover_size() -> str:
        expect(
            cover.copies == 2 ** image_dimension(a.lam_Q),
            "copy count is not 2^image-dimension",
        )
        expect(cover.copies == 32, f"expected 32 copies, built {cover.copies}")
        expect(cover.cells == 32 * n, f"expected {32 * n} cells, built {cover.cells}")
        return f"{cover.copies} copies of {cover.cells_per_copy} cell(s)"

    def connected() -> str:
        expect(cover_connected(cover), "cover is disconnected")
        return "copy graph connected"

    def orientable() -> str:
        expect(cover_orientable(cover), "cover is non-orientable")
        return "cover orientable"

    def euler() -> str:
        chi = cover_euler_characteristic(cover)
        expect(chi == 272 * n, f"Euler characteristic {chi}, expected {272 * n}")
        return f"chi = {chi} by both computations"

    def cut_locus_pieces() -> str:
        sizes = sorted(len(c.pieces) for c in components)
        expect(
            sum(sizes) == cover.copies // 2,
            "piece total differs from half the copy count",
        )
        return f"{len(components)} component(s) with piece counts {sizes}"

    def one_sided() -> str:
        expect(cut.one_sided, "cut locus is two-sided")
        return "cut locus one-sided"

    def boundary_connected() -> str:
        expect(
            cut.boundary_components == 1,
            f"boundary has {cut.boundary_components} components",
        )
        return "boundary connected"

    def boundary_cells() -> str:
        expect(
            cut.boundary_cell_counts == (16 * n,),
            f"boundary cells {cut.boundary_cell_counts}",
        )
        doubled = 2 * len(components[0].pieces) * cover.cells_per_copy
        expect(sum(cut.boundary_cell_counts) == doubled, "boundary does not double the cut locus")
        return f"{16 * n} dodecahedra"

    def boundary_orientable() -> str:
        expect(all(cut.boundary_orientable), "boundary is non-orientable")
        return "boundary orientable"

    def ambient_volume() -> str:
        vol = cut.ambient_volume
        expect(vol.cells == 32 * n, f"ambient counts {vol.cells} cells")
        expect(
            vol.pi2_multiple == V_120CELL_PI2 * 32 * n,
            f"ambient volume {vol.exact}",
        )
        return f"{vol.exact} = {vol.numeric:.4f}"

    def boundary_volume() -> str:
        vol = cut.boundary_volume
        expect(vol.cells == 16 * n, f"boundary counts {vol.cells} cells")
        expect(
            abs(vol.numeric - 16 * n * V_DODECAHEDRON) < 1e-9,
            f"numeric volume {vol.numeric}",
        )
        return f"{vol.exact} = {vol.numeric:.4f}"

    def ratio() -> str:
        expect(cut.ratio_exact == "2*V_Z/V_D", f"ratio form {cut.ratio_exact}")
        expect(cut.ratio_numeric < 53, f"ratio {cut.ratio_numeric} is not below 53")
        return f"{cut.ratio_exact} = {cut.ratio_numeric:.4f} < 53"

    # the preimage components carry the cover of the merged facet's
    # subpolytope under the colouring lam_Q induces on it; the natural map
    # onto the chain is tested once, and the induced colouring read through it
    merged = components[0].subcover
    map_fault = _isomorphism_fault(merged.polytope, a.P, a.natural_map)

    def long_facet() -> str:
        if map_fault:
            raise PolytopeError(map_fault)
        return "merged-facet subpolytope is the chain, via the provenance map"

    def induced() -> str:
        # at an isomorphism, equal normal sequences mean equal colourings
        # up to an invertible map of the image, so equivalent ones
        expect(map_fault is None, "the natural map is not an isomorphism")
        moved = transport(merged.colouring, a.natural_map, a.P)
        expect(
            normal_sequence(moved.colours) == normal_sequence(a.mu_P.colours),
            "induced colouring is not the chain colouring",
        )
        return "induced colouring equivalent to the chain colouring"

    checks = []
    for name, fn in [
        ("ambient-colouring-proper", ambient_proper),
        ("ambient-colouring-orientable", ambient_orientable),
        ("chain-colouring-proper", chain_proper),
        ("chain-colouring-non-orientable", chain_non_orientable),
        ("cover-size", cover_size),
        ("cover-connected", connected),
        ("cover-orientable", orientable),
        ("euler-characteristic", euler),
        ("cut-locus-pieces", cut_locus_pieces),
        ("cut-locus-one-sided", one_sided),
        ("boundary-connected", boundary_connected),
        ("boundary-cells", boundary_cells),
        ("boundary-orientable", boundary_orientable),
        ("ambient-volume", ambient_volume),
        ("boundary-volume", boundary_volume),
        ("volume-ratio", ratio),
        ("long-facet-subpolytope", long_facet),
        ("induced-colouring", induced),
    ]:
        try:
            checks.append(CheckResult(name, True, fn()))
        except Exception as exc:  # noqa: BLE001 - see docstring
            checks.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
    return tuple(checks)


def cut_cover(
    a: ChainAssembly,
) -> Tuple[CoverComplex, Tuple[HypersurfaceComponent, ...], CutReport]:
    """The ambient cover of n cells per copy, the preimage components of
    the merged facet, and the cut along the first of them."""
    cover = build_cover(a.Q, a.lam_Q, cells_per_copy=a.n)
    components = tuple(facet_preimage(cover, a.d_facet))
    return cover, components, cut_along(cover, components[0])


def checked_certificate(
    policy: str,
    chosen: ChosenClass,
    a: ChainAssembly,
    stored: Optional[Mapping[str, Any]] = None,
) -> Certificate:
    """The certificate of an assembly: its cover, preimage and cut, and
    every check run on them."""
    cover, components, cut = cut_cover(a)
    checks = run_checks(a, cover, components, cut)
    return Certificate(policy, chosen, a, cover, components, cut, checks, stored)


def certify(
    n: int,
    policy: str = "max-symmetry",
    budget: Optional[SearchBudget] = None,
) -> Certificate:
    """Run the full construction for chain length n and check every claim."""
    chosen = select_class(_dodecahedron_census(), policy)
    return checked_certificate(policy, chosen, assemble_chain(chosen, n, budget))


# the text of the certificate's files, which re-validation hashes too

def _json_list(items: Iterable[str]) -> str:
    """A non-empty list value at depth 1 of `json.dumps(indent=2)`, from its
    item lines."""
    body = ",\n".join(items)
    return f"[\n{body}\n  ]"


def _json_rows(rows: Iterable[Sequence[int]], width: int) -> Iterator[str]:
    """The item lines of a list of integer rows of one width, laid out as
    `json.dumps(indent=2)` lays them out at depth 2."""
    template = "    [\n" + ",\n".join(["      {}"] * width) + "\n    ]"
    return itertools.starmap(template.format, rows)


def polytope_text(P: Polytope) -> str:
    """The text of `fileio.write_json` on the polytope's object, rendered
    directly: `json.dumps(indent=2)` runs CPython's pure-Python encoder,
    which costs most of a certificate write.  Every adjacency row has 2
    entries and every vertex row `dimension` (the constructor checks both)."""
    labels = map("    {}".format, map(encode_basestring_ascii, P.facet_labels))
    return (
        '{\n  "format": "racover-polytope",\n'
        f'  "dimension": {P.dimension},\n'
        f'  "facets": {_json_list(labels)},\n'
        f'  "adjacency": {_json_list(_json_rows(P.adjacency, 2))},\n'
        f'  "vertices": {_json_list(_json_rows(P.vertices, P.dimension))}\n'
        "}\n"
    )


def colouring_text(c: Union[Colouring, PartialColouring]) -> str:
    lines = [f"rank {c.rank}"]
    for v in c.colours:
        lines.append("-" if v is None else str(v))
    return "\n".join(lines) + "\n"


# the chain and colouring files beside certificate.json, by their key in
# its `files` record
CERTIFICATE_FILES = {
    "chain": "chain.json",
    "ambient": "ambient.json",
    "chain_colouring": "chain-colouring.txt",
    "ambient_colouring": "ambient-colouring.txt",
}


def certificate_files(a: ChainAssembly) -> Dict[str, bytes]:
    """The bytes of each data file of a certificate, by key of `CERTIFICATE_FILES`."""
    return {
        "chain": polytope_text(a.P).encode(),
        "ambient": polytope_text(a.Q).encode(),
        "chain_colouring": colouring_text(a.mu_P).encode(),
        "ambient_colouring": colouring_text(a.lam_Q).encode(),
    }


def class_record(chosen: ChosenClass) -> Dict[str, Any]:
    """The `class` record of a certificate of the class."""
    return {
        "index": chosen.index,
        "id": chosen.id,
        "automorphisms": chosen.automorphisms,
        "witness": list(chosen.witness),
        "glue_facet": chosen.glue_facet,
    }


def certificate_object(cert: Certificate, files: Mapping[str, bytes]) -> Dict[str, Any]:
    """The certificate.json object of a certificate, keys in file order.

    `files` is the `certificate_files` of its assembly, whose sha256 the
    object records.  The writer writes this object, and re-validation
    compares it, rebuilt from the re-run checks, with the stored one.  The
    base facet and the notes are derived here, not kept in the certificate.
    """
    a = cert.assembly
    refs = {
        key: {"path": name, "sha256": hashlib.sha256(files[key]).hexdigest()}
        for key, name in CERTIFICATE_FILES.items()
    }
    piece_counts = sorted(len(c.pieces) for c in cert.components)
    return {
        "format": "racover-certificate",
        "n": cert.n,
        "policy": cert.policy,
        "passed": cert.passed,
        "class": class_record(cert.chosen),
        "glue_steps": [json_record(s) for s in a.glue_steps],
        "base_facet": _BASE_FACET,
        "d_facet": a.d_facet,
        "witness_facets": list(a.witness_facets),
        "natural_map": list(a.natural_map),
        "files": refs,
        "cover": cover_summary(cert.cover, preimages=False),
        "cut_locus": {
            "facet": a.d_facet,
            "components": len(cert.components),
            "piece_counts": piece_counts,
        },
        "cut": json_record(cert.cut),
        "volumes": [
            {"part": "ambient", **json_record(cert.cut.ambient_volume)},
            {"part": "boundary", **json_record(cert.cut.boundary_volume)},
            {
                "part": "ratio",
                "exact": cert.cut.ratio_exact,
                "numeric": cert.cut.ratio_numeric,
            },
        ],
        "checks": [json_record(c) for c in cert.checks],
        "notes": [
            f"cut locus: {len(cert.components)} component(s) with piece counts "
            f"{piece_counts}, computed from the gluing; informal descriptions of "
            "this construction sometimes quote four copies",
            "naming: N is the boundary three-manifold, M the ambient four-manifold "
            "it bounds; accounts that swap the two letters describe the same pair",
            "gluings use the label-identity matching between mirrored summands",
        ],
    }


def _first_difference(stored: Any, fresh: Any, field: str) -> Optional[str]:
    """The dotted name of the first field where a stored record differs
    from the re-computed one, or None; `field` is the records' own name,
    empty for the whole file.  Leaves must agree in type too, and records
    in their keys: a key only one side has is the field named."""
    if isinstance(fresh, dict) and isinstance(stored, dict):
        prefix = f"{field}." if field else ""
        unmatched = [k for k in stored if k not in fresh] + [k for k in fresh if k not in stored]
        if unmatched:
            return prefix + str(unmatched[0])
        pairs = [(prefix + key, stored[key], fresh[key]) for key in fresh]
    elif isinstance(fresh, list) and isinstance(stored, list) and len(stored) == len(fresh):
        pairs = [(f"{field}[{i}]", a, b) for i, (a, b) in enumerate(zip(stored, fresh))]
    else:
        same = type(stored) is type(fresh) and stored == fresh
        return None if same else field
    for name, a, b in pairs:
        found = _first_difference(a, b, name)
        if found is not None:
            return found
    return None


def recheck_certificate(
    cert: Certificate,
) -> Tuple[Tuple[CheckResult, ...], Optional[str]]:
    """Compare a certificate with its own re-run.

    A loaded certificate's checks were re-run by `load_certificate` on its
    rebuild; its `certificate_object`, with the digests of the files the
    writer would write for it, is compared with the stored file.  A
    certificate built in memory is re-derived by `checked_certificate`
    from its class and assembly, and the two objects, with the digests of
    the files of that one assembly, are compared.  Both must have the same
    keys at every level, compared key by key in file order.  The checks come first: each re-run check must reproduce the
    stored one, name, result and detail, or a Finding names the first
    field that differs.  Returns the re-run checks and a message naming
    the first other field or key that differs, or None if all agree.
    """
    # both sides share one assembly, so one set of files serves both
    files = certificate_files(cert.assembly)
    if cert.stored is None:
        stored = certificate_object(cert, files)
        cert = checked_certificate(cert.policy, cert.chosen, cert.assembly)
    else:
        stored = cert.stored
    fresh = certificate_object(cert, files)
    field = _first_difference(stored.get("checks"), fresh["checks"], "checks")
    if field is not None:
        raise Finding(f"re-validation disagrees with the certificate at {field}")
    field = _first_difference(stored, fresh, "")
    if field is not None:
        return cert.checks, f"re-validation disagrees with the certificate at {field}"
    return cert.checks, None


def validate_certificate(cert: Certificate) -> Tuple[CheckResult, ...]:
    """`recheck_certificate`, with a contradicted summary record raised as
    a Finding too."""
    checks, msg = recheck_certificate(cert)
    if msg is not None:
        raise Finding(msg)
    return checks
