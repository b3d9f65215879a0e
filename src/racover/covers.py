"""Explicit manifold covers of coloured polytopes.

The cover attached to a proper colouring is a gluing complex: one copy of
the polytope per element of the colour span, with copy g glued to copy
g + colour(F) across each facet F.  This module builds that complex,
computes its invariants two independent ways, decomposes facet preimages
into hypersurface components, and cuts the cover open along one component.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cached_property
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from . import gf2
from .colouring import Colouring, induced_colouring, is_orientable, is_proper
from .polytopes import Polytope, _faces, _orbifold_sum, reachable

__all__ = [
    "CoverError",
    "CoverComplex",
    "HypersurfaceComponent",
    "CutReport",
    "Volume",
    "build_cover",
    "cover_connected",
    "cover_euler_characteristic",
    "cover_orientable",
    "facet_preimage",
    "cut_along",
    "volume_of_cells",
    "volume",
    "json_record",
    "cover_summary",
    "V_DODECAHEDRON",
    "V_120CELL_PI2",
]

# Exact hyperbolic volume of the right-angled 120-cell as a multiple of
# pi^2 (Gauss-Bonnet); the dodecahedron has no closed form and is carried
# at the four-decimal precision used throughout the literature we target.
V_120CELL_PI2 = Fraction(34, 3)
V_DODECAHEDRON = 4.3062


class CoverError(ValueError):
    pass


@dataclass(frozen=True)
class CoverComplex:
    """Cover of `polytope` determined by `colouring`.

    `group` is the span of the colours, sorted ascending; there is one copy
    of the polytope per group element, and the gluing partner of (copy g,
    facet F) is copy g + colour(F).  `cells_per_copy` records how many
    atomic cells (dodecahedra, 120-cells) one copy of the base carries;
    it stays 1 unless the base is itself a connected-sum assembly.
    """

    polytope: Polytope
    colouring: Colouring
    group: Tuple[int, ...]
    cells_per_copy: int = 1

    @property
    def copies(self) -> int:
        return len(self.group)

    @property
    def cells(self) -> int:
        return self.copies * self.cells_per_copy

    @cached_property
    def euler_characteristic(self) -> int:
        """See `cover_euler_characteristic`; computed once per cover."""
        return _checked_euler_characteristic(self)


@dataclass(frozen=True)
class HypersurfaceComponent:
    """One connected component of a facet preimage.

    A piece is an unordered pair {g, g + colour(F)} of copies sharing the
    facet; it is named by the smaller element.  `subcover` is the cover of
    the facet subpolytope under the induced colouring that this component
    has been verified isomorphic to; `cut_along` takes that subpolytope
    and colouring from it.  The components of one preimage share it.
    """

    facet: int
    pieces: Tuple[int, ...]
    subcover: CoverComplex


@dataclass(frozen=True)
class Volume:
    """Hyperbolic volume of a cell count, exact where a closed form exists."""

    cells: int
    cell_type: str
    exact: str
    pi2_multiple: Optional[Fraction]
    numeric: float


@dataclass(frozen=True)
class CutReport:
    """What cutting a cover along one hypersurface component produced."""

    facet: int
    ambient_copies: int
    ambient_cells: int
    ambient_orientable: bool
    boundary_components: int
    boundary_cell_counts: Tuple[int, ...]
    boundary_orientable: Tuple[bool, ...]
    one_sided: bool
    ambient_volume: Volume
    boundary_volume: Volume
    ratio_exact: str
    ratio_numeric: float


def build_cover(P: Polytope, lam: Colouring, cells_per_copy: int = 1) -> CoverComplex:
    """The manifold cover of P under a proper colouring."""
    if not is_proper(P, lam):
        raise CoverError("cover requires a proper colouring")
    group = tuple(gf2.span(lam.colours))
    # a zero colour would make the facet gluing fix (g, F); properness
    # already excludes it, but the invariant is cheap to state
    assert all(c != 0 for c in lam.colours)
    return CoverComplex(P, lam, group, cells_per_copy)


def _components(
    nodes: Iterable[int], moves: Callable[[int], Iterable[int]]
) -> List[List[int]]:
    """Components of a node set under the neighbour function `moves`, each
    sorted, listed in order of their least node; neighbours outside the
    set are ignored."""
    remaining = set(nodes)
    out = []
    for start in sorted(remaining):
        if start in remaining:
            comp = reachable(start, lambda g: (h for h in moves(g) if h in remaining))
            remaining -= comp
            out.append(sorted(comp))
    return out


def cover_connected(C: CoverComplex) -> bool:
    """Connectivity of the copy graph (copies joined by facet gluings)."""
    colours = set(C.colouring.colours)
    return len(_components(C.group, lambda g: (g ^ c for c in colours))) == 1


def _face_tallies(C: CoverComplex) -> Tuple[Dict[int, int], int]:
    """Face counts of the base by codimension k = 0..n, and the Euler
    characteristic of the glued complex, from one colour tally per k: a
    face on the facets S has |G| / |span of S's colours| copies in the
    cover, as copies g and g + colour(F) agree along every face inside F."""
    P = C.polytope
    n = P.dimension
    cols = C.colouring.colours
    copies = len(C.group)
    counts, direct = {0: 1}, (-1) ** n * copies
    for k in range(1, n + 1):
        # facets lie on vertices (the constructor checks it); each face's
        # colours are read k at a time from one stream
        stream = iter(cols) if k == 1 else map(
            cols.__getitem__, itertools.chain.from_iterable(_faces(P, k))
        )
        tally = Counter(zip(*[stream] * k))
        counts[k] = sum(tally.values())
        for key, count in tally.items():
            direct += (-1) ** (n - k) * count * (copies >> gf2.rank(key))
    return counts, direct


def cover_euler_characteristic(C: CoverComplex) -> int:
    """Euler characteristic of the cover, computed two ways.

    Both read one enumeration of the base's faces per codimension k and
    differ in the weight of a face: |G| / 2^k in |G| * chi_orb(P) and
    |G| / |span of its colours| in the direct count.  Agreement checks full
    rank of the colours on the faces summed with signs, so it is no
    properness test.  The product must be an integer equal to the direct
    count, else a non-manifold gluing raises.  The checked value is kept
    on C, so later calls reuse it.
    """
    return C.euler_characteristic


def _checked_euler_characteristic(C: CoverComplex) -> int:
    counts, direct = _face_tallies(C)
    chi = len(C.group) * _orbifold_sum(counts)
    if chi.denominator != 1:
        raise CoverError(f"non-integral Euler characteristic {chi}")
    if direct != chi:
        raise CoverError(
            f"face count disagrees with orbifold formula: {direct} vs {chi}"
        )
    return int(chi)


def cover_orientable(C: CoverComplex) -> bool:
    """Orientability via the all-ones covector criterion on the colours;
    a repeated colour adds no equation, so each is taken once."""
    return gf2.solve_all_ones(set(C.colouring.colours)) is not None


def _preimage_pieces(C: CoverComplex, F: int) -> List[List[int]]:
    """The components of the preimage of facet F as piece lists.

    A piece {g, g + colour(F)} is named by its smaller copy.  Two pieces
    are joined when they share a ridge of F, i.e. one copy of the first
    pair is a colour(G)-translate of the second pair for some facet G
    adjacent to F.
    """
    if C.polytope.dimension < 3:
        raise CoverError("facet preimages need a base of dimension at least 3")
    lam = C.colouring
    lf = lam.colours[F]
    nb_cols = [lam.colours[G] for G in C.polytope.neighbours[F]]
    # translating either copy of a pair by colour(G) lands in one pair
    return _components(
        {min(g, g ^ lf) for g in C.group},
        lambda g: (min(g ^ c, g ^ c ^ lf) for c in nb_cols),
    )


def facet_preimage(C: CoverComplex, F: int) -> List[HypersurfaceComponent]:
    """Decompose the preimage of facet F into hypersurface components.

    The pieces are grouped by `_preimage_pieces`.  Every component is then
    certified isomorphic to the cover of the facet subpolytope under the
    induced colouring, via the explicit copy map
    g -> projection(g - basepoint).
    """
    P = C.polytope
    components = _preimage_pieces(C, F)
    lam = C.colouring
    lf = lam.colours[F]
    mu = induced_colouring(P, F, lam)
    subcover = build_cover(mu.polytope, mu, C.cells_per_copy)
    q = gf2.quotient_map(lf)

    out = []
    for comp in components:
        phi = {g: q(g ^ comp[0]) for g in comp}
        if sorted(phi.values()) != list(subcover.group):
            raise CoverError("facet preimage component does not match induced cover")
        for g in comp:
            for j, G in enumerate(P.neighbours[F]):
                h = g ^ lam.colours[G]
                if phi[min(h, h ^ lf)] != phi[g] ^ mu.colours[j]:
                    raise CoverError(
                        "facet preimage gluing disagrees with induced cover"
                    )
        out.append(HypersurfaceComponent(F, tuple(comp), subcover))
    return out


def cut_along(C: CoverComplex, S: HypersurfaceComponent) -> CutReport:
    """Cut the cover open along one facet-preimage component.

    Each piece of S is doubled into two boundary cells, one per side; the
    boundary cells (g, F) are then glued by g -> g + colour(G) across the
    ridges of F.  Sidedness is read off from the resulting component
    count and cross-checked against the orientability of the induced
    colouring that `S.subcover` carries (one-sided exactly when it is
    non-orientable inside an orientable ambient cover).
    """
    P = C.polytope
    lam = C.colouring
    F = S.facet
    if not cover_orientable(C):
        raise CoverError("cut requires an orientable ambient cover")
    if list(S.pieces) not in _preimage_pieces(C, F):
        raise CoverError("hypersurface is not a component of the facet preimage")

    lf = lam.colours[F]
    cells = {g for p in S.pieces for g in (p, p ^ lf)}
    nb_cols = [lam.colours[G] for G in P.neighbours[F]]
    if any(g ^ c not in cells for g in cells for c in nb_cols):
        raise CoverError("boundary gluing left the cut locus")
    comp_sizes = list(map(len, _components(cells, lambda g: (g ^ c for c in nb_cols))))

    one_sided = len(comp_sizes) == 1
    sub, mu = S.subcover.polytope, S.subcover.colouring
    if one_sided != (is_orientable(sub, mu) is None):
        raise CoverError("sidedness disagrees with induced-colouring orientability")

    # the boundary is the cover of the facet subpolytope under the
    # restriction colouring (full ambient colours of the neighbours)
    restriction = Colouring(sub, lam.rank, tuple(lam.colours[g] for g in P.neighbours[F]))
    boundary_orientable = cover_orientable(build_cover(sub, restriction))

    sizes = tuple(s * C.cells_per_copy for s in comp_sizes)
    ambient_vol = volume_of_cells(C.cells, P.dimension)
    boundary_vol = volume_of_cells(
        sum(sizes), P.dimension - 1, polygon_edges=sub.facet_count
    )
    ratio_exact = _ratio_string(C.cells, sum(sizes), P.dimension)
    ratio_numeric = ambient_vol.numeric / boundary_vol.numeric
    return CutReport(
        facet=F,
        ambient_copies=C.copies,
        ambient_cells=C.cells,
        ambient_orientable=True,
        boundary_components=len(comp_sizes),
        boundary_cell_counts=sizes,
        boundary_orientable=tuple(boundary_orientable for _ in comp_sizes),
        one_sided=one_sided,
        ambient_volume=ambient_vol,
        boundary_volume=boundary_vol,
        ratio_exact=ratio_exact,
        ratio_numeric=ratio_numeric,
    )


def volume_of_cells(
    cells: int, dimension: int, polygon_edges: Optional[int] = None
) -> Volume:
    """Total volume of `cells` atomic right-angled cells of the dimension.

    Dimension 2 needs the polygon's edge count k (at least 5; smaller
    right-angled polygons do not exist), where the area is (k-4)*pi/2 by
    Gauss-Bonnet.
    """
    if dimension == 4:
        multiple = V_120CELL_PI2 * cells
        return Volume(
            cells,
            "120-cell",
            f"{cells}*V_Z",
            multiple,
            float(multiple) * math.pi ** 2,
        )
    if dimension == 3:
        return Volume(
            cells,
            "dodecahedron",
            f"{cells}*V_D",
            None,
            cells * V_DODECAHEDRON,
        )
    if dimension == 2 and polygon_edges is not None and polygon_edges >= 5:
        half = Fraction(polygon_edges - 4, 2) * cells
        return Volume(
            cells,
            f"{polygon_edges}-gon",
            f"({half})*pi",
            None,
            float(half) * math.pi,
        )
    raise CoverError(f"unknown base cell type in dimension {dimension}")


def _ratio_string(ambient_cells: int, boundary_cells: int, dimension: int) -> str:
    if dimension != 4:
        return f"{ambient_cells}:{boundary_cells}"
    r = Fraction(ambient_cells, boundary_cells)
    num = f"{r.numerator}*V_Z" if r.numerator != 1 else "V_Z"
    den = f"{r.denominator}*V_D" if r.denominator != 1 else "V_D"
    return f"{num}/{den}"


def volume(C: CoverComplex) -> Volume:
    """Volume of a cover."""
    edges = C.polytope.facet_count if C.polytope.dimension == 2 else None
    return volume_of_cells(C.cells, C.polytope.dimension, edges)


# ---------------------------------------------------------------------------
# summary records: JSON-ready views of covers, cuts and volumes

def _json_fields(pairs: List[Tuple[str, Any]]) -> dict:
    """The dict factory of `json_record`."""
    out = {}
    for key, value in pairs:
        if isinstance(value, tuple):
            value = list(value)
        elif isinstance(value, Fraction):
            value = [value.numerator, value.denominator]
        out[key] = value
    return out


def json_record(record: Any) -> dict:
    """A dataclass record as a JSON object, fields in declaration order:
    tuples become lists and a Fraction its [numerator, denominator]."""
    return asdict(record, dict_factory=_json_fields)


def cover_summary(C: CoverComplex, preimages: bool = True) -> dict:
    rec = {
        "copies": C.copies,
        "cells": C.cells,
        "connected": cover_connected(C),
        "orientable": cover_orientable(C),
        "euler_characteristic": cover_euler_characteristic(C),
        "volume": json_record(volume(C)),
    }
    # facets of a polygon cover are 1-dimensional, below what the complex
    # machinery models, so their preimages are not summarized
    if preimages and C.polytope.dimension >= 3:
        rec["facet_preimage_pieces"] = {
            label: sorted(len(c.pieces) for c in facet_preimage(C, f))
            for f, label in enumerate(C.polytope.facet_labels)
        }
    return rec

