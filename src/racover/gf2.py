"""Bit-packed linear algebra over GF(2).

Vectors are Python ints; bit i holds coordinate i+1, so coordinate 1 is the
least significant bit.  A list of ints is a matrix given by its rows.
"""
from __future__ import annotations

from typing import Callable, Iterable, List, Optional

__all__ = [
    "parity",
    "rank",
    "span",
    "independent",
    "solve_all_ones",
    "quotient_map",
]


def parity(v: int) -> int:
    """Weight of v mod 2."""
    return v.bit_count() & 1


def rank(rows: Iterable[int]) -> int:
    """Rank of the row set, by elimination on pivot bits."""
    pivots: List[int] = []
    for v in rows:
        for p in pivots:
            low = p & -p
            if v & low:
                v ^= p
        if v:
            pivots.append(v)
    return len(pivots)


def independent(rows: Iterable[int]) -> bool:
    """True when the rows are linearly independent."""
    rows = list(rows)
    return rank(rows) == len(rows)


def span(rows: Iterable[int]) -> List[int]:
    """All vectors generated by the rows, sorted ascending."""
    out = {0}
    for v in rows:
        if v not in out:
            out |= {v ^ w for w in out}
    return sorted(out)


def solve_all_ones(rows: Iterable[int]) -> Optional[int]:
    """A covector x with parity(x & r) == 1 for every row r, or None.

    The solution is produced by Gaussian elimination on the augmented
    system and is deterministic; when the rows span their ambient space
    it is unique.
    """
    # pivots holds (vector, rhs) pairs in echelon form
    pivots: List[tuple[int, int]] = []
    for v in rows:
        b = 1
        for p, pb in pivots:
            low = p & -p
            if v & low:
                v ^= p
                b ^= pb
        if v:
            pivots.append((v, b))
        elif b:
            return None  # inconsistent: an odd-size dependency exists
    x = 0
    # back-substitute from the lowest-pivot rows upward
    for p, pb in reversed(pivots):
        low = p & -p
        if parity(x & p) != pb:
            x ^= low
    return x


def quotient_map(lf: int) -> Callable[[int], int]:
    """Projection V -> V/<lf> written in the echelon complement.

    The pivot coordinate of lf (its lowest set bit) is eliminated and the
    remaining coordinates close up in increasing order.
    """
    p = (lf & -lf).bit_length() - 1
    low = (1 << p) - 1

    def q(v: int) -> int:
        if v >> p & 1:
            v ^= lf
        return (v & low) | (v >> (p + 1)) << p

    return q

