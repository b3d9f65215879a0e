"""Summary statistics and plain-text tables for the benchmark's reports."""
from __future__ import annotations

import math
from statistics import median, quantiles
from typing import List, Optional, Sequence, Tuple

TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def tail(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """The highest percentile with at least ten samples beyond it, as
    (percentile, value), or None when there are too few samples."""
    for p in TAIL_PERCENTILES:
        if len(values) - math.ceil(p / 100 * len(values)) >= 10:
            return p, percentile(values, p)
    return None


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile), as
    ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, mid, q3 = quantiles(values, n=4)
    return q1, mid, q3


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the
    median (0 when the median is 0)."""
    q1, mid, q3 = quartiles(values)
    return (q3 - q1) / mid if mid else 0.0


def num(x: float) -> str:
    if isinstance(x, int) or float(x).is_integer():
        return str(int(x))
    return f"{x:.4g}" if abs(x) < 1000 else f"{x:.0f}"


def table(header: Sequence[str], rows: List[Sequence]) -> str:
    cells = [list(map(str, header))] + [[c if isinstance(c, str) else num(c) for c in r] for r in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in cells]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def summary_row(name: str, unit: str, values: Sequence[float]) -> list:
    """metric, unit, samples, median, tail percentile."""
    t = tail(values)
    return [name, unit, len(values), median(values), f"p{num(t[0])} {num(t[1])}" if t else "-"]
