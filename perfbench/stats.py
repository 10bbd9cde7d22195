"""Summary statistics shared by the stages: medians, tails, rate ladders."""

from __future__ import annotations

import math
import statistics
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Percentiles a tail may be reported at.  A fixed grid keeps the reported
#: percentile the same from run to run as long as the sample count is.
TAIL_GRID = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a percentile for it to count as a tail.
TAIL_MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(count: int) -> float:
    """Highest grid percentile with at least ``TAIL_MIN_BEYOND`` samples beyond.

    With fewer than ``2 * TAIL_MIN_BEYOND`` samples no grid point qualifies
    and the median is used, so a tiny sample never reports a tail it did
    not observe.
    """
    for pct in TAIL_GRID:
        # Rounded: 100 - 99.9 is a hair under 0.1 in binary floating point.
        if round(count * (100.0 - pct) / 100.0, 6) >= TAIL_MIN_BEYOND:
            return pct
    return 50.0


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(percentile, value)`` of the tail of ``values``."""
    pct = tail_percentile(len(values))
    return pct, percentile(values, pct)


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / median(values)


def within_budget(elapsed: float, units: Sequence[float], budget: float) -> bool:
    """Whether one more unit of the mean length so far fits in ``budget``."""
    return elapsed + sum(units) / len(units) <= budget


def search_ladder(ladder: Sequence[float], start: int,
                  meets: Callable[[float], bool]) -> Tuple[Optional[float], List[Dict]]:
    """Highest rung of an ascending ``ladder`` for which ``meets(rate)`` holds.

    Starts at rung ``start`` (a guess near the answer), gallops up or down
    in doubling steps until the answer is bracketed, then bisects the
    bracket, assuming that a rate above a failing rate fails too.  A good
    guess settles in two probes, all near the answer; a bad one costs a
    logarithmic number more.  Returns the rate (``None`` when even the
    lowest rung fails) and the probes made, in order.
    """
    probes: List[Dict] = []

    def probe(index: int) -> bool:
        ok = bool(meets(ladder[index]))
        probes.append({"rate": ladder[index], "meets": ok})
        return ok

    start = max(0, min(start, len(ladder) - 1))
    step = 1
    if probe(start):
        low, high = start, len(ladder)       # ladder[low] meets, ladder[high] fails
        while low + step < len(ladder):
            if not probe(low + step):
                high = low + step
                break
            low, step = low + step, step * 2
    else:
        low, high = -1, start
        while high - step >= 0:
            if probe(high - step):
                low = high - step
                break
            high, step = high - step, step * 2
    while high - low > 1:
        mid = (low + high) // 2
        if probe(mid):
            low = mid
        else:
            high = mid
    return (ladder[low] if low >= 0 else None), probes
