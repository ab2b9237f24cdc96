"""Summary statistics shared by the benchmark's runs and its steadiness mode.

A percentile is reported only when at least ``MIN_BEYOND`` samples lie
beyond it, and always with its sample count.  Span self time is a span's
duration minus the union of the intervals its children cover, so
overlapping children are not subtracted twice.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, List, Optional, Sequence, Tuple

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the ``q``-th percentile."""
    return int(math.floor(n * (100.0 - q) / 100.0 + 1e-9))


def percentile_allowed(n: int, q: float) -> bool:
    """Whether ``n`` samples support reporting the ``q``-th percentile."""
    return samples_beyond(n, q) >= MIN_BEYOND


def reported(values: Sequence[float], q: float) -> Tuple[Optional[float], int]:
    """``(q-th percentile, sample count)``; the percentile is None when too few lie beyond it."""
    n = len(values)
    return (percentile(values, q) if percentile_allowed(n, q) else None), n


def quartile_spread(values: Sequence[float]) -> Tuple[float, float, float, float]:
    """``(q1, median, q3, (q3 - q1) / |median|)`` as the steadiness rule uses.

    Quartiles come from :func:`statistics.quantiles` with its default
    (exclusive) method, which is what the acceptance rule specifies.
    """
    if len(values) < 2:
        raise ValueError("spread needs at least two samples")
    q1, med, q3 = statistics.quantiles(values, n=4)
    if med == 0:
        return q1, med, q3, math.inf
    return q1, med, q3, (q3 - q1) / abs(med)


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    cur_start: Optional[float] = None
    cur_end = 0.0
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_start is None or start > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def self_time(
    span: Tuple[float, float], children: Iterable[Tuple[float, float]]
) -> float:
    """``span`` duration minus the part of it its children cover.

    Child intervals are clipped to the parent first, so a child that
    outlives its parent (an asynchronous hand-off) only removes the
    overlapping part.
    """
    start, end = span
    clipped: List[Tuple[float, float]] = [
        (max(start, c_start), min(end, c_end)) for c_start, c_end in children
    ]
    return max(0.0, (end - start) - union_length(clipped))
