"""Pure arithmetic the benchmark reports with.

Kept free of I/O and of any import from the program under test, so the
tests in ``perfbench/tests`` exercise exactly the code that produces
the published numbers.
"""

from __future__ import annotations

import bisect
import math
import statistics
from typing import Iterable, Sequence

#: Percentiles the tail report chooses from, lowest first.
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99, 99.999)

#: A percentile is only reported as "the tail" when at least this many
#: samples lie beyond it; fewer make it a reading of single outliers.
TAIL_MIN_BEYOND = 10


def rank(count: int, p: float) -> int:
    """1-based nearest rank of the ``p``-th percentile in ``count`` samples.

    Rounded before the ceiling so that float noise (0.999 * 10000 is
    9990.000000000002) does not push the rank one sample too far.
    """
    return max(1, math.ceil(round(p / 100.0 * count, 9)))


def percentile(
    values: Sequence[float], p: float, weights: Sequence[int] | None = None
) -> float:
    """Nearest-rank ``p``-th percentile of ``values`` (0 < p <= 100).

    The value at rank ``ceil(p/100 * n)`` of the sorted sample — always
    an observed value, never an interpolation between two. With
    ``weights``, value ``i`` counts as ``weights[i]`` samples.
    """
    if not 0.0 < p <= 100.0:
        raise ValueError("p must be in (0, 100]")
    if weights is None:
        weights = [1] * len(values)
    elif len(weights) != len(values):
        raise ValueError("values and weights must pair up")
    pairs = sorted(
        (value, weight) for value, weight in zip(values, weights) if weight
    )
    count = sum(weight for _, weight in pairs)
    if not count:
        raise ValueError("percentile of an empty sample")
    wanted = rank(count, p)
    seen = 0
    for value, weight in pairs:
        seen += weight
        if seen >= wanted:
            return value
    raise AssertionError("unreachable: rank <= count")


def beyond(count: int, p: float) -> int:
    """How many of ``count`` samples lie beyond the nearest-rank ``p``."""
    return count - rank(count, p)


def tail_percentile(count: int) -> float | None:
    """The highest ladder percentile with at least 10 samples beyond it.

    ``None`` when even the median has fewer than 10 samples beyond it
    (fewer than 20 samples in all).
    """
    chosen = None
    for p in TAIL_LADDER:
        if beyond(count, p) >= TAIL_MIN_BEYOND:
            chosen = p
    return chosen


def median(values: Iterable[float]) -> float:
    """Median of a non-empty sample (mean of the middle pair when even)."""
    return statistics.median(list(values))


def merge_windows(
    groups: Sequence[Sequence[float]], at_least: int
) -> list[list[float]]:
    """Join consecutive windows until each holds ``at_least`` samples.

    A short remainder joins the last full window.
    """
    merged: list[list[float]] = []
    current: list[float] = []
    for group in groups:
        current.extend(group)
        if len(current) >= at_least:
            merged.append(current)
            current = []
    if current:
        if merged:
            merged[-1].extend(current)
        else:
            merged.append(current)
    return merged


def windowed_percentile(
    groups: Sequence[Sequence[float]],
    p: float,
    weights: Sequence[Sequence[int]] | None = None,
) -> float:
    """The median over windows of each window's ``p``-th percentile."""
    if weights is None:
        weights = [None] * len(groups)
    return median([
        percentile(group, p, weight)
        for group, weight in zip(groups, weights)
        if len(group)
    ])


def windows(values: Sequence[float], size: int) -> list[list[float]]:
    """Consecutive windows of ``size`` values; a short rest joins the last."""
    return merge_windows([[value] for value in values], size)


def open_loop_latencies(
    due: Sequence[float], done: Sequence[float]
) -> list[float]:
    """Per-walk latency measured from when each walk was *due*.

    An open-loop generator sends on its schedule whatever the system
    is doing, so the clock for walk ``i`` starts at ``due[i]``, not at
    the moment the walk finally got a connection. A stall therefore
    shows up in every walk queued behind it, not only in the one that
    stalled.
    """
    if len(due) != len(done):
        raise ValueError("due and done must pair up")
    return [finish - start for start, finish in zip(due, done)]


def interpolate(xs: Sequence[float], ys: Sequence[float], x: float) -> float:
    """``y`` at ``x`` on the piecewise-linear curve through ``(xs, ys)``.

    ``xs`` is non-decreasing; outside its range the nearest end's ``y``
    is returned.
    """
    if not len(xs):
        raise ValueError("interpolate on an empty curve")
    right = bisect.bisect_left(xs, x)
    if right == 0:
        return ys[0]
    if right == len(xs):
        return ys[-1]
    x0, x1 = xs[right - 1], xs[right]
    y0, y1 = ys[right - 1], ys[right]
    if x1 == x0:
        return y1
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def serial_latencies(
    chunks: Sequence[tuple[float, Sequence[float], float]]
) -> list[list[float]]:
    """Per-chunk latencies of walks that a server issues back to back.

    Each chunk is ``(began, returned, finished)``: when the chunk
    started, when each of its walks returned, and when it ended. A walk
    is due when the previous one returned, so work done between two
    walks (a compile, a replan) is charged to the second. Work after a
    chunk's last walk is carried to the next chunk's first walk; the gap
    between one chunk's end and the next one's start is not.
    """
    groups, carried = [], 0.0
    for began, returned, finished in chunks:
        previous, group = began, []
        for stamp in returned:
            group.append(stamp - previous + carried)
            previous, carried = stamp, 0.0
        carried += finished - previous
        groups.append(group)
    return groups


def covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def reconcile(
    wall: float, self_times: dict[str, float], idle: float
) -> tuple[float, float]:
    """Check that per-layer self times plus idle add up to wall time.

    Returns ``(sum, relative_error)`` where the error is
    ``|sum - wall| / wall`` (0 for an empty wall).
    """
    total = sum(self_times.values()) + idle
    if wall <= 0:
        return total, 0.0 if total == 0 else math.inf
    return total, abs(total - wall) / wall
