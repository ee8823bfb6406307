"""The harness's own statistics: percentiles, spreads, open-loop timing.

Everything here is pure and unit-tested (``routebench/test_harness.py``):
a benchmark whose arithmetic is wrong reports confident nonsense.
"""

from __future__ import annotations

import math
import statistics
from typing import Callable, Dict, List, Sequence

#: A percentile is reported only when at least this many samples lie
#: strictly beyond it; below that it is one or two samples, not a tail.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``>= q`` at or below.

    ``q`` is a fraction in ``(0, 1]``.  Nearest rank (no interpolation)
    keeps every reported value an actually observed sample.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"percentile fraction must be in (0, 1], got {q}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def beyond(samples: Sequence[float], q: float) -> int:
    """How many samples lie strictly above the ``q`` percentile."""
    cut = percentile(samples, q)
    return sum(1 for value in samples if value > cut)


def tail_percentile(
    samples: Sequence[float], q: float, strict: bool = True
) -> float:
    """The ``q`` percentile, refused unless ``MIN_BEYOND`` samples lie past it.

    With ``strict=False`` (smoke mode, tiny draws) the value is returned
    anyway; measured runs are sized so the check always holds.
    """
    value = percentile(samples, q)
    if strict and beyond(samples, q) < MIN_BEYOND:
        raise ValueError(
            f"p{q * 100:g} of {len(samples)} samples has only "
            f"{beyond(samples, q)} beyond it (need {MIN_BEYOND})"
        )
    return value


def windowed_median(
    values: Sequence[float],
    windows: int,
    statistic: Callable[[Sequence[float]], float],
) -> float:
    """Median of ``statistic`` over ``windows`` consecutive equal slices.

    ``values`` are in time order.  A burst of host interference that
    covers fewer than half of the windows cannot move the result, while
    a change that slows every request moves every window.
    """
    size = len(values) // windows
    if size < 1:
        return statistic(values)
    return statistics.median(
        statistic(values[i * size:(i + 1) * size]) for i in range(windows)
    )


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the stability rule)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    if median == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(median)


def open_loop_timing(
    scheduled: Sequence[float],
    sent: Sequence[float],
    done: Sequence[float],
) -> Dict[str, List[float]]:
    """Per-request latency and lateness of an open-loop generator.

    Latency runs from the time a request was *due* (``scheduled``), not
    from when it actually left: a generator stalled behind a slow reply
    would otherwise hide exactly the wait the stall imposed.  Lateness is
    how far behind its schedule the generator sent each request.
    """
    if not len(scheduled) == len(sent) == len(done):
        raise ValueError("scheduled, sent and done must align")
    latency = [d - s for s, d in zip(scheduled, done)]
    lateness = [max(0.0, x - s) for s, x in zip(scheduled, sent)]
    return {"latency": latency, "lateness": lateness}


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Self time of each span: its duration minus what its children cover.

    ``spans`` rows are ``(name, start, end, parent)`` with ``parent`` the
    index of the enclosing span or ``-1``.  Children are clipped to their
    parent and overlapping children are merged, so concurrent children
    are not subtracted twice.
    """
    children: Dict[int, List[tuple]] = {}
    for row in spans:
        parent = row[3]
        if parent >= 0:
            children.setdefault(parent, []).append((row[1], row[2]))
    out = []
    for index, row in enumerate(spans):
        start, end = row[1], row[2]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out
