"""A reference clock: the host's speed, measured beside the workload.

On a shared host the CPU's own speed swings within seconds.  On the
2-core VM this benchmark was built on, the same fixed work took 12 ms
in one ten-second window and 20 ms in the next, in CPU time as much as
in wall time, while the ratio of router work to a fixed pure-Python
loop moved far less (3% in one trial, 17% in another).  A wall-clock
latency therefore measures the neighbours as much as the program.

Every timed workload samples :func:`reference_loop` (fixed work that
never calls the program) about ten times a second, timed in thread CPU
time so that waiting for the scheduler or the interpreter lock does not
count.  A latency is then reported in *reference milliseconds*: its
wall time divided by the median duration of the nearest reference
samples.  One reference millisecond is one run of the reference loop,
about 2 ms on that VM's fast phase.  A change that makes the program
faster moves the reported value exactly as it moves wall time; a host
that slows everything down moves both the latency and its divisor.
"""

from __future__ import annotations

import bisect
import heapq
import random
import statistics
import threading
import time
import zlib
from typing import List, Sequence, Tuple

#: Reference samples nearest in time to an operation that set its divisor.
NEAREST = 5

_SIDE = 22
_BLOCKED = frozenset(
    (x, y) for x in range(_SIDE) for y in range(_SIDE)
    if (x * 7 + y * 13) % 11 == 0 and 0 < y < _SIDE - 1
)


#: Fixed compressible bytes for the compiled-code part of the loop.
_BYTES = bytes(random.Random(0).choices(b"abcdefgh", k=12_000))


def reference_loop() -> int:
    """Fixed work: a grid search in pure Python, then a zlib compression.

    The search uses what the router's Python layers are made of (heap,
    dict, tuples); the compression stands in for its compiled kernels,
    which a slow host slows less than the interpreter loop.  The work
    never changes, so its duration is a measure of host speed.
    """
    zlib.compress(_BYTES, 6)
    source, target = (0, 0), (_SIDE - 1, _SIDE - 1)
    dist = {source: 0}
    heap = [(0, source)]
    while heap:
        cost, (x, y) = heapq.heappop(heap)
        if (x, y) == target:
            return cost
        if cost > dist[(x, y)]:
            continue
        for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if 0 <= nx < _SIDE and 0 <= ny < _SIDE and (nx, ny) not in _BLOCKED:
                step = cost + 1 + abs(nx - target[0]) // 8
                if step < dist.get((nx, ny), 1 << 30):
                    dist[(nx, ny)] = step
                    heapq.heappush(heap, (step, (nx, ny)))
    raise AssertionError("the reference grid has a path")


class RefClock:
    """Reference samples taken during a run, and the divisor they give.

    ``maybe_sample`` takes a sample when at least ``interval_s`` of wall
    time passed since the last one; it is called between operations,
    never inside a timed one.  Safe to call from several threads: two
    threads that check at once may both sample, which only adds a
    sample, and the lock is not held while the loop runs.
    """

    def __init__(self, interval_s: float) -> None:
        self.interval_s = interval_s
        self._lock = threading.Lock()
        self._samples: List[Tuple[float, float]] = []  # (wall time, CPU s)
        self._last = -float("inf")

    def sample(self) -> None:
        started = time.perf_counter()
        cpu = time.thread_time()
        reference_loop()
        cpu = time.thread_time() - cpu
        with self._lock:
            self._samples.append((started, cpu))
            self._last = started

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= self.interval_s:
            self.sample()

    def samples(self) -> Tuple[List[float], List[float]]:
        """Sample times and durations (seconds), in time order."""
        with self._lock:
            ordered = sorted(self._samples)
        return [t for t, _ in ordered], [d for _, d in ordered]

    def ref_ms(self, wall_s: Sequence[float], at: Sequence[float]) -> List[float]:
        """Each wall duration in reference milliseconds (see module doc)."""
        times, durations = self.samples()
        if not times:
            raise ValueError("no reference samples were taken")
        return [w / local_reference(times, durations, t)
                for w, t in zip(wall_s, at)]

    def median_ms(self) -> float:
        """Median reference-loop duration of the run, in milliseconds."""
        return 1e3 * statistics.median(self.samples()[1])


def local_reference(times: Sequence[float], durations: Sequence[float],
                    at: float, nearest: int = NEAREST) -> float:
    """Median duration of the ``nearest`` samples closest in time to ``at``.

    ``times`` are sorted.  Fewer samples than ``nearest`` use them all.
    """
    if not times:
        raise ValueError("no reference samples")
    lo = hi = bisect.bisect_left(times, at)
    while hi - lo < nearest and (lo > 0 or hi < len(times)):
        if lo == 0:
            hi += 1
        elif hi == len(times) or at - times[lo - 1] <= times[hi] - at:
            lo -= 1
        else:
            hi += 1
    return statistics.median(durations[lo:hi])
