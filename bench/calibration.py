"""Host-speed calibration of the query timings the benchmark reports.

The benchmark runs on a few cores of a shared host whose speed drifts:
the same queries run up to half again as slow for tens of seconds at a
time, and a run is too short to average that out.  So the measured
process also times a fixed pure-Python loop, which does not touch the
engine, every `SPACING_S` of query time.  A query's time is scaled by
`REFERENCE_MS` over the median loop time within `WINDOW_S` of the query:
the result is the query's time on a host running the loop at the
reference speed.  An engine that gets slower gets slower in these units
too; a host that gets slower does not.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

# About the loop's median time between queries on the host of README.md,
# so that scaled times read close to wall times there
REFERENCE_MS = 0.11
SPACING_S = 0.01
WINDOW_S = 0.5


class _Cell:
    __slots__ = ("value", "next")

    def __init__(self, value, next_cell):
        self.value = value
        self.next = next_cell


def loop() -> int:
    """Fixed interpreter work of the kinds the engine does: tuples,
    frozensets, strings, sorting, dictionaries, sets and small objects.
    Several kinds rather than one, so that no single cache or branch
    effect sets its speed.  It makes no cycles; its callers switch the
    garbage collector off around it, so that the engine's heap, which a
    collection would walk, does not time it."""
    acc = 0
    items = [(f"{i % 13}:{i % 7}", i & 3, frozenset((i % 5, i % 3))) for i in range(40)]
    items.sort(key=lambda item: (item[1], item[0]))
    groups = {}
    for text, k, key in items:
        groups.setdefault(key, []).append(text)
        acc += len(text) + k
    cell = None
    for i in range(40):
        cell = _Cell(i, cell)
    while cell is not None:
        acc += cell.value
        cell = cell.next
    acc += sum(len(v) for v in groups.values())
    return acc + len(set(map(str, range(30))))


def _timed() -> tuple[float, float]:
    """Start (perf_counter seconds) and duration (ms) of one `loop`."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        loop()
        return t, (time.perf_counter() - t) * 1000.0
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Times `loop` at most every `SPACING_S` and scales timings by it."""

    def __init__(self) -> None:
        self.at: list = []  # start of each loop sample, perf_counter seconds
        self.ms: list = []  # its duration in ms
        self._next = float("-inf")

    def sample(self) -> None:
        t, ms = _timed()
        self.at.append(t)
        self.ms.append(ms)
        self._next = time.perf_counter() + SPACING_S


    def tick(self) -> None:
        """Samples the loop if `SPACING_S` has passed since the last sample."""
        if time.perf_counter() >= self._next:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_MS over the median loop time from `WINDOW_S` before
        `start` to `WINDOW_S` after `end`."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        window = self.ms[lo:hi] or self.ms
        return REFERENCE_MS / statistics.median(window)
