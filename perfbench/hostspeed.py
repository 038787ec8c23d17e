"""Host speed, read from a fixed pure-Python routine.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent within minutes, and its guest clocks do not show it: the
process is charged CPU time while the host runs someone else. A run
therefore samples a fixed routine between its operations (and around each
set-up) and reports its times scaled to a host on which the routine takes
:data:`REFERENCE_MS`::

    reported = measured * REFERENCE_MS / mean(samples taken around it)

The mean, not the median, because a sample is shorter than the host's time
slice: when the host shares the core, some samples wait out another tenant's
slice and most do not, while every operation, a second long, waits out its
share of slices.

The routine has two halves of about equal time: integer arithmetic, and
object, heap and dict work like the event loop's. When the host is busy the
second half slows down more than the first and the program's operations
fall in between. With one sim cell run back to back for 4 and 8 minutes on
a 2-vCPU VM, the spread (IQR / median) of its 25-second median wall times
was 0.16 and 0.12 unscaled, 0.036 and 0.108 scaled by arithmetic alone, and
0.028 and 0.068 scaled by both halves.

The routine does not touch the program, so a change to the program moves
the reported figure exactly as it moves the measured one; the measured
figure and the samples are printed next to it.
"""

import heapq
import statistics
from time import perf_counter
from typing import Iterable, List

#: Iterations of each half; together about 12 ms on a 2 GHz Xeon vCPU.
ARITHMETIC_LOOP = 75_000
OBJECT_LOOP = 6_000
#: Routine time, in milliseconds, of the host that reported figures refer to.
REFERENCE_MS = 12.0


class _Entry:
    __slots__ = ("key", "hits")

    def __init__(self, key: int) -> None:
        self.key = key
        self.hits = 0


def sample_ms() -> float:
    """Wall milliseconds of one pass of the routine: host speed at this moment."""
    started = perf_counter()
    total = 0
    for value in range(ARITHMETIC_LOOP):
        total += value * value
    heap: list = []
    table: dict = {}
    entries = [_Entry(index % 97) for index in range(64)]
    for index in range(OBJECT_LOOP):
        heapq.heappush(heap, ((index * 7919) % 1009, index, entries[index % 64]))
        if len(heap) > 32:
            entry = heapq.heappop(heap)[2]
            entry.hits += 1
            table[entry.key] = table.get(entry.key, 0) + entry.hits
    return (perf_counter() - started) * 1e3


def samples(count: int) -> List[float]:
    return [sample_ms() for _ in range(count)]


def scale(taken: Iterable[float]) -> float:
    """Factor that turns a time measured while ``taken`` were sampled into
    the time at reference speed."""
    return REFERENCE_MS / statistics.fmean(taken)
