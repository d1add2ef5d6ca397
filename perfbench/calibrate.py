"""A fixed reference loop that measures how fast the host runs Python right now.

Host timings on a shared machine drift by 20% and more within a minute as
neighbouring load comes and goes.  The worker times this loop just before
set-up and just after the measured phase; ``run.py`` scales host figures by
``REFERENCE_S / loop time``, so they read as if the host ran the loop in
exactly ``REFERENCE_S``.  The loop uses the interpreter the way the simulator
does (heap pushes and pops of tuples, dict stores, calls) and nothing from
the library, so a change to the library never changes it.
"""

import heapq
import time

#: Nominal time of one :func:`loop_seconds` on the reference host.
REFERENCE_S = 0.1
ITERATIONS = 87_000


def _step(heap, table, i):
    heapq.heappush(heap, ((i * 7919) % 1009, i))
    table[i & 1023] = i
    if len(heap) > 64:
        heapq.heappop(heap)


def loop_seconds() -> float:
    """Host seconds one pass of the reference loop takes."""
    heap, table = [], {}
    start = time.perf_counter()
    for i in range(ITERATIONS):
        _step(heap, table, i)
    return time.perf_counter() - start
