"""Host-speed calibration, run by ``run.py`` between the measured rounds.

The hosts this benchmark runs on change speed by up to 2x within minutes
(other tenants share the cores and the memory system).  A fixed loop that
never touches the program, timed on the same core right before and after
each measured round, shows how fast the host was during that round;
``run.py`` scales each round's time by it, so two runs compare the
program, not the host.

The loop mixes the simulator's two kinds of cost: interpreter work on
small slotted objects, dicts and a heap, and dependent loads across a
16 MB table, larger than a core's own caches, as the program's garbage
collection makes over its heap.  It lives in the ``run.py`` process, so
its table never counts in the measured process's peak RSS.
"""

from __future__ import annotations

import gc
import heapq
import time
from array import array

#: Seconds :meth:`Calibrator.measure` takes on the reference host; times
#: are reported as they would read on a host this fast.
REFERENCE_S = 0.02

_TABLE_SLOTS = 1 << 22  # 4-byte slots: 16 MB
_CHASE_STEPS = 60_000
_OBJECT_STEPS = 10_000


class _Cell:
    __slots__ = ("key", "value")


class Calibrator:
    """Owns the chase table; :meth:`measure` times one pass of the loop."""

    def __init__(self) -> None:
        # A full-period linear congruential walk: every slot is visited,
        # in an order no prefetcher follows.
        mask = _TABLE_SLOTS - 1
        self._table = array("i", ((i * 1103515245 + 12345) & mask for i in range(_TABLE_SLOTS)))

    def measure(self) -> float:
        """Seconds for one fixed pass; GC is off so no collection is billed."""
        gc.disable()
        try:
            started = time.perf_counter()
            heap: list = []
            cells: dict = {}
            for i in range(_OBJECT_STEPS):
                cell = _Cell()
                cell.key = (i * 7919) & 1023
                cell.value = i
                cells[cell.key] = cell
                heapq.heappush(heap, (cell.key, i, cell))
                if len(heap) > 64:
                    heapq.heappop(heap)
            table = self._table
            slot = 0
            for _ in range(_CHASE_STEPS):
                slot = table[slot]
            return time.perf_counter() - started
        finally:
            gc.enable()
