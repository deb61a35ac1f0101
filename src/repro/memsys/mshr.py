"""Miss status holding registers (MSHRs) for the L1-D cache.

The paper's MLP figure (Fig 9) is "MSHRs used per cycle on average", so the
file tracks an exact occupancy integral: ``occupancy * elapsed`` is
accumulated on every allocate/release transition.

``version`` moves on every allocation and release (and, from the
hierarchy, on every line install).  A full-miss refusal recorded at one
version is certain to repeat while the version stands, which lets the
core park a refused load instead of re-probing the caches every cycle.
"""

from __future__ import annotations

import heapq


class MshrFile:
    def __init__(self, num_entries):
        if num_entries < 1:
            raise ValueError(
                f"MSHR file needs at least one entry, got {num_entries}")
        self.num_entries = num_entries
        # line_addr -> fill cycle, for outstanding misses
        self._outstanding = {}
        self._release_heap = []  # (fill_cycle, line_addr)
        self.occupancy_integral = 0
        self._last_change = 0
        self.peak_occupancy = 0
        self.allocations = 0
        self.releases = 0
        self.full_rejections = 0
        self.version = 0

    def _advance(self, now):
        self.occupancy_integral += len(self._outstanding) * (now - self._last_change)
        self._last_change = now

    def drain(self, now):
        """Release every MSHR whose fill has arrived by ``now``."""
        heap = self._release_heap
        while heap and heap[0][0] <= now:
            fill_cycle, line_addr = heapq.heappop(heap)
            current = self._outstanding.get(line_addr)
            if current is not None and current <= now:
                self._advance(fill_cycle)
                del self._outstanding[line_addr]
                self.releases += 1
                self.version += 1

    def lookup(self, line_addr):
        """Fill cycle of an in-flight miss to this line, or None."""
        return self._outstanding.get(line_addr)

    def next_fill(self):
        """Cycle of the earliest outstanding fill, or None.

        Used by the core's event-driven fast-forward: an arriving fill is
        the only spontaneous memory-system event, so it bounds how far the
        simulator may jump.  The occupancy integral needs no span fix-up --
        :meth:`drain` already advances it exactly, fill by fill, no matter
        how coarsely ``now`` moves.
        """
        heap = self._release_heap
        return heap[0][0] if heap else None

    def available(self, now):
        self.drain(now)
        return self.num_entries - len(self._outstanding)

    def allocate(self, line_addr, fill_cycle, now):
        """Track a new outstanding miss.  Returns False if the file is full."""
        self.drain(now)
        if line_addr in self._outstanding:
            return True
        if len(self._outstanding) >= self.num_entries:
            self.full_rejections += 1
            return False
        self._advance(now)
        self._outstanding[line_addr] = fill_cycle
        heapq.heappush(self._release_heap, (fill_cycle, line_addr))
        self.allocations += 1
        self.version += 1
        if len(self._outstanding) > self.peak_occupancy:
            self.peak_occupancy = len(self._outstanding)
        return True

    def occupancy(self):
        return len(self._outstanding)

    def average_occupancy(self, now):
        """Average MSHRs in use per cycle over [0, now]."""
        if now <= 0:
            return 0.0
        self.drain(now)
        self._advance(now)
        return self.occupancy_integral / now
