"""The three-level memory hierarchy with MSHRs, DRAM and prefetchers.

Timing model
------------
An access checks L1 -> L2 -> L3 -> DRAM, accumulating the per-level access
latencies (4 + 8 + 30 cycles) before the 200-cycle, bandwidth-contended
DRAM fetch.  Fills are installed into every level immediately but carry a
``ready_at`` cycle; accesses that arrive before the data does merge with
the in-flight fill (the MSHR secondary-miss case).  Every L1-D miss holds
one of the 24 MSHRs until its fill arrives; demand *and* runahead accesses
return ``None`` when no MSHR is free so the caller retries, while
fire-and-forget prefetches are simply dropped.

Refusal tokens
--------------
A full miss refused for want of an MSHR records the MSHR file's
``version`` in ``refused_miss_version``.  The line can enter L1/L2/L3
only through :meth:`MemoryHierarchy._install_all` (a DRAM fill, which
needs an MSHR, or an oracle load), and the file frees an entry only by
a release; both move the version.  So while the token matches and no
fill is due, a retry is certain to miss all three levels and be refused
again.  The core parks such loads and books their retries in bulk
through :meth:`MemoryHierarchy.record_parked_refusals`.  L2/L3-hit
refusals record no token (``-1``): each of their retries refreshes LRU.

Provenance statistics
---------------------
Every line remembers which agent fetched it.  The hierarchy records, per
source: DRAM fetches (Fig 10), lines prefetched and later used by the main
thread, and the level at which the main thread found each prefetched line
(Fig 11 timeliness: L1 / L2 / L3 / off-chip).
"""

from __future__ import annotations

from .cache import (Cache, CacheLine, LINE_SHIFT, PREFETCH_SOURCES,
                    SRC_DEMAND, SRC_ORACLE)
from .dram import Dram
from .imp import IndirectMemoryPrefetcher
from .mshr import MshrFile
from .stride_prefetcher import StridePrefetcher

LEVEL_L1 = "L1"
LEVEL_L2 = "L2"
LEVEL_L3 = "L3"
LEVEL_OFFCHIP = "Off-chip"
LEVELS = (LEVEL_L1, LEVEL_L2, LEVEL_L3, LEVEL_OFFCHIP)


class AccessResult:
    __slots__ = ("complete_cycle", "level", "line_source", "merged")

    def __init__(self, complete_cycle, level, line_source, merged=False):
        self.complete_cycle = complete_cycle
        self.level = level          # where the data was found
        self.line_source = line_source
        self.merged = merged        # joined an in-flight fill

    def __repr__(self):
        return (f"AccessResult(t={self.complete_cycle}, level={self.level}, "
                f"src={self.line_source}, merged={self.merged})")


class MemStats:
    """Counters the harness turns into the paper's figures."""

    def __init__(self):
        self.demand_loads = 0
        self.demand_stores = 0
        self.demand_hits = {level: 0 for level in LEVELS}
        self.dram_accesses = {}        # source -> count   (Fig 10)
        self.prefetch_issued = {}      # source -> line fills started
        self.prefetch_used = {}        # source -> lines later demand-hit
        self.prefetch_evicted_unused = {}
        self.timeliness = {}           # source -> {level: count}  (Fig 11)
        self.mshr_blocked = 0          # demand accesses refused (MSHR full)

    def _bump(self, table, source, amount=1):
        table[source] = table.get(source, 0) + amount

    def record_dram(self, source):
        self._bump(self.dram_accesses, source)

    def record_prefetch_issued(self, source):
        self._bump(self.prefetch_issued, source)

    def record_prefetch_used(self, source, level):
        self._bump(self.prefetch_used, source)
        per_level = self.timeliness.setdefault(
            source, {level_name: 0 for level_name in LEVELS})
        per_level[level] += 1

    def record_prefetch_evicted_unused(self, source):
        self._bump(self.prefetch_evicted_unused, source)

    def total_dram_accesses(self):
        return sum(self.dram_accesses.values())

    def accuracy(self, source):
        """Fraction of ``source``'s prefetched lines the main thread used."""
        issued = self.prefetch_issued.get(source, 0)
        if issued == 0:
            return 0.0
        return self.prefetch_used.get(source, 0) / issued


class MemoryHierarchy:
    def __init__(self, config, stride_config, imp_config, guest_memory):
        self.config = config
        self.guest_memory = guest_memory
        self.l1d = Cache(config.l1d, "L1-D")
        self.l2 = Cache(config.l2, "L2")
        self.l3 = Cache(config.l3, "L3")
        self.mshrs = MshrFile(config.l1d_mshrs)
        self.dram = Dram(config)
        self.stride_pf = StridePrefetcher(stride_config)
        self.imp = IndirectMemoryPrefetcher(imp_config, guest_memory,
                                            l1_cache=self.l1d)
        self.stats = MemStats()
        self.sanitizer = None       # attached by the harness (--sanitize)
        self.refused_miss_version = -1  # token of the last refusal
        self._l12_latency = config.l1d.latency + config.l2.latency
        self._l123_latency = self._l12_latency + config.l3.latency

    # ------------------------------------------------------------------
    # Core access machinery
    # ------------------------------------------------------------------
    def _found(self, line, level, complete, now, demand):
        """Common bookkeeping when an access finds a (possibly in-flight) line."""
        if line.ready_at > complete:
            # Data still in transit: merge with the in-flight fill.
            merged = True
            complete = line.ready_at
            found_level = (LEVEL_OFFCHIP if line.origin_level == LEVEL_OFFCHIP
                           else line.origin_level)
        else:
            merged = False
            found_level = level
        if demand:
            self.stats.demand_hits[found_level] += 1
            if line.source != SRC_DEMAND and not line.used:
                line.used = True
                self.stats.record_prefetch_used(line.source, found_level)
        return AccessResult(complete, found_level, line.source, merged)

    def _evict(self, evicted, level):
        if evicted is None:
            return
        _, line = evicted
        # A prefetched line leaving the last-level cache without ever being
        # demand-touched counts as an inaccurate prefetch.
        if level is self.l3 and line.source != SRC_DEMAND and not line.used:
            self.stats.record_prefetch_evicted_unused(line.source)

    def _install_all(self, line_addr, line, into_l1=True):
        self.mshrs.version += 1     # a refused miss's line may now be here
        self._evict(self.l3.install(line_addr, line), self.l3)
        self._evict(self.l2.install(line_addr, line), self.l2)
        if into_l1:
            self._evict(self.l1d.install(line_addr, line), self.l1d)

    def access(self, addr, now, source, demand):
        """Timed load access.  Returns an AccessResult, or None when the
        access needs an MSHR and none is free (caller must retry)."""
        line_addr = addr >> LINE_SHIFT
        l1_complete = now + self.l1d.latency

        line = self.l1d.lookup(line_addr)
        if line is not None:
            return self._found(line, LEVEL_L1, l1_complete, now, demand)

        line = self.l2.lookup(line_addr)
        if line is not None:
            complete = now + self._l12_latency
            if not self.mshrs.allocate(line_addr, complete, now):
                if demand:
                    self.stats.mshr_blocked += 1
                self.refused_miss_version = -1
                return None
            result = self._found(line, LEVEL_L2, complete, now, demand)
            self._evict(self.l1d.install(line_addr, line), self.l1d)
            return result

        line = self.l3.lookup(line_addr)
        if line is not None:
            complete = now + self._l123_latency
            if not self.mshrs.allocate(line_addr, complete, now):
                if demand:
                    self.stats.mshr_blocked += 1
                self.refused_miss_version = -1
                return None
            result = self._found(line, LEVEL_L3, complete, now, demand)
            self._evict(self.l2.install(line_addr, line), self.l2)
            self._evict(self.l1d.install(line_addr, line), self.l1d)
            return result

        # Full miss: fetch from DRAM.
        if self.mshrs.available(now) <= 0:
            if demand:
                self.stats.mshr_blocked += 1
            self.refused_miss_version = self.mshrs.version
            return None
        fill_cycle = self.dram.request(now + self._l123_latency)
        self.mshrs.allocate(line_addr, fill_cycle, now)
        self.stats.record_dram(source)
        if source in PREFETCH_SOURCES:
            self.stats.record_prefetch_issued(source)
        new_line = CacheLine(source, fill_cycle, LEVEL_OFFCHIP)
        if demand:
            new_line.source = SRC_DEMAND  # demand fills carry no provenance
            self.stats.demand_hits[LEVEL_OFFCHIP] += 1
        self._install_all(line_addr, new_line)
        return AccessResult(fill_cycle, LEVEL_OFFCHIP, new_line.source)

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def demand_load(self, addr, pc, value, now):
        """Main-thread load.  Trains the prefetchers.  May return None
        when blocked on a full MSHR file (retry next cycle)."""
        result = self.access(addr, now, SRC_DEMAND, demand=True)
        if result is None:
            return None
        self.stats.demand_loads += 1
        self._train_prefetchers(pc, addr, value, result, now)
        return result

    def record_parked_refusals(self, count):
        """Book ``count`` retries of parked demand loads, each exactly as
        :meth:`access` would have: a miss at L1, L2 and L3 and one
        ``mshr_blocked``."""
        self.l1d.misses += count
        self.l2.misses += count
        self.l3.misses += count
        self.stats.mshr_blocked += count

    def demand_store(self, addr, now):
        """Main-thread store (write-allocate, store buffer hides latency)."""
        self.stats.demand_stores += 1
        line_addr = addr >> LINE_SHIFT
        line = self.l1d.lookup(line_addr)
        if line is not None:
            return now + self.l1d.latency
        result = self.access(addr, now, SRC_DEMAND, demand=False)
        if result is None:
            # MSHR-full write miss: the store buffer would retry; we let the
            # store complete without filling the line.
            return now + self.l1d.latency
        return now + self.l1d.latency

    def runahead_load(self, addr, now, source):
        """Timed load from a runahead engine (PRE chain walk, VR/DVR lanes).

        Counts as a prefetch for provenance but returns real completion
        timing, because dependent indirect levels must wait for the value.
        Returns None when no MSHR is free.
        """
        return self.access(addr, now, source, demand=False)

    def prefetch(self, addr, now, source):
        """Fire-and-forget prefetch into the L1-D.  Dropped when the line
        is already resident/in-flight or no MSHR is free."""
        if not (0 <= addr < self.guest_memory.size_bytes):
            return False
        line_addr = addr >> LINE_SHIFT
        if self.l1d.contains(line_addr):
            return False
        result = self.access(addr, now, source, demand=False)
        return result is not None

    def oracle_load(self, addr, now):
        """Perfect-prefetch load: latency is fully hidden (L1 hit) but a
        first touch of a line still spends one DRAM line-transfer slot --
        the Oracle cannot exceed memory bandwidth."""
        line_addr = addr >> LINE_SHIFT
        line = self.l1d.lookup(line_addr)
        if line is not None:
            self.stats.demand_hits[LEVEL_L1] += 1
            return now + self.l1d.latency
        line = self.l2.lookup(line_addr) or self.l3.lookup(line_addr)
        if line is not None:
            self._evict(self.l1d.install(line_addr, line), self.l1d)
            self.stats.demand_hits[LEVEL_L1] += 1
            return now + self.l1d.latency
        slot = self.dram.occupy()
        self.stats.record_dram(SRC_ORACLE)
        self.stats.demand_hits[LEVEL_L1] += 1
        new_line = CacheLine(SRC_DEMAND, 0, LEVEL_L1)
        self._install_all(line_addr, new_line)
        return max(now + self.l1d.latency, slot)

    def tick(self, now):
        self.mshrs.drain(now)
        if self.sanitizer is not None:
            self.sanitizer.on_mem_tick(self, now)

    # ------------------------------------------------------------------
    def _train_prefetchers(self, pc, addr, value, result, now):
        stride_entry_existed = self.stride_pf.is_striding(pc)
        for target in self.stride_pf.observe(pc, addr):
            if 0 <= target < self.guest_memory.size_bytes:
                self.prefetch(target, now, "stride")
        if not self.imp.enabled:
            return
        if result.level != LEVEL_L1:
            self.imp.observe_miss(addr)
        if stride_entry_existed or self.stride_pf.is_striding(pc):
            entry = self.stride_pf.entry(pc)
            stride = entry.stride if entry is not None else 0
            for target in self.imp.observe_index_load(pc, addr, value, stride):
                self.prefetch(target, now, "imp")

    def mlp(self, now):
        """Average MSHRs occupied per cycle (Fig 9)."""
        return self.mshrs.average_occupancy(now)
