"""Tests for the full memory hierarchy: latencies, MSHR merging,
provenance statistics, prefetch paths and the oracle model."""

import pytest

from repro.config import ImpConfig, MemSysConfig, StridePrefetcherConfig
from repro.isa import GuestMemory
from repro.memsys import (LEVEL_L1, LEVEL_L2, LEVEL_L3, LEVEL_OFFCHIP,
                          MemoryHierarchy, SRC_DEMAND, SRC_DVR)
from repro.memsys.cache import CacheLine


def make_hierarchy(stride_enabled=False, imp_enabled=False, **memsys):
    mem = GuestMemory(64 * 1024 * 1024)
    hierarchy = MemoryHierarchy(
        MemSysConfig(**memsys),
        StridePrefetcherConfig(enabled=stride_enabled),
        ImpConfig(enabled=imp_enabled),
        mem)
    return hierarchy, mem


class TestAccessLatencies:
    def test_cold_miss_goes_to_dram(self):
        hierarchy, _ = make_hierarchy()
        result = hierarchy.demand_load(0x10000, pc=1, value=0, now=100)
        assert result.level == LEVEL_OFFCHIP
        # l1+l2+l3 tag path (42) + 200 DRAM
        assert result.complete_cycle == 100 + 42 + 200

    def test_l1_hit_after_fill(self):
        hierarchy, _ = make_hierarchy()
        first = hierarchy.demand_load(0x10000, 1, 0, 100)
        later = first.complete_cycle + 10
        result = hierarchy.demand_load(0x10000, 1, 0, later)
        assert result.level == LEVEL_L1
        assert result.complete_cycle == later + 4

    def test_l2_hit_after_l1_eviction(self):
        hierarchy, _ = make_hierarchy()
        hierarchy.demand_load(0x10000, 1, 0, 0)
        hierarchy.tick(400)
        # Evict from L1 by filling its set: same set = same low bits.
        l1_sets = hierarchy.l1d.num_sets
        for way in range(1, 10):
            addr = 0x10000 + way * l1_sets * 64
            hierarchy.demand_load(addr, 1, 0, 400 + way)
            hierarchy.tick(1000 + way * 300)
        assert not hierarchy.l1d.contains(0x10000 >> 6)
        result = hierarchy.demand_load(0x10000, 1, 0, 10_000)
        assert result.level == LEVEL_L2
        assert result.complete_cycle == 10_000 + 4 + 8

    def test_inflight_merge(self):
        hierarchy, _ = make_hierarchy()
        first = hierarchy.demand_load(0x10000, 1, 0, 0)
        merged = hierarchy.demand_load(0x10020, 1, 0, 50)  # same line
        assert merged.merged
        assert merged.complete_cycle == first.complete_cycle
        assert merged.level == LEVEL_OFFCHIP

    def test_same_line_counts_one_dram_access(self):
        hierarchy, _ = make_hierarchy()
        hierarchy.demand_load(0x10000, 1, 0, 0)
        hierarchy.demand_load(0x10008, 1, 0, 1)
        assert hierarchy.stats.dram_accesses[SRC_DEMAND] == 1


class TestMshrPressure:
    def test_demand_blocked_when_mshrs_full(self):
        hierarchy, _ = make_hierarchy()
        for k in range(24):
            assert hierarchy.demand_load(0x10000 + k * 64, 1, 0, 0) is not None
        blocked = hierarchy.demand_load(0x80000, 1, 0, 0)
        assert blocked is None
        assert hierarchy.stats.mshr_blocked == 1

    def test_retry_succeeds_after_fill(self):
        hierarchy, _ = make_hierarchy()
        for k in range(24):
            hierarchy.demand_load(0x10000 + k * 64, 1, 0, 0)
        result = hierarchy.demand_load(0x80000, 1, 0, 500)
        assert result is not None

    def test_prefetch_dropped_when_full(self):
        hierarchy, _ = make_hierarchy()
        for k in range(24):
            hierarchy.demand_load(0x10000 + k * 64, 1, 0, 0)
        assert not hierarchy.prefetch(0x90000, 0, SRC_DVR)

    def test_hierarchy_without_mshrs_rejected(self):
        with pytest.raises(ValueError, match="at least one entry"):
            make_hierarchy(l1d_mshrs=0)


def fill_mshrs(hierarchy, now=0):
    for k in range(hierarchy.mshrs.num_entries):
        assert hierarchy.demand_load(0x10000 + k * 64, 1, 0, now) is not None


class TestRefusalToken:
    def test_install_moves_version(self):
        hierarchy, _ = make_hierarchy()
        version = hierarchy.mshrs.version
        hierarchy.oracle_load(0x50000, 0)   # installs without an MSHR
        assert hierarchy.mshrs.version == version + 1

    def test_full_miss_refusal_records_version(self):
        hierarchy, _ = make_hierarchy()
        fill_mshrs(hierarchy)
        assert hierarchy.demand_load(0x80000, 1, 0, 5) is None
        assert hierarchy.refused_miss_version == hierarchy.mshrs.version

    def test_l2_hit_refusal_records_no_token(self):
        hierarchy, _ = make_hierarchy()
        hierarchy.l2.install(0x80000 >> 6, CacheLine(SRC_DEMAND, 0, LEVEL_L2))
        fill_mshrs(hierarchy)
        hierarchy.refused_miss_version = hierarchy.mshrs.version
        assert hierarchy.demand_load(0x80000, 1, 0, 5) is None
        assert hierarchy.refused_miss_version == -1

    def test_parked_refusal_books_what_a_real_refusal_does(self):
        hierarchy, _ = make_hierarchy()
        fill_mshrs(hierarchy)

        def counters():
            return (hierarchy.l1d.misses, hierarchy.l2.misses,
                    hierarchy.l3.misses, hierarchy.stats.mshr_blocked)

        before = counters()
        assert hierarchy.demand_load(0x80000, 1, 0, 5) is None
        real = counters()
        hierarchy.record_parked_refusals(3)
        parked = counters()
        assert [r - b for r, b in zip(real, before)] == [1, 1, 1, 1]
        assert [p - r for p, r in zip(parked, real)] == [3, 3, 3, 3]


class TestProvenance:
    def test_prefetch_then_demand_hit_records_use(self):
        hierarchy, _ = make_hierarchy()
        hierarchy.prefetch(0x20000, 0, SRC_DVR)
        hierarchy.demand_load(0x20000, 1, 0, 1000)
        assert hierarchy.stats.prefetch_used[SRC_DVR] == 1
        assert hierarchy.stats.timeliness[SRC_DVR][LEVEL_L1] == 1

    def test_use_counted_once_per_line(self):
        hierarchy, _ = make_hierarchy()
        hierarchy.prefetch(0x20000, 0, SRC_DVR)
        hierarchy.demand_load(0x20000, 1, 0, 1000)
        hierarchy.demand_load(0x20000, 1, 0, 1010)
        assert hierarchy.stats.prefetch_used[SRC_DVR] == 1

    def test_late_prefetch_counts_offchip(self):
        hierarchy, _ = make_hierarchy()
        hierarchy.prefetch(0x20000, 0, SRC_DVR)
        hierarchy.demand_load(0x20000, 1, 0, 10)  # fill still in flight
        assert hierarchy.stats.timeliness[SRC_DVR][LEVEL_OFFCHIP] == 1

    def test_dram_accesses_attributed_to_source(self):
        hierarchy, _ = make_hierarchy()
        hierarchy.prefetch(0x20000, 0, SRC_DVR)
        hierarchy.demand_load(0x30000, 1, 0, 0)
        assert hierarchy.stats.dram_accesses[SRC_DVR] == 1
        assert hierarchy.stats.dram_accesses[SRC_DEMAND] == 1

    def test_accuracy_helper(self):
        hierarchy, _ = make_hierarchy()
        hierarchy.prefetch(0x20000, 0, SRC_DVR)
        hierarchy.prefetch(0x30000, 0, SRC_DVR)
        hierarchy.demand_load(0x20000, 1, 0, 1000)
        assert hierarchy.stats.accuracy(SRC_DVR) == 0.5

    def test_store_path_touches_only_store_stats(self):
        hierarchy, _ = make_hierarchy()
        hierarchy.demand_store(0x20000, 0)                 # write miss
        hierarchy.tick(1000)
        hierarchy.demand_store(0x20000, 1000)              # write hit
        assert hierarchy.stats.demand_stores == 2
        assert hierarchy.stats.demand_loads == 0
        assert all(count == 0
                   for count in hierarchy.stats.demand_hits.values())


class TestPrefetchPath:
    def test_prefetch_resident_line_is_noop(self):
        hierarchy, _ = make_hierarchy()
        hierarchy.demand_load(0x20000, 1, 0, 0)
        assert not hierarchy.prefetch(0x20000, 10, SRC_DVR)

    def test_prefetch_out_of_bounds_rejected(self):
        hierarchy, mem = make_hierarchy()
        assert not hierarchy.prefetch(mem.size_bytes + 64, 0, SRC_DVR)

    def test_runahead_load_returns_timing(self):
        hierarchy, _ = make_hierarchy()
        result = hierarchy.runahead_load(0x20000, 0, SRC_DVR)
        assert result.complete_cycle == 242


class TestStrideIntegration:
    def test_stride_stream_triggers_prefetches(self):
        hierarchy, _ = make_hierarchy(stride_enabled=True)
        now = 0
        for k in range(8):
            now += 50
            hierarchy.demand_load(0x40000 + k * 64, pc=7, value=0, now=now)
        assert hierarchy.stats.prefetch_issued.get("stride", 0) > 0

    def test_stride_prefetch_hits_help_later_demand(self):
        hierarchy, _ = make_hierarchy(stride_enabled=True)
        now = 0
        for k in range(6):
            now += 300
            hierarchy.demand_load(0x40000 + k * 64, pc=7, value=0, now=now)
        # By now the prefetcher runs ahead; the next access should hit.
        result = hierarchy.demand_load(0x40000 + 6 * 64, 7, 0, now + 300)
        assert result.level in (LEVEL_L1, LEVEL_L2)


class TestOracle:
    def test_oracle_load_is_l1_latency(self):
        hierarchy, _ = make_hierarchy()
        complete = hierarchy.oracle_load(0x50000, 1000)
        assert complete == 1004

    def test_oracle_spends_bandwidth(self):
        hierarchy, _ = make_hierarchy()
        hierarchy.oracle_load(0x50000, 0)
        hierarchy.oracle_load(0x51000, 0)
        assert hierarchy.stats.dram_accesses["oracle"] == 2

    def test_oracle_resident_line_free(self):
        hierarchy, _ = make_hierarchy()
        hierarchy.oracle_load(0x50000, 0)
        hierarchy.oracle_load(0x50000, 10)
        assert hierarchy.stats.dram_accesses["oracle"] == 1

    def test_oracle_bandwidth_bound_under_burst(self):
        hierarchy, _ = make_hierarchy()
        completes = [hierarchy.oracle_load(0x100000 + k * 64, now=0)
                     for k in range(200)]
        # 200 lines need >= 1000 channel cycles; latency cannot be hidden
        # below the bandwidth floor.
        assert completes[-1] >= 199 * 5
