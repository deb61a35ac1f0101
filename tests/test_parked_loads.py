"""Parked loads must be invisible in the results.

A demand load refused on a full miss because no MSHR is free is
*parked*: while the MSHR file's version stands and no fill is due, the
core books each retry without probing the caches (DESIGN.md, "Key
modelling decisions").  The reference here is a hierarchy that never
records a refusal token, so its core re-probes L1/L2/L3 on every retry
as it did before parking existed.  Both must agree on every metric and
on every internal cache and MSHR counter.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.config import SimConfig
from repro.harness import runner
from repro.memsys.hierarchy import MemoryHierarchy
from repro.workloads import make_workload


class CountingHierarchy(MemoryHierarchy):
    """Counts the retries the core booked through the parked path."""

    parked_refusals = 0

    def record_parked_refusals(self, count):
        self.parked_refusals += count
        super().record_parked_refusals(count)


class UnparkedHierarchy(CountingHierarchy):
    """Records no refusal token, so the core parks no load."""

    def access(self, addr, now, source, demand):
        result = super().access(addr, now, source, demand)
        self.refused_miss_version = -1
        return result


def _config(technique, mshrs, instructions=2000, **kwargs):
    config = SimConfig(max_instructions=instructions,
                       **kwargs).with_technique(technique)
    return replace(config, memsys=replace(config.memsys, l1d_mshrs=mshrs))


def _simulate(monkeypatch, hierarchy_class, workload, config):
    monkeypatch.setattr(runner, "MemoryHierarchy", hierarchy_class)
    built = make_workload(workload).build(
        memory_bytes=config.memsys.guest_memory_bytes, seed=12345)
    core = runner.build_sim(built, config)
    core.run()
    hierarchy = core.hierarchy
    mshrs = hierarchy.mshrs
    counters = {cache.name: (cache.hits, cache.misses)
                for cache in (hierarchy.l1d, hierarchy.l2, hierarchy.l3)}
    counters["mshr"] = (mshrs.allocations, mshrs.releases,
                        mshrs.full_rejections, mshrs.occupancy_integral)
    metrics = runner.collect_metrics(built, config, core).to_dict()
    return metrics, counters, core


@pytest.mark.parametrize("mshrs", [2, 24])
@pytest.mark.parametrize("technique", ["ooo", "pre", "imp", "vr", "dvr"])
@pytest.mark.parametrize("workload", ["nas-is", "camel"])
def test_parking_is_bit_identical(monkeypatch, workload, technique, mshrs):
    config = _config(technique, mshrs)
    ref_metrics, ref_counters, ref_core = _simulate(
        monkeypatch, UnparkedHierarchy, workload, config)
    metrics, counters, core = _simulate(
        monkeypatch, CountingHierarchy, workload, config)
    assert metrics == ref_metrics
    assert counters == ref_counters
    assert ref_core.hierarchy.parked_refusals == 0
    assert core.hierarchy.parked_refusals > 0    # not vacuous


def test_parked_path_holds_under_sanitizer(monkeypatch):
    # The sanitizer re-checks every parked load on every stepped cycle:
    # line absent from L1/L2/L3, MSHR file full.
    config = _config("dvr", 2, sanitize=True)
    _, _, core = _simulate(monkeypatch, CountingHierarchy, "nas-is", config)
    assert core.hierarchy.parked_refusals > 0
    assert core.sanitizer.checks > 1_000
