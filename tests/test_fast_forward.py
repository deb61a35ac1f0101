"""Event-driven fast-forwarding must be invisible in the results.

The whole contract of the cycle-skipping scheduler (DESIGN.md, "Event-
driven scheduling") is that ``fast_forward`` is a pure wall-clock
optimization: every statistic -- cycles, CPI stack, ROB-stall counters,
MSHR occupancy integral, engine stats -- is bit-identical with it on or
off, for every engine.  These tests pin that equivalence across the
engine matrix, check the config digest tracks the toggle, and prove the
skipper actually engages on a latency-bound workload: the memory-bound
smoke matrix's cycle and fast-forward counts are pinned exactly, so a
change that skips fewer cycles fails here on any host.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.config import SimConfig, config_digest
from repro.harness.runner import (build_sim, collect_metrics, run_built,
                                  run_workload)
from repro.workloads import make_workload
from repro.workloads.chase import build_chase

ENGINE_MATRIX = [
    # (technique, stride prefetcher enabled): "none" is the bare OoO
    # core, "stride" the shipping default.
    pytest.param("ooo", False, id="none"),
    pytest.param("ooo", True, id="stride"),
    pytest.param("pre", True, id="pre"),
    pytest.param("vr", True, id="vr"),
    pytest.param("dvr", True, id="dvr"),
]


def _run_pair(workload_name, technique, stride_enabled,
              instructions=2000):
    results = []
    for fast_forward in (True, False):
        config = SimConfig(max_instructions=instructions,
                           fast_forward=fast_forward
                           ).with_technique(technique)
        config = replace(config, stride_pf=replace(
            config.stride_pf, enabled=stride_enabled))
        metrics = run_workload(make_workload(workload_name), config)
        payload = metrics.to_dict()
        payload.pop("config")        # differs by the toggle itself
        results.append(payload)
    return results


class TestEquivalence:
    @pytest.mark.parametrize("technique, stride_enabled", ENGINE_MATRIX)
    def test_camel_metrics_bit_identical(self, technique, stride_enabled):
        on, off = _run_pair("camel", technique, stride_enabled)
        assert on == off

    @pytest.mark.parametrize("technique, stride_enabled", ENGINE_MATRIX)
    def test_nas_is_metrics_bit_identical(self, technique, stride_enabled):
        on, off = _run_pair("nas-is", technique, stride_enabled)
        assert on == off

    @pytest.mark.parametrize("technique", ["ooo", "pre", "vr", "dvr"])
    def test_pointer_chase_bit_identical(self, technique):
        # The serial chase is the worst case: nearly every cycle is a
        # skippable stall, so any attribution slip would surface here.
        results = []
        for fast_forward in (True, False):
            config = SimConfig(max_instructions=2000,
                               fast_forward=fast_forward
                               ).with_technique(technique)
            metrics = run_built(build_chase(entries=1 << 12), config)
            payload = metrics.to_dict()
            payload.pop("config")
            results.append(payload)
        assert results[0] == results[1]


class TestRunToCompletion:
    def test_halt_drain_is_not_a_deadlock(self):
        # The cycle in which HALT commits is quiescent with no events
        # left; it must end the run, not trip the deadlock guard.
        results = []
        for fast_forward in (True, False):
            config = SimConfig(max_instructions=100_000,
                               fast_forward=fast_forward)
            metrics = run_built(build_chase(entries=1 << 10), config)
            payload = metrics.to_dict()
            payload.pop("config")
            results.append(payload)
        assert results[0] == results[1]
        assert results[0]["cycles"] > 0


class TestEngagement:
    def test_fast_forward_skips_cycles_on_chase(self):
        config = SimConfig(max_instructions=2000, fast_forward=True)
        built = build_chase(entries=1 << 12)
        from repro.harness.runner import build_engine
        from repro.memsys.hierarchy import MemoryHierarchy
        from repro.uarch.core import OoOCore
        hierarchy = MemoryHierarchy(config.memsys, config.stride_pf,
                                    config.imp, built.memory)
        engine = build_engine(config, built.program, built.memory, hierarchy)
        core = OoOCore(built.program, built.memory, config, hierarchy,
                       engine=engine)
        stats = core.run()
        assert stats.fast_forward_spans > 0
        # A serial chase stalls for most of its execution.
        assert stats.fast_forward_cycles > stats.cycles // 2

    def test_disabled_toggle_never_skips(self):
        config = SimConfig(max_instructions=2000, fast_forward=False)
        built = build_chase(entries=1 << 12)
        from repro.harness.runner import build_engine
        from repro.memsys.hierarchy import MemoryHierarchy
        from repro.uarch.core import OoOCore
        hierarchy = MemoryHierarchy(config.memsys, config.stride_pf,
                                    config.imp, built.memory)
        engine = build_engine(config, built.program, built.memory, hierarchy)
        core = OoOCore(built.program, built.memory, config, hierarchy,
                       engine=engine)
        stats = core.run()
        assert stats.fast_forward_spans == 0
        assert stats.fast_forward_cycles == 0


def _memory_bound_config(technique):
    """10k instructions with L2/L3 shrunk below the working sets and the
    stride prefetcher off, so loads reach DRAM and the core spends most
    cycles in full-ROB stalls, the regime fast-forward skips."""
    config = SimConfig(max_instructions=10_000).with_technique(technique)
    memsys = replace(config.memsys,
                     l2=replace(config.memsys.l2, size_bytes=32 * 1024),
                     l3=replace(config.memsys.l3, size_bytes=64 * 1024))
    return replace(config, memsys=memsys,
                   stride_pf=replace(config.stride_pf, enabled=False))


def _simulate(workload, config):
    """(cycles, committed, fast-forward cycles and spans), Metrics."""
    if workload == "chase":
        built = build_chase()
    else:
        built = make_workload(workload).build(
            memory_bytes=config.memsys.guest_memory_bytes, seed=12345)
    core = build_sim(built, config)
    stats = core.run()
    counts = (stats.cycles, stats.committed, stats.fast_forward_cycles,
              stats.fast_forward_spans)
    return counts, collect_metrics(built, config, core)


class TestPinnedSmokeMatrix:
    # fast_forward is left at SimConfig's default, so turning the default
    # off fails these pins too.
    @pytest.mark.parametrize("workload, technique, pinned", [
        pytest.param("chase", "ooo", (558551, 10000, 548462, 2385),
                     id="chase-ooo"),
        pytest.param("chase", "dvr", (558551, 10000, 548462, 2385),
                     id="chase-dvr"),
        pytest.param("camel", "ooo", (21270, 10000, 14647, 460),
                     id="camel-ooo"),
        pytest.param("graph500", "ooo", (114373, 10004, 107627, 1778),
                     id="graph500-ooo"),
    ])
    def test_counts_pinned_and_sanitized_run_identical(
            self, workload, technique, pinned):
        config = _memory_bound_config(technique)
        counts, plain = _simulate(workload, config)
        assert counts == pinned
        sanitized_counts, sanitized = _simulate(
            workload, replace(config, sanitize=True))
        assert sanitized_counts == pinned
        plain, sanitized = plain.to_dict(), sanitized.to_dict()
        plain.pop("config")
        sanitized.pop("config")
        assert sanitized == plain


class TestConfigDigest:
    def test_digest_tracks_fast_forward_field(self):
        on = SimConfig(fast_forward=True)
        off = SimConfig(fast_forward=False)
        assert config_digest(on) != config_digest(off)
        assert config_digest(on) == config_digest(SimConfig())
