"""Configuration dataclasses for the whole simulator.

:func:`paper_config` reproduces Table 1 of the paper (the baseline OoO
core inspired by Intel Ice Lake, simulated at 4 GHz).

Every config dataclass is frozen: a variant is a copy made with
``dataclasses.replace``, :meth:`SimConfig.with_technique` or
:meth:`SimConfig.with_rob`, so a ``JobSpec`` key computed from a config
can never go stale under it.
"""

from __future__ import annotations

import functools
import hashlib
import json
import typing
from dataclasses import dataclass, field, fields, is_dataclass, replace


# Technique identifiers (see repro.harness.runner for dispatch)
TECH_OOO = "ooo"            # baseline out-of-order core (stride pf only)
TECH_PRE = "pre"            # Precise Runahead Execution
TECH_IMP = "imp"            # Indirect Memory Prefetcher at L1-D
TECH_VR = "vr"              # Vector Runahead
TECH_DVR = "dvr"            # Decoupled Vector Runahead (full)
TECH_DVR_OFFLOAD = "dvr-offload"      # Fig 8: offload only (no discovery)
TECH_DVR_DISCOVERY = "dvr-discovery"  # Fig 8: offload + discovery (no nested)
TECH_ORACLE = "oracle"      # perfect prefetching

ALL_TECHNIQUES = (TECH_OOO, TECH_PRE, TECH_IMP, TECH_VR, TECH_DVR,
                  TECH_ORACLE)
DVR_BREAKDOWN = (TECH_VR, TECH_DVR_OFFLOAD, TECH_DVR_DISCOVERY, TECH_DVR)


@dataclass(frozen=True)
class FuncUnit:
    """One class of functional unit: ``count`` units of ``latency`` cycles."""

    count: int
    latency: int


@dataclass(frozen=True)
class CoreConfig:
    """Out-of-order core parameters (paper Table 1)."""

    frequency_ghz: float = 4.0
    width: int = 5                   # fetch/dispatch/rename/commit width
    rob_size: int = 350
    issue_queue_size: int = 128
    load_queue_size: int = 128
    store_queue_size: int = 72
    frontend_stages: int = 15        # misprediction redirect penalty
    fetch_buffer_size: int = 8       # decoded micro-op buffer (DVR reuses it)
    int_alu: FuncUnit = field(default_factory=lambda: FuncUnit(4, 1))
    int_mul: FuncUnit = field(default_factory=lambda: FuncUnit(1, 3))
    int_div: FuncUnit = field(default_factory=lambda: FuncUnit(1, 18))
    mem_ports: int = 2               # load/store issue ports
    phys_int_regs: int = 256
    phys_vec_regs: int = 128


@dataclass(frozen=True)
class CacheConfig:
    size_bytes: int
    assoc: int
    latency: int                     # access latency in cycles
    line_bytes: int = 64

    @property
    def num_sets(self):
        return self.size_bytes // (self.line_bytes * self.assoc)


@dataclass(frozen=True)
class MemSysConfig:
    """Memory hierarchy parameters (paper Table 1)."""

    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * 1024, 4, 2))
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * 1024, 8, 4))
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(256 * 1024, 8, 8))
    l3: CacheConfig = field(
        default_factory=lambda: CacheConfig(8 * 1024 * 1024, 16, 30))
    l1d_mshrs: int = 24
    dram_latency_cycles: int = 200   # 50 ns at 4 GHz
    # 51.2 GB/s at 4 GHz = 12.8 B/cycle -> one 64 B line per 5 cycles
    dram_line_interval: int = 5
    guest_memory_bytes: int = 256 * 1024 * 1024


@dataclass(frozen=True)
class StridePrefetcherConfig:
    """Always-on L1-D stride prefetcher (16 streams, paper Table 1)."""

    enabled: bool = True
    streams: int = 16
    degree: int = 2                  # prefetches issued per trigger
    distance: int = 4                # how far ahead (in strides)
    train_threshold: int = 2         # identical strides before prefetching


@dataclass(frozen=True)
class ImpConfig:
    """Indirect Memory Prefetcher (Yu et al., MICRO 2015), at L1-D."""

    enabled: bool = False
    table_entries: int = 16
    candidates: int = 4              # (base, shift) candidates per entry
    distance: int = 16               # index-stream lookahead
    degree: int = 4                  # indirect prefetches per trigger
    confidence_threshold: int = 2


@dataclass(frozen=True)
class BranchConfig:
    """TAGE-lite predictor sized to roughly 8 KB."""

    bimodal_bits: int = 12           # 4096-entry base predictor
    tagged_tables: int = 4
    tagged_bits: int = 10            # 1024 entries per tagged table
    tag_bits: int = 9
    history_lengths: tuple = (4, 8, 16, 32)
    btb_bits: int = 11


@dataclass(frozen=True)
class RunaheadConfig:
    """Parameters shared by PRE and VR (stall-triggered runahead)."""

    # A load blocking the ROB head counts as "long-latency" if its
    # remaining latency exceeds this (i.e., it missed beyond the L2).
    long_latency_threshold: int = 30
    pre_max_instructions: int = 512  # PRE future-walk budget per interval
    vr_lanes: int = 64               # VR vectorization degree (no bounds info)
    vr_max_chain: int = 64           # instructions followed past stride load
    # Cycles VR may keep stalling commit after the blocking load returns,
    # to finish generating the chain's accesses (the paper observes this
    # "delayed termination" costs 7.1% of time on average, 11.8% max --
    # so it is bounded in hardware too).
    vr_termination_grace: int = 100


@dataclass(frozen=True)
class DvrConfig:
    """Decoupled Vector Runahead parameters (paper Section 4)."""

    max_lanes: int = 128             # scalar-equivalent lanes per invocation
    vector_width: int = 8            # lanes per AVX-512-style register
    vector_copies: int = 16          # VIR capacity: 16 x 8 = 128 lanes
    stride_detector_entries: int = 32
    stride_confidence: int = 2       # 2-bit saturating counter threshold
    reconvergence_depth: int = 8
    subthread_timeout: int = 200     # instructions per invocation
    ndm_threshold: int = 64          # enter nested mode below this bound
    ndm_scan_limit: int = 200        # instrs to find the outer stride
    ndm_outer_lanes: int = 16
    # Ablation switches (Fig 8): full DVR has both enabled.
    discovery_enabled: bool = True
    nested_enabled: bool = True


@dataclass(frozen=True)
class SimConfig:
    """Everything needed to run one simulation."""

    technique: str = TECH_OOO
    core: CoreConfig = field(default_factory=CoreConfig)
    memsys: MemSysConfig = field(default_factory=MemSysConfig)
    stride_pf: StridePrefetcherConfig = field(
        default_factory=StridePrefetcherConfig)
    imp: ImpConfig = field(default_factory=ImpConfig)
    branch: BranchConfig = field(default_factory=BranchConfig)
    runahead: RunaheadConfig = field(default_factory=RunaheadConfig)
    dvr: DvrConfig = field(default_factory=DvrConfig)
    max_instructions: int = 50_000   # ROI length (committed instructions)
    warmup_instructions: int = 0     # committed instrs before stats reset
    # Event-driven cycle skipping: when the core and engine are quiescent
    # (nothing can writeback, issue, dispatch, or commit) the simulator
    # jumps straight to the next scheduled event instead of iterating
    # cycle-by-cycle.  Metrics are bit-identical either way; turning it
    # off exists to prove exactly that (tests/test_fast_forward.py).
    fast_forward: bool = True
    # Runtime sanitizer (repro.analysis.sanitize): invariant assertions
    # wired into the core, memory hierarchy and DVR subthread.  Pure
    # observation -- metrics are bit-identical with it on or off; a
    # violation raises SanitizerError instead of corrupting results.
    sanitize: bool = False

    def with_technique(self, technique):
        """A copy of this config running ``technique``."""
        config = replace(self, technique=technique)
        if technique == TECH_IMP:
            config = replace(config, imp=replace(self.imp, enabled=True))
        if technique == TECH_DVR_OFFLOAD:
            config = replace(config, dvr=replace(
                self.dvr, discovery_enabled=False, nested_enabled=False))
        elif technique == TECH_DVR_DISCOVERY:
            config = replace(config, dvr=replace(
                self.dvr, discovery_enabled=True, nested_enabled=False))
        elif technique == TECH_DVR:
            config = replace(config, dvr=replace(
                self.dvr, discovery_enabled=True, nested_enabled=True))
        return config

    def with_rob(self, rob_size, scale_backend=False):
        """A copy with a different ROB size (Fig 2 / Fig 12 sweeps).

        With ``scale_backend`` the queue sizes scale proportionally, as in
        the paper's back-end-scaling sensitivity experiment.
        """
        core = replace(self.core, rob_size=rob_size)
        if scale_backend:
            ratio = rob_size / self.core.rob_size
            core = replace(
                core,
                issue_queue_size=max(16, round(self.core.issue_queue_size * ratio)),
                load_queue_size=max(16, round(self.core.load_queue_size * ratio)),
                store_queue_size=max(8, round(self.core.store_queue_size * ratio)),
            )
        return replace(self, core=core)


def config_to_dict(config):
    """``SimConfig`` (or any nested config dataclass) as plain dicts.

    Equal to ``dataclasses.asdict(config)``, without its deep copy of
    every leaf: leaf values are shared with the config, so treat the
    result as read-only.
    """
    data = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if is_dataclass(value):
            value = config_to_dict(value)
        data[f.name] = value
    return data


@functools.cache
def _field_plan(cls):
    """``(name, nested config class or None, is tuple)`` per field of ``cls``.

    Resolving the string annotations is the costly part of decoding a
    config, and they never change, so it happens once per class.
    """
    hints = typing.get_type_hints(cls)
    plan = []
    for f in fields(cls):
        hint = hints.get(f.name)
        plan.append((f.name, hint if is_dataclass(hint) else None,
                     hint is tuple))
    return tuple(plan)


def config_from_dict(cls, data):
    """Rebuild a config dataclass from :func:`config_to_dict` output.

    Works for any of the config dataclasses here: nested dataclass fields
    recurse, tuple-annotated fields are restored from JSON lists.
    """
    kwargs = {}
    for name, nested, is_tuple in _field_plan(cls):
        if name not in data:
            continue
        value = data[name]
        if nested is not None and isinstance(value, dict):
            value = config_from_dict(nested, value)
        elif is_tuple and isinstance(value, list):
            value = tuple(value)
        kwargs[name] = value
    return cls(**kwargs)


def canonical_digest(data, length):
    """First ``length`` hex digits of sha256 over ``data``'s canonical JSON.

    The one formula behind :func:`config_digest`, ``JobSpec.key`` and the
    concretizer's node hashes.
    """
    canonical = json.dumps(data, sort_keys=True, default=list)
    return hashlib.sha256(canonical.encode()).hexdigest()[:length]


def config_digest(config):
    """Stable content hash of a config (hex string).

    Two structurally-equal configs always hash alike, across processes
    and interpreter runs -- the basis of the ``repro.jobs`` cache key.
    """
    return canonical_digest(config_to_dict(config), 16)


def paper_config(technique=TECH_OOO, max_instructions=50_000):
    """The paper's Table 1 baseline configuration."""
    return SimConfig(max_instructions=max_instructions).with_technique(technique)


def table1_rows(config=None):
    """Table 1 as (parameter, value) rows for reporting."""
    config = config or paper_config()
    core, mem = config.core, config.memsys
    return [
        ("Core", f"{core.frequency_ghz:.1f} GHz, out-of-order"),
        ("ROB size", str(core.rob_size)),
        ("Queue sizes",
         f"issue ({core.issue_queue_size}), load ({core.load_queue_size}), "
         f"store ({core.store_queue_size})"),
        ("Processor width",
         f"{core.width}-wide fetch/dispatch/rename/commit"),
        ("Pipeline depth", f"{core.frontend_stages} front-end stages"),
        ("Branch predictor", "8 KB TAGE-SC-L (TAGE-lite model)"),
        ("Functional units",
         f"{core.int_alu.count} int add ({core.int_alu.latency} cycle), "
         f"{core.int_mul.count} int mult ({core.int_mul.latency} cycles), "
         f"{core.int_div.count} int div ({core.int_div.latency} cycles)"),
        ("Register file",
         f"{core.phys_int_regs} int (64 bit), "
         f"{core.phys_vec_regs} vector (512 bit)"),
        ("L1 I-cache",
         f"{mem.l1i.size_bytes // 1024} KB, assoc {mem.l1i.assoc}, "
         f"{mem.l1i.latency}-cycle access"),
        ("L1 D-cache",
         f"{mem.l1d.size_bytes // 1024} KB, assoc {mem.l1d.assoc}, "
         f"{mem.l1d.latency}-cycle access, {mem.l1d_mshrs} MSHRs, "
         f"stride prefetcher ({config.stride_pf.streams} streams)"),
        ("Private L2 cache",
         f"{mem.l2.size_bytes // 1024} KB, assoc {mem.l2.assoc}, "
         f"{mem.l2.latency}-cycle access"),
        ("Shared L3 cache",
         f"{mem.l3.size_bytes // (1024 * 1024)} MB, assoc {mem.l3.assoc}, "
         f"{mem.l3.latency}-cycle access"),
        ("Memory",
         f"{mem.dram_latency_cycles} cycles min. latency "
         f"(50 ns at 4 GHz), 51.2 GB/s bandwidth, "
         "request-based contention model"),
    ]
