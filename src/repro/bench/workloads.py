"""The pinned bench matrix: memory-bound cases under a pinned profile.

The matrix exists to time the *simulator*, so it pins everything the
simulation depends on: workload parameters, seeds, and a memory-bound
configuration profile (small L2/L3, stride prefetcher off) that keeps the
cores in the latency-bound regime the paper targets -- exactly where
event-driven fast-forwarding pays off and where a regression in the
stall/skip path would show up first.

Besides the regular workloads the matrix includes ``chase``, a serial
pointer chase (``p = A[p]`` over a random cyclic permutation).  Every load
depends on the previous one, so there is no memory-level parallelism to
hide latency behind: CPI approaches the DRAM latency and nearly every
cycle is a stall.  It is the canonical memory-latency microbenchmark and
the worst case for a cycle-by-cycle simulator loop.
"""

from __future__ import annotations

import random
from dataclasses import replace

from ..config import SimConfig
from ..isa.assembler import Assembler
from ..isa.machine import GuestMemory
from ..workloads import make_workload
from ..workloads.base import BuiltWorkload

#: (workload, technique) pairs timed by ``repro bench``.  ``chase``
#: dominates the wall-clock budget by design (see module docstring).
SMOKE_MATRIX = (
    ("chase", "ooo"),
    ("chase", "dvr"),
    ("camel", "ooo"),
    ("graph500", "ooo"),
)

#: Instruction budget per --scale choice.
SCALE_INSTRUCTIONS = {"smoke": 10_000, "small": 20_000, "full": 50_000}

_CHASE_MEMORY_BYTES = 8 * 1024 * 1024


def build_chase(entries=1 << 16, seed=7, memory_bytes=_CHASE_MEMORY_BYTES):
    """Serial pointer chase over a random cyclic permutation.

    A single cycle through all ``entries`` guarantees the working set is
    fully visited (no short cycles that would settle into the cache).
    """
    mem = GuestMemory(memory_bytes)
    rnd = random.Random(seed)
    perm = list(range(entries))
    rnd.shuffle(perm)
    nxt = [0] * entries
    for i in range(entries - 1):
        nxt[perm[i]] = perm[i + 1]
    nxt[perm[-1]] = perm[0]
    base = mem.alloc_array(nxt, "chase")

    a = Assembler("chase")
    for name, reg in [("rP", 1), ("rB", 2), ("rI", 3), ("rN", 4),
                      ("rC", 5)]:
        a.alias(name, reg)
    a.li("rB", base)
    a.li("rP", perm[0])
    a.li("rI", 0)
    a.li("rN", entries)
    a.label("loop")
    a.loadx("rP", "rB", "rP")         # p = A[p]: fully serial
    a.addi("rI", "rI", 1)
    a.cmplt("rC", "rI", "rN")
    a.bnz("rC", "loop")
    a.halt()
    return BuiltWorkload("chase", a.build(), mem,
                         metadata={"entries": entries, "seed": seed})


def bench_config(technique, instructions, fast_forward=True,
                 sanitize=False):
    """The pinned memory-bound profile for ``technique``.

    Shrinks L2/L3 well below the smoke working sets and disables the
    stride prefetcher so loads actually reach DRAM at smoke scale.
    """
    cfg = SimConfig(max_instructions=instructions,
                    fast_forward=fast_forward,
                    sanitize=sanitize).with_technique(technique)
    memsys = replace(cfg.memsys,
                     l2=replace(cfg.memsys.l2, size_bytes=32 * 1024),
                     l3=replace(cfg.memsys.l3, size_bytes=64 * 1024))
    return replace(cfg, memsys=memsys,
                   stride_pf=replace(cfg.stride_pf, enabled=False))


def build_case(workload, config, seed=12345):
    """Fresh :class:`BuiltWorkload` for a matrix entry (never cached)."""
    if workload == "chase":
        return build_chase()
    return make_workload(workload).build(
        memory_bytes=config.memsys.guest_memory_bytes, seed=seed)


# ----------------------------------------------------------------------
# The pinned batch-lane sweep (schema 3)
# ----------------------------------------------------------------------
#: One shared graph input for the lane sweep: a scale-18 RMAT with
#: Graph500 skew.  Big enough that building it (generation + CSR layout
#: + image fill, ~2.4s) dwarfs a short simulation -- the
#: regime where template sharing between lanes pays -- while its CSR
#: still fits a 64 MB guest image with room for vertex-sized kernel
#: arrays (bfs, pr; sssp's edge-sized weights array does not fit).
LANES_GRAPH = {"name": "KR18", "kind": "rmat", "log2_nodes": 18,
               "avg_degree": 16, "a": 0.57, "b": 0.19, "c": 0.19}

#: (workload, graph) cases of the lane sweep.
LANES_CASES = (("bfs", "KR18"), ("pr", "KR18"))

#: Techniques swept per case: the full comparison set plus the DVR
#: ablation variants -- sixteen sims per built workload template.
LANES_TECHNIQUES = ("ooo", "pre", "imp", "vr", "dvr", "dvr-offload",
                    "dvr-discovery", "oracle")

#: ROB sizes swept per technique (uarch axes multiply template sharing:
#: the config is not part of the build identity).
LANES_ROB_SIZES = (192, 320)

#: Short runs on purpose: the sweep isolates the construction overhead
#: that lanes amortize.  Long runs converge both sides to pure
#: simulation time (which is identical by design) and measure nothing.
LANES_INSTRUCTIONS = 1_000
LANES_SEED = 12345

#: Guest-image size for the lane sweep, applied to the serial baseline
#: and the batch alike; 64 MB holds the KR18 working set with slack.  An
#: image costs RSS only for the pages a lane touches, so the size bounds
#: each lane's address space, not the batch's footprint.
LANES_MEMORY_BYTES = 64 * 1024 * 1024


def register_lanes_graph():
    """Install the sweep's graph input in the process-wide registry."""
    from ..workloads.graphs import GRAPH_INPUTS, GraphSpec
    if LANES_GRAPH["name"] not in GRAPH_INPUTS:
        GRAPH_INPUTS[LANES_GRAPH["name"]] = GraphSpec(**LANES_GRAPH)


def lanes_sweep_specs():
    """JobSpecs of the pinned lane sweep, grouped by build template.

    2 cases x 8 techniques x 2 ROB sizes = 32 sims over 2 templates.
    Specs sharing a template are adjacent, so a lane batch builds each
    workload once and clones it for the other fifteen lanes.
    """
    from ..jobs.spec import JobSpec
    register_lanes_graph()
    specs = []
    for workload, graph in LANES_CASES:
        for technique in LANES_TECHNIQUES:
            for rob in LANES_ROB_SIZES:
                cfg = bench_config(technique, LANES_INSTRUCTIONS)
                cfg = replace(
                    cfg,
                    core=replace(cfg.core, rob_size=rob),
                    memsys=replace(cfg.memsys,
                                   guest_memory_bytes=LANES_MEMORY_BYTES))
                specs.append(JobSpec(workload, cfg,
                                     params={"graph": graph},
                                     seed=LANES_SEED,
                                     label=f"{workload}_{graph}_rob{rob}"))
    return specs
