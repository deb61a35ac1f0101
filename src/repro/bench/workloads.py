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
