"""Serial pointer chase: ``p = A[p]`` over a random cyclic permutation.

Every load depends on the previous one, so there is no memory-level
parallelism to hide latency behind: CPI approaches the DRAM latency and
nearly every cycle is a stall.  It is the canonical memory-latency
microbenchmark and the worst case for a cycle-by-cycle simulator loop,
which is why the fast-forward tests run it.  It is not one of the
paper's workloads and is not registered in ``ALL_WORKLOADS``.
"""

from __future__ import annotations

import random

from ..isa.assembler import Assembler
from ..isa.machine import GuestMemory
from .base import BuiltWorkload

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
