"""Property-based robustness tests for the vector-runahead subthread.

Random loop kernels (random chain depth, divergent branches, random data)
are vectorized with random lane counts and termination settings.  The
invariants: the subthread always terminates within its structural bounds,
never writes guest memory, never reads out of bounds, and its statistics
stay self-consistent.
"""

import random as _random

from hypothesis import given, settings, strategies as st

from repro.config import SimConfig
from repro.core.subthread import (FLOW_FIRST_LANE, FLOW_RECONVERGE,
                                  SubthreadStats, VectorSubthread)
from repro.isa import Assembler, GuestMemory
from repro.memsys import MemoryHierarchy
from repro.uarch.scheduler import IssuePorts


@st.composite
def loop_kernel(draw):
    """(program builder inputs) for a random indirect-chain loop."""
    return {
        "chain_depth": draw(st.integers(min_value=0, max_value=4)),
        "with_branch": draw(st.booleans()),
        "with_store": draw(st.booleans()),
        "n": draw(st.sampled_from([256, 1024, 4096])),
        "seed": draw(st.integers(min_value=0, max_value=2 ** 16)),
    }


def build_kernel(spec):
    rnd = _random.Random(spec["seed"])
    n = spec["n"]
    mem = GuestMemory(32 * 1024 * 1024)
    base = mem.alloc_array([rnd.randrange(n) for _ in range(n)], "A")
    table = mem.alloc_array([rnd.randrange(n) for _ in range(n)], "T")
    a = Assembler("random-loop")
    a.li("r1", base)
    a.li("r2", table)
    a.li("r3", 0)       # i
    a.li("r4", n)       # bound
    a.label("loop")
    a.loadx("r5", "r1", "r3")          # pc 4: striding load
    for _ in range(spec["chain_depth"]):
        a.loadx("r5", "r2", "r5")      # dependent chain
    if spec["with_branch"]:
        a.andi("r6", "r5", 1)
        a.bez("r6", "skip")
        a.loadx("r7", "r2", "r5")      # divergent-path load
        a.label("skip")
    if spec["with_store"]:
        a.storex("r5", "r2", "r3")
    a.addi("r3", "r3", 1)
    a.cmplt("r8", "r3", "r4")
    a.bnz("r8", "loop")
    a.halt()
    regs = [0] * 32
    regs[1], regs[2], regs[3], regs[4] = base, table, 0, n
    return a.build(), mem, regs, base


@settings(max_examples=25, deadline=None)
@given(loop_kernel(),
       st.integers(min_value=1, max_value=128),
       st.sampled_from([FLOW_RECONVERGE, FLOW_FIRST_LANE]),
       st.booleans())
def test_subthread_robust_on_random_kernels(spec, lanes, flow,
                                            terminate_at_stride):
    program, mem, regs, base = build_kernel(spec)
    config = SimConfig()
    hierarchy = MemoryHierarchy(config.memsys, config.stride_pf,
                                config.imp, mem)
    subthread = VectorSubthread(program, mem, hierarchy, config.core,
                                config.dvr, source="dvr", flow=flow,
                                stats=SubthreadStats())
    snapshot = mem.words.tobytes()
    flr = 4 + spec["chain_depth"] if spec["chain_depth"] else -1
    subthread.spawn(4, 8, base + 64, regs, lanes, flr_pc=flr,
                    terminate_at_stride=terminate_at_stride)
    ports = IssuePorts(config.core)
    now = 0
    while not subthread.done:
        now += 1
        ports.new_cycle()
        subthread.step(now, ports)
        hierarchy.tick(now)
        assert now < 500_000, "subthread failed to terminate"
    stats = subthread.stats
    # Structural bounds.
    assert stats.instructions <= config.dvr.subthread_timeout + 1
    assert stats.lane_loads_issued <= (stats.instructions + 1) * lanes
    # Speculation never mutates guest memory.
    assert mem.words.tobytes() == snapshot
    # The VRAT returned everything to the free lists.
    assert subthread.vrat.free_vector_regs == config.core.phys_vec_regs
