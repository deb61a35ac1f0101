"""Detailed unit tests for the PRE future-walker semantics."""

from dataclasses import replace

import pytest

from repro.config import SimConfig
from repro.isa import Assembler, GuestMemory
from repro.memsys import MemoryHierarchy
from repro.runahead.pre import PreEngine, _INVALID
from repro.workloads.base import BuiltWorkload


def make_pre(program, mem, config=None):
    config = config or SimConfig()
    hierarchy = MemoryHierarchy(config.memsys, config.stride_pf, config.imp,
                                mem)
    engine = PreEngine(config, program, mem, hierarchy)
    return engine, hierarchy


def walker_program():
    mem = GuestMemory(16 * 1024 * 1024)
    base_a = mem.alloc_array(list(range(1024)), "A")
    base_b = mem.alloc_array(list(range(1024)), "B")
    a = Assembler("walk")
    a.li("r1", base_a)
    a.li("r2", base_b)
    a.li("r3", 0)
    a.label("loop")
    a.loadx("r4", "r1", "r3")   # A[i]
    a.loadx("r5", "r2", "r4")   # B[A[i]] -- depends on the first load
    a.add("r6", "r6", "r5")
    a.addi("r3", "r3", 1)
    a.cmplti("r7", "r3", 1024)
    a.bnz("r7", "loop")
    a.halt()
    return a.build(), mem, base_a, base_b


class TestWalkerSemantics:
    def _armed_engine(self):
        program, mem, base_a, base_b = walker_program()
        engine, hierarchy = make_pre(program, mem)
        engine.active = True
        engine._exit_cycle = 1 << 30
        engine._budget = 10_000
        engine._regs = [0] * 32
        engine._regs[1] = base_a
        engine._regs[2] = base_b
        engine._regs[3] = 0
        engine._pc = 3  # the loop label
        return engine, hierarchy, base_a, base_b

    def test_miss_marks_destination_invalid(self):
        engine, hierarchy, base_a, _ = self._armed_engine()
        engine._walk_one(now=0)  # cold A[0] load: miss
        assert engine._regs[4] is _INVALID

    def test_dependent_load_blocked_by_invalid(self):
        engine, hierarchy, _, _ = self._armed_engine()
        engine._walk_one(0)   # A load -> INV
        engine._walk_one(0)   # B load: address INV -> no prefetch
        assert engine._regs[5] is _INVALID
        assert engine.prefetches <= 1  # only the A-level prefetch

    def test_hit_supplies_value(self):
        engine, hierarchy, base_a, _ = self._armed_engine()
        result = hierarchy.demand_load(base_a, 0, 0, 0)
        hierarchy.tick(result.complete_cycle + 1)
        engine._walk_one(now=result.complete_cycle + 1)
        assert engine._regs[4] == 0  # A[0] == 0, read from the warm line

    def test_invalid_branch_uses_btfn(self):
        """Unknown branch condition: backward-taken / forward-not-taken."""
        engine, _, _, _ = self._armed_engine()
        engine._regs[7] = _INVALID
        engine._pc = 8  # the backward bnz
        engine._walk_one(0)
        assert engine._pc == 3  # backward branch predicted taken

    def test_alu_propagates_invalid(self):
        engine, _, _, _ = self._armed_engine()
        engine._regs[6] = 0
        engine._regs[5] = _INVALID
        engine._pc = 5  # add r6, r6, r5
        engine._walk_one(0)
        assert engine._regs[6] is _INVALID

    def test_halt_stops_walk(self):
        engine, _, _, _ = self._armed_engine()
        engine._pc = 9  # halt
        assert not engine._walk_one(0)

    def test_store_skipped(self):
        mem = GuestMemory(1 << 20)
        out = mem.alloc_array([0], "out")
        a = Assembler()
        a.li("r1", out)
        a.li("r2", 42)
        a.store("r2", "r1", 0)
        a.halt()
        program = a.build()
        engine, _ = make_pre(program, mem)
        engine.active = True
        engine._exit_cycle = 1 << 30
        engine._budget = 100
        engine._regs = [0] * 32
        engine._regs[1] = out
        engine._regs[2] = 42
        engine._pc = 2
        engine._walk_one(0)
        assert mem.read_word(out) == 0  # runahead never writes memory


class TestInterval:
    def test_interval_ends_when_head_returns(self):
        program, mem, base_a, _ = walker_program()
        engine, hierarchy = make_pre(program, mem)
        engine.active = True
        engine._exit_cycle = 100
        engine._budget = 1_000
        engine._regs = [0] * 32
        engine._regs[1] = base_a
        engine._pc = 3

        class Ports:
            width = 5
        engine.tick(now=99, ports=Ports())
        assert engine.active
        engine.tick(now=100, ports=Ports())
        assert not engine.active

    def test_budget_bounds_walk(self):
        program, mem, base_a, base_b = walker_program()
        config = SimConfig()
        config = replace(config, runahead=replace(config.runahead,
                                                  pre_max_instructions=7))
        engine, hierarchy = make_pre(program, mem, config)
        engine.active = True
        engine._exit_cycle = 1 << 30
        engine._budget = config.runahead.pre_max_instructions
        engine._regs = [0] * 32
        engine._regs[1] = base_a
        engine._regs[2] = base_b
        engine._pc = 3

        class Ports:
            width = 5
        for now in range(10):
            engine.tick(now, Ports())
        assert engine.instructions_walked <= 7
        assert not engine.active
