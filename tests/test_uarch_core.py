"""Tests for the out-of-order core timing model."""

from dataclasses import replace

import pytest

from repro.config import SimConfig
from repro.isa import Assembler, GuestMemory
from repro.memsys import MemoryHierarchy
from repro.uarch import OoOCore, SimulationLimitError
from repro.uarch.dynins import FU_ALU, FU_DIV, FU_MEM, FU_MUL, fu_class
from repro.isa.instructions import Op
from repro.uarch.scheduler import IssuePorts


def run_program(assembler, config=None, max_instructions=None,
                memory=None, perfect_memory=False):
    config = config or SimConfig(max_instructions=100_000)
    mem = memory or GuestMemory(16 * 1024 * 1024)
    hierarchy = MemoryHierarchy(config.memsys, config.stride_pf, config.imp,
                                mem)
    core = OoOCore(assembler.build(), mem, config, hierarchy,
                   perfect_memory=perfect_memory)
    stats = core.run(max_instructions=max_instructions)
    return core, stats


class TestFuClasses:
    def test_classification(self):
        assert fu_class(Op.ADD) == FU_ALU
        assert fu_class(Op.MUL) == FU_MUL
        assert fu_class(Op.HASH) == FU_MUL
        assert fu_class(Op.DIV) == FU_DIV
        assert fu_class(Op.LOADX) == FU_MEM
        assert fu_class(Op.BNZ) == FU_ALU


class TestIssuePorts:
    def test_width_limit(self):
        ports = IssuePorts(SimConfig().core)
        ports.new_cycle()
        issued = 0
        while ports.can_issue(FU_ALU):
            ports.claim(FU_ALU)
            issued += 1
        assert issued == 4  # 4 ALUs < width 5

    def test_width_shared_across_classes(self):
        ports = IssuePorts(SimConfig().core)
        ports.new_cycle()
        for _ in range(4):
            ports.claim(FU_ALU)
        ports.claim(FU_MEM)
        assert ports.spare_slots == 0
        assert not ports.can_issue(FU_MEM)  # width exhausted

    def test_new_cycle_resets(self):
        ports = IssuePorts(SimConfig().core)
        ports.new_cycle()
        ports.claim(FU_DIV)
        assert not ports.can_issue(FU_DIV)
        ports.new_cycle()
        assert ports.can_issue(FU_DIV)


class TestBasicExecution:
    def test_straightline_completes(self):
        a = Assembler()
        for k in range(20):
            a.li(f"r{k % 8 + 1}", k)
        a.halt()
        _, stats = run_program(a)
        assert stats.halted
        assert stats.committed == 21

    def test_architectural_state_matches_functional(self):
        a = Assembler()
        a.li("r1", 10)
        a.li("r2", 32)
        a.add("r3", "r1", "r2")
        a.muli("r4", "r3", 2)
        a.halt()
        core, _ = run_program(a)
        assert core.regs[3] == 42
        assert core.regs[4] == 84

    def test_ipc_bounded_by_width(self):
        a = Assembler()
        a.li("r1", 0)
        a.label("loop")
        for _ in range(10):
            a.addi("r2", "r2", 1)  # independent-ish filler
        a.addi("r1", "r1", 1)
        a.cmplti("r3", "r1", 400)
        a.bnz("r3", "loop")
        a.halt()
        _, stats = run_program(a)
        assert stats.ipc <= SimConfig().core.width

    def test_dependent_chain_limits_ipc(self):
        """A pure dependent ALU chain cannot exceed IPC 1."""
        a = Assembler()
        a.li("r1", 1)
        a.label("loop")
        for _ in range(10):
            a.addi("r1", "r1", 1)
        a.cmplti("r2", "r1", 3000)
        a.bnz("r2", "loop")
        a.halt()
        _, stats = run_program(a)
        assert stats.ipc < 1.35  # chain + small parallel overhead

    def test_independent_ops_reach_high_ipc(self):
        a = Assembler()
        a.li("r1", 0)
        a.label("loop")
        a.addi("r2", "r2", 1)
        a.addi("r3", "r3", 1)
        a.addi("r4", "r4", 1)
        a.addi("r1", "r1", 1)
        a.cmplti("r5", "r1", 500)
        a.bnz("r5", "loop")
        a.halt()
        _, stats = run_program(a)
        assert stats.ipc > 2.0

    def test_div_latency_visible(self):
        a = Assembler()
        a.li("r1", 1 << 40)
        a.li("r2", 3)
        prev = "r1"
        for k in range(50):
            a.div("r1", prev, "r2")
        a.halt()
        _, stats = run_program(a)
        # 50 dependent 18-cycle divides dominate.
        assert stats.cycles > 50 * 18

    def test_max_instructions_cap(self):
        a = Assembler()
        a.label("spin")
        a.addi("r1", "r1", 1)
        a.jmp("spin")
        _, stats = run_program(a, max_instructions=1000)
        assert 1000 <= stats.committed <= 1005
        assert not stats.halted


class TestMemoryTiming:
    @staticmethod
    def _no_stride_pf():
        config = SimConfig()
        return replace(config,
                       stride_pf=replace(config.stride_pf, enabled=False))

    def _load_loop(self, n=64, dependent=False):
        a = Assembler()
        mem = GuestMemory(16 * 1024 * 1024)
        import random
        rnd = random.Random(11)
        permutation = list(range(4096))
        rnd.shuffle(permutation)  # pointer chase visits distinct slots
        base = mem.alloc_array(permutation, "data")
        a.li("r1", base)
        a.li("r2", 0)
        a.label("loop")
        if dependent:
            a.loadx("r3", "r1", "r3", scale=8)
            a.andi("r3", "r3", 4095)
        else:
            a.loadx("r3", "r1", "r2")
        a.addi("r2", "r2", 1)
        a.cmplti("r4", "r2", n)
        a.bnz("r4", "loop")
        a.halt()
        return a, mem

    def test_cold_misses_cost_dram_latency(self):
        a, mem = self._load_loop(n=8)
        config = self._no_stride_pf()
        _, stats = run_program(a, config=config, memory=mem)
        # 8 sequential words = 1 cold line: at least one DRAM trip.
        assert stats.cycles > 240

    def test_perfect_memory_removes_miss_cost(self):
        config = self._no_stride_pf()
        a_cold, m_cold = self._load_loop(n=256, dependent=True)
        _, cold = run_program(a_cold, config=config, memory=m_cold)
        a_perf, m_perf = self._load_loop(n=256, dependent=True)
        _, perfect = run_program(a_perf, config=config, memory=m_perf,
                                 perfect_memory=True)
        assert perfect.cycles < cold.cycles / 3

    def test_dependent_pointer_chase_serializes(self):
        a, mem = self._load_loop(n=64, dependent=True)
        config = self._no_stride_pf()
        _, stats = run_program(a, config=config, memory=mem)
        # Each iteration serializes on the loaded value; misses cannot
        # overlap, so cycles per iteration is large.
        assert stats.cycles / 64 > 25


class TestBranchHandling:
    def test_predictable_loop_is_cheap(self):
        a = Assembler()
        a.li("r1", 0)
        a.label("loop")
        a.addi("r1", "r1", 1)
        a.cmplti("r2", "r1", 1000)
        a.bnz("r2", "loop")
        a.halt()
        _, stats = run_program(a)
        assert stats.branch_mispredicts < 20

    def test_data_dependent_branch_mispredicts(self):
        a = Assembler()
        mem = GuestMemory(16 * 1024 * 1024)
        import random
        rnd = random.Random(3)
        base = mem.alloc_array([rnd.randrange(2) for _ in range(2048)], "bits")
        a.li("r1", base)
        a.li("r2", 0)
        a.label("loop")
        a.loadx("r3", "r1", "r2")
        a.bez("r3", "skip")
        a.addi("r4", "r4", 1)
        a.label("skip")
        a.addi("r2", "r2", 1)
        a.cmplti("r5", "r2", 2000)
        a.bnz("r5", "loop")
        a.halt()
        _, stats = run_program(a, memory=mem)
        assert stats.branch_mispredicts > 400  # ~50% of 2000 random branches

    def test_mispredict_penalty_slows_execution(self):
        def bits_program(values):
            a = Assembler()
            mem = GuestMemory(16 * 1024 * 1024)
            base = mem.alloc_array(values, "bits")
            a.li("r1", base)
            a.li("r2", 0)
            a.label("loop")
            a.loadx("r3", "r1", "r2")
            a.bez("r3", "skip")
            a.addi("r4", "r4", 1)
            a.label("skip")
            a.addi("r2", "r2", 1)
            a.cmplti("r5", "r2", 1500)
            a.bnz("r5", "loop")
            a.halt()
            return a, mem

        import random
        rnd = random.Random(5)
        a1, m1 = bits_program([1] * 2048)
        a2, m2 = bits_program([rnd.randrange(2) for _ in range(2048)])
        _, predictable = run_program(a1, memory=m1)
        _, unpredictable = run_program(a2, memory=m2)
        assert unpredictable.cycles > predictable.cycles * 1.5


class TestRobStalls:
    def test_rob_fills_under_long_miss_stream(self):
        """Independent misses with predictable branches fill the ROB."""
        a = Assembler()
        mem = GuestMemory(64 * 1024 * 1024)
        import random
        rnd = random.Random(9)
        n = 4096
        idx = mem.alloc_array([rnd.randrange(1 << 19) for _ in range(n)], "i")
        table = mem.alloc(1 << 19, "table")
        a.li("r1", idx)
        a.li("r2", table)
        a.li("r3", 0)
        a.label("loop")
        a.loadx("r4", "r1", "r3")
        a.loadx("r5", "r2", "r4")
        a.add("r6", "r6", "r5")
        a.addi("r3", "r3", 1)
        a.cmplti("r7", "r3", n)
        a.bnz("r7", "loop")
        a.halt()
        config = SimConfig(max_instructions=12_000)
        _, stats = run_program(a, config=config, memory=mem,
                               max_instructions=12_000)
        assert stats.rob_full_cycles > 0
        assert stats.rob_full_mem_cycles > 0

    def test_safety_limit_raises(self):
        """A (hypothetical) deadlock trips the cycle guard instead of
        hanging forever."""
        a = Assembler()
        a.label("spin")
        a.jmp("spin")
        a.halt()
        config = SimConfig(max_instructions=10)
        mem = GuestMemory(1 << 20)
        hierarchy = MemoryHierarchy(config.memsys, config.stride_pf,
                                    config.imp, mem)
        core = OoOCore(a.build(), mem, config, hierarchy)
        # JMP-only spin never commits 10 "real" instructions? It does
        # commit jmps, so instead verify the guard by a tiny budget and
        # an impossible limit.
        core._program_done = True  # nothing will ever dispatch
        with pytest.raises(SimulationLimitError):
            core.run(max_instructions=10)


class TestCommitOrder:
    def test_stores_visible_after_halt(self):
        a = Assembler()
        mem = GuestMemory(1 << 20)
        out = mem.alloc_array([0, 0, 0], "out")
        a.li("r1", out)
        a.li("r2", 7)
        a.store("r2", "r1", 0)
        a.store("r2", "r1", 8)
        a.halt()
        _, stats = run_program(a, memory=mem)
        assert mem.read_array(out, 3) == [7, 7, 0]
        assert stats.halted
