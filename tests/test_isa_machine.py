"""Tests for guest memory and the architectural execution semantics."""

import gc
import multiprocessing

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.isa import (Assembler, GuestFault, GuestMemory, Op,
                       compute_mem_addr, execute, hash64, run_functional,
                       to_signed64)
from repro.isa.instructions import Instruction


class TestGuestMemory:
    def test_alloc_is_line_aligned(self):
        mem = GuestMemory(1 << 20)
        base = mem.alloc(10)
        assert base % 64 == 0

    def test_alloc_array_roundtrip(self):
        mem = GuestMemory(1 << 20)
        base = mem.alloc_array([3, 1, 4, 1, 5])
        assert mem.read_array(base, 5) == [3, 1, 4, 1, 5]

    def test_alloc_array_numpy(self):
        import numpy as np
        mem = GuestMemory(1 << 20)
        base = mem.alloc_array(np.array([7, 8, 9], dtype=np.int64))
        assert mem.read_word(base + 16) == 9

    def test_allocations_do_not_overlap(self):
        mem = GuestMemory(1 << 20)
        a = mem.alloc_array([1] * 100)
        b = mem.alloc_array([2] * 100)
        assert b >= a + 100 * 8

    def test_exhaustion_raises(self):
        mem = GuestMemory(1 << 12)
        with pytest.raises(MemoryError):
            mem.alloc(10_000)

    def test_word_write_read(self):
        mem = GuestMemory(1 << 12)
        mem.write_word(64, -17)
        assert mem.read_word(64) == -17

    def test_in_bounds(self):
        mem = GuestMemory(1 << 12)
        assert mem.in_bounds(0) and mem.in_bounds((1 << 12) - 8)
        assert not mem.in_bounds(1 << 12)
        assert not mem.in_bounds(-8)

    def test_size_must_be_word_multiple(self):
        with pytest.raises(ValueError):
            GuestMemory(1001)

    @pytest.mark.parametrize("value", [2 ** 63, -(2 ** 63) - 1])
    def test_write_word_keeps_low_64_bits(self, value):
        mem = GuestMemory(1 << 12)
        mem.write_word(64, value)
        assert mem.read_word(64) == to_signed64(value)

    @pytest.mark.parametrize("values", [
        np.array([5, -1, 2 ** 62, -(2 ** 63)], dtype=np.int64),
        np.arange(40, dtype=np.int64)[3::7],            # strided view
        np.arange(12, dtype=np.int64).reshape(3, 4)[:, 1],
        np.array([1, 0, 1], dtype=np.bool_),
        np.array([7, -7], dtype=np.int32),
        [3, -1, 4, 1, 5],
        (9, 2 ** 63 - 1),
        [],
    ])
    def test_alloc_array_read_array_roundtrip(self, values):
        mem = GuestMemory(1 << 16)
        expected = [int(v) for v in values]
        base = mem.alloc_array(values)
        got = mem.read_array(base, len(expected))
        assert type(got) is list and got == expected
        assert mem.read_word(base + len(expected) * 8) == 0

    def test_image_is_one_gc_referent(self):
        mem = GuestMemory(256 * 1024 * 1024)
        assert len(gc.get_referents(mem.words)) <= 1

    def test_forked_child_writes_stay_private(self):
        mem = GuestMemory(1 << 20)
        base = mem.alloc_array([11, 22, 33])
        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(target=_scribble, args=(mem, base))
        child.start()
        child.join(30)
        assert child.exitcode == 0
        assert mem.read_array(base, 3) == [11, 22, 33]
        assert mem.read_word((1 << 20) - 8) == 0


def _scribble(mem, base):
    """Fork child: overwrite the parent's allocations and the last word."""
    for k in range(3):
        mem.write_word(base + 8 * k, -1)
    mem.write_word(mem.size_bytes - 8, 99)
    assert mem.read_word(base) == -1


def _exec_one(op, rd=-1, rs1=-1, rs2=-1, rs3=-1, imm=0, target=-1,
              regs=None, mem=None):
    regs = regs if regs is not None else [0] * 32
    mem = mem or GuestMemory(1 << 16)
    ins = Instruction(op, rd=rd, rs1=rs1, rs2=rs2, rs3=rs3, imm=imm,
                      target=target, pc=10)
    next_pc, addr = execute(ins, regs, mem)
    return next_pc, addr, regs, mem


class TestExecuteAlu:
    @pytest.mark.parametrize("op,a,b,expect", [
        (Op.ADD, 3, 4, 7),
        (Op.SUB, 3, 4, -1),
        (Op.MUL, -3, 4, -12),
        (Op.DIV, 13, 4, 3),
        (Op.AND, 0b1100, 0b1010, 0b1000),
        (Op.OR, 0b1100, 0b1010, 0b1110),
        (Op.XOR, 0b1100, 0b1010, 0b0110),
        (Op.SHL, 3, 2, 12),
        (Op.SHR, 12, 2, 3),
        (Op.CMPLT, 3, 4, 1),
        (Op.CMPLE, 4, 4, 1),
        (Op.CMPEQ, 4, 4, 1),
        (Op.CMPNE, 4, 4, 0),
    ])
    def test_register_register(self, op, a, b, expect):
        regs = [0] * 32
        regs[1], regs[2] = a, b
        _, _, regs, _ = _exec_one(op, rd=3, rs1=1, rs2=2, regs=regs)
        assert regs[3] == expect

    @pytest.mark.parametrize("op,a,imm,expect", [
        (Op.ADDI, 3, 4, 7),
        (Op.MULI, 3, -2, -6),
        (Op.ANDI, 0b111, 0b101, 0b101),
        (Op.SHLI, 1, 4, 16),
        (Op.SHRI, 16, 4, 1),
        (Op.CMPLTI, 3, 4, 1),
        (Op.CMPEQI, 4, 4, 1),
    ])
    def test_register_immediate(self, op, a, imm, expect):
        regs = [0] * 32
        regs[1] = a
        _, _, regs, _ = _exec_one(op, rd=3, rs1=1, imm=imm, regs=regs)
        assert regs[3] == expect

    def test_div_by_zero_yields_zero(self):
        regs = [0] * 32
        regs[1] = 5
        _, _, regs, _ = _exec_one(Op.DIV, rd=3, rs1=1, rs2=2, regs=regs)
        assert regs[3] == 0

    def test_mul_wraps_to_signed64(self):
        regs = [0] * 32
        regs[1] = regs[2] = 1 << 40
        _, _, regs, _ = _exec_one(Op.MUL, rd=3, rs1=1, rs2=2, regs=regs)
        assert regs[3] == to_signed64(1 << 80)

    def test_shr_is_logical_on_negative(self):
        regs = [0] * 32
        regs[1], regs[2] = -1, 60
        _, _, regs, _ = _exec_one(Op.SHR, rd=3, rs1=1, rs2=2, regs=regs)
        assert regs[3] == 15

    def test_hash_matches_helper(self):
        regs = [0] * 32
        regs[1] = 99
        _, _, regs, _ = _exec_one(Op.HASH, rd=3, rs1=1, regs=regs)
        assert regs[3] == hash64(99)

    def test_li_and_mov(self):
        regs = [0] * 32
        _, _, regs, _ = _exec_one(Op.LI, rd=1, imm=-5, regs=regs)
        assert regs[1] == -5
        _, _, regs, _ = _exec_one(Op.MOV, rd=2, rs1=1, regs=regs)
        assert regs[2] == -5


class TestExecuteMemory:
    def test_load_offset(self):
        mem = GuestMemory(1 << 16)
        mem.write_word(128, 77)
        regs = [0] * 32
        regs[1] = 120
        _, addr, regs, _ = _exec_one(Op.LOAD, rd=2, rs1=1, imm=8,
                                     regs=regs, mem=mem)
        assert addr == 128 and regs[2] == 77

    def test_loadx_scaled_index(self):
        mem = GuestMemory(1 << 16)
        mem.write_word(64 + 3 * 8, 55)
        regs = [0] * 32
        regs[1], regs[2] = 64, 3
        _, addr, regs, _ = _exec_one(Op.LOADX, rd=3, rs1=1, rs2=2, imm=8,
                                     regs=regs, mem=mem)
        assert addr == 88 and regs[3] == 55

    def test_store_and_storex(self):
        mem = GuestMemory(1 << 16)
        regs = [0] * 32
        regs[1], regs[2], regs[3] = 64, 2, -9
        _exec_one(Op.STOREX, rs1=1, rs2=2, rs3=3, imm=8, regs=regs, mem=mem)
        assert mem.read_word(80) == -9
        _exec_one(Op.STORE, rs1=1, rs3=3, imm=0, regs=regs, mem=mem)
        assert mem.read_word(64) == -9

    @pytest.mark.parametrize("value", [2 ** 63, -(2 ** 63) - 1])
    @pytest.mark.parametrize("op", [Op.STORE, Op.STOREX])
    def test_store_keeps_low_64_bits(self, op, value):
        mem = GuestMemory(1 << 16)
        regs = [0] * 32
        regs[1], regs[2], regs[3] = 64, 2, value
        _, addr, _, _ = _exec_one(op, rs1=1, rs2=2, rs3=3, imm=8,
                                  regs=regs, mem=mem)
        assert mem.read_word(addr) == to_signed64(value)
        assert regs[3] == value          # the register keeps its value

    def test_load_out_of_bounds_faults(self):
        regs = [0] * 32
        regs[1] = 1 << 30
        with pytest.raises(GuestFault):
            _exec_one(Op.LOAD, rd=2, rs1=1, regs=regs)

    def test_store_negative_address_faults(self):
        regs = [0] * 32
        regs[1] = -64
        with pytest.raises(GuestFault):
            _exec_one(Op.STORE, rs1=1, rs3=2, regs=regs)

    def test_compute_mem_addr_matches_execute(self):
        mem = GuestMemory(1 << 16)
        regs = [0] * 32
        regs[1], regs[2] = 64, 3
        ins = Instruction(Op.LOADX, rd=3, rs1=1, rs2=2, imm=8, pc=0)
        assert compute_mem_addr(ins, regs) == 88
        ins = Instruction(Op.ADD, rd=3, rs1=1, rs2=2, pc=0)
        assert compute_mem_addr(ins, regs) == -1


class TestExecuteControl:
    def test_bnz_taken_and_not_taken(self):
        regs = [0] * 32
        regs[1] = 1
        next_pc, _, _, _ = _exec_one(Op.BNZ, rs1=1, target=3, regs=regs)
        assert next_pc == 3
        regs[1] = 0
        next_pc, _, _, _ = _exec_one(Op.BNZ, rs1=1, target=3, regs=regs)
        assert next_pc == 11  # pc + 1

    def test_bez(self):
        regs = [0] * 32
        next_pc, _, _, _ = _exec_one(Op.BEZ, rs1=1, target=3, regs=regs)
        assert next_pc == 3

    def test_jmp(self):
        next_pc, _, _, _ = _exec_one(Op.JMP, target=7)
        assert next_pc == 7

    def test_nop_falls_through(self):
        next_pc, _, _, _ = _exec_one(Op.NOP)
        assert next_pc == 11


class TestRunFunctional:
    def test_sum_loop(self):
        a = Assembler()
        a.li("r1", 0)   # i
        a.li("r2", 0)   # sum
        a.label("loop")
        a.add("r2", "r2", "r1")
        a.addi("r1", "r1", 1)
        a.cmplti("r3", "r1", 10)
        a.bnz("r3", "loop")
        a.halt()
        mem = GuestMemory(1 << 12)
        regs, count = run_functional(a.build(), mem)
        assert regs[2] == sum(range(10))
        assert count == 2 + 4 * 10 + 1

    def test_max_instructions_cap(self):
        a = Assembler()
        a.label("spin")
        a.jmp("spin")
        mem = GuestMemory(1 << 12)
        _, count = run_functional(a.build(), mem, max_instructions=100)
        assert count == 100

    def test_initial_registers_respected(self):
        a = Assembler()
        a.addi("r1", "r1", 1)
        a.halt()
        mem = GuestMemory(1 << 12)
        start = [5] * 32
        regs, _ = run_functional(a.build(), mem, regs=start)
        assert regs[1] == 6
        assert start[1] == 5  # input not mutated

    def test_rejects_bad_register_count(self):
        a = Assembler()
        a.halt()
        with pytest.raises(ValueError):
            run_functional(a.build(), GuestMemory(1 << 12), regs=[0] * 5)


@given(st.lists(st.integers(min_value=-(1 << 62), max_value=1 << 62),
                min_size=2, max_size=2),
       st.sampled_from([Op.ADD, Op.SUB, Op.MUL, Op.AND, Op.OR, Op.XOR]))
def test_alu_property_matches_python(values, op):
    """ALU semantics agree with Python integer arithmetic (mod 2^64)."""
    regs = [0] * 32
    regs[1], regs[2] = values
    ins = Instruction(op, rd=3, rs1=1, rs2=2, pc=0)
    execute(ins, regs, GuestMemory(1 << 12))
    expect = {
        Op.ADD: values[0] + values[1],
        Op.SUB: values[0] - values[1],
        Op.MUL: to_signed64(values[0] * values[1]),
        Op.AND: values[0] & values[1],
        Op.OR: values[0] | values[1],
        Op.XOR: values[0] ^ values[1],
    }[op]
    assert regs[3] == expect
