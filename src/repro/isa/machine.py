"""Guest memory and architectural (functional) execution semantics.

The timing model executes instructions *functionally* at dispatch on the
correct path; runahead engines reuse the same semantics speculatively.
Both go through :func:`execute`, which returns ``(next_pc, mem_addr)``.
"""

from __future__ import annotations

import mmap

import numpy as np

from .instructions import Op, WORD_BYTES, hash64, to_signed64


class GuestFault(Exception):
    """Raised when correct-path execution accesses memory out of bounds."""


class GuestMemory:
    """Flat, word-granular guest memory with a bump allocator.

    Addresses are byte addresses; all accesses are 8-byte aligned words.
    The image is a private anonymous mapping viewed as signed 64-bit
    words: allocating it costs O(1), pages the guest never touches cost
    no RSS, and the cyclic collector sees one object instead of one slot
    per word.  ``MAP_PRIVATE`` keeps a forked child's writes out of the
    parent's image.  ``words`` is exposed directly so hot paths can index
    it without a method call; a stored value keeps its low 64 bits.
    """

    LINE_BYTES = 64

    def __init__(self, size_bytes):
        if size_bytes % WORD_BYTES:
            raise ValueError("memory size must be a multiple of 8 bytes")
        self.size_bytes = size_bytes
        image = mmap.mmap(-1, size_bytes, flags=mmap.MAP_PRIVATE)
        self.words = memoryview(image).cast("q")
        # Allocation starts at one cache line to keep address 0 unmapped-ish
        # looking (helps catch uninitialized-pointer bugs in workloads).
        self._next_free = self.LINE_BYTES

    def alloc(self, num_words, name=None, align=LINE_BYTES):
        """Reserve ``num_words`` words, cache-line aligned; return base address."""
        base = (self._next_free + align - 1) // align * align
        end = base + num_words * WORD_BYTES
        if end > self.size_bytes:
            raise MemoryError(
                f"guest memory exhausted allocating {name or 'array'} "
                f"({num_words} words; {end} > {self.size_bytes} bytes)")
        self._next_free = end
        return base

    def alloc_array(self, values, name=None):
        """Allocate and initialize an array; return its base address.

        ``values`` (any int sequence or array) becomes contiguous int64
        -- without a copy when it already is -- and lands in the image
        in one buffer copy.
        """
        words = np.ascontiguousarray(values, dtype=np.int64)
        base = self.alloc(len(words), name=name)
        start = base // WORD_BYTES
        self.words[start:start + len(words)] = \
            memoryview(words).cast("B").cast("q")
        return base

    def read_word(self, addr):
        return self.words[addr >> 3]

    def write_word(self, addr, value):
        try:
            self.words[addr >> 3] = value
        except ValueError:           # outside signed 64 bits (or not an int)
            self.words[addr >> 3] = to_signed64(int(value))

    def read_array(self, base, count):
        start = base // WORD_BYTES
        return self.words[start:start + count].tolist()

    def in_bounds(self, addr):
        return 0 <= addr < self.size_bytes


def execute(ins, regs, mem):
    """Execute one instruction architecturally.

    ``regs`` is a 32-entry list of ints, ``mem`` a :class:`GuestMemory`.
    Returns ``(next_pc, mem_addr)``; ``mem_addr`` is -1 for non-memory ops.
    Raises :class:`GuestFault` on out-of-bounds memory access.
    """
    op = ins.op
    pc = ins.pc
    addr = -1

    if op == Op.LOADX:
        addr = regs[ins.rs1] + regs[ins.rs2] * ins.imm
        if not 0 <= addr < mem.size_bytes:
            raise GuestFault(f"load out of bounds at pc={pc}: addr={addr}")
        regs[ins.rd] = mem.words[addr >> 3]
    elif op == Op.LOAD:
        addr = regs[ins.rs1] + ins.imm
        if not 0 <= addr < mem.size_bytes:
            raise GuestFault(f"load out of bounds at pc={pc}: addr={addr}")
        regs[ins.rd] = mem.words[addr >> 3]
    elif op == Op.ADD:
        regs[ins.rd] = regs[ins.rs1] + regs[ins.rs2]
    elif op == Op.ADDI:
        regs[ins.rd] = regs[ins.rs1] + ins.imm
    elif op == Op.CMPLT:
        regs[ins.rd] = 1 if regs[ins.rs1] < regs[ins.rs2] else 0
    elif op == Op.BNZ:
        if regs[ins.rs1] != 0:
            return ins.target, -1
        return pc + 1, -1
    elif op == Op.BEZ:
        if regs[ins.rs1] == 0:
            return ins.target, -1
        return pc + 1, -1
    elif op == Op.STOREX:
        addr = regs[ins.rs1] + regs[ins.rs2] * ins.imm
        if not 0 <= addr < mem.size_bytes:
            raise GuestFault(f"store out of bounds at pc={pc}: addr={addr}")
        try:
            mem.words[addr >> 3] = regs[ins.rs3]
        except ValueError:           # keep the low 64 bits
            mem.words[addr >> 3] = to_signed64(regs[ins.rs3])
    elif op == Op.STORE:
        addr = regs[ins.rs1] + ins.imm
        if not 0 <= addr < mem.size_bytes:
            raise GuestFault(f"store out of bounds at pc={pc}: addr={addr}")
        try:
            mem.words[addr >> 3] = regs[ins.rs3]
        except ValueError:           # keep the low 64 bits
            mem.words[addr >> 3] = to_signed64(regs[ins.rs3])
    elif op == Op.HASH:
        regs[ins.rd] = hash64(regs[ins.rs1])
    elif op == Op.SUB:
        regs[ins.rd] = regs[ins.rs1] - regs[ins.rs2]
    elif op == Op.MUL:
        regs[ins.rd] = to_signed64(regs[ins.rs1] * regs[ins.rs2])
    elif op == Op.MULI:
        regs[ins.rd] = to_signed64(regs[ins.rs1] * ins.imm)
    elif op == Op.DIV:
        divisor = regs[ins.rs2]
        regs[ins.rd] = 0 if divisor == 0 else regs[ins.rs1] // divisor
    elif op == Op.AND:
        regs[ins.rd] = regs[ins.rs1] & regs[ins.rs2]
    elif op == Op.ANDI:
        regs[ins.rd] = regs[ins.rs1] & ins.imm
    elif op == Op.OR:
        regs[ins.rd] = regs[ins.rs1] | regs[ins.rs2]
    elif op == Op.XOR:
        regs[ins.rd] = regs[ins.rs1] ^ regs[ins.rs2]
    elif op == Op.SHL:
        regs[ins.rd] = to_signed64(regs[ins.rs1] << (regs[ins.rs2] & 63))
    elif op == Op.SHLI:
        regs[ins.rd] = to_signed64(regs[ins.rs1] << (ins.imm & 63))
    elif op == Op.SHR:
        regs[ins.rd] = (regs[ins.rs1] & ((1 << 64) - 1)) >> (regs[ins.rs2] & 63)
    elif op == Op.SHRI:
        regs[ins.rd] = (regs[ins.rs1] & ((1 << 64) - 1)) >> (ins.imm & 63)
    elif op == Op.CMPLE:
        regs[ins.rd] = 1 if regs[ins.rs1] <= regs[ins.rs2] else 0
    elif op == Op.CMPEQ:
        regs[ins.rd] = 1 if regs[ins.rs1] == regs[ins.rs2] else 0
    elif op == Op.CMPNE:
        regs[ins.rd] = 1 if regs[ins.rs1] != regs[ins.rs2] else 0
    elif op == Op.CMPLTI:
        regs[ins.rd] = 1 if regs[ins.rs1] < ins.imm else 0
    elif op == Op.CMPEQI:
        regs[ins.rd] = 1 if regs[ins.rs1] == ins.imm else 0
    elif op == Op.LI:
        regs[ins.rd] = ins.imm
    elif op == Op.MOV:
        regs[ins.rd] = regs[ins.rs1]
    elif op == Op.JMP:
        return ins.target, -1
    elif op == Op.NOP or op == Op.HALT:
        pass
    else:  # pragma: no cover - all opcodes handled above
        raise ValueError(f"unknown opcode {op}")
    return pc + 1, addr


def compute_mem_addr(ins, regs):
    """Address a memory instruction would access, without executing it."""
    if ins.op in (Op.LOADX, Op.STOREX):
        return regs[ins.rs1] + regs[ins.rs2] * ins.imm
    if ins.op in (Op.LOAD, Op.STORE):
        return regs[ins.rs1] + ins.imm
    return -1


def run_functional(program, mem, regs=None, max_instructions=10_000_000,
                   start_pc=0):
    """Pure functional execution (no timing).  Returns (regs, instr_count).

    Used by workload reference checks and by tests.  Stops at HALT or when
    ``max_instructions`` have executed.
    """
    regs = list(regs) if regs is not None else [0] * 32
    if len(regs) != 32:
        raise ValueError("regs must have 32 entries")
    pc = start_pc
    count = 0
    instructions = program.instructions
    while count < max_instructions:
        ins = instructions[pc]
        if ins.op == Op.HALT:
            count += 1
            break
        pc, _ = execute(ins, regs, mem)
        count += 1
    return regs, count
