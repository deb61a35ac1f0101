"""Dynamic (in-flight) instruction record for the timing model."""

from __future__ import annotations

from ..isa.instructions import Op

# Functional-unit classes
FU_ALU = "alu"
FU_MUL = "mul"
FU_DIV = "div"
FU_MEM = "mem"

_FU_FOR_OP = {}
for _op in (Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.SHL, Op.SHR,
            Op.ADDI, Op.ANDI, Op.SHLI, Op.SHRI, Op.LI, Op.MOV,
            Op.CMPLT, Op.CMPLE, Op.CMPEQ, Op.CMPNE, Op.CMPLTI, Op.CMPEQI,
            Op.BNZ, Op.BEZ, Op.JMP, Op.NOP, Op.HALT):
    _FU_FOR_OP[_op] = FU_ALU
for _op in (Op.MUL, Op.MULI, Op.HASH):
    _FU_FOR_OP[_op] = FU_MUL
_FU_FOR_OP[Op.DIV] = FU_DIV
for _op in (Op.LOAD, Op.LOADX, Op.STORE, Op.STOREX):
    _FU_FOR_OP[_op] = FU_MEM


def fu_class(op):
    return _FU_FOR_OP[op]


class DynIns:
    """One in-flight dynamic instruction."""

    __slots__ = ("seq", "ins", "pc", "mem_addr", "value",
                 "dispatch_cycle", "issue_cycle", "complete_cycle",
                 "issued", "completed", "pending", "dependents",
                 "fu", "mispredicted", "taken", "mem_level", "parked")

    def __init__(self, seq, ins, dispatch_cycle):
        self.seq = seq
        self.ins = ins
        self.pc = ins.pc
        self.mem_addr = -1
        self.value = 0              # load result (for prefetcher training)
        self.dispatch_cycle = dispatch_cycle
        self.issue_cycle = -1
        self.complete_cycle = -1
        self.issued = False
        self.completed = False
        self.pending = 0            # outstanding source operands
        self.dependents = []        # DynIns waiting on our destination
        self.fu = fu_class(ins.op)
        self.mispredicted = False
        self.taken = False
        self.mem_level = None       # cache level a load hit in
        self.parked = -1            # refusal token (MshrFile.version)

    def __repr__(self):
        state = "C" if self.completed else ("I" if self.issued else "W")
        return f"<#{self.seq} pc={self.pc} {self.ins.name} {state}>"
