"""MIPS (64-bit) syntax for the modelled subset.

MIPS has a single full barrier, ``sync``, and LL/SC exclusives.  GCC's
MIPS backend treats atomic data as ``volatile`` and brackets every atomic
access in ``sync`` (the paper's §IV-C missed-optimisation report [40]);
our compiler mapping mirrors that conservatism, which is why MIPS shows
zero positive and the most negative differences in Table IV.

MIPS ``sc`` writes 1 to the value register on success (the opposite of
the AArch64/RISC-V convention); the success value rides in ``imm``.
"""

from __future__ import annotations

import re
from typing import List, Optional

from .base import (
    Instruction,
    Isa,
    IsaError,
    Op,
    paren_mem,
    parse_alu,
    parse_mem,
    print_alu,
    register_isa,
    sym_offset,
    sym_text,
)

_MEM_RE = re.compile(r"(?P<off>-?\d+)?\(\s*(?P<base>\$\w+)\s*\)")

_ALU_PRINT = {
    "add": "addu", "sub": "subu", "and": "and", "or": "or",
    "xor": "xor", "lsl": "sll", "lsr": "srl", "mul": "mul",
}
_ALU_PARSE = {v: k for k, v in _ALU_PRINT.items()}

_BRANCH_PRINT = {"eq": "beq", "ne": "bne"}
_BRANCH_PARSE = {v: k for k, v in _BRANCH_PRINT.items()}

#: immediate ALU mnemonics; `sub imm` prints as addiu with a negated
#: immediate, as assemblers conventionally accept.
_ALU_IMM = {"add": "addiu", "and": "andi", "or": "ori", "xor": "xori",
            "lsl": "sll", "lsr": "srl"}
_ALU_IMM_PARSE = {v: k for k, v in _ALU_IMM.items()}


class Mips(Isa):
    """The MIPS64 ISA front (o64-ish conventions, $-register names)."""

    name = "mips64"
    zero_reg = "$zero"
    value_regs = ("$2", "$3", "$8", "$9", "$10", "$11")
    addr_regs = ("$4", "$5", "$6", "$7")
    param_regs = ("$4", "$5", "$6", "$7")
    _ret_text = "jr $ra"
    _fences = {frozenset({"MIPS.SYNC"}): "sync"}

    # ------------------------------------------------------------------ #
    def _print_mnemonic(self, instr: Instruction) -> Optional[str]:
        op = instr.op
        if op is Op.MOVI:
            return f"li {instr.dst}, {instr.imm}"
        if op is Op.MOVADDR:
            return f"la {instr.dst}, {sym_text(instr)}"
        if op is Op.MOV:
            return f"move {instr.dst}, {instr.src1}"
        if op is Op.ALU:
            return print_alu(instr, _ALU_PRINT, _ALU_IMM, "mips has no immediate form for {}")
        if op is Op.BCOND:
            if instr.cond not in _BRANCH_PRINT:
                raise IsaError(f"mips has no b{instr.cond} in the modelled subset")
            rhs = instr.src2 or self.zero_reg
            return f"{_BRANCH_PRINT[instr.cond]} {instr.src1}, {rhs}, {instr.label}"
        if op is Op.CBZ:
            return f"beqz {instr.src1}, {instr.label}"
        if op is Op.CBNZ:
            return f"bnez {instr.src1}, {instr.label}"
        if op is Op.B:
            return f"b {instr.label}"
        if op is Op.LOAD:
            mnem = "ld" if instr.width == 64 else "lw"
            return f"{mnem} {instr.dst}, {paren_mem(instr)}"
        if op is Op.STORE:
            mnem = "sd" if instr.width == 64 else "sw"
            return f"{mnem} {instr.src1}, {paren_mem(instr)}"
        if op is Op.LDX:
            mnem = "lld" if instr.width == 64 else "ll"
            return f"{mnem} {instr.dst}, {paren_mem(instr)}"
        if op is Op.STX:
            mnem = "scd" if instr.width == 64 else "sc"
            return f"{mnem} {instr.src1}, {paren_mem(instr)}"
        return None

    # ------------------------------------------------------------------ #
    def _parse_mnemonic(self, mnem: str, ops: List[str], text: str) -> Instruction:
        if mnem == "jr":
            return Instruction(op=Op.RET)
        if mnem == "li":
            return Instruction(op=Op.MOVI, dst=ops[0], imm=int(ops[1], 0))
        if mnem == "la":
            symbol, offset = sym_offset(ops[1])
            return Instruction(op=Op.MOVADDR, dst=ops[0], symbol=symbol, offset=offset)
        if mnem == "move":
            return Instruction(op=Op.MOV, dst=ops[0], src1=ops[1])
        alu = parse_alu(mnem, ops, _ALU_PARSE, _ALU_IMM_PARSE)
        if alu is not None:
            return alu
        if mnem in ("b", "j"):
            return Instruction(op=Op.B, label=ops[0])
        if mnem == "beqz":
            return Instruction(op=Op.CBZ, src1=ops[0], label=ops[1])
        if mnem == "bnez":
            return Instruction(op=Op.CBNZ, src1=ops[0], label=ops[1])
        if mnem in _BRANCH_PARSE:
            return Instruction(op=Op.BCOND, cond=_BRANCH_PARSE[mnem],
                               src1=ops[0], src2=ops[1], label=ops[2])
        if mnem in ("lw", "ld"):
            base, off = parse_mem(_MEM_RE, ops[1])
            return Instruction(op=Op.LOAD, dst=ops[0], addr_reg=base, offset=off,
                               width=64 if mnem == "ld" else 32)
        if mnem in ("sw", "sd"):
            base, off = parse_mem(_MEM_RE, ops[1])
            return Instruction(op=Op.STORE, src1=ops[0], addr_reg=base, offset=off,
                               width=64 if mnem == "sd" else 32)
        if mnem in ("ll", "lld"):
            base, off = parse_mem(_MEM_RE, ops[1])
            return Instruction(op=Op.LDX, dst=ops[0], addr_reg=base, offset=off,
                               exclusive=True, width=64 if mnem == "lld" else 32)
        if mnem in ("sc", "scd"):
            base, off = parse_mem(_MEM_RE, ops[1])
            # MIPS sc overwrites the value register with 1 on success
            return Instruction(op=Op.STX, status=ops[0], src1=ops[0],
                               addr_reg=base, offset=off, imm=1, exclusive=True,
                               width=64 if mnem == "scd" else 32)
        raise IsaError(f"unknown mips instruction {text!r}")


ISA = register_isa(Mips())
