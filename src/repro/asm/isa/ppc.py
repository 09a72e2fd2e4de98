"""IBM PowerPC (64-bit) syntax for the modelled subset.

PowerPC orders through ``sync`` (full), ``lwsync`` (lightweight) and
``isync`` (with a control dependency); RMWs are LWARX/STWCX. loops.
``stwcx.`` reports success through condition register CR0, so it has no
status register here — the semantics models success by setting the flags
to "equal", which makes the following ``bne`` retry branch fall through.

``la r9, sym`` stands for the TOC-relative ADDIS/ADDI address
materialisation pair.
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

_MEM_RE = re.compile(r"(?P<off>-?\d+)?\(\s*(?P<base>\w+)\s*\)")

_ALU_PRINT = {
    "add": "add", "sub": "subf", "and": "and", "or": "or",
    "xor": "xor", "lsl": "slw", "lsr": "srw", "mul": "mullw",
}
_ALU_PARSE = {v: k for k, v in _ALU_PRINT.items()}

_BC_PRINT = {"eq": "beq", "ne": "bne", "lt": "blt", "le": "ble", "gt": "bgt", "ge": "bge"}
_BC_PARSE = {v: k for k, v in _BC_PRINT.items()}

#: immediate ALU mnemonics; `sub imm` becomes addi with a negated value.
_ALU_IMM = {"add": "addi", "and": "andi.", "or": "ori", "xor": "xori",
            "lsl": "slwi", "lsr": "srwi"}
_ALU_IMM_PARSE = {v: k for k, v in _ALU_IMM.items()}


class Ppc(Isa):
    """The PowerPC64 ISA front."""

    name = "ppc64"
    zero_reg = ""
    value_regs = ("r14", "r15", "r16", "r17", "r18", "r19")
    addr_regs = ("r7", "r8", "r9", "r10")
    param_regs = ("r3", "r4", "r5", "r6")
    _ret_text = "blr"
    _fences = {
        frozenset({"SYNC"}): "sync",
        frozenset({"LWSYNC"}): "lwsync",
        frozenset({"ISYNC"}): "isync",
        frozenset({"EIEIO"}): "eieio",
    }

    # ------------------------------------------------------------------ #
    def _print_mnemonic(self, instr: Instruction) -> Optional[str]:
        op = instr.op
        if op is Op.MOVI:
            return f"li {instr.dst}, {instr.imm}"
        if op is Op.MOVADDR:
            return f"la {instr.dst}, {sym_text(instr)}"
        if op is Op.MOV:
            return f"mr {instr.dst}, {instr.src1}"
        if op is Op.ALU:
            return print_alu(instr, _ALU_PRINT, _ALU_IMM, "ppc has no immediate form for {}")
        if op is Op.CMP:
            if instr.src2 is None:
                return f"cmpwi {instr.src1}, {instr.imm}"
            return f"cmpw {instr.src1}, {instr.src2}"
        if op is Op.BCOND:
            return f"{_BC_PRINT[instr.cond]} {instr.label}"
        if op is Op.B:
            return f"b {instr.label}"
        if op is Op.LOAD:
            mnem = "ld" if instr.width == 64 else "lwz"
            return f"{mnem} {instr.dst}, {paren_mem(instr)}"
        if op is Op.STORE:
            mnem = "std" if instr.width == 64 else "stw"
            return f"{mnem} {instr.src1}, {paren_mem(instr)}"
        if op is Op.LDX:
            mnem = "ldarx" if instr.width == 64 else "lwarx"
            return f"{mnem} {instr.dst}, 0, {instr.addr_reg}"
        if op is Op.STX:
            mnem = "stdcx." if instr.width == 64 else "stwcx."
            return f"{mnem} {instr.src1}, 0, {instr.addr_reg}"
        return None

    # ------------------------------------------------------------------ #
    def _parse_mnemonic(self, mnem: str, ops: List[str], text: str) -> Instruction:
        if mnem == "blr":
            return Instruction(op=Op.RET)
        if mnem == "li":
            return Instruction(op=Op.MOVI, dst=ops[0], imm=int(ops[1], 0))
        if mnem == "la":
            symbol, offset = sym_offset(ops[1])
            return Instruction(op=Op.MOVADDR, dst=ops[0], symbol=symbol, offset=offset)
        if mnem == "mr":
            return Instruction(op=Op.MOV, dst=ops[0], src1=ops[1])
        alu = parse_alu(mnem, ops, _ALU_PARSE, _ALU_IMM_PARSE)
        if alu is not None:
            return alu
        if mnem == "cmpwi":
            return Instruction(op=Op.CMP, src1=ops[0], imm=int(ops[1], 0))
        if mnem == "cmpw":
            return Instruction(op=Op.CMP, src1=ops[0], src2=ops[1])
        if mnem == "b":
            return Instruction(op=Op.B, label=ops[0])
        if mnem in _BC_PARSE:
            return Instruction(op=Op.BCOND, cond=_BC_PARSE[mnem], label=ops[0])
        if mnem in ("lwz", "ld"):
            base, off = parse_mem(_MEM_RE, ops[1])
            return Instruction(op=Op.LOAD, dst=ops[0], addr_reg=base, offset=off,
                               width=64 if mnem == "ld" else 32)
        if mnem in ("stw", "std"):
            base, off = parse_mem(_MEM_RE, ops[1])
            return Instruction(op=Op.STORE, src1=ops[0], addr_reg=base, offset=off,
                               width=64 if mnem == "std" else 32)
        if mnem in ("lwarx", "ldarx"):
            return Instruction(op=Op.LDX, dst=ops[0], addr_reg=ops[2],
                               exclusive=True, width=64 if mnem == "ldarx" else 32)
        if mnem in ("stwcx.", "stdcx."):
            return Instruction(op=Op.STX, src1=ops[0], addr_reg=ops[2],
                               exclusive=True, width=64 if mnem == "stdcx." else 32)
        raise IsaError(f"unknown ppc instruction {text!r}")


ISA = register_isa(Ppc())
