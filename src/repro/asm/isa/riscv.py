"""RISC-V (RV64, A extension) syntax for the modelled subset.

RVWMO orders through explicit ``fence pred,succ`` instructions and
``.aq``/``.rl`` annotations on AMOs and LR/SC.  The annotations map to the
cross-architecture ``A``/``L`` event tags consumed by
:mod:`repro.cat.models.riscv`.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

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

_MEM_RE = re.compile(r"(?P<off>-?\d+)?\(\s*(?P<base>[\w$]+)\s*\)")

_ALU_PRINT = {
    "add": "add", "sub": "sub", "and": "and", "or": "or",
    "xor": "xor", "lsl": "sll", "lsr": "srl", "mul": "mul",
}
_ALU_PARSE = {v: k for k, v in _ALU_PRINT.items()}
_ALU_IMM = {"add": "addi", "and": "andi", "or": "ori", "xor": "xori",
            "lsl": "slli", "lsr": "srli"}
_ALU_IMM_PARSE = {v: k for k, v in _ALU_IMM.items()}

_BRANCH_PRINT = {"eq": "beq", "ne": "bne", "lt": "blt", "ge": "bge"}
_BRANCH_PARSE = {v: k for k, v in _BRANCH_PRINT.items()}

_AMO_NAMES = {"add": "amoadd", "or": "amoor", "and": "amoand",
              "xor": "amoxor", "swap": "amoswap"}
_AMO_PARSE = {v: k for k, v in _AMO_NAMES.items()}


def _ordering_suffix(instr: Instruction) -> str:
    if instr.acquire and instr.release:
        return ".aqrl"
    if instr.acquire:
        return ".aq"
    if instr.release:
        return ".rl"
    return ""


class RiscV(Isa):
    """The RV64 ISA front."""

    name = "riscv64"
    zero_reg = "zero"
    value_regs = ("a5", "a6", "a7", "t0", "t1", "t2", "t3")
    addr_regs = ("a0", "a1", "a2", "a3")
    param_regs = ("a0", "a1", "a2", "a3")
    _fences = {
        frozenset({"FENCE.RW.RW"}): "fence rw,rw",
        frozenset({"FENCE.R.RW"}): "fence r,rw",
        frozenset({"FENCE.RW.W"}): "fence rw,w",
        frozenset({"FENCE.W.W"}): "fence w,w",
        frozenset({"FENCE.R.R"}): "fence r,r",
        frozenset({"FENCE.TSO"}): "fence.tso",
    }

    # ------------------------------------------------------------------ #
    def _print_mnemonic(self, instr: Instruction) -> Optional[str]:
        op = instr.op
        if op is Op.MOVI:
            return f"li {instr.dst}, {instr.imm}"
        if op is Op.MOVADDR:
            return f"la {instr.dst}, {sym_text(instr)}"
        if op is Op.MOV:
            return f"mv {instr.dst}, {instr.src1}"
        if op is Op.ALU:
            return print_alu(instr, _ALU_PRINT, _ALU_IMM, "riscv {} has no immediate form")
        if op is Op.BCOND:
            if instr.cond not in _BRANCH_PRINT:
                raise IsaError(f"riscv has no b{instr.cond}; negate the condition")
            rhs = instr.src2 or self.zero_reg
            return f"{_BRANCH_PRINT[instr.cond]} {instr.src1}, {rhs}, {instr.label}"
        if op is Op.CBZ:
            return f"beqz {instr.src1}, {instr.label}"
        if op is Op.CBNZ:
            return f"bnez {instr.src1}, {instr.label}"
        if op is Op.B:
            return f"j {instr.label}"
        if op is Op.LOAD:
            mnem = "ld" if instr.width == 64 else "lw"
            return f"{mnem} {instr.dst}, {paren_mem(instr)}"
        if op is Op.STORE:
            mnem = "sd" if instr.width == 64 else "sw"
            return f"{mnem} {instr.src1}, {paren_mem(instr)}"
        if op is Op.AMO:
            size = ".d" if instr.width == 64 else ".w"
            name = _AMO_NAMES[instr.amo_kind]
            dst = instr.dst or self.zero_reg
            return (
                f"{name}{size}{_ordering_suffix(instr)} "
                f"{dst}, {instr.src1}, ({instr.addr_reg})"
            )
        if op is Op.LDX:
            size = ".d" if instr.width == 64 else ".w"
            return f"lr{size}{_ordering_suffix(instr)} {instr.dst}, ({instr.addr_reg})"
        if op is Op.STX:
            size = ".d" if instr.width == 64 else ".w"
            return (
                f"sc{size}{_ordering_suffix(instr)} "
                f"{instr.status}, {instr.src1}, ({instr.addr_reg})"
            )
        return None

    # ------------------------------------------------------------------ #
    def _parse_operands(self, mnem: str, rest: str, text: str) -> Instruction:
        if mnem == "fence":  # ``fence rw, w`` spells ``fence rw,w``
            tags = self._fence_tags.get(f"fence {rest.replace(' ', '')}")
            if tags is None:
                raise IsaError(f"unknown fence {text!r}")
            return Instruction(op=Op.FENCE, fence_tags=tags)
        return super()._parse_operands(mnem, rest, text)

    def _parse_mnemonic(self, mnem: str, ops: List[str], text: str) -> Instruction:
        if mnem == "ret":
            return Instruction(op=Op.RET)
        if mnem == "li":
            return Instruction(op=Op.MOVI, dst=ops[0], imm=int(ops[1], 0))
        if mnem == "la":
            symbol, offset = sym_offset(ops[1])
            return Instruction(op=Op.MOVADDR, dst=ops[0], symbol=symbol, offset=offset)
        if mnem == "mv":
            return Instruction(op=Op.MOV, dst=ops[0], src1=ops[1])
        if mnem == "j":
            return Instruction(op=Op.B, label=ops[0])
        if mnem == "beqz":
            return Instruction(op=Op.CBZ, src1=ops[0], label=ops[1])
        if mnem == "bnez":
            return Instruction(op=Op.CBNZ, src1=ops[0], label=ops[1])
        if mnem in _BRANCH_PARSE:
            return Instruction(op=Op.BCOND, cond=_BRANCH_PARSE[mnem],
                               src1=ops[0], src2=ops[1], label=ops[2])
        alu = parse_alu(mnem, ops, _ALU_PARSE, _ALU_IMM_PARSE)
        if alu is not None:
            return alu
        if mnem in ("lw", "ld"):
            base, off = parse_mem(_MEM_RE, ops[1])
            return Instruction(op=Op.LOAD, dst=ops[0], addr_reg=base, offset=off,
                               width=64 if mnem == "ld" else 32)
        if mnem in ("sw", "sd"):
            base, off = parse_mem(_MEM_RE, ops[1])
            return Instruction(op=Op.STORE, src1=ops[0], addr_reg=base, offset=off,
                               width=64 if mnem == "sd" else 32)
        parts = mnem.split(".")
        if parts[0] in _AMO_PARSE and len(parts) >= 2:
            base, off = parse_mem(_MEM_RE, ops[2])
            acq, rel = _parse_ordering(parts[2:])
            return Instruction(op=Op.AMO, amo_kind=_AMO_PARSE[parts[0]],
                               dst=None if ops[0] == self.zero_reg else ops[0],
                               src1=ops[1], addr_reg=base, offset=off,
                               acquire=acq, release=rel, exclusive=True,
                               width=64 if parts[1] == "d" else 32)
        if parts[0] == "lr" and len(parts) >= 2:
            base, off = parse_mem(_MEM_RE, ops[1])
            acq, rel = _parse_ordering(parts[2:])
            return Instruction(op=Op.LDX, dst=ops[0], addr_reg=base, offset=off,
                               acquire=acq, release=rel, exclusive=True,
                               width=64 if parts[1] == "d" else 32)
        if parts[0] == "sc" and len(parts) >= 2:
            base, off = parse_mem(_MEM_RE, ops[2])
            acq, rel = _parse_ordering(parts[2:])
            # RISC-V sc writes 0 to rd on success (the default convention)
            return Instruction(op=Op.STX, status=ops[0], src1=ops[1],
                               addr_reg=base, offset=off,
                               acquire=acq, release=rel, exclusive=True,
                               width=64 if parts[1] == "d" else 32)
        raise IsaError(f"unknown riscv instruction {text!r}")


def _parse_ordering(parts: List[str]) -> Tuple[bool, bool]:
    if not parts:
        return False, False
    tag = parts[0]
    return "aq" in tag, "rl" in tag


ISA = register_isa(RiscV())
