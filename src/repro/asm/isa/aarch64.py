"""Armv8 AArch64 syntax: printing and parsing of the modelled subset.

Covers the instructions our compiler back-end emits and the paper's bug
studies use: LDR/STR (+LDAR/STLR/LDAPR), exclusives (LDXR/STXR and the
128-bit LDXP/STXP), LSE atomics (LDADD/LDEOR/LDSET/LDCLR/SWP and their
ST-form aliases), pairs (LDP/STP), barriers (DMB ISH/ISHLD/ISHST, ISB),
moves, ALU, compare and branch.

``adrp x8, sym`` here stands for the fused ADRP+ADD (or ADRP+LDR-from-GOT
when followed by a load from the GOT slot) address-materialisation
sequence the paper's §IV-E optimisation targets.
"""

from __future__ import annotations

from typing import List, Optional

from .base import (
    BRACKET_MEM,
    Instruction,
    Isa,
    IsaError,
    Op,
    bracket_mem,
    parse_imm,
    parse_mem,
    register_isa,
    sym_offset,
    sym_text,
)

#: LSE base mnemonic per AMO kind (ld-form).
_AMO_BASE = {"add": "ldadd", "or": "ldset", "and": "ldclr", "xor": "ldeor"}
_AMO_KIND = {v: k for k, v in _AMO_BASE.items()}
_ST_BASE = {"add": "stadd", "or": "stset", "and": "stclr", "xor": "steor"}
_ST_KIND = {v: k for k, v in _ST_BASE.items()}

_ALU_PRINT = {
    "add": "add",
    "sub": "sub",
    "and": "and",
    "or": "orr",
    "xor": "eor",
    "lsl": "lsl",
    "lsr": "lsr",
    "mul": "mul",
}
_ALU_PARSE = {v: k for k, v in _ALU_PRINT.items()}


def _reg_width(reg: Optional[str]) -> int:
    if reg and reg[0] in ("x",) or reg in ("xzr",):
        return 64
    return 32


class AArch64(Isa):
    """The AArch64 ISA front."""

    name = "aarch64"
    zero_reg = "xzr"
    value_regs = ("w12", "w13", "w14", "w15", "w16", "w17", "w19", "w20")
    addr_regs = ("x8", "x9", "x10", "x11")
    param_regs = ("x0", "x1", "x2", "x3", "x4", "x5", "x6", "x7")
    _fences = {
        frozenset({"DMB.SY"}): "dmb ish",
        frozenset({"DMB.LD"}): "dmb ishld",
        frozenset({"DMB.ST"}): "dmb ishst",
        frozenset({"ISB"}): "isb",
    }

    # ------------------------------------------------------------------ #
    # printing
    # ------------------------------------------------------------------ #
    def _print_mnemonic(self, instr: Instruction) -> Optional[str]:
        op = instr.op
        if op is Op.MOVI:
            return f"mov {instr.dst}, #{instr.imm}"
        if op is Op.MOVADDR:
            return f"adrp {instr.dst}, {sym_text(instr)}"
        if op is Op.MOV:
            return f"mov {instr.dst}, {instr.src1}"
        if op is Op.ALU:
            rhs = f"#{instr.imm}" if instr.src2 is None else instr.src2
            return f"{_ALU_PRINT[instr.alu_op]} {instr.dst}, {instr.src1}, {rhs}"
        if op is Op.CMP:
            rhs = f"#{instr.imm}" if instr.src2 is None else instr.src2
            return f"cmp {instr.src1}, {rhs}"
        if op is Op.BCOND:
            return f"b.{instr.cond} {instr.label}"
        if op is Op.CBZ:
            return f"cbz {instr.src1}, {instr.label}"
        if op is Op.CBNZ:
            return f"cbnz {instr.src1}, {instr.label}"
        if op is Op.B:
            return f"b {instr.label}"
        if op is Op.LOAD:
            mnem = "ldapr" if instr.acquire_pc else ("ldar" if instr.acquire else "ldr")
            return f"{mnem} {instr.dst}, {bracket_mem(instr)}"
        if op is Op.STORE:
            mnem = "stlr" if instr.release else "str"
            return f"{mnem} {instr.src1}, {bracket_mem(instr)}"
        if op is Op.LOADPAIR:
            return f"ldp {instr.dst}, {instr.dst2}, {bracket_mem(instr)}"
        if op is Op.STOREPAIR:
            return f"stp {instr.src1}, {instr.src2}, {bracket_mem(instr)}"
        if op is Op.LDX:
            if instr.width == 128:
                mnem = "ldaxp" if instr.acquire else "ldxp"
                return f"{mnem} {instr.dst}, {instr.dst2}, {bracket_mem(instr)}"
            mnem = "ldaxr" if instr.acquire else "ldxr"
            return f"{mnem} {instr.dst}, {bracket_mem(instr)}"
        if op is Op.STX:
            if instr.width == 128:
                mnem = "stlxp" if instr.release else "stxp"
                return f"{mnem} {instr.status}, {instr.src1}, {instr.src2}, {bracket_mem(instr)}"
            mnem = "stlxr" if instr.release else "stxr"
            return f"{mnem} {instr.status}, {instr.src1}, {bracket_mem(instr)}"
        if op is Op.AMO:
            return self._print_amo(instr)
        return None

    def _print_amo(self, instr: Instruction) -> str:
        suffix = ("a" if instr.acquire else "") + ("l" if instr.release else "")
        no_result = instr.dst is None or instr.dst in ("xzr", "wzr")
        if instr.amo_kind == "swap":
            dst = instr.dst or "wzr"
            return f"swp{suffix} {instr.src1}, {dst}, {bracket_mem(instr)}"
        if no_result:
            # the ST<OP> alias: LDADD with an XZR destination (paper Fig. 10)
            st_suffix = "l" if instr.release else ""
            return f"{_ST_BASE[instr.amo_kind]}{st_suffix} {instr.src1}, {bracket_mem(instr)}"
        base = _AMO_BASE[instr.amo_kind]
        return f"{base}{suffix} {instr.src1}, {instr.dst}, {bracket_mem(instr)}"

    # ------------------------------------------------------------------ #
    # parsing
    # ------------------------------------------------------------------ #
    def _parse_mnemonic(self, mnem: str, ops: List[str], text: str) -> Instruction:
        if mnem == "ret":
            return Instruction(op=Op.RET)
        if mnem == "isb":
            return self._barrier(mnem, text)
        if mnem == "dmb":
            return self._barrier(f"dmb {ops[0].lower()}", text)
        if mnem == "mov":
            if ops[1].startswith("#"):
                return Instruction(op=Op.MOVI, dst=ops[0], imm=parse_imm(ops[1]),
                                   width=_reg_width(ops[0]))
            return Instruction(op=Op.MOV, dst=ops[0], src1=ops[1])
        if mnem == "adrp":
            symbol, offset = sym_offset(ops[1])
            return Instruction(op=Op.MOVADDR, dst=ops[0], symbol=symbol, offset=offset)
        if mnem in _ALU_PARSE:
            if ops[2].startswith("#"):
                return Instruction(op=Op.ALU, dst=ops[0], src1=ops[1],
                                   imm=parse_imm(ops[2]), alu_op=_ALU_PARSE[mnem])
            return Instruction(op=Op.ALU, dst=ops[0], src1=ops[1], src2=ops[2],
                               alu_op=_ALU_PARSE[mnem])
        if mnem == "cmp":
            if ops[1].startswith("#"):
                return Instruction(op=Op.CMP, src1=ops[0], imm=parse_imm(ops[1]))
            return Instruction(op=Op.CMP, src1=ops[0], src2=ops[1])
        if mnem.startswith("b.") and len(mnem) == 4:
            return Instruction(op=Op.BCOND, cond=mnem[2:], label=ops[0])
        if mnem == "cbz":
            return Instruction(op=Op.CBZ, src1=ops[0], label=ops[1])
        if mnem == "cbnz":
            return Instruction(op=Op.CBNZ, src1=ops[0], label=ops[1])
        if mnem == "b":
            return Instruction(op=Op.B, label=ops[0])
        if mnem in ("ldr", "ldar", "ldapr"):
            base, off = parse_mem(BRACKET_MEM, ops[1])
            return Instruction(
                op=Op.LOAD, dst=ops[0], addr_reg=base, offset=off,
                acquire=(mnem == "ldar"), acquire_pc=(mnem == "ldapr"),
                width=_reg_width(ops[0]),
            )
        if mnem in ("str", "stlr"):
            base, off = parse_mem(BRACKET_MEM, ops[1])
            return Instruction(
                op=Op.STORE, src1=ops[0], addr_reg=base, offset=off,
                release=(mnem == "stlr"), width=_reg_width(ops[0]),
            )
        if mnem in ("ldxr", "ldaxr"):
            base, off = parse_mem(BRACKET_MEM, ops[1])
            return Instruction(
                op=Op.LDX, dst=ops[0], addr_reg=base, offset=off,
                acquire=(mnem == "ldaxr"), exclusive=True,
                width=_reg_width(ops[0]),
            )
        if mnem in ("stxr", "stlxr"):
            base, off = parse_mem(BRACKET_MEM, ops[2])
            return Instruction(
                op=Op.STX, status=ops[0], src1=ops[1], addr_reg=base, offset=off,
                release=(mnem == "stlxr"), exclusive=True,
                width=_reg_width(ops[1]),
            )
        if mnem in ("ldp",):
            base, off = parse_mem(BRACKET_MEM, ops[2])
            return Instruction(op=Op.LOADPAIR, dst=ops[0], dst2=ops[1],
                               addr_reg=base, offset=off, width=128)
        if mnem in ("stp",):
            base, off = parse_mem(BRACKET_MEM, ops[2])
            return Instruction(op=Op.STOREPAIR, src1=ops[0], src2=ops[1],
                               addr_reg=base, offset=off, width=128)
        if mnem in ("ldxp", "ldaxp"):
            base, off = parse_mem(BRACKET_MEM, ops[2])
            return Instruction(
                op=Op.LDX, dst=ops[0], dst2=ops[1], addr_reg=base, offset=off,
                acquire=(mnem == "ldaxp"), exclusive=True, width=128,
            )
        if mnem in ("stxp", "stlxp"):
            base, off = parse_mem(BRACKET_MEM, ops[3])
            return Instruction(
                op=Op.STX, status=ops[0], src1=ops[1], src2=ops[2],
                addr_reg=base, offset=off, release=(mnem == "stlxp"),
                exclusive=True, width=128,
            )
        amo = self._parse_amo(mnem, ops)
        if amo is not None:
            return amo
        raise IsaError(f"unknown aarch64 instruction {text!r}")

    def _parse_amo(self, mnem: str, ops: List[str]) -> Optional[Instruction]:
        if mnem.startswith("swp"):
            suffix = mnem[3:]
            if suffix not in ("", "a", "l", "al"):
                return None
            base_reg, off = parse_mem(BRACKET_MEM, ops[2])
            return Instruction(
                op=Op.AMO, amo_kind="swap", src1=ops[0], dst=ops[1],
                addr_reg=base_reg, offset=off,
                acquire="a" in suffix, release="l" in suffix,
                width=_reg_width(ops[1]),
            )
        for base, kind in _AMO_KIND.items():
            if mnem.startswith(base):
                suffix = mnem[len(base):]
                if suffix not in ("", "a", "l", "al"):
                    continue
                base_reg, off = parse_mem(BRACKET_MEM, ops[2])
                return Instruction(
                    op=Op.AMO, amo_kind=kind, src1=ops[0], dst=ops[1],
                    addr_reg=base_reg, offset=off,
                    acquire="a" in suffix, release="l" in suffix,
                    width=_reg_width(ops[1]),
                )
        for base, kind in _ST_KIND.items():
            if mnem.startswith(base):
                suffix = mnem[len(base):]
                if suffix not in ("", "l"):
                    continue
                base_reg, off = parse_mem(BRACKET_MEM, ops[1])
                return Instruction(
                    op=Op.AMO, amo_kind=kind, src1=ops[0], dst=None,
                    addr_reg=base_reg, offset=off, release=(suffix == "l"),
                    width=_reg_width(ops[0]),
                )
        return None


ISA = register_isa(AArch64())
