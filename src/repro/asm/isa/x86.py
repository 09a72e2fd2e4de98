"""Intel x86-64 syntax (Intel operand order) for the modelled subset.

x86-TSO keeps all orderings except write→read, so compilers map C11
loads/stores to plain MOVs; only seq_cst stores need an XCHG (or
MOV+MFENCE).  Locked RMWs (``lock xadd``, ``xchg``…) carry the ``X`` tag,
which the TSO Cat model treats as a full fence.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from .base import (
    Instruction,
    Isa,
    IsaError,
    Op,
    parse_mem,
    register_isa,
    split_operands,
    sym_text,
)

_MEM_RE = re.compile(
    r"(?:(?:byte|word|dword|qword)\s+ptr\s+)?"
    r"\[\s*(?P<base>\w+)\s*(?:\+\s*(?P<off>\d+)\s*)?\]",
    re.IGNORECASE,
)
_LEA_RE = re.compile(
    r"\[\s*rip\s*\+\s*(?P<sym>0x[0-9a-fA-F]+|[A-Za-z_][\w.]*)\s*(?:\+\s*(?P<off>\d+))?\]"
)

_WIDTH_NAME = {8: "byte", 16: "word", 32: "dword", 64: "qword"}
_NAME_WIDTH = {v: k for k, v in _WIDTH_NAME.items()}

_ALU_PRINT = {
    "add": "add", "sub": "sub", "and": "and", "or": "or",
    "xor": "xor", "lsl": "shl", "lsr": "shr", "mul": "imul",
}
_ALU_PARSE = {v: k for k, v in _ALU_PRINT.items()}

_JCC_PRINT = {"eq": "je", "ne": "jne", "lt": "jl", "le": "jle", "gt": "jg", "ge": "jge"}
_JCC_PARSE = {v: k for k, v in _JCC_PRINT.items()}

#: lock-prefixed RMW mnemonics without a result (memory-destination form).
_LOCK_NORESULT = {"add": "add", "sub": "sub", "or": "or", "and": "and", "xor": "xor"}


def _mem(instr: Instruction) -> str:
    width = _WIDTH_NAME.get(instr.width, "dword")
    inner = f"[{instr.addr_reg}+{instr.offset}]" if instr.offset else f"[{instr.addr_reg}]"
    return f"{width} ptr {inner}"


class X86(Isa):
    """The x86-64 ISA front (Intel syntax)."""

    name = "x86_64"
    zero_reg = ""
    value_regs = ("eax", "ecx", "edx", "r10d", "r11d", "ebx")
    addr_regs = ("r8", "r9", "r12", "r13")
    param_regs = ("rdi", "rsi", "rdx", "rcx")
    _fences = {frozenset({"MFENCE"}): "mfence"}

    # ------------------------------------------------------------------ #
    def _print_mnemonic(self, instr: Instruction) -> Optional[str]:
        op = instr.op
        if op is Op.MOVI:
            return f"mov {instr.dst}, {instr.imm}"
        if op is Op.MOVADDR:
            return f"lea {instr.dst}, [rip+{sym_text(instr)}]"
        if op is Op.MOV:
            return f"mov {instr.dst}, {instr.src1}"
        if op is Op.ALU:
            # two-operand x86 form: dst must equal src1
            rhs = str(instr.imm) if instr.src2 is None else instr.src2
            return f"{_ALU_PRINT[instr.alu_op]} {instr.dst}, {rhs}"
        if op is Op.CMP:
            rhs = str(instr.imm) if instr.src2 is None else instr.src2
            return f"cmp {instr.src1}, {rhs}"
        if op is Op.BCOND:
            return f"{_JCC_PRINT[instr.cond]} {instr.label}"
        if op is Op.B:
            return f"jmp {instr.label}"
        if op is Op.LOAD:
            return f"mov {instr.dst}, {_mem(instr)}"
        if op is Op.STORE:
            src = str(instr.imm) if instr.src1 is None else instr.src1
            return f"mov {_mem(instr)}, {src}"
        if op is Op.AMO:
            return self._print_amo(instr)
        return None

    def _print_amo(self, instr: Instruction) -> str:
        if instr.amo_kind == "swap":
            return f"xchg {instr.dst}, {_mem(instr)}"
        if instr.amo_kind == "add" and instr.dst is not None:
            return f"lock xadd {_mem(instr)}, {instr.src1}"
        if instr.dst is None and instr.amo_kind in _LOCK_NORESULT:
            src = str(instr.imm) if instr.src1 is None else instr.src1
            return f"lock {_LOCK_NORESULT[instr.amo_kind]} {_mem(instr)}, {src}"
        raise IsaError(
            f"x86 cannot express a {instr.amo_kind} RMW returning the old value "
            f"without a cmpxchg loop"
        )

    # ------------------------------------------------------------------ #
    def _parse_operands(self, mnem: str, rest: str, text: str) -> Instruction:
        if mnem == "lock" and rest:
            return self._parse_locked(rest.strip())
        return super()._parse_operands(mnem, rest, text)

    def _parse_mnemonic(self, mnem: str, ops: List[str], text: str) -> Instruction:
        if mnem == "ret":
            return Instruction(op=Op.RET)
        if mnem == "mfence":
            return self._barrier(mnem, text)
        if mnem == "jmp":
            return Instruction(op=Op.B, label=ops[0])
        if mnem in _JCC_PARSE:
            return Instruction(op=Op.BCOND, cond=_JCC_PARSE[mnem], label=ops[0])
        if mnem == "lea":
            match = _LEA_RE.fullmatch(ops[1])
            if not match:
                raise IsaError(f"bad lea operand {ops[1]!r}")
            return Instruction(op=Op.MOVADDR, dst=ops[0], symbol=match.group("sym"),
                               offset=int(match.group("off") or 0))
        if mnem == "cmp":
            if ops[1].lstrip("-").isdigit():
                return Instruction(op=Op.CMP, src1=ops[0], imm=int(ops[1]))
            return Instruction(op=Op.CMP, src1=ops[0], src2=ops[1])
        if mnem == "xchg":
            width, base, off = _parse_mem(ops[1])
            return Instruction(op=Op.AMO, amo_kind="swap", dst=ops[0], src1=ops[0],
                               addr_reg=base, offset=off, exclusive=True, width=width)
        if mnem == "mov":
            mem_dst = _MEM_RE.fullmatch(ops[0])
            mem_src = _MEM_RE.fullmatch(ops[1])
            if mem_dst:
                width, base, off = _parse_mem(ops[0])
                if ops[1].lstrip("-").isdigit():
                    return Instruction(op=Op.STORE, imm=int(ops[1]), addr_reg=base,
                                       offset=off, width=width)
                return Instruction(op=Op.STORE, src1=ops[1], addr_reg=base,
                                   offset=off, width=width)
            if mem_src:
                width, base, off = _parse_mem(ops[1])
                return Instruction(op=Op.LOAD, dst=ops[0], addr_reg=base,
                                   offset=off, width=width)
            if ops[1].lstrip("-").isdigit():
                return Instruction(op=Op.MOVI, dst=ops[0], imm=int(ops[1]))
            return Instruction(op=Op.MOV, dst=ops[0], src1=ops[1])
        if mnem in _ALU_PARSE:
            if ops[1].lstrip("-").isdigit():
                return Instruction(op=Op.ALU, dst=ops[0], src1=ops[0],
                                   imm=int(ops[1]), alu_op=_ALU_PARSE[mnem])
            return Instruction(op=Op.ALU, dst=ops[0], src1=ops[0], src2=ops[1],
                               alu_op=_ALU_PARSE[mnem])
        raise IsaError(f"unknown x86 instruction {text!r}")

    def _parse_locked(self, rest: str) -> Instruction:
        mnem, _, operands = rest.partition(" ")
        mnem = mnem.lower()
        ops = split_operands(operands)
        if mnem == "xadd":
            width, base, off = _parse_mem(ops[0])
            return Instruction(op=Op.AMO, amo_kind="add", dst=ops[1], src1=ops[1],
                               addr_reg=base, offset=off, exclusive=True, width=width)
        for kind, name in _LOCK_NORESULT.items():
            if mnem == name:
                width, base, off = _parse_mem(ops[0])
                if ops[1].lstrip("-").isdigit():
                    return Instruction(op=Op.AMO, amo_kind=kind, imm=int(ops[1]),
                                       addr_reg=base, offset=off, exclusive=True,
                                       width=width)
                return Instruction(op=Op.AMO, amo_kind=kind, src1=ops[1],
                                   addr_reg=base, offset=off, exclusive=True,
                                   width=width)
        raise IsaError(f"unknown locked instruction {rest!r}")


def _parse_mem(token: str) -> Tuple[int, str, int]:
    base, off = parse_mem(_MEM_RE, token)
    # a matched operand opens with its width name, or with "[" for none
    return _NAME_WIDTH.get(token.split(None, 1)[0].lower(), 32), base, off


ISA = register_isa(X86())
