"""Architecture-neutral instruction representation.

Every ISA we model (AArch64, Armv7, x86-64, RISC-V, PowerPC, MIPS) lowers
to the same small operation vocabulary; the per-ISA modules provide
mnemonic syntax (printing and parsing, for the objdump/s2l round trip) and
builder helpers used by the compiler back-ends.

Memory-ordering attributes live on the instruction (``acquire``,
``acquire_pc``, ``release``, ``exclusive``, ``fence_tags``) and are turned
into event tags by :mod:`repro.asm.semantics`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

from ...core.registry import Registry


class Op(enum.Enum):
    """The unified micro-operation set."""

    LABEL = "label"        # a branch target
    MOVI = "movi"          # rd := imm
    MOVADDR = "movaddr"    # rd := &symbol   (address materialisation)
    MOV = "mov"            # rd := rs
    ALU = "alu"            # rd := rs1 <alu_op> rs2/imm
    CMP = "cmp"            # set flags from rs1 ? rs2/imm
    BCOND = "bcond"        # conditional branch on flags (or rs1 ? rs2)
    CBZ = "cbz"            # branch if rs == 0
    CBNZ = "cbnz"          # branch if rs != 0
    B = "b"                # unconditional branch
    LOAD = "load"          # rd := [ra + off]
    STORE = "store"        # [ra + off] := rs
    LOADPAIR = "loadpair"  # rd,rd2 := [ra]       (128-bit)
    STOREPAIR = "storepair"  # [ra] := rs,rs2     (128-bit)
    FENCE = "fence"        # memory barrier
    AMO = "amo"            # atomic rd := [ra]; [ra] := old <op> rs
    LDX = "ldx"            # load-exclusive
    STX = "stx"            # store-exclusive (status := 0 on success)
    NOP = "nop"
    RET = "ret"


#: ALU operations understood by the semantics.
ALU_OPS = ("add", "sub", "and", "or", "xor", "lsl", "lsr", "mul")

#: Branch conditions.
CONDS = ("eq", "ne", "lt", "le", "gt", "ge")

#: AMO kinds (matching the C11 RMW kinds).
AMO_KINDS = ("add", "sub", "or", "and", "xor", "swap")


_setattr = object.__setattr__  # writes past the frozen dataclass guard


@dataclass(frozen=True)
class Instruction:
    """One machine instruction in the unified representation.

    ``text`` carries the architecture syntax as produced by the
    disassembler; it is display-only and never interpreted.
    """

    op: Op
    dst: Optional[str] = None
    dst2: Optional[str] = None        # second destination (LOADPAIR)
    src1: Optional[str] = None
    src2: Optional[str] = None
    imm: Optional[int] = None
    symbol: Optional[str] = None      # MOVADDR target / literal symbol
    label: Optional[str] = None       # branch target or LABEL name
    addr_reg: Optional[str] = None    # base register of a memory access
    offset: int = 0                   # immediate offset of a memory access
    width: int = 32
    alu_op: str = ""
    cond: str = ""
    amo_kind: str = ""
    acquire: bool = False             # tag A (LDAR, LDAXR, LDADDA…)
    acquire_pc: bool = False          # tag Q (LDAPR — Armv8.3 RCpc)
    release: bool = False             # tag L (STLR, STLXR, LDADDL…)
    exclusive: bool = False           # tag X (exclusives, x86 locked ops)
    status: Optional[str] = None      # STX success register
    fence_tags: FrozenSet[str] = frozenset()
    text: str = ""

    def with_text(self, text: str) -> "Instruction":
        return self.evolve(text=text)

    def evolve(self, **changes: object) -> "Instruction":
        """A copy with ``changes`` applied to its fields.

        Copies the field values straight across: ``dataclasses.replace``
        would re-read every one of the 22 fields through ``fields()`` and
        re-run ``__init__``, and the disassemble/lift round trip makes one
        copy per instruction.  Setting the fields in declaration order
        keeps the instance dict as compact as one ``__init__`` builds.
        """
        values = self.__dict__
        if not changes.keys() <= values.keys():
            raise TypeError(f"unknown Instruction fields: {sorted(changes.keys() - values.keys())}")
        out = object.__new__(Instruction)
        for name, value in values.items():
            _setattr(out, name, changes.get(name, value))
        return out

    @property
    def is_branch(self) -> bool:
        return self.op in (Op.BCOND, Op.CBZ, Op.CBNZ, Op.B)

    @property
    def is_memory_access(self) -> bool:
        return self.op in (
            Op.LOAD,
            Op.STORE,
            Op.LOADPAIR,
            Op.STOREPAIR,
            Op.AMO,
            Op.LDX,
            Op.STX,
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.text or f"{self.op.value} {self.dst or ''}"


def label(name: str) -> Instruction:
    return Instruction(op=Op.LABEL, label=name, text=f"{name}:")


def nop() -> Instruction:
    return Instruction(op=Op.NOP, text="nop")


class IsaError(ValueError):
    """An ISA module rejected a mnemonic or operand."""


class Isa:
    """Per-architecture syntax and register conventions.

    Concrete subclasses (one per modelled architecture) provide mnemonic
    printing and parsing — the objdump / ``s2l`` round trip of the paper's
    Fig. 6 — plus the register conventions the compiler back-ends use.
    """

    #: registry key and the litmus ``arch`` field value.
    name: str = ""
    #: the always-zero register, or "" when the ISA has none (x86, Armv7).
    zero_reg: str = ""
    #: caller-saved registers codegen may use for values, in allocation order.
    value_regs: Tuple[str, ...] = ()
    #: registers codegen may use to hold addresses.
    addr_regs: Tuple[str, ...] = ()
    #: registers that carry the (up to 8) pointer arguments, in order.
    param_regs: Tuple[str, ...] = ()

    # ------------------------------------------------------------------ #
    def print_instruction(self, instr: Instruction) -> str:
        """Render ``instr`` in this architecture's assembly syntax."""
        raise NotImplementedError

    def parse_line(self, text: str) -> Instruction:
        """Parse one line of this architecture's assembly syntax."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    def render(self, instr: Instruction) -> Instruction:
        """Attach the printed syntax to ``instr.text``."""
        return instr.with_text(self.print_instruction(instr))

    def parse_body(self, lines: "list[str]") -> "list[Instruction]":
        """Parse an instruction sequence, skipping blanks and comments."""
        out = []
        for line in lines:
            stripped = line.split("//")[0].split(";#")[0].strip()
            if not stripped:
                continue
            out.append(self.parse_line(stripped))
        return out


#: the global ISA registry, on the shared protocol of
#: :class:`repro.core.registry.Registry` (did-you-mean errors, overlays).
ISAS: "Registry[Isa]" = Registry("architecture", error=IsaError)


def register_isa(isa: Isa) -> Isa:
    """Add an ISA instance to the global registry (module import time)."""
    return ISAS.register(isa.name, isa, doc=type(isa).__name__)


def ensure_registered() -> None:
    """Import every per-ISA module so ``ISAS`` is fully populated.

    Registration happens as an import side effect; anything that reads
    ``ISAS`` directly (overlays included) must call this first."""
    from . import aarch64, armv7, mips, ppc, riscv, x86  # noqa: F401


def get_isa(name: str) -> Isa:
    """Look up an ISA by its litmus ``arch`` name (e.g. ``aarch64``)."""
    ensure_registered()
    return ISAS.get(name)


def list_isas() -> "list[str]":
    ensure_registered()
    return ISAS.names()
