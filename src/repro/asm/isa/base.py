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
from dataclasses import dataclass, fields, is_dataclass
from functools import lru_cache
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
        re-run ``__init__``.  Setting the fields in declaration order
        keeps the instance dict as compact as one ``__init__`` builds.
        Only fields are copied, never the cached :meth:`canonical` form,
        which belongs to the original's field values.
        """
        unknown = changes.keys() - _FIELD_SET
        if unknown:
            raise TypeError(f"unknown Instruction fields: {sorted(unknown)}")
        values = self.__dict__
        out = object.__new__(Instruction)
        for name in _FIELDS:
            _setattr(out, name, changes[name] if name in changes else values[name])
        return out

    def canonical(self) -> str:
        """Every field rendered as :func:`canonical` renders a dataclass,
        computed once per instance: a lifted test's content digest
        (:meth:`~repro.asm.litmus.AsmLitmus.digest`) joins these instead
        of walking the fields of every instruction again."""
        cached = self.__dict__.get("_canonical")
        if cached is None:
            cached = _canonical_fields(self, _FIELDS)
            _setattr(self, "_canonical", cached)
        return cached

    @property
    def is_branch(self) -> bool:
        return self.op in (Op.BCOND, Op.CBZ, Op.CBNZ, Op.B)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.text or f"{self.op.value} {self.dst or ''}"


_FIELDS: Tuple[str, ...] = tuple(f.name for f in fields(Instruction))
_FIELD_SET = frozenset(_FIELDS)

#: values ``repr`` renders canonically as they are.
_ATOMS = frozenset({str, int, bool, float, type(None)})


@lru_cache(maxsize=None)
def _field_names(kind: type) -> Tuple[str, ...]:
    return tuple(f.name for f in fields(kind)) if is_dataclass(kind) else ()


def _canonical_fields(value: object, names: Tuple[str, ...]) -> str:
    parts = [getattr(value, name) for name in names]
    inner = [repr(v) if type(v) in _ATOMS else canonical(v) for v in parts]
    return f"{type(value).__name__}({','.join(inner)})"


def canonical(value: object) -> str:
    """``value`` rendered so that no hash seed can reorder it: dataclasses
    field by field, dicts and sets sorted.  An :class:`Instruction`
    answers from its cached :meth:`~Instruction.canonical` form."""
    if type(value) is Instruction:
        return value.canonical()
    names = _field_names(type(value))
    if names:
        return _canonical_fields(value, names)
    if isinstance(value, dict):
        items = (f"{canonical(k)}:{canonical(v)}" for k, v in value.items())
        return "{" + ",".join(sorted(items)) + "}"
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(map(canonical, value))) + "}"
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(map(canonical, value)) + ")"
    return repr(value)


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
        """Attach the printed syntax to ``instr.text``.

        Equal instructions render to one shared (frozen) instance: a
        compile emits the same few instructions over and over."""
        return _render(self, instr)

    def parse_body(self, lines: "list[str]") -> "list[Instruction]":
        """Parse an instruction sequence, skipping blanks and comments.

        Each distinct line is parsed once (a corpus pass disassembles
        and re-parses the same few hundred lines thousands of times);
        repeats share the first parse's (frozen) instance."""
        out = []
        for line in lines:
            instr = _parse(self, line)
            if instr is not None:
                out.append(instr)
        return out


#: how many distinct lines (and instructions) the parse and render memos
#: keep, over every ISA; past it the least recently used go.
MEMO_ENTRIES = 4096


@lru_cache(maxsize=MEMO_ENTRIES)
def _parse(isa: Isa, line: str) -> Optional[Instruction]:
    stripped = line.split("//")[0].split(";#")[0].strip()
    return isa.parse_line(stripped) if stripped else None


@lru_cache(maxsize=MEMO_ENTRIES)
def _render(isa: Isa, instr: Instruction) -> Instruction:
    return instr.with_text(isa.print_instruction(instr))


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
