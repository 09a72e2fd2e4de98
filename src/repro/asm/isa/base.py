"""Architecture-neutral instruction representation and the shared syntax
skeleton of the per-ISA front-ends.

Every ISA we model (AArch64, Armv7, x86-64, RISC-V, PowerPC, MIPS) lowers
to the same small operation vocabulary.  The compiler back-ends print each
instruction as objdump text and ``s2l`` parses it back (the paper's Fig. 6
round trip), so one syntax is read in two directions.  :class:`Isa` holds
both skeletons: printing handles labels, ``nop``, the ISA's ``ret``
spelling and its fence table before asking the ISA for the rest; parsing
strips the line, handles labels and whole-line fences, splits mnemonic
and operands, and asks the ISA for the mnemonic.  The operand helpers the
ISAs share (symbol offsets, ``[r, #off]`` and ``off(r)`` memory operands,
three-operand ALU forms) live here once; each per-ISA module keeps only
its tables and its own forms.

Memory-ordering attributes live on the instruction (``acquire``,
``acquire_pc``, ``release``, ``exclusive``, ``fence_tags``) and are turned
into event tags by :mod:`repro.asm.semantics`.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, fields, is_dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Pattern, Tuple

from ...core.errors import ReproError
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


class IsaError(ReproError, ValueError):
    """An ISA module rejected a mnemonic or operand."""


class Isa:
    """Per-architecture syntax and register conventions.

    Concrete subclasses (one per modelled architecture) provide mnemonic
    printing and parsing — the objdump / ``s2l`` round trip of the paper's
    Fig. 6 — plus the register conventions the compiler back-ends use.
    The skeletons here handle what every ISA shares; a subclass sets
    ``_ret_text`` and ``_fences`` and fills in the two hooks
    :meth:`_print_mnemonic` and :meth:`_parse_mnemonic`.
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
    #: the stack pointer, which -O0 code spills through.
    stack_reg: str = "sp"

    #: how ``Op.RET`` prints.
    _ret_text: str = "ret"
    #: the printed spelling of each fence, by its tags; the parse side
    #: (``_fence_tags``) is derived from it per subclass.
    _fences: Dict[FrozenSet[str], str] = {}
    _fence_tags: Dict[str, FrozenSet[str]] = {}

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        cls._fence_tags = {text: tags for tags, text in cls._fences.items()}

    # ------------------------------------------------------------------ #
    def print_instruction(self, instr: Instruction) -> str:
        """Render ``instr`` in this architecture's assembly syntax."""
        op = instr.op
        if op is Op.LABEL:
            return f"{instr.label}:"
        if op is Op.NOP:
            return "nop"
        if op is Op.RET:
            return self._ret_text
        if op is Op.FENCE:
            try:
                return self._fences[instr.fence_tags]
            except KeyError:
                raise IsaError(f"unprintable fence tags {set(instr.fence_tags)}")
        text = self._print_mnemonic(instr)
        if text is None:
            raise IsaError(f"cannot print {instr!r} for {self.name}")
        return text

    def parse_line(self, text: str) -> Instruction:
        """Parse one line of this architecture's assembly syntax."""
        text = text.strip()
        if text.endswith(":"):
            return Instruction(op=Op.LABEL, label=text[:-1], text=text)
        tags = self._fence_tags.get(text.lower())
        if tags is not None:
            return Instruction(op=Op.FENCE, fence_tags=tags, text=text)
        mnem, _, rest = text.partition(" ")
        mnem = mnem.lower()
        if mnem == "nop":
            return Instruction(op=Op.NOP, text=text)
        try:
            instr = self._parse_operands(mnem, rest, text)
        except IsaError:
            raise
        except (IndexError, ValueError) as exc:
            # a missing or malformed operand
            raise IsaError(f"bad operands in {text!r}") from exc
        return instr.with_text(text)

    # ------------------------------------------------------------------ #
    def _print_mnemonic(self, instr: Instruction) -> Optional[str]:
        """Hook: the text of any other instruction, or None if the ISA
        has no form for it."""
        raise NotImplementedError

    def _parse_operands(self, mnem: str, rest: str, text: str) -> Instruction:
        """Parse ``mnem`` with its operand text ``rest`` (``text`` is the
        whole line, for error messages).  A hook for the ISAs whose
        operands are not a plain comma-separated list."""
        return self._parse_mnemonic(mnem, split_operands(rest), text)

    def _parse_mnemonic(self, mnem: str, ops: List[str], text: str) -> Instruction:
        """Hook: parse lower-case ``mnem`` with its split operands ``ops``."""
        raise NotImplementedError

    def _barrier(self, spelling: str, text: str) -> Instruction:
        """The fence spelled ``spelling`` once its operands are normalised."""
        tags = self._fence_tags.get(spelling)
        if tags is None:
            raise IsaError(f"unknown barrier {text!r}")
        return Instruction(op=Op.FENCE, fence_tags=tags)

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


# ---------------------------------------------------------------------- #
# operand helpers shared by the per-ISA modules
# ---------------------------------------------------------------------- #
def split_operands(rest: str) -> List[str]:
    """Split operands at top-level commas, keeping ``[x8, #4]`` together."""
    ops: List[str] = []
    depth = 0
    start = 0
    for i, ch in enumerate(rest):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == "," and depth == 0:
            ops.append(rest[start:i].strip())
            start = i + 1
    last = rest[start:].strip()
    if last:
        ops.append(last)
    return ops


def parse_imm(token: str) -> int:
    """An immediate, ``#``-prefixed (Arm) or not."""
    return int(token.lstrip("#"), 0)


def sym_offset(token: str) -> Tuple[str, int]:
    """``sym`` or ``sym+off`` as ``(symbol, offset)``."""
    if "+" in token:
        symbol, _, offset = token.partition("+")
        return symbol.strip(), int(offset, 0)
    return token.strip(), 0


def sym_text(instr: Instruction) -> str:
    """The inverse of :func:`sym_offset` for a ``MOVADDR``."""
    return f"{instr.symbol}+{instr.offset}" if instr.offset else f"{instr.symbol}"


def parse_mem(regex: "Pattern[str]", token: str) -> Tuple[str, int]:
    """The base register and offset of a memory operand ``regex`` (with
    groups ``base`` and ``off``) matches whole."""
    match = regex.fullmatch(token.strip())
    if not match:
        raise IsaError(f"bad memory operand {token!r}")
    return match.group("base"), int(match.group("off") or 0)


#: an Arm memory operand, ``[r]`` or ``[r, #off]``, for :func:`parse_mem`.
BRACKET_MEM = re.compile(r"\[\s*(?P<base>\w+)\s*(?:,\s*#(?P<off>-?\d+)\s*)?\]")


def bracket_mem(instr: Instruction) -> str:
    """An access's address as ``[r]`` or ``[r, #off]`` (Arm)."""
    if instr.offset:
        return f"[{instr.addr_reg}, #{instr.offset}]"
    return f"[{instr.addr_reg}]"


def paren_mem(instr: Instruction) -> str:
    """An access's address as ``off(r)`` (MIPS, PowerPC, RISC-V)."""
    return f"{instr.offset or 0}({instr.addr_reg})"


def print_alu(
    instr: Instruction, names: Dict[str, str], imm_names: Dict[str, str], no_imm: str
) -> str:
    """A three-operand ALU instruction, ``rd, rs1, rs2`` or ``rd, rs1, imm``.

    There is no subtract-immediate: ``sub`` prints as the add-immediate of
    the negated value, as assemblers conventionally accept.  An operation
    without an immediate form raises ``no_imm`` (formatted with it)."""
    if instr.src2 is not None:
        return f"{names[instr.alu_op]} {instr.dst}, {instr.src1}, {instr.src2}"
    if instr.alu_op == "sub":
        return f"{imm_names['add']} {instr.dst}, {instr.src1}, {-(instr.imm or 0)}"
    if instr.alu_op not in imm_names:
        raise IsaError(no_imm.format(instr.alu_op))
    return f"{imm_names[instr.alu_op]} {instr.dst}, {instr.src1}, {instr.imm}"


def parse_alu(
    mnem: str, ops: List[str], names: Dict[str, str], imm_names: Dict[str, str]
) -> Optional[Instruction]:
    """Parse what :func:`print_alu` prints (``names`` and ``imm_names``
    map mnemonics to ALU ops), or None for another mnemonic."""
    if mnem in imm_names:
        return Instruction(op=Op.ALU, dst=ops[0], src1=ops[1],
                           imm=int(ops[2], 0), alu_op=imm_names[mnem])
    if mnem in names:
        return Instruction(op=Op.ALU, dst=ops[0], src1=ops[1], src2=ops[2],
                           alu_op=names[mnem])
    return None


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
