"""Code generation: IR → per-ISA machine instructions.

Implements the one emission skeleton for the C11 atomics mappings (each
back-end in :mod:`repro.compiler.backends` fills in its tables) and the
calling/PIC conventions that create the address-materialisation traffic
of §IV-E.  The instruction-selection decisions where the paper's
historical bugs live (ST-form RMWs, 128-bit pairs) are the back-ends';
see :mod:`repro.compiler.bugs` for the bug flags they consult.

Register allocation is deliberately simple: value virtual registers map
to a per-ISA scratch pool with last-use freeing; at ``-O0`` every local
lives in a stack slot and every use reloads it (the spill traffic that —
together with GOT loads under PIC — blows up un-optimised simulation,
paper Fig. 11).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..asm.isa.base import Instruction, Isa, Op
from ..core.errors import CompilationError
from ..core.events import MemoryOrder
from .ir import IRFunction, IRInstr, IROp, IRProgram, Operand
from .profiles import CompilerProfile


@dataclass
class CompiledThread:
    """One compiled thread plus the metadata later tools rely on.

    ``reg_of_observed`` is the DWARF-like variable-location map of §III-D:
    source local name → machine register holding it at function exit.
    ``stack_size`` is the thread's spill area in bytes (0 above -O0).
    ``got_slots`` lists the GOT entries the thread's PIC sequences read.
    """

    name: str
    instructions: List[Instruction]
    reg_of_observed: Dict[str, str] = field(default_factory=dict)
    stack_size: int = 0
    got_slots: Tuple[str, ...] = ()


@dataclass
class CompiledUnit:
    """The translation unit: all compiled threads + global metadata."""

    name: str
    arch: str
    profile: CompilerProfile
    threads: List[CompiledThread]
    init: Dict[str, int]
    widths: Dict[str, int]
    const_locations: Tuple[str, ...] = ()

    def thread(self, name: str) -> CompiledThread:
        for t in self.threads:
            if t.name == name:
                return t
        raise KeyError(name)


# --------------------------------------------------------------------------- #
# per-thread code generation
# --------------------------------------------------------------------------- #
#: a memory order's fence tag, if the mapping puts a fence there
FenceTable = Dict[MemoryOrder, str]
#: the (leading, trailing) fences around one kind of access
FencePair = Tuple[FenceTable, FenceTable]
_NO_FENCES: FencePair = ({}, {})


def _by_order(tag: str, test: str = "") -> FenceTable:
    """``tag`` for every memory order, or for those whose property
    ``test`` holds (``"is_seq_cst"``, ``"at_least_acquire"``, …)."""
    return {order: tag for order in MemoryOrder if not test or getattr(order, test)}


class _ThreadCodegen:
    """Generates code for one IR function under one profile.

    The mapping skeleton (``emit_fence``/``emit_load``/``emit_store``,
    the LL/SC ``emit_rmw`` and its ``llsc_loop``) is shared; a back-end
    declares its C11 mapping in the tables and flags below and overrides
    only what is ISA-specific.
    """

    #: ``atomic_thread_fence``'s tag by memory order (none: no instruction)
    fences: FenceTable = {}
    #: the fences around a load, a store and an LL/SC RMW, by memory order
    load_fences: FencePair = _NO_FENCES
    store_fences: FencePair = _NO_FENCES
    rmw_fences: FencePair = _NO_FENCES
    #: acquire/release are tags on the accesses (LDAR, STLR, LDAXR/STLXR)
    tagged: bool = False
    #: how an LL/SC loop retries: CBNZ or CBZ on the status register,
    #: CMP (compare the status, then B.NE), or BCOND (B.NE on the flags
    #: the store-exclusive set; it has no status register)
    retry_on: Op = Op.CBNZ
    #: the store-conditional writes its success flag (1) over its value
    #: register, so a swap goes through a copy (MIPS ``sc``)
    sc_writes_value: bool = False
    #: ALU ops are two-operand, the destination doubling as a source
    two_operand: bool = False
    #: CBZ/CBNZ compare with zero and branch in one instruction
    zero_branch: bool = False
    #: conditional branches compare two registers (beq/bne/blt/bge)
    fused_branch: bool = False
    #: a store materialises its address before its value
    addr_first: bool = False
    #: a plain store may take its value as an immediate
    store_imm: bool = False
    #: the 128-bit load and store paths, where they differ from the
    #: plain ones (AArch64's LDP/STP and exclusive pairs)
    load_128: Optional[Callable[[IRInstr], None]] = None
    store_128: Optional[Callable[[IRInstr], None]] = None

    def __init__(
        self, fn: IRFunction, program: IRProgram, profile: CompilerProfile, isa: Isa
    ) -> None:
        self.fn = fn
        self.program = program
        self.profile = profile
        self.isa = isa
        self.out: List[Instruction] = []
        self.vreg_map: Dict[str, str] = {}
        self.free_regs: List[str] = list(isa.value_regs)
        self.last_use = self._compute_last_uses()
        self.addr_cache: Dict[str, str] = {}
        self.free_addr_regs: List[str] = list(isa.addr_regs)
        self.slot_of: Dict[str, int] = {}
        self.got_slots: List[str] = []
        self.label_counter = 0
        self._temp_rotation = 0
        self.at_o0 = profile.opt == "-O0"
        # scratch registers reserved for -O0 reload traffic; three suffice
        # for the longest emission sequence (compare lowering)
        if self.at_o0:
            self.scratch = [self.free_regs.pop(), self.free_regs.pop(),
                            self.free_regs.pop()]
            self.scratch_toggle = 0
        else:
            self.scratch = []

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _compute_last_uses(self) -> Dict[str, int]:
        last: Dict[str, int] = {}
        for index, instr in enumerate(self.fn.body):
            for vreg in instr.uses():
                last[vreg] = index
        for name in self.fn.observed_locals:
            last[name] = len(self.fn.body)
        return last

    def fresh_label(self, hint: str) -> str:
        self.label_counter += 1
        return f".L{self.fn.name}_{hint}{self.label_counter}"

    def emit(self, instr: Instruction) -> None:
        self.out.append(self.isa.render(instr))

    # ---- value registers ----------------------------------------------- #
    def _alloc_reg(self, vreg: str) -> str:
        if vreg in self.vreg_map:
            return self.vreg_map[vreg]
        if not self.free_regs:
            raise CompilationError(
                f"{self.fn.name}: register pressure too high for the "
                f"modelled {self.isa.name} allocator"
            )
        reg = self.free_regs.pop(0)
        self.vreg_map[vreg] = reg
        return reg

    def _free_dead(self, index: int) -> None:
        dead = [v for v, last in self.last_use.items() if last <= index]
        for vreg in dead:
            reg = self.vreg_map.pop(vreg, None)
            if reg is not None and reg not in self.free_regs:
                self.free_regs.append(reg)
            self.last_use.pop(vreg, None)

    def _next_scratch(self) -> str:
        reg = self.scratch[self.scratch_toggle % len(self.scratch)]
        self.scratch_toggle += 1
        return reg

    def def_reg(self, vreg: Optional[str]) -> str:
        """The register a definition of ``vreg`` should target."""
        if vreg is None:
            return self._next_scratch() if self.at_o0 else self._temp_reg()
        if self.at_o0:
            if vreg not in self.slot_of:
                self.slot_of[vreg] = 8 * len(self.slot_of)
            return self._next_scratch()
        return self._alloc_reg(vreg)

    def _temp_reg(self) -> str:
        if not self.free_regs:
            raise CompilationError(f"{self.fn.name}: out of scratch registers")
        reg = self.free_regs[self._temp_rotation % len(self.free_regs)]
        self._temp_rotation += 1
        return reg

    def store_def(self, vreg: Optional[str], reg: str) -> None:
        """At -O0, spill a freshly defined local to its stack slot."""
        if vreg is None or not self.at_o0:
            return
        slot = self.slot_of.setdefault(vreg, 8 * len(self.slot_of))
        self.emit(Instruction(op=Op.STORE, src1=reg, addr_reg=self.isa.stack_reg,
                              offset=slot, width=32))

    def use_reg(self, operand: Operand) -> str:
        """Materialise an operand into a register."""
        if isinstance(operand, int):
            reg = self._next_scratch() if self.at_o0 else self._temp_reg()
            self.emit(Instruction(op=Op.MOVI, dst=reg, imm=operand))
            return reg
        if self.at_o0:
            if operand not in self.slot_of:
                # use of a never-defined local: zero-init slot
                self.slot_of[operand] = 8 * len(self.slot_of)
            reg = self._next_scratch()
            self.emit(Instruction(op=Op.LOAD, dst=reg, addr_reg=self.isa.stack_reg,
                                  offset=self.slot_of[operand], width=32))
            return reg
        if operand not in self.vreg_map:
            raise CompilationError(
                f"{self.fn.name}: use of {operand!r} before definition"
            )
        return self.vreg_map[operand]

    # ---- addresses ------------------------------------------------------ #
    def addr_of(self, loc: str) -> str:
        """A register holding the address of shared location ``loc``.

        PIC profiles go through the GOT: materialise the GOT slot address,
        then *load* the location's address from it — the extra read event
        the paper's s2l optimisation removes.  At -O0 the sequence repeats
        before every access; at -O1+ it is emitted once per location.
        """
        if not self.at_o0 and loc in self.addr_cache:
            return self.addr_cache[loc]
        if not self.free_addr_regs:
            # recycle: drop the oldest cached address
            if self.addr_cache:
                victim = next(iter(self.addr_cache))
                self.free_addr_regs.append(self.addr_cache.pop(victim))
            else:
                raise CompilationError(f"{self.fn.name}: out of address registers")
        reg = (
            self.free_addr_regs[0]
            if self.at_o0
            else self.free_addr_regs.pop(0)
        )
        if self.profile.pic:
            slot = f"got_{loc}"
            if slot not in self.got_slots:
                self.got_slots.append(slot)
            self.emit(Instruction(op=Op.MOVADDR, dst=reg, symbol=slot))
            self.emit(Instruction(op=Op.LOAD, dst=reg, addr_reg=reg, width=64))
        else:
            self.emit(Instruction(op=Op.MOVADDR, dst=reg, symbol=loc))
        if not self.at_o0:
            self.addr_cache[loc] = reg
        return reg

    # ------------------------------------------------------------------ #
    # main loop
    # ------------------------------------------------------------------ #
    def run(self) -> CompiledThread:
        for index, instr in enumerate(self.fn.body):
            self.emit_ir(instr, index)
            if not self.at_o0:
                self._free_dead(index)
        reg_of_observed = self._final_locations()
        return CompiledThread(
            name=self.fn.name,
            instructions=self.out,
            reg_of_observed=reg_of_observed,
            stack_size=8 * len(self.slot_of),
            got_slots=tuple(self.got_slots),
        )

    def _final_locations(self) -> Dict[str, str]:
        """Where each observed local lives at exit (the debug map).

        At -O0 observed locals live on the stack; the compiler reloads
        them into registers before returning so the litmus harness can
        observe them (what real builds do via the frame's DWARF entries
        — we normalise to registers to keep the litmus format simple).
        """
        out: Dict[str, str] = {}
        for name in self.fn.observed_locals:
            if self.at_o0:
                if name in self.slot_of:
                    reg = self._next_scratch()
                    # insert before the final ret
                    self.out.insert(
                        len(self.out) - 1,
                        self.isa.render(
                            Instruction(op=Op.LOAD, dst=reg, addr_reg=self.isa.stack_reg,
                                        offset=self.slot_of[name], width=32)
                        ),
                    )
                    out[name] = reg
            elif name in self.vreg_map:
                out[name] = self.vreg_map[name]
            # a deleted local has no location: exactly the paper's §IV-B
            # observability problem
        return out

    def emit_ir(self, instr: IRInstr, index: int) -> None:
        op = instr.op
        if op is IROp.LABEL:
            self.emit(Instruction(op=Op.LABEL, label=instr.label))
            # control-flow join: a cached address may have been
            # materialised on only one incoming path, so drop the cache
            # (real compilers re-materialise or rely on dominance; we
            # re-materialise, which is always sound)
            for reg in self.addr_cache.values():
                if reg not in self.free_addr_regs:
                    self.free_addr_regs.append(reg)
            self.addr_cache.clear()
            return
        if op is IROp.RET:
            self.emit(Instruction(op=Op.RET))
            return
        if op is IROp.BR:
            self.emit(Instruction(op=Op.B, label=instr.label))
            return
        if op is IROp.CBR:
            self.emit_cbr(instr)
            return
        if op is IROp.CONST:
            reg = self.def_reg(instr.dst)
            self.emit(Instruction(op=Op.MOVI, dst=reg, imm=int(instr.a)))  # type: ignore[arg-type]
            self.store_def(instr.dst, reg)
            return
        if op is IROp.BIN:
            self.emit_bin(instr)
            return
        if op is IROp.FENCE:
            self.emit_fence(instr.order)
            return
        if op is IROp.LOAD:
            self.emit_load(instr, index)
            return
        if op is IROp.STORE:
            self.emit_store(instr)
            return
        if op is IROp.RMW:
            self.emit_rmw(instr, index)
            return
        raise CompilationError(f"cannot emit {instr!r}")

    # ------------------------------------------------------------------ #
    # generic emission
    # ------------------------------------------------------------------ #
    def alu(
        self,
        dst: str,
        src1: str,
        op: str,
        src2: Optional[str] = None,
        imm: Optional[int] = None,
    ) -> None:
        """Emit an ALU op, honouring a two-operand ISA's constraint."""
        if self.two_operand and dst != src1:
            if src2 == dst:
                raise CompilationError("x86 operand aliasing not representable")
            self.emit(Instruction(op=Op.MOV, dst=dst, src1=src1))
            src1 = dst
        self.emit(Instruction(op=Op.ALU, dst=dst, src1=src1, src2=src2,
                              imm=imm, alu_op=op))

    def emit_bin(self, instr: IRInstr) -> None:
        alu = _BIN_TO_ALU.get(instr.bin_op)
        if alu is not None:
            a_reg = self.use_reg(instr.a)  # type: ignore[arg-type]
            if isinstance(instr.b, int) and alu == "mul":
                # no ISA has a multiply-immediate: materialise the constant
                b_reg = self.use_reg(instr.b)
                dst = self.def_reg(instr.dst)
                self.alu(dst, a_reg, alu, src2=b_reg)
            elif isinstance(instr.b, int):
                dst = self.def_reg(instr.dst)
                self.alu(dst, a_reg, alu, imm=instr.b)
            else:
                b_reg = self.use_reg(instr.b)
                dst = self.def_reg(instr.dst)
                self.alu(dst, a_reg, alu, src2=b_reg)
            self.store_def(instr.dst, dst)
            return
        if instr.bin_op in _CMP_OPS:
            self.emit_compare_to_flag(instr)
            return
        raise CompilationError(f"cannot emit binary op {instr.bin_op!r}")

    def emit_compare_to_flag(self, instr: IRInstr) -> None:
        """``dst := (a cmp b)`` as a 0/1 value, branch-free.

        Lowered arithmetically (sign-bit extraction) so the *data*
        dependency from the compared registers survives into the
        execution graph — essential for the §IV-D if-conversion story.
        With arbitrary-precision evaluation there is no overflow:
        ``(a-b) >> 31 & 1`` is 1 exactly when ``a < b``.
        """
        swap = instr.bin_op in (">", "<=")
        lhs, rhs = (instr.b, instr.a) if swap else (instr.a, instr.b)
        a_reg = self.use_reg(lhs)  # type: ignore[arg-type]
        dst = self.def_reg(instr.dst)
        # diff := lhs - rhs  (into dst, which is free to clobber)
        if isinstance(rhs, int):
            self.alu(dst, a_reg, "sub", imm=rhs)
        else:
            self.alu(dst, a_reg, "sub", src2=self.use_reg(rhs))
        if instr.bin_op in ("==", "!="):
            # normalise diff to 0/1: (diff | -diff) has its sign bit set
            # exactly when diff != 0
            neg = self.def_reg(None)
            if neg == dst:
                raise CompilationError("scratch collision in compare lowering")
            self.emit(Instruction(op=Op.MOVI, dst=neg, imm=0))
            self.alu(neg, neg, "sub", src2=dst)
            self.alu(dst, dst, "or", src2=neg)
        self.alu(dst, dst, "lsr", imm=31)
        self.alu(dst, dst, "and", imm=1)
        if instr.bin_op in ("==", ">=", "<="):
            self.alu(dst, dst, "xor", imm=1)
        self.store_def(instr.dst, dst)

    def emit_cbr(self, instr: IRInstr) -> None:
        a_reg = self.use_reg(instr.a)  # type: ignore[arg-type]
        if instr.b == 0 and instr.cond in ("eq", "ne") and self.zero_branch:
            op = Op.CBZ if instr.cond == "eq" else Op.CBNZ
            self.emit(Instruction(op=op, src1=a_reg, label=instr.label))
            return
        if self.fused_branch:
            b_reg = (
                self.isa.zero_reg
                if instr.b == 0
                else self.use_reg(instr.b)  # type: ignore[arg-type]
            )
            cond, first, second = _fused_branch(instr.cond, a_reg, b_reg)
            self.emit(Instruction(op=Op.BCOND, cond=cond, src1=first,
                                  src2=second, label=instr.label))
            return
        if isinstance(instr.b, int):
            self.emit(Instruction(op=Op.CMP, src1=a_reg, imm=instr.b))
        else:
            self.emit(Instruction(op=Op.CMP, src1=a_reg,
                                  src2=self.use_reg(instr.b)))
        self.emit(Instruction(op=Op.BCOND, cond=instr.cond, label=instr.label))

    # ------------------------------------------------------------------ #
    # the C11 mapping skeleton, driven by each back-end's tables
    # ------------------------------------------------------------------ #
    def emit_fence(self, order: MemoryOrder) -> None:
        self._fence(self.fences.get(order))

    def emit_load(self, instr: IRInstr, index: int) -> None:
        if instr.width == 128 and self.load_128 is not None:
            self.load_128(instr)
            return
        addr = self.addr_of(instr.loc)
        dst = self.def_reg(instr.dst)
        order = instr.order
        lead, trail = self.load_fences
        self._fence(lead.get(order))
        # a tagged acquire is LDAR, or LDAPR (Armv8.3 RCpc) below seq_cst
        acquire = self.tagged and order.at_least_acquire
        rcpc = acquire and self.profile.rcpc and not order.is_seq_cst
        self.emit(Instruction(op=Op.LOAD, dst=dst, addr_reg=addr,
                              acquire=acquire and not rcpc, acquire_pc=rcpc,
                              width=instr.width))
        self._fence(trail.get(order))
        self.store_def(instr.dst, dst)

    def emit_store(self, instr: IRInstr) -> None:
        if instr.width == 128 and self.store_128 is not None:
            self.store_128(instr)
            return
        if self.addr_first:
            addr = self.addr_of(instr.loc)
            value = self._store_value(instr)
        else:
            value = self._store_value(instr)
            addr = self.addr_of(instr.loc)
        lead, trail = self.store_fences
        self._fence(lead.get(instr.order))
        self.store_op(instr, value, addr)
        self._fence(trail.get(instr.order))

    def _store_value(self, instr: IRInstr) -> Optional[str]:
        """The register a store writes from, or None where the ISA stores
        the immediate itself (a seq_cst store still takes a register)."""
        if self.store_imm and isinstance(instr.a, int) and not instr.order.is_seq_cst:
            return None
        return self.use_reg(instr.a)  # type: ignore[arg-type]

    def store_op(self, instr: IRInstr, value: Optional[str], addr: str) -> None:
        """The store between its fences (hook: x86's seq_cst XCHG)."""
        self.emit(Instruction(
            op=Op.STORE, src1=value, imm=instr.a if value is None else None,
            addr_reg=addr, release=self.tagged and instr.order.at_least_release,
            width=instr.width,
        ))

    def emit_rmw(self, instr: IRInstr, index: int) -> None:
        """An RMW as an LL/SC retry loop between its fences (hook: the
        single-instruction RMWs of LSE, x86 and RISC-V)."""
        operand = self.use_reg(instr.a)  # type: ignore[arg-type]
        addr = self.addr_of(instr.loc)
        order = instr.order
        lead, trail = self.rmw_fences
        self._fence(lead.get(order))
        old = self.def_reg(instr.dst)
        new = self.def_reg(None)
        if instr.rmw_kind != "swap":
            body = [Instruction(op=Op.ALU, dst=new, src1=old, src2=operand,
                                alu_op=instr.rmw_kind)]
        elif self.sc_writes_value:
            body = [Instruction(op=Op.MOV, dst=new, src1=operand)]
        else:
            body = []
        self.llsc_loop(
            "rmw",
            Instruction(op=Op.LDX, dst=old, addr_reg=addr, exclusive=True,
                        acquire=self.tagged and order.at_least_acquire,
                        width=instr.width),
            body,
            Instruction(
                op=Op.STX, status=None if self.retry_on is Op.BCOND else new,
                src1=new if body else operand, addr_reg=addr,
                imm=1 if self.sc_writes_value else None, exclusive=True,
                release=self.tagged and order.at_least_release,
                width=instr.width,
            ),
        )
        self._fence(trail.get(order))
        self.store_def(instr.dst, old)

    def llsc_loop(self, hint: str, ldx: Instruction, body: List[Instruction],
                  stx: Instruction) -> None:
        """``retry: ldx; body; stx``, branching back to ``retry`` while
        the store-exclusive failed (``stx.status`` is its status
        register, if it has one)."""
        retry = self.fresh_label(hint)
        self.emit(Instruction(op=Op.LABEL, label=retry))
        self.emit(ldx)
        for instr in body:
            self.emit(instr)
        self.emit(stx)
        if self.retry_on is Op.CMP:
            self.emit(Instruction(op=Op.CMP, src1=stx.status, imm=0))
        if self.retry_on in (Op.CMP, Op.BCOND):
            self.emit(Instruction(op=Op.BCOND, cond="ne", label=retry))
        else:
            self.emit(Instruction(op=self.retry_on, src1=stx.status, label=retry))

    # ---- shared analysis ------------------------------------------------ #
    def acquire_context_follows(self, index: int) -> bool:
        """Is there a po-later acquire fence or acquire load in this
        function?  Fixed compilers consult this before choosing an
        ST-form RMW (the sound version of the Fig. 10 selection)."""
        for later in self.fn.body[index + 1 :]:
            if later.op is IROp.FENCE and later.order.at_least_acquire:
                return True
            if later.op is IROp.LOAD and later.order.at_least_acquire:
                return True
            if later.op is IROp.RMW and later.order.at_least_acquire:
                return True
        return False

    def _fence(self, tag: Optional[str]) -> None:
        if tag is not None:
            self.emit(Instruction(op=Op.FENCE, fence_tags=frozenset((tag,))))


_BIN_TO_ALU = {
    "+": "add", "-": "sub", "&": "and", "|": "or", "^": "xor",
    "<<": "lsl", ">>": "lsr", "*": "mul",
}
_CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")


def _fused_branch(cond: str, a: str, b: str) -> Tuple[str, str, str]:
    """RISC-V/MIPS have beq/bne/blt/bge; derive le/gt by operand swap."""
    if cond in ("eq", "ne", "lt", "ge"):
        return cond, a, b
    if cond == "gt":
        return "lt", b, a
    if cond == "le":
        return "ge", b, a
    raise CompilationError(f"unknown branch condition {cond!r}")
