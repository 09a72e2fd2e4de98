"""Per-architecture back-ends: the C11 atomics mappings under test.

Each back-end subclasses :class:`~repro.compiler.codegen._ThreadCodegen`,
whose skeleton emits every fence, load, store and LL/SC RMW loop, and
declares its mapping as data: ``fences`` by memory order, and the fences
before and after a load, a store and an RMW (``load_fences``,
``store_fences``, ``rmw_fences``).  Only AArch64's LSE and 128-bit
paths, x86's locked forms and RISC-V's AMOs are written out as code.
Bug flags (see :mod:`repro.compiler.bugs`) divert instruction selection
onto the historical buggy paths.

Mapping summary.  ``F+`` is fence F before the access and ``+F`` after
it, for the orders named: ``acq`` (acquire, acq_rel, seq_cst), ``rel``
(release, acq_rel, seq_cst), ``sc`` (seq_cst), or every atomic order
when none is named.  A fence's own order selects its tag exactly:

=======  ================  ===================  ===================  ========================
target   fence             load                 store                RMW
=======  ================  ===================  ===================  ========================
AArch64  DMB ISHLD if      LDR / LDAR acq /     STR / STLR rel       LSE LDADD/SWP… (ST<op>
         acquire, else     LDAPR acq (RCpc)                          if unused) or LDAXR/
         DMB ISH                                                     STLXR loop, CBNZ
Armv7    DMB ISH           sc DMB+ LDR +DMB     rel DMB+ STR +DMB    rel DMB+ LDREX/STREX
                           acq                  sc                   loop, CMP+BNE, +DMB acq
x86-64   MFENCE if         MOV                  MOV (imm) / XCHG sc  XCHG / LOCK XADD; LOCK
         seq_cst, else                          (llvm) / +MFENCE sc  OR/AND/XOR/SUB if
         none                                   (gcc)                unused
RISC-V   fence r,rw if     sc fence rw,rw+ LW   rel fence rw,w+ SW   AMO<op>.aq/.rl
         acquire, rw,w if  +fence r,rw acq      +fence rw,rw sc
         release, else
         rw,rw
PowerPC  SYNC if seq_cst,  sc SYNC+ LWZ         rel LWSYNC+ (sc      rel LWSYNC+ (sc SYNC+)
         else LWSYNC       +LWSYNC acq          SYNC+) STW           LWARX/STWCX. loop, BNE
                                                                     on CR0, +LWSYNC acq
MIPS     SYNC              SYNC+ LW +SYNC       SYNC+ SW +SYNC       SYNC+ LL/SC loop, BEQZ,
                                                                     +SYNC
=======  ================  ===================  ===================  ========================

MIPS brackets *every* atomic access in SYNC — GCC treats atomic data as
volatile (paper §IV-C) — which is why MIPS shows zero positive differences
but the most negative ones in Table IV.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Type

from ..asm.isa.base import Instruction, Isa, Op, get_isa
from ..core.errors import CompilationError
from ..core.events import MemoryOrder
from . import bugs
from .codegen import (
    _NO_FENCES,
    CompiledThread,
    CompiledUnit,
    _ThreadCodegen,
    _by_order,
)
from .ir import IRFunction, IRInstr, IRProgram
from .passes import optimise
from .profiles import CompilerProfile


# --------------------------------------------------------------------------- #
# AArch64
# --------------------------------------------------------------------------- #
class AArch64Codegen(_ThreadCodegen):
    """Armv8 AArch64 back-end (LSE and exclusive-loop variants)."""

    fences = {**_by_order("DMB.SY"), MemoryOrder.ACQ: "DMB.LD"}
    tagged = zero_branch = True

    def load_128(self, instr: IRInstr) -> None:
        addr = self.addr_of(instr.loc)
        lo = self.def_reg(instr.dst)
        hi = self.def_reg(None if instr.dst is None else f"{instr.dst}.hi")
        if self._pair_128():
            # v8.4 LSE2: an aligned LDP is single-copy atomic [56]; but a
            # bare LDP has NO ordering — the seq_cst bug [37]: it may
            # reorder before a prior RMW's store.  The fix adds
            # synchronisation following GCC [28]: a full barrier before
            # (ordering against prior stores) and a load barrier after.
            fixed = not self.profile.has_bug(bugs.LDP_SEQCST_UNORDERED)
            if instr.order.is_seq_cst and fixed:
                self._fence("DMB.SY")
            self.emit(Instruction(op=Op.LOADPAIR, dst=lo, dst2=hi,
                                  addr_reg=addr, width=128))
            if instr.order.at_least_acquire and fixed:
                self._fence("DMB.LD")
        else:
            # pre-v8.4 (or the unfixed v8.4 path [36]): an exclusive-pair
            # loop — which *writes back*, crashing on const data
            status = self.def_reg(None)
            self.llsc_loop(
                "ld128",
                Instruction(op=Op.LDX, dst=lo, dst2=hi, addr_reg=addr,
                            width=128, exclusive=True,
                            acquire=instr.order.at_least_acquire),
                [],
                Instruction(op=Op.STX, status=status, src1=lo, src2=hi,
                            addr_reg=addr, width=128, exclusive=True),
            )
        self.store_def(instr.dst, lo)

    def store_128(self, instr: IRInstr) -> None:
        lo = self.use_reg(instr.a)  # type: ignore[arg-type]
        hi = self.def_reg(None)
        self.emit(Instruction(op=Op.MOVI, dst=hi, imm=0))
        addr = self.addr_of(instr.loc)
        # the wrong-endian bug [39]: the register pair is flipped
        first, second = (
            (hi, lo) if self.profile.has_bug(bugs.STP_WRONG_ENDIAN) else (lo, hi)
        )
        if self._pair_128():
            if instr.order.at_least_release:
                self._fence("DMB.SY")
            self.emit(Instruction(op=Op.STOREPAIR, src1=first, src2=second,
                                  addr_reg=addr, width=128))
            if instr.order.is_seq_cst:
                self._fence("DMB.SY")
        else:
            status = self.def_reg(None)
            zero = self.isa.zero_reg
            self.llsc_loop(
                "st128",
                Instruction(op=Op.LDX, dst=zero, dst2=zero, addr_reg=addr,
                            width=128, exclusive=True),
                [],
                Instruction(op=Op.STX, status=status, src1=first, src2=second,
                            addr_reg=addr, width=128, exclusive=True,
                            release=instr.order.at_least_release),
            )

    def _pair_128(self) -> bool:
        """Single-copy-atomic LDP/STP (v8.4), unless the compiler keeps
        the exclusive-pair loop."""
        return self.profile.v84 and not self.profile.has_bug(
            bugs.ATOMIC_128_VIA_LOOP
        )

    def emit_rmw(self, instr: IRInstr, index: int) -> None:
        if not self.profile.lse:
            super().emit_rmw(instr, index)
            return
        operand = self.use_reg(instr.a)  # type: ignore[arg-type]
        addr = self.addr_of(instr.loc)
        use_st_form = False
        if instr.dst is None:
            if instr.rmw_kind == "swap":
                buggy = self.profile.has_bug(bugs.XCHG_DROP_READ)
            else:
                buggy = self.profile.has_bug(bugs.RMW_ST_FORM)
            # the *sound* ST-form condition: relaxed RMW with no po-later
            # acquire context (otherwise the NORET read breaks ordering,
            # exactly the Fig. 1 / Fig. 10 failure)
            sound = (
                instr.order is MemoryOrder.RLX
                and not self.acquire_context_follows(index)
            )
            use_st_form = buggy or sound
        # ST<OP> / SWP-with-XZR: the read half becomes NORET
        dst = None if use_st_form else self.def_reg(instr.dst)
        self.emit(Instruction(
            op=Op.AMO, amo_kind=instr.rmw_kind, src1=operand, dst=dst,
            addr_reg=addr, acquire=not use_st_form and instr.order.at_least_acquire,
            release=instr.order.at_least_release, width=instr.width,
        ))
        self.store_def(instr.dst, dst)  # type: ignore[arg-type]


# --------------------------------------------------------------------------- #
# Armv7
# --------------------------------------------------------------------------- #
class Armv7Codegen(_ThreadCodegen):
    """Armv7-A back-end: DMB ISH bracketing + LDREX/STREX loops."""

    fences = _by_order("DMB.ISH")
    load_fences = (_by_order("DMB.ISH", "is_seq_cst"),
                   _by_order("DMB.ISH", "at_least_acquire"))
    store_fences = (_by_order("DMB.ISH", "at_least_release"),
                    _by_order("DMB.ISH", "is_seq_cst"))
    rmw_fences = (_by_order("DMB.ISH", "at_least_release"),
                  _by_order("DMB.ISH", "at_least_acquire"))
    retry_on = Op.CMP


# --------------------------------------------------------------------------- #
# x86-64
# --------------------------------------------------------------------------- #
class X86Codegen(_ThreadCodegen):
    """x86-64 back-end: plain MOVs under TSO, locked RMWs."""

    # weaker fences are compiler-only barriers on TSO: no instruction
    fences = _by_order("MFENCE", "is_seq_cst")
    # gcc: seq_cst store = MOV + MFENCE (clang's is an XCHG, see store_op)
    store_fences = ({}, _by_order("MFENCE", "is_seq_cst"))
    two_operand = addr_first = store_imm = True

    def __init__(self, fn: IRFunction, program: IRProgram,
                 profile: CompilerProfile, isa: Isa) -> None:
        super().__init__(fn, program, profile, isa)
        self.xchg_store = self.profile.compiler == "llvm"
        if self.xchg_store:
            self.store_fences = _NO_FENCES

    def store_op(self, instr: IRInstr, value: Optional[str], addr: str) -> None:
        if instr.order.is_seq_cst and self.xchg_store:
            self._locked("swap", value, None, addr, instr.width)  # type: ignore[arg-type]
        else:
            super().store_op(instr, value, addr)

    def emit_rmw(self, instr: IRInstr, index: int) -> None:
        addr = self.addr_of(instr.loc)
        if instr.rmw_kind in ("swap", "add"):
            value = self.use_reg(instr.a)  # type: ignore[arg-type]
            dst = self._locked(instr.rmw_kind, value, instr.dst, addr, instr.width)
            self.store_def(instr.dst, dst)
            return
        if instr.dst is not None:
            raise CompilationError(
                f"x86 fetch_{instr.rmw_kind} returning the old value needs a "
                f"CMPXCHG loop, which is outside the modelled subset"
            )
        # memory-destination form: lock or/and/xor/sub
        value = None if isinstance(instr.a, int) else self.use_reg(instr.a)
        self.emit(Instruction(op=Op.AMO, amo_kind=instr.rmw_kind, src1=value,
                              imm=instr.a if value is None else None,
                              addr_reg=addr, exclusive=True, width=instr.width))

    def _locked(self, kind: str, value: str, vreg: Optional[str], addr: str,
                width: int) -> str:
        """XCHG / LOCK XADD of ``value``, returning the register that
        then holds the old memory value.  The instruction overwrites its
        register operand, so it runs in ``vreg``'s own register (a fresh
        temp when the result is unused), never in the operand's: the
        local the operand came from may be read again."""
        dst = self.def_reg(vreg)
        if dst != value:
            self.emit(Instruction(op=Op.MOV, dst=dst, src1=value))
        self.emit(Instruction(op=Op.AMO, amo_kind=kind, src1=dst, dst=dst,
                              addr_reg=addr, exclusive=True, width=width))
        return dst


# --------------------------------------------------------------------------- #
# RISC-V
# --------------------------------------------------------------------------- #
class RiscVCodegen(_ThreadCodegen):
    """RV64 back-end: fence-based loads/stores, annotated AMOs."""

    fences = {**_by_order("FENCE.RW.RW"), MemoryOrder.ACQ: "FENCE.R.RW",
              MemoryOrder.REL: "FENCE.RW.W"}
    load_fences = (_by_order("FENCE.RW.RW", "is_seq_cst"),
                   _by_order("FENCE.R.RW", "at_least_acquire"))
    store_fences = (_by_order("FENCE.RW.W", "at_least_release"),
                    _by_order("FENCE.RW.RW", "is_seq_cst"))
    zero_branch = fused_branch = True

    def emit_rmw(self, instr: IRInstr, index: int) -> None:
        operand = self.use_reg(instr.a)  # type: ignore[arg-type]
        addr = self.addr_of(instr.loc)
        dst = None if instr.dst is None else self.def_reg(instr.dst)
        self.emit(Instruction(
            op=Op.AMO, amo_kind=instr.rmw_kind, src1=operand, dst=dst,
            addr_reg=addr, acquire=instr.order.at_least_acquire,
            release=instr.order.at_least_release, exclusive=True,
            width=instr.width,
        ))
        self.store_def(instr.dst, dst)  # type: ignore[arg-type]


# --------------------------------------------------------------------------- #
# PowerPC
# --------------------------------------------------------------------------- #
_PPC_RELEASE = {**_by_order("LWSYNC", "at_least_release"),
                **_by_order("SYNC", "is_seq_cst")}


class PpcCodegen(_ThreadCodegen):
    """PowerPC64 back-end: SYNC/LWSYNC bracketing, LWARX/STWCX. loops."""

    fences = {**_by_order("LWSYNC"), MemoryOrder.SC: "SYNC"}
    load_fences = (_by_order("SYNC", "is_seq_cst"),
                   _by_order("LWSYNC", "at_least_acquire"))
    store_fences = (_PPC_RELEASE, {})
    rmw_fences = (_PPC_RELEASE, _by_order("LWSYNC", "at_least_acquire"))
    # stwcx. reports through CR0
    retry_on = Op.BCOND


# --------------------------------------------------------------------------- #
# MIPS
# --------------------------------------------------------------------------- #
_MIPS_SYNC = _by_order("MIPS.SYNC", "is_atomic")


class MipsCodegen(_ThreadCodegen):
    """MIPS64 back-end: conservative SYNC bracketing of every atomic
    access (GCC treats atomics as volatile — paper §IV-C [40])."""

    fences = _by_order("MIPS.SYNC")
    load_fences = store_fences = (_MIPS_SYNC, _MIPS_SYNC)
    rmw_fences = (fences, fences)
    # sc writes 1 over its value register on success
    retry_on = Op.CBZ
    sc_writes_value = zero_branch = fused_branch = True


# --------------------------------------------------------------------------- #
# entry point
# --------------------------------------------------------------------------- #
_BACKENDS: Dict[str, Type[_ThreadCodegen]] = {
    "aarch64": AArch64Codegen,
    "armv7": Armv7Codegen,
    "x86_64": X86Codegen,
    "riscv64": RiscVCodegen,
    "ppc64": PpcCodegen,
    "mips64": MipsCodegen,
}


def compile_program(program: IRProgram, profile: CompilerProfile) -> CompiledUnit:
    """Optimise and code-generate every thread of an IR program."""
    if profile.arch not in _BACKENDS:
        raise CompilationError(f"no back-end for architecture {profile.arch!r}")
    isa = get_isa(profile.arch)
    backend = _BACKENDS[profile.arch]
    threads: List[CompiledThread] = []
    for fn in program.functions:
        optimised = optimise(fn, profile)
        threads.append(backend(optimised, program, profile, isa).run())
    return CompiledUnit(
        name=program.name,
        arch=profile.arch,
        profile=profile,
        threads=threads,
        init=dict(program.init),
        widths=dict(program.widths),
        const_locations=program.const_locations,
    )
