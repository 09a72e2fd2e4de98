"""``s2l`` — assembly2litmus: parse, bridge addresses, optimise (Fig. 6).

Three stages, mirroring §III-B/§III-D/§IV-E of the paper:

1. **Parse** the objdump listing back into instructions.
2. **Bridge** the numeric address view to the symbolic litmus view using
   the object file's symbol table and relocations: ``adrp x8, 0x13000``
   becomes a reference to ``got_x``, and offsets into multi-byte symbols
   resolve to (symbol, offset).  This is as accurate as the metadata the
   compiler provides — the paper's stated accuracy bound.
3. **Optimise** the assembly litmus test so herd-style simulation
   terminates in milliseconds instead of exploding (§IV-E):

   * ``ADRP; LDR(got); LDR/STR x ⇝ ADRP; LDR/STR x`` — GOT-indirection
     removal (the paper's headline rewrite),
   * stack spill/reload forwarding and dead-store removal,
   * dead address-materialisation cleanup.

   Every removed access targets a location no other thread can name, the
   paper's informal soundness argument: such accesses cannot affect — or
   be affected by — other threads' executions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..asm.isa.base import Instruction, Op, get_isa
from ..asm.litmus import AsmLitmus, AsmThread
from ..compiler.disasm import strip_listing
from ..compiler.objfile import ObjectFile
from ..core.errors import MappingError
from ..core.litmus import Condition


@dataclass
class S2LStats:
    """Optimisation accounting ("around 4 lines removed per access")."""

    parsed_instructions: int = 0
    removed_got_loads: int = 0
    removed_stack_accesses: int = 0
    removed_dead_movaddr: int = 0

    @property
    def total_removed(self) -> int:
        return (
            self.removed_got_loads
            + self.removed_stack_accesses
            + self.removed_dead_movaddr
        )


# --------------------------------------------------------------------------- #
# stage 1+2: parse and bridge
# --------------------------------------------------------------------------- #
def parse_thread(
    obj: ObjectFile, thread: str, lines: List[str]
) -> List[Instruction]:
    """Parse one thread's listing and resolve numeric addresses."""
    isa = get_isa(obj.arch)
    instructions = isa.parse_body(strip_listing(lines))
    resolved: List[Instruction] = []
    for instr in instructions:
        if instr.op is Op.MOVADDR and instr.symbol and instr.symbol.startswith("0x"):
            address = int(instr.symbol, 16) + instr.offset
            symbol = obj.symbol_at(address)
            if symbol is None:
                raise MappingError(
                    f"{thread}: address {address:#x} resolves to no symbol — "
                    f"missing metadata (paper §III-D accuracy bound)"
                )
            instr = instr.evolve(
                symbol=symbol.name, offset=address - symbol.address
            )
        resolved.append(instr)
    return resolved


# --------------------------------------------------------------------------- #
# stage 3: the optimiser
# --------------------------------------------------------------------------- #
def _defs(instr: Instruction) -> Tuple[str, ...]:
    return tuple(r for r in (instr.dst, instr.dst2, instr.status) if r)


def _reg_uses(instr: Instruction) -> Tuple[str, ...]:
    return tuple(r for r in (instr.src1, instr.src2, instr.addr_reg) if r)


def fold_got_loads(
    instrs: List[Instruction], obj: ObjectFile, stats: S2LStats
) -> List[Instruction]:
    """``MOVADDR r, got_x ; LOAD r, [r]`` ⇝ ``MOVADDR r, x``.

    Sound because the GOT slot is written only by the (static) linker: the
    loaded value is always the address of ``x``, and no other thread can
    name the slot.
    """
    out: List[Instruction] = []
    i = 0
    while i < len(instrs):
        instr = instrs[i]
        if (
            instr.op is Op.MOVADDR
            and instr.symbol in obj.got_entries
            and i + 1 < len(instrs)
        ):
            nxt = instrs[i + 1]
            if (
                nxt.op is Op.LOAD
                and nxt.addr_reg == instr.dst
                and nxt.dst == instr.dst
                and nxt.offset == 0
            ):
                target = obj.got_entries[instr.symbol]
                out.append(instr.evolve(symbol=target, text=""))
                stats.removed_got_loads += 1
                i += 2
                continue
        out.append(instr)
        i += 1
    return out


def forward_stack_traffic(
    instrs: List[Instruction], stats: S2LStats
) -> List[Instruction]:
    """Forward spill/reload pairs through registers; drop dead spills.

    Stack slots are thread-private (no other thread holds their address),
    so store→load forwarding within the thread preserves every outcome.
    Forwarding is segment-local: label and branch boundaries clear the
    tracked state, which keeps the rewrite trivially sound across joins.
    """
    # pass 1: replace reloads with register moves where possible
    forwarded: List[Instruction] = []
    slot_reg: Dict[int, str] = {}
    for instr in instrs:
        if instr.op in (Op.LABEL, Op.B, Op.BCOND, Op.CBZ, Op.CBNZ):
            slot_reg.clear()
            forwarded.append(instr)
            continue
        if instr.op is Op.STORE and instr.addr_reg == "sp" and instr.src1:
            slot_reg[instr.offset] = instr.src1
            forwarded.append(instr)
            continue
        if (
            instr.op is Op.LOAD
            and instr.addr_reg == "sp"
            and instr.offset in slot_reg
        ):
            source = slot_reg[instr.offset]
            if source == instr.dst:
                stats.removed_stack_accesses += 1
            else:
                forwarded.append(
                    Instruction(op=Op.MOV, dst=instr.dst, src1=source)
                )
                stats.removed_stack_accesses += 1
            continue
        for defined in _defs(instr):
            slot_reg = {k: v for k, v in slot_reg.items() if v != defined}
        forwarded.append(instr)
    # pass 2: drop stores to slots nobody reloads any more
    still_loaded: Set[int] = {
        instr.offset
        for instr in forwarded
        if instr.op is Op.LOAD and instr.addr_reg == "sp"
    }
    out: List[Instruction] = []
    for instr in forwarded:
        if (
            instr.op is Op.STORE
            and instr.addr_reg == "sp"
            and instr.offset not in still_loaded
        ):
            stats.removed_stack_accesses += 1
            continue
        out.append(instr)
    return out


def drop_dead_movaddr(
    instrs: List[Instruction], stats: S2LStats
) -> List[Instruction]:
    """Remove address materialisations whose register is never used."""
    out: List[Instruction] = []
    for index, instr in enumerate(instrs):
        if instr.op is Op.MOVADDR and instr.dst:
            used = False
            for later in instrs[index + 1 :]:
                if instr.dst in _reg_uses(later):
                    used = True
                    break
                if instr.dst in _defs(later):
                    break
            if not used:
                stats.removed_dead_movaddr += 1
                continue
        out.append(instr)
    return out


def optimise_thread(
    instrs: List[Instruction], obj: ObjectFile, stats: S2LStats
) -> List[Instruction]:
    """The full s2l optimisation pipeline for one thread."""
    instrs = fold_got_loads(instrs, obj, stats)
    instrs = forward_stack_traffic(instrs, stats)
    instrs = drop_dead_movaddr(instrs, stats)
    return instrs


# --------------------------------------------------------------------------- #
# litmus construction
# --------------------------------------------------------------------------- #
def assembly_to_litmus(
    obj: ObjectFile,
    condition: Condition,
    listing: Optional[Dict[str, List[str]]] = None,
    optimise: bool = True,
    stats: Optional[S2LStats] = None,
) -> AsmLitmus:
    """Construct an assembly litmus test from a disassembled object file.

    ``condition`` is the (possibly l2c-augmented) source condition;
    observables referencing registers are wired through the debug map.
    With ``optimise=False`` the raw compiled test is returned — the
    paper's non-terminating ``unoptimised.litmus`` configuration.
    """
    from ..compiler.disasm import disassemble

    stats = stats if stats is not None else S2LStats()
    listing = listing or disassemble(obj)

    init: Dict[str, int] = dict(obj.init)
    widths: Dict[str, int] = dict(obj.widths)
    layout = obj.layout()
    addr_locations: Dict[str, str] = {}
    private: List[str] = []
    for slot, target in obj.got_entries.items():
        init[slot] = layout[target]
        widths[slot] = 64
        addr_locations[slot] = target
        private.append(slot)
    regions: Dict[str, int] = {}
    threads: List[AsmThread] = []
    for name, lines in listing.items():
        instructions = parse_thread(obj, name, lines)
        stats.parsed_instructions += len(instructions)
        if optimise:
            instructions = optimise_thread(instructions, obj, stats)
        addr_env: Dict[str, str] = {}
        stack_symbol = obj.debug.stack_symbols.get(name)
        if stack_symbol is not None:
            addr_env["sp"] = stack_symbol
            regions[stack_symbol] = max(obj.stack_sizes.get(name, 0), 8)
        observed = {
            reg: local
            for local, reg in obj.debug.var_registers.get(name, {}).items()
        }
        threads.append(
            AsmThread(
                name=name,
                instructions=tuple(instructions),
                observed=observed,
                addr_env=addr_env,
            )
        )
    return AsmLitmus(
        name=obj.name,
        init=init,
        condition=condition,
        arch=obj.arch,
        threads=tuple(sorted(threads, key=lambda t: t.tid)),
        widths=widths,
        const_locations=obj.const_locations,
        layout=layout,
        addr_locations=addr_locations,
        private_locations=tuple(private),
        regions=regions,
    )
