"""Assembly litmus tests.

An assembly litmus test (the output of the paper's ``s2l`` tool, §III-B)
has the same three parts as a C litmus test — fixed initial state,
concurrent program, final-state predicate — but its threads are machine
instructions, its shared locations live at concrete addresses inside ELF
sections, and its observables are architecture registers.

The *memory layout* fields reproduce the paper's §III-D challenge: compiled
programs name locations by numeric address; litmus tests name them
symbolically.  :class:`AsmLitmus` carries both views plus the mapping
between them, which ``s2l`` reconstructs from object-file metadata.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

from ..core.errors import MappingError
from ..core.litmus import LitmusBase
from .isa.base import Instruction, canonical


@dataclass(frozen=True)
class AsmThread:
    """One thread of an assembly litmus test.

    Attributes:
        name: litmus thread name (``P0``, ``P1``, …).
        instructions: the thread body in the unified representation.
        observed: architecture register → source-level observable name
            (``{"w9": "r0"}`` means the final value of ``w9`` reports as
            ``P0:r0``).  Built by ``s2l`` from debug metadata.
        addr_env: registers pre-loaded with the address of a symbol, as a
            litmus-style init section would (``{"x0": "y"}``).  Compiled
            threads receive their shared-location pointers this way (the
            calling convention) or materialise them with ``MOVADDR``.
    """

    name: str
    instructions: Tuple[Instruction, ...]
    observed: Dict[str, str] = field(default_factory=dict)
    addr_env: Dict[str, str] = field(default_factory=dict)

    @property
    def tid(self) -> int:
        if self.name.startswith("P") and self.name[1:].isdigit():
            return int(self.name[1:])
        raise ValueError(f"thread name {self.name!r} is not of the form Pn")


@dataclass
class AsmLitmus(LitmusBase):
    """A complete assembly litmus test.

    ``init`` (inherited) maps *symbolic location names* to initial values.
    ``layout`` assigns each symbol a numeric address — the view compiled
    code has; ``address_map`` is its inverse, extended so that any address
    inside a multi-byte location resolves to (symbol, offset).
    """

    arch: str = "aarch64"
    threads: Tuple[AsmThread, ...] = ()
    #: widths of shared locations in bits (default 32).
    widths: Dict[str, int] = field(default_factory=dict)
    #: locations placed in read-only memory (.rodata) — paper §IV-E.
    const_locations: Tuple[str, ...] = ()
    #: symbol → numeric address (ELF layout view of the same locations).
    layout: Dict[str, int] = field(default_factory=dict)
    #: private locations holding the address of a shared symbol
    #: (GOT slots): location name → symbol pointed to.  A load from such a
    #: location yields an address, which the semantics tracks symbolically.
    addr_locations: Dict[str, str] = field(default_factory=dict)
    #: locations private to one thread (stack slots, GOT entries); the s2l
    #: optimiser may remove accesses to these (paper §IV-E).
    private_locations: Tuple[str, ...] = ()
    #: multi-slot private memory regions (per-thread stacks): symbol → byte
    #: size.  An access at offset ``k`` into region ``s`` names the derived
    #: location ``s+k``; regions are always private.
    regions: Dict[str, int] = field(default_factory=dict)

    def digest(self) -> str:
        """A stable content digest, like :meth:`CLitmus.digest`: a sha256
        over every field a simulation can read (the dataclass fields of
        the test, its threads and their instructions), name left out."""
        cached = self.__dict__.get("_digest")
        if cached is None:
            payload = canonical(replace(self, name=""))
            cached = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
            self.__dict__["_digest"] = cached
        return cached

    def width_of(self, loc: str) -> int:
        return self.widths.get(loc, 32)

    def is_const(self, loc: str) -> bool:
        return loc in self.const_locations

    def is_private(self, loc: str) -> bool:
        if loc in self.private_locations or loc in self.addr_locations:
            return True
        base = loc.split("+", 1)[0]
        return base in self.regions

    # ------------------------------------------------------------------ #
    # the address <-> symbol bridge of paper §III-D
    # ------------------------------------------------------------------ #
    def address_of(self, symbol: str) -> int:
        if symbol not in self.layout:
            raise MappingError(f"symbol {symbol!r} has no address in the layout")
        return self.layout[symbol]

    def symbol_at(self, address: int) -> Tuple[str, int]:
        """Resolve a numeric address to ``(symbol, offset)``.

        Mirrors what ``s2l`` does with symbol-table metadata: find the
        symbol whose extent covers the address.
        """
        for symbol, base in sorted(self.layout.items(), key=lambda kv: kv[1]):
            size = max(self.width_of(symbol) // 8, 4)
            if base <= address < base + size:
                return symbol, address - base
        raise MappingError(f"address {address:#x} maps to no known symbol")

    def shared_symbols(self) -> Tuple[str, ...]:
        """Symbols nameable by more than one thread (the paper's soundness
        criterion for the s2l optimisations)."""
        return tuple(
            s for s in sorted(self.init) if not self.is_private(s)
        )

    def pretty(self) -> str:
        """Render in a herd-like surface syntax (for logs and goldens)."""
        lines: List[str] = [f"{self.arch.upper()} {self.name}"]
        inits = []
        for loc, value in sorted(self.init.items()):
            inits.append(f"{loc}={value};")
        for thread in self.threads:
            for reg, sym in sorted(thread.addr_env.items()):
                inits.append(f"{thread.tid}:{reg}={sym};")
        lines.append("{ " + " ".join(inits) + " }")
        for thread in self.threads:
            lines.append(f"{thread.name}:")
            for instr in thread.instructions:
                lines.append(f"  {instr.text or instr.op.value}")
        lines.append(str(self.condition))
        return "\n".join(lines)


def total_instructions(litmus: AsmLitmus) -> int:
    """Lines of compiled code, as counted in the paper's scalability talk."""
    return sum(len(t.instructions) for t in litmus.threads)
