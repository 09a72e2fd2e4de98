"""The objdump-like disassembler.

``c2s`` disassembles the object file to text before ``s2l`` parses it back
(paper Fig. 6).  Crucially, the disassembler presents the *numeric* view:
address-materialisation instructions show resolved hex addresses, exactly
the gap §III-D describes between compiled programs (``0xf00``) and litmus
tests (``x``).  ``s2l`` undoes this using the symbol table and relocations.

Output format per thread::

       0:   adrp x8, 0x13000
       4:   ldr x8, [x8]
       8:   ldr w12, [x8]
       ...
"""

from __future__ import annotations

from typing import Dict, List

from ..asm.isa.base import Op, get_isa
from .objfile import ObjectFile


def disassemble_thread(
    obj: ObjectFile, thread: str, numeric: bool = True
) -> List[str]:
    """Render one thread's text section as objdump-style lines."""
    isa = get_isa(obj.arch)
    layout = obj.layout()
    lines: List[str] = []
    address = 0
    for instr in obj.text[thread]:
        if instr.op is Op.LABEL:
            lines.append(f"{instr.label}:")
            continue
        shown = instr
        if numeric and instr.op is Op.MOVADDR and instr.symbol in layout:
            # the numeric view: the symbol becomes a bare hex address
            resolved = layout[instr.symbol] + instr.offset
            shown = instr.evolve(symbol=f"0x{resolved:x}", offset=0)
        lines.append(f"{address:8x}:   {isa.print_instruction(shown)}")
        address += 4
    return lines


def disassemble(obj: ObjectFile, numeric: bool = True) -> Dict[str, List[str]]:
    """Disassemble every thread (the whole ``.text`` section)."""
    return {
        thread: disassemble_thread(obj, thread, numeric=numeric)
        for thread in obj.text
    }


def strip_listing(lines: List[str]) -> List[str]:
    """Drop the address column, leaving bare assembly for the parser."""
    out = []
    for line in lines:
        if line.endswith(":") and not line.lstrip()[0].isdigit():
            out.append(line)
            continue
        _, _, text = line.partition(":   ")
        out.append(text if text else line)
    return out
