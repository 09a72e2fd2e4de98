"""Event templates: the interface between front-ends and the enumerator.

Both the C semantics (:mod:`repro.lang.semantics`) and the assembly
semantics (:mod:`repro.asm.semantics`) symbolically execute one thread and
produce a set of :class:`ThreadPath` objects — one per control-flow path.
A path is a sequence of :class:`EventTemplate` whose values are
*expressions over local read placeholders*, plus the path constraints
(branch conditions) and the final values of observable locals.

The enumerator instantiates templates with global event ids, wires up rf,
solves values, and keeps only consistent candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Mapping, Optional, Tuple

from ..core.events import EventKind, MemoryOrder
from ..core.expr import BinOp, Const, Expr, ReadVal, UnOp


def rename_reads(expr: Expr, mapping: Mapping[int, int]) -> Expr:
    """Rewrite ``ReadVal`` placeholders through ``mapping``."""
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, ReadVal):
        return ReadVal(mapping.get(expr.read_eid, expr.read_eid))
    if isinstance(expr, BinOp):
        return BinOp(expr.op, rename_reads(expr.left, mapping), rename_reads(expr.right, mapping))
    if isinstance(expr, UnOp):
        return UnOp(expr.op, rename_reads(expr.operand, mapping))
    raise TypeError(f"unknown expression node {expr!r}")


@dataclass(frozen=True)
class EventTemplate:
    """One prospective event of a thread path.

    For reads, ``placeholder`` is the path-local id that value expressions
    use to refer to the loaded value.  For writes, ``value_expr`` gives the
    stored value as an expression over placeholders.  ``rmw_with_prev``
    marks the write half of an RMW (the preceding template must be its
    read half).  ``addr_deps``/``ctrl_deps`` list the placeholders whose
    values the *address* / *control* of this event depends on.
    """

    kind: EventKind
    loc: Optional[str] = None
    order: MemoryOrder = MemoryOrder.NA
    tags: FrozenSet[str] = frozenset()
    value_expr: Optional[Expr] = None
    placeholder: Optional[int] = None
    rmw_with_prev: bool = False
    #: for exclusive-pair RMWs (LDXR … STXR) the read half is not adjacent;
    #: this gives the read's absolute index in the path's template list.
    rmw_read_pos: Optional[int] = None
    addr_deps: FrozenSet[int] = frozenset()
    ctrl_deps: FrozenSet[int] = frozenset()
    label: str = ""
    width: int = 32

    def __post_init__(self) -> None:
        if self.kind is EventKind.READ and self.placeholder is None:
            raise ValueError("read template needs a placeholder")
        if self.kind is EventKind.WRITE and self.value_expr is None:
            raise ValueError("write template needs a value expression")


@dataclass(frozen=True)
class PathConstraint:
    """A branch condition the path assumed: ``expr`` must evaluate truthy
    (``expected=True``) or falsy."""

    expr: Expr
    expected: bool


@dataclass
class ThreadPath:
    """One control-flow path through a thread."""

    thread_name: str
    templates: Tuple[EventTemplate, ...]
    constraints: Tuple[PathConstraint, ...] = ()
    #: final values of observable locals, as expressions over placeholders
    finals: Dict[str, Expr] = field(default_factory=dict)

    def placeholders(self) -> FrozenSet[int]:
        out = set()
        for t in self.templates:
            if t.placeholder is not None:
                out.add(t.placeholder)
        return frozenset(out)


@dataclass
class ThreadProgram:
    """All paths of one thread, produced by a front-end."""

    name: str
    tid: int
    paths: Tuple[ThreadPath, ...]

    def __post_init__(self) -> None:
        if not self.paths:
            raise ValueError(f"thread {self.name} has no feasible paths")
