"""Memory events: the nodes of candidate executions.

Executions (paper def. II.1) are graphs whose nodes are *events*: reads,
writes, read-modify-writes and fences issued by threads against shared
memory.  Events abstract machine operations as mathematical objects — a
pipeline or store buffer is modelled only through its effect on the order
in which events reach memory.

An RMW operation is represented herd-style as *two* events — a read and a
write — linked by the ``rmw`` relation of the surrounding execution.  This
matters for the paper's §IV-B bug class: when a compiler deletes the unused
destination register of an RMW (``STADD`` aliasing ``LDADD xzr``), the read
event disappears and with it every ordering the read provided.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import FrozenSet, Optional, Tuple


class MemoryOrder(enum.IntEnum):
    """C11 memory orders, ordered by strength for convenience.

    ``NA`` marks a non-atomic (plain) access; plain accesses participate in
    data races, which the C/C++ model treats as undefined behaviour.
    """

    NA = 0
    RLX = 1
    CON = 2
    ACQ = 3
    REL = 4
    ACQ_REL = 5
    SC = 6

    @property
    def is_atomic(self) -> bool:
        return self is not MemoryOrder.NA

    @property
    def at_least_acquire(self) -> bool:
        return self in (MemoryOrder.ACQ, MemoryOrder.ACQ_REL, MemoryOrder.SC)

    @property
    def at_least_release(self) -> bool:
        return self in (MemoryOrder.REL, MemoryOrder.ACQ_REL, MemoryOrder.SC)

    @property
    def is_seq_cst(self) -> bool:
        return self is MemoryOrder.SC

    @classmethod
    def parse(cls, text: str) -> "MemoryOrder":
        """Parse a C11 spelling such as ``memory_order_relaxed``."""
        key = text.strip().lower()
        key = key.replace("memory_order_", "")
        table = {
            "na": cls.NA,
            "plain": cls.NA,
            "relaxed": cls.RLX,
            "rlx": cls.RLX,
            "consume": cls.CON,
            "con": cls.CON,
            "acquire": cls.ACQ,
            "acq": cls.ACQ,
            "release": cls.REL,
            "rel": cls.REL,
            "acq_rel": cls.ACQ_REL,
            "acqrel": cls.ACQ_REL,
            "seq_cst": cls.SC,
            "sc": cls.SC,
        }
        if key not in table:
            raise ValueError(f"unknown memory order: {text!r}")
        return table[key]

    def c11_spelling(self) -> str:
        names = {
            MemoryOrder.NA: "plain",
            MemoryOrder.RLX: "memory_order_relaxed",
            MemoryOrder.CON: "memory_order_consume",
            MemoryOrder.ACQ: "memory_order_acquire",
            MemoryOrder.REL: "memory_order_release",
            MemoryOrder.ACQ_REL: "memory_order_acq_rel",
            MemoryOrder.SC: "memory_order_seq_cst",
        }
        return names[self]


class EventKind(enum.Enum):
    """The kind of a memory event."""

    READ = "R"
    WRITE = "W"
    FENCE = "F"
    # Branch events carry control dependencies in assembly executions; they
    # never access memory and most models ignore them except through ctrl.
    BRANCH = "B"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: The thread id used for initial-state writes.
INIT_TID = -1

#: The kinds of event that access memory (:attr:`Event.is_access`).
ACCESS_KINDS = (EventKind.READ, EventKind.WRITE)


@dataclass(frozen=True)
class Event:
    """A node of an execution graph.

    Attributes:
        eid: unique id within one execution (init writes come first).
        tid: issuing thread, or :data:`INIT_TID` for initial-state writes.
        kind: read / write / fence / branch.
        loc: symbolic shared-memory location (``None`` for fences/branches).
        value: the value read or written once the execution is concrete.
        order: C11 memory order (``NA`` for plain accesses and all
            architecture-level events, which use ``tags`` instead).
        tags: architecture refinement sets — e.g. ``"A"`` (LDAR acquire),
            ``"Q"`` (LDAPR weak acquire), ``"L"`` (STLR release), ``"X"``
            (exclusive), fence names like ``"DMB.SY"``, ``"SYNC"``; and the
            ``"RMW-R"`` / ``"RMW-W"`` markers on RMW halves.
        label: source-level label (e.g. the register receiving a load) used
            in diagnostics and state mapping.
    """

    eid: int
    tid: int
    kind: EventKind
    loc: Optional[str] = None
    value: Optional[int] = None
    order: MemoryOrder = MemoryOrder.NA
    tags: FrozenSet[str] = frozenset()
    label: str = ""

    # ------------------------------------------------------------------ #
    # classification helpers
    # ------------------------------------------------------------------ #
    @property
    def is_read(self) -> bool:
        return self.kind is EventKind.READ

    @property
    def is_write(self) -> bool:
        return self.kind is EventKind.WRITE

    @property
    def is_fence(self) -> bool:
        return self.kind is EventKind.FENCE

    @property
    def is_branch(self) -> bool:
        return self.kind is EventKind.BRANCH

    @property
    def is_access(self) -> bool:
        return self.kind in ACCESS_KINDS

    @property
    def is_init(self) -> bool:
        return self.tid == INIT_TID

    @property
    def is_rmw_half(self) -> bool:
        return "RMW-R" in self.tags or "RMW-W" in self.tags

    def has_tag(self, tag: str) -> bool:
        return tag in self.tags

    def with_value(self, value: int) -> "Event":
        return replace(self, value=value)

    def with_tags(self, *extra: str) -> "Event":
        return replace(self, tags=self.tags | frozenset(extra))

    # ------------------------------------------------------------------ #
    # rendering
    # ------------------------------------------------------------------ #
    def pretty(self) -> str:
        """Render like the paper's Fig. 2 node labels, e.g. ``a: W(Rlx)[x]=1``."""
        name = chr(ord("a") + self.eid % 26)
        if self.is_fence:
            mo = self.order.name.title() if self.order.is_atomic else ",".join(sorted(self.tags)) or "F"
            return f"{name}: F({mo})"
        if self.is_branch:
            return f"{name}: B"
        mo = self.order.name.title() if self.order.is_atomic else ("Na" if not self.tags else ",".join(sorted(self.tags)))
        val = "?" if self.value is None else str(self.value)
        return f"{name}: {self.kind.value}({mo})[{self.loc}]={val}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.pretty()


def make_init_writes(init: "dict[str, int]", start_eid: int = 0) -> Tuple[Event, ...]:
    """Build the initial-state write events for the given ``loc -> value`` map.

    Litmus tests fix the initial state (paper §II-A); herd models this as a
    set of writes by a virtual initial thread that precede everything.
    """
    events = []
    for offset, (loc, value) in enumerate(sorted(init.items())):
        events.append(
            Event(
                eid=start_eid + offset,
                tid=INIT_TID,
                kind=EventKind.WRITE,
                loc=loc,
                value=value,
                order=MemoryOrder.NA,
                tags=frozenset({"INIT"}),
            )
        )
    return tuple(events)
