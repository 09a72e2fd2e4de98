"""Candidate executions and outcomes.

A *candidate execution* (paper def. II.1) packages a set of events with the
base relations the Cat models consume:

* ``po``    — program order (per thread, as written on the page)
* ``rf``    — reads-from (one source write per read)
* ``co``    — coherence (a total order of writes per location)
* ``rmw``   — links the read half of an RMW to its write half
* ``addr`` / ``data`` / ``ctrl`` — syntactic dependencies
* derived: ``fr = rf^-1 ; co``, ``po-loc``, ``int``/``ext``, etc.

An *outcome* (def. II.2) is the observable result of one execution: the
final value of every shared location (the co-maximal write) plus the final
values of observed thread-local registers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Tuple

from .events import Event
from .relations import Relation


@dataclass(frozen=True)
class Outcome:
    """The observable result of an execution.

    ``bindings`` maps observable names to integer values.  Shared locations
    use their symbolic name (``"y"``), thread-local observables use the
    litmus convention ``"P1:r0"``.
    """

    bindings: Tuple[Tuple[str, int], ...]

    @staticmethod
    def of(mapping: Mapping[str, int]) -> "Outcome":
        return Outcome(tuple(sorted(mapping.items())))

    def as_dict(self) -> Dict[str, int]:
        return dict(self.bindings)

    def project(self, names: Iterable[str]) -> "Outcome":
        keep = set(names)
        return Outcome(tuple((k, v) for k, v in self.bindings if k in keep))

    def rename(self, mapping: Mapping[str, str]) -> "Outcome":
        return Outcome(
            tuple(sorted((mapping.get(k, k), v) for k, v in self.bindings))
        )

    def __str__(self) -> str:
        inner = " ".join(f"{k}={v};" for k, v in self.bindings)
        return "{ " + inner + " }"


class Execution:
    """One candidate execution of a litmus test.

    The constructor computes the derived relations every model needs; the
    object is immutable afterwards.
    """

    def __init__(
        self,
        events: Iterable[Event],
        po: Relation,
        rf: Relation,
        co: Relation,
        rmw: Relation = Relation.empty(),
        addr: Relation = Relation.empty(),
        data: Relation = Relation.empty(),
        ctrl: Relation = Relation.empty(),
    ) -> None:
        self.events: Tuple[Event, ...] = tuple(sorted(events, key=lambda e: e.eid))
        self.by_id: Dict[int, Event] = {e.eid: e for e in self.events}
        if len(self.by_id) != len(self.events):
            raise ValueError("duplicate event ids in execution")
        self.po = po
        self.rf = rf
        self.co = co
        self.rmw = rmw
        self.addr = addr
        self.data = data
        self.ctrl = ctrl
        # fr: the read reads a write co-before another write => read is
        # "from-read" before the later write.
        self._rf_inverse = rf.inverse()
        self.fr = self._rf_inverse.compose(co)

    def with_co(self, co: Relation) -> "Execution":
        """The same execution under another coherence order.

        The result shares the sorted event tuple, the id index and every
        relation but ``co``/``fr`` with ``self``; the enumerator derives
        all coherence orders of one rf assignment this way.
        """
        out = Execution.__new__(Execution)
        out.events = self.events
        out.by_id = self.by_id
        out.po = self.po
        out.rf = self.rf
        out.co = co
        out.rmw = self.rmw
        out.addr = self.addr
        out.data = self.data
        out.ctrl = self.ctrl
        out._rf_inverse = self._rf_inverse
        out.fr = self._rf_inverse.compose(co)
        return out

    # ------------------------------------------------------------------ #
    # event-set views
    # ------------------------------------------------------------------ #
    def ids(self) -> FrozenSet[int]:
        return frozenset(self.by_id)

    def reads(self) -> FrozenSet[int]:
        return frozenset(e.eid for e in self.events if e.is_read)

    def writes(self) -> FrozenSet[int]:
        return frozenset(e.eid for e in self.events if e.is_write)

    def fences(self) -> FrozenSet[int]:
        return frozenset(e.eid for e in self.events if e.is_fence)

    def accesses(self) -> FrozenSet[int]:
        return frozenset(e.eid for e in self.events if e.is_access)

    def tagged(self, tag: str) -> FrozenSet[int]:
        return frozenset(e.eid for e in self.events if e.has_tag(tag))

    def atomics(self) -> FrozenSet[int]:
        return frozenset(
            e.eid for e in self.events if e.is_access and e.order.is_atomic
        )

    def locations(self) -> FrozenSet[str]:
        return frozenset(e.loc for e in self.events if e.loc is not None)

    def threads(self) -> FrozenSet[int]:
        return frozenset(e.tid for e in self.events if not e.is_init)

    # ------------------------------------------------------------------ #
    # derived base relations
    # ------------------------------------------------------------------ #
    def same_location(self) -> Relation:
        """``loc`` — all pairs of accesses to the same location."""
        loc_masks: Dict[str, int] = {}
        for e in self.events:
            if e.is_access and e.loc is not None:
                loc_masks[e.loc] = loc_masks.get(e.loc, 0) | (1 << e.eid)
        rows: Dict[int, int] = {}
        for e in self.events:
            if e.is_access and e.loc is not None:
                row = loc_masks[e.loc] & ~(1 << e.eid)
                if row:
                    rows[e.eid] = row
        return Relation.from_rows(rows)

    def po_loc(self) -> Relation:
        loc = self.same_location()
        return self.po & loc

    def internal(self) -> Relation:
        """``int`` — same-thread pairs (over all events)."""
        tid_masks: Dict[int, int] = {}
        for e in self.events:
            tid_masks[e.tid] = tid_masks.get(e.tid, 0) | (1 << e.eid)
        rows: Dict[int, int] = {}
        for e in self.events:
            if e.is_init:
                continue
            row = tid_masks[e.tid] & ~(1 << e.eid)
            if row:
                rows[e.eid] = row
        return Relation.from_rows(rows)

    def external(self) -> Relation:
        """``ext`` — different-thread pairs (init counts as external)."""
        tid_masks: Dict[int, int] = {}
        all_mask = 0
        for e in self.events:
            tid_masks[e.tid] = tid_masks.get(e.tid, 0) | (1 << e.eid)
            all_mask |= 1 << e.eid
        rows: Dict[int, int] = {}
        for e in self.events:
            row = all_mask & ~tid_masks[e.tid]
            if row:
                rows[e.eid] = row
        return Relation.from_rows(rows)

    def rfe(self) -> Relation:
        return self.rf & self.external()

    def rfi(self) -> Relation:
        return self.rf & self.internal()

    def coe(self) -> Relation:
        return self.co & self.external()

    def coi(self) -> Relation:
        return self.co & self.internal()

    def fre(self) -> Relation:
        return self.fr & self.external()

    def fri(self) -> Relation:
        return self.fr & self.internal()

    def com(self) -> Relation:
        """Communication: ``rf | co | fr``."""
        return self.rf | self.co | self.fr

    # ------------------------------------------------------------------ #
    # outcome extraction
    # ------------------------------------------------------------------ #
    def final_memory(self) -> Dict[str, int]:
        """Final value per location: the co-maximal write."""
        final: Dict[str, int] = {}
        co = self.co
        by_loc: Dict[str, List[Event]] = {}
        loc_masks: Dict[str, int] = {}
        for e in self.events:
            if e.is_write and e.loc is not None:
                by_loc.setdefault(e.loc, []).append(e)
                loc_masks[e.loc] = loc_masks.get(e.loc, 0) | (1 << e.eid)
        for loc, writes in by_loc.items():
            mask = loc_masks[loc]
            maximal = [
                w for w in writes if not (co.successor_mask(w.eid) & mask)
            ]
            if len(maximal) != 1:
                raise ValueError(
                    f"co is not total over writes to {loc!r}: "
                    f"{[w.eid for w in maximal]} all maximal"
                )
            value = maximal[0].value
            final[loc] = 0 if value is None else value
        return final

    # ------------------------------------------------------------------ #
    # well-formedness
    # ------------------------------------------------------------------ #
    def check_well_formed(self) -> None:
        """Raise ValueError on structurally broken executions.

        Checks: rf sources are writes to the same location with the same
        value; every read has exactly one rf source; co totally orders the
        writes of each location and relates only same-location writes.
        """
        sources: Dict[int, int] = {}
        for w, r in self.rf:
            we, re = self.by_id[w], self.by_id[r]
            if not we.is_write or not re.is_read:
                raise ValueError(f"rf pair ({w},{r}) is not write->read")
            if we.loc != re.loc:
                raise ValueError(f"rf pair ({w},{r}) crosses locations")
            if we.value != re.value:
                raise ValueError(
                    f"rf pair ({w},{r}) value mismatch {we.value}!={re.value}"
                )
            if r in sources:
                raise ValueError(f"read {r} has two rf sources")
            sources[r] = w
        for r in self.reads():
            if r not in sources:
                raise ValueError(f"read {r} has no rf source")
        for a, b in self.co:
            ea, eb = self.by_id[a], self.by_id[b]
            if not (ea.is_write and eb.is_write and ea.loc == eb.loc):
                raise ValueError(f"co pair ({a},{b}) is not same-location W->W")
        by_loc: Dict[str, List[int]] = {}
        for e in self.events:
            if e.is_write and e.loc is not None:
                by_loc.setdefault(e.loc, []).append(e.eid)
        for loc, ws in by_loc.items():
            if not self.co.restrict(ws).is_total_over(ws):
                raise ValueError(f"co is not total over writes to {loc!r}")
        if not self.co.is_acyclic():
            raise ValueError("co is cyclic")

    def pretty(self) -> str:
        """Multi-line rendering for diagnostics."""
        lines = [e.pretty() for e in self.events]
        for name, rel in (("po", self.po), ("rf", self.rf), ("co", self.co), ("fr", self.fr)):
            if rel:
                lines.append(f"{name}: " + " ".join(f"{a}->{b}" for a, b in sorted(rel)))
        return "\n".join(lines)
