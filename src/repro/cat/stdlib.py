"""The standard environment a Cat model sees for one execution.

This is the bridge between :class:`~repro.core.execution.Execution` and the
Cat interpreter: it exposes the base sets (``R``, ``W``, ``M``, ``F``,
C11 order sets, architecture tag sets) and base relations (``po``, ``rf``,
``co``, ``fr``, dependency relations, ``loc``, ``int``/``ext``…) under the
names the shipped models use.

The environment is built in two stages, mirroring the staged solver:

* :func:`build_static_env` derives everything that depends only on the
  event structure and the po/rmw/dependency relations — fixed for a
  whole path combination, so it is computed **once** per combination.
  The events are interned into an
  :class:`~repro.core.relations.EventUniverse` and the structural
  relations (``loc``, ``int``, ``ext``, ``init``) are assembled directly
  as bitmask adjacency rows — one shared location/thread mask per group
  instead of O(n²) pair loops;
* :func:`dynamic_bindings` adds the rf/co-derived relations that change
  per candidate (``rf``, ``co``, ``fr``, ``com`` and the internal/
  external splits) — row-wise kernel ops against the same universe,
  built only for the names the model's dynamic suffix reads.

:func:`build_env` composes both for callers that hold one finished
execution.

Tag sets (``A``, ``Q``, ``L``, ``X``, ``DMB.SY`` …) default to the empty
set when the execution contains no such event, so one model text works for
every front-end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, List, Optional, Sequence

from ..core.events import ACCESS_KINDS, INIT_TID, Event, EventKind, MemoryOrder
from ..core.execution import Execution
from ..core.relations import EventUniverse, Relation
from .interp import DYNAMIC_BASE_NAMES, CatEnv, Value

#: Architecture tag names every environment defines (empty if unused).
KNOWN_TAG_SETS = (
    # AArch64
    "A",          # load-acquire (LDAR, LDAXR)
    "Q",          # load-acquirePC (LDAPR) — weaker than A w.r.t. earlier STLR
    "L",          # store-release (STLR, STLXR)
    "X",          # exclusive / locked access
    "ISB",
    "DMB.SY",
    "DMB.LD",
    "DMB.ST",
    "DMB.ISH",
    # Armv7
    "DMB",
    "DSB",
    # x86
    "MFENCE",
    "LOCK",
    # RISC-V
    "AQ",
    "RL",
    "FENCE.RW.RW",
    "FENCE.R.RW",
    "FENCE.RW.W",
    "FENCE.W.W",
    "FENCE.R.R",
    "FENCE.TSO",
    # Power
    "SYNC",
    "LWSYNC",
    "ISYNC",
    "EIEIO",
    # MIPS
    "MIPS.SYNC",
    # misc
    "INIT",
    "RMW-R",
    "RMW-W",
    "NORET",      # ST<OP>-form atomic reads: not ordered by DMB LD
    "CONST",      # accesses to read-only (const) memory — paper §IV-E
)


@dataclass
class StaticEnv:
    """The per-path-combination half of the Cat environment.

    ``env`` holds every binding derivable before rf/co are chosen;
    ``internal``/``external`` are kept so the dynamic stage can derive
    ``rfe``/``rfi``/``coe``… by row-wise intersection instead of
    recomputing the O(n²) thread-split relations per candidate;
    ``universe`` is the interned event universe all of them are encoded
    against.
    """

    env: CatEnv
    internal: Relation
    external: Relation
    universe: Optional[EventUniverse] = None


_NO_EVENTS: FrozenSet[int] = frozenset()


def build_static_env(
    events: Sequence[Event],
    po: Relation,
    rmw: Relation = Relation.empty(),
    addr: Relation = Relation.empty(),
    data: Relation = Relation.empty(),
    ctrl: Relation = Relation.empty(),
) -> StaticEnv:
    """Construct the rf/co-independent bindings for one event structure.

    One pass over the events sorts every id into its sets and collects
    the per-location and per-thread masks; a second assembles the
    ``loc``/``int``/``ext`` adjacency rows from those shared masks.
    """
    uni = EventUniverse(e.eid for e in events)
    universe = uni.ids()
    kinds: Dict[EventKind, List[int]] = {kind: [] for kind in EventKind}
    by_order: Dict[MemoryOrder, List[int]] = {order: [] for order in MemoryOrder}
    init_writes: List[int] = []
    plain: List[int] = []  # non-atomic, non-init accesses
    tags_present: Dict[str, List[int]] = {}
    loc_masks: Dict[str, int] = {}
    tid_masks: Dict[int, int] = {}
    all_mask = 0
    for e in events:
        eid, bit = e.eid, 1 << e.eid
        kinds[e.kind].append(eid)
        by_order[e.order].append(eid)
        is_access = e.kind in ACCESS_KINDS
        if e.tid == INIT_TID:
            init_writes.append(eid)
        elif is_access and e.order is MemoryOrder.NA:
            plain.append(eid)
        if is_access and e.loc is not None:
            loc_masks[e.loc] = loc_masks.get(e.loc, 0) | bit
        tid_masks[e.tid] = tid_masks.get(e.tid, 0) | bit
        all_mask |= bit
        for tag in e.tags:
            tags_present.setdefault(tag, []).append(eid)

    # same-location, internal and external splits (static: they depend
    # only on event structure, not on rf/co) — one shared mask per
    # location/thread group instead of O(n²) pair loops
    loc_rows: Dict[int, int] = {}
    int_rows: Dict[int, int] = {}
    ext_rows: Dict[int, int] = {}
    for e in events:
        eid, bit = e.eid, 1 << e.eid
        if e.loc is not None and e.kind in ACCESS_KINDS:
            row = loc_masks[e.loc] & ~bit
            if row:
                loc_rows[eid] = row
        own = tid_masks[e.tid]
        if e.tid != INIT_TID:
            row = own & ~bit
            if row:
                int_rows[eid] = row
        outside = all_mask & ~own
        if outside:
            ext_rows[eid] = outside
    loc = Relation.from_rows(loc_rows)
    internal = Relation.from_rows(int_rows)
    external = Relation.from_rows(ext_rows)

    def order_set(*orders: MemoryOrder) -> FrozenSet[int]:
        return frozenset(eid for order in orders for eid in by_order[order])

    reads = frozenset(kinds[EventKind.READ])
    writes = frozenset(kinds[EventKind.WRITE])
    atomic = order_set(*(order for order in MemoryOrder if order.is_atomic))
    init_set = frozenset(init_writes)

    bindings: Dict[str, Value] = {
        # base sets --------------------------------------------------- #
        "R": reads,
        "W": writes,
        "M": reads | writes,
        "F": frozenset(kinds[EventKind.FENCE]),
        "B": frozenset(kinds[EventKind.BRANCH]),
        "IW": init_set,
        "id": uni.identity(),
        # C11 order sets ----------------------------------------------- #
        # ACQ: acquire or stronger; REL: release or stronger; etc.
        "ACQ": order_set(MemoryOrder.ACQ, MemoryOrder.ACQ_REL, MemoryOrder.SC),
        "REL": order_set(MemoryOrder.REL, MemoryOrder.ACQ_REL, MemoryOrder.SC),
        "SC": order_set(MemoryOrder.SC),
        "ACQ_REL": order_set(MemoryOrder.ACQ_REL),
        "CON": order_set(MemoryOrder.CON),
        "RLX": atomic,  # "at least relaxed" = every atomic event
        "NA": frozenset(plain),
        "ATOMIC": atomic,
        # static base relations ---------------------------------------- #
        "po": po,
        "rmw": rmw,
        "addr": addr,
        "data": data,
        "ctrl": ctrl,
        "deps": addr | data | ctrl,
        "loc": loc,
        "int": internal,
        "ext": external,
        "po-loc": po & loc,
        # init-before: initial writes precede every other event -------- #
        "init": Relation.cartesian(init_set, universe - init_set),
    }
    for tag in KNOWN_TAG_SETS:
        present = tags_present.get(tag)
        # most tag sets are empty: share one set instead of building one
        bindings[tag] = frozenset(present) if present else _NO_EVENTS
    env = CatEnv(bindings=bindings, universe=universe, po=po, interned=uni)
    return StaticEnv(env=env, internal=internal, external=external, universe=uni)


def dynamic_bindings(
    execution: Execution,
    static: Optional[StaticEnv] = None,
    names: Optional[AbstractSet[str]] = None,
) -> Dict[str, Value]:
    """The per-candidate (rf/co-derived) bindings.

    When ``static`` is given its internal/external relations are reused
    and only ``execution``'s ``rf``/``co``/``fr`` are read, so any value
    carrying those three serves (the simulator passes a
    :class:`~repro.herd.enumerate.CandidateRecord`); otherwise they are
    recomputed from the execution.  ``names`` limits
    the result to the base names a model reads
    (:attr:`~repro.cat.interp.CompiledModel.dynamic_names`); by default
    every name of :data:`~repro.cat.interp.DYNAMIC_BASE_NAMES` is built.
    """
    if names is None:
        names = _ALL_DYNAMIC
    rf, co, fr = execution.rf, execution.co, execution.fr
    bindings: Dict[str, Value] = {
        name: rel for name, rel in (("rf", rf), ("co", co), ("fr", fr)) if name in names
    }
    if "com" in names:
        bindings["com"] = rf | co | fr
    if not names.isdisjoint(_EXTERNAL_SPLITS):
        external = static.external if static is not None else execution.external()
        for name, rel in (("rfe", rf), ("coe", co), ("fre", fr)):
            if name in names:
                bindings[name] = rel & external
    if not names.isdisjoint(_INTERNAL_SPLITS):
        internal = static.internal if static is not None else execution.internal()
        for name, rel in (("rfi", rf), ("coi", co), ("fri", fr)):
            if name in names:
                bindings[name] = rel & internal
    # keys must stay in sync with DYNAMIC_BASE_NAMES; asserted in tests
    return bindings


_ALL_DYNAMIC = frozenset(DYNAMIC_BASE_NAMES)
_EXTERNAL_SPLITS = frozenset({"rfe", "coe", "fre"})
_INTERNAL_SPLITS = frozenset({"rfi", "coi", "fri"})


def build_env(execution: Execution) -> CatEnv:
    """Construct the full Cat evaluation environment for ``execution``."""
    static = build_static_env(
        execution.events,
        execution.po,
        execution.rmw,
        execution.addr,
        execution.data,
        execution.ctrl,
    )
    env = static.env
    env.bindings.update(dynamic_bindings(execution, static))
    return env
