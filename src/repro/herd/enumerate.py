"""Candidate-execution enumeration (the core of the herd-style simulator).

Given per-thread path sets, the :class:`ExecutionEnumerator` generates
every candidate execution of a litmus test in stages:

1. choose one control-flow path per thread and instantiate event
   templates with global ids (a :class:`PathCombo`); build ``po``,
   ``rmw`` and dependency relations,
2. choose an rf source for every read (init write, any other-thread
   write to the same location, or the po-latest same-thread write) —
   sources that can only produce coherence violations are filtered out
   up front by the pruning stages,
3. solve values by evaluating along ``data-dependency ∪ rf``; reject
   cyclic candidates (out-of-thin-air, forbidden by every shipped model)
   and rf choices inconsistent with the chosen branch conditions,
4. derive the coherence constraints the rf choice and program order
   impose (the CoWW/CoWR/CoRW/CoRR shapes every shipped model forbids)
   and build coherence orders incrementally, write-by-write: a prefix
   that violates a constraint is abandoned before its factorial tail is
   expanded — the paper's §IV-E state explosion, pruned at the root,
5. yield the resulting :class:`~repro.core.execution.Execution`.

Pruning is *pluggable*: each :class:`PruneStage` contributes rf-source
filters, whole-assignment rejections and coherence-precedence edges, and
every stage's work is tallied in :class:`EnumerationStats`.  The pruning
performed by the default stages is sound for every registered model —
all of them reject coherence violations (``acyclic po-loc | com`` or the
RC11 ``irreflexive hb; eco?`` axiom), so the surviving outcome sets are
identical to exhaustive enumeration.

The ``Budget`` guards against the state explosion the paper describes:
exceeding it raises :class:`~repro.core.errors.SimulationTimeout`.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..core.errors import SimulationTimeout
from ..core.events import ACCESS_KINDS, INIT_TID, Event, EventKind
from ..core.execution import Execution, Outcome
from ..core.expr import Expr
from ..core.relations import Pair, Relation, RelationBuilder
from .templates import EventTemplate, PathConstraint, ThreadPath, ThreadProgram, rename_reads


@dataclass
class Budget:
    """Bounds on enumeration work.

    ``max_candidates`` caps the number of work units (candidates plus
    pruned/rejected partial candidates) considered; ``deadline_seconds``
    caps wall-clock time.  Either limit raises
    :class:`SimulationTimeout` — the analogue of herd's one-hour timeout
    on the paper's Fig. 11 test.

    The deadline is measured from the first use (or the last
    :meth:`reset`), never from construction, so a Budget built early —
    e.g. at campaign setup — is not born expired.
    """

    max_candidates: int = 2_000_000
    deadline_seconds: Optional[float] = None
    _start: Optional[float] = field(default=None, repr=False)

    def reset(self) -> None:
        self._start = time.perf_counter()

    def check(self, candidates: int) -> None:
        if candidates > self.max_candidates:
            raise SimulationTimeout(
                f"exceeded candidate budget ({self.max_candidates})",
                candidates_explored=candidates,
            )
        if self.deadline_seconds is not None:
            if self._start is None:
                self._start = time.perf_counter()
            if time.perf_counter() - self._start > self.deadline_seconds:
                raise SimulationTimeout(
                    f"exceeded deadline ({self.deadline_seconds}s)",
                    candidates_explored=candidates,
                )


@dataclass
class EnumerationStats:
    """Counters describing one enumeration run.

    The ``rejected_*``/``pruned_*`` fields are per-stage prune counters:
    how much of the candidate space each stage of the solver discarded
    before a full candidate was materialised.  ``stage_seconds``
    attributes wall-clock to each prune stage by name (its
    ``filter_rf_sources`` / ``reject_assignment`` / ``co_precedence``
    hooks combined), so kernel-level speedups are visible per stage, not
    just in the total.
    """

    path_combinations: int = 0
    rf_assignments: int = 0
    candidates: int = 0
    rejected_value_cycle: int = 0
    rejected_constraint: int = 0
    #: rf source options removed up front (each kills a whole subtree of
    #: the rf assignment product)
    rf_sources_pruned: int = 0
    #: whole rf assignments whose coherence constraints are unsatisfiable
    rejected_rf_coherence: int = 0
    #: coherence-order prefixes abandoned before their factorial tail
    pruned_co_prefixes: int = 0
    elapsed_seconds: float = 0.0
    #: wall-clock spent inside each prune stage's hooks, by stage name
    stage_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def total_pruned(self) -> int:
        return (
            self.rejected_value_cycle
            + self.rejected_constraint
            + self.rf_sources_pruned
            + self.rejected_rf_coherence
            + self.pruned_co_prefixes
        )

    def add_stage_time(self, name: str, seconds: float) -> None:
        self.stage_seconds[name] = self.stage_seconds.get(name, 0.0) + seconds

    def add(self, other: "EnumerationStats") -> None:
        """Fold ``other``'s counters and stage times into these."""
        for name in _COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for name, seconds in other.stage_seconds.items():
            self.add_stage_time(name, seconds)

    def copy(self) -> "EnumerationStats":
        out = EnumerationStats()
        out.add(self)
        return out

    def as_dict(self) -> Dict[str, object]:
        return {
            "path_combinations": self.path_combinations,
            "rf_assignments": self.rf_assignments,
            "candidates": self.candidates,
            "rejected_value_cycle": self.rejected_value_cycle,
            "rejected_constraint": self.rejected_constraint,
            "rf_sources_pruned": self.rf_sources_pruned,
            "rejected_rf_coherence": self.rejected_rf_coherence,
            "pruned_co_prefixes": self.pruned_co_prefixes,
            "total_pruned": self.total_pruned,
            "elapsed_seconds": self.elapsed_seconds,
            "stage_seconds": dict(self.stage_seconds),
        }


_COUNTERS = (
    "path_combinations", "rf_assignments", "candidates", "rejected_value_cycle",
    "rejected_constraint", "rf_sources_pruned", "rejected_rf_coherence",
    "pruned_co_prefixes", "elapsed_seconds",
)


@dataclass(frozen=True)
class Candidate:
    """An execution plus the solved per-thread final-local values."""

    execution: Execution
    finals: Tuple[Tuple[str, int], ...]  # ("P0:r0", value)

    def finals_dict(self) -> Dict[str, int]:
        return dict(self.finals)


class CandidateRecord(NamedTuple):
    """What a model check reads of one candidate: its communication
    relations and its outcome (model-free, so computed once however many
    models check it).  ``execution`` is kept only on request."""

    rf: Relation
    co: Relation
    fr: Relation
    outcome: Outcome
    execution: Optional[Execution] = None


class _ValueCycle(Exception):
    pass


@dataclass
class PathCombo:
    """One path-per-thread choice with everything derivable before rf.

    All of this is *static* per combination: the events (ids, kinds,
    locations — values still unsolved), the po/rmw/dependency relations,
    and the indexes the pruning stages consult.  The Cat static prefix
    (see :mod:`repro.cat.interp`) is evaluated once per PathCombo.
    """

    events: List[Event]
    templates: Dict[int, EventTemplate]
    po: Relation
    rmw: Relation
    addr: Relation
    data: Relation
    ctrl: Relation
    finals: List[Tuple[str, Expr]]
    constraints: List[PathConstraint]
    write_exprs: Dict[int, Expr]
    #: per-read feasible rf sources (after stage filtering)
    rf_candidates: Dict[int, List[int]] = field(default_factory=dict)
    read_ids: List[int] = field(default_factory=list)
    #: non-init writes per location, in eid order
    writes_by_loc: Dict[str, List[int]] = field(default_factory=dict)
    #: write (init writes included) -> its location
    write_loc: Dict[int, str] = field(default_factory=dict)
    init_write: Dict[str, int] = field(default_factory=dict)
    init_ids: FrozenSet[int] = frozenset()
    #: read -> same-thread po-earlier writes to the read's location
    writes_before: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    #: read -> same-thread po-later writes to the read's location
    writes_after: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    #: same-thread same-location po-ordered read pairs (for CoRR)
    read_pairs: Tuple[Tuple[int, int], ...] = ()
    #: per-location CoWW edges forced by program order alone
    base_co_edges: Dict[str, List[Pair]] = field(default_factory=dict)

    @property
    def choice_lists(self) -> List[List[int]]:
        return [self.rf_candidates[r] for r in self.read_ids]

    def feasible(self) -> bool:
        return all(self.rf_candidates[r] for r in self.read_ids)


# --------------------------------------------------------------------- #
# pruning stages
# --------------------------------------------------------------------- #
class PruneStage:
    """A pluggable pruning stage of the enumerator.

    Stages see three hook points, called in stage order:

    * :meth:`filter_rf_sources` — drop rf sources a read can never take
      (runs once per :class:`PathCombo`; each dropped source kills the
      whole subtree of rf assignments containing it);
    * :meth:`reject_assignment` — veto a solved rf assignment;
    * :meth:`co_precedence` — emit ``(earlier, later)`` coherence
      constraints between same-location writes, used to prune coherence
      prefixes write-by-write.

    The base class is a no-op on all three.
    """

    name = "prune"

    def filter_rf_sources(
        self,
        combo: PathCombo,
        read: int,
        sources: List[int],
        stats: EnumerationStats,
    ) -> List[int]:
        return sources

    def reject_assignment(
        self,
        combo: PathCombo,
        rf_map: Mapping[int, int],
        values: Mapping[int, int],
        stats: EnumerationStats,
    ) -> bool:
        return False

    def co_precedence(
        self, combo: PathCombo, rf_map: Mapping[int, int]
    ) -> Iterable[Pair]:
        return ()


class BasicRfStage(PruneStage):
    """The seed enumerator's only filter: a read never takes a po-later
    same-thread write (always a coherence violation).  Used by
    :func:`exhaustive_stages` to reproduce brute-force enumeration."""

    name = "rf-po"

    def filter_rf_sources(
        self,
        combo: PathCombo,
        read: int,
        sources: List[int],
        stats: EnumerationStats,
    ) -> List[int]:
        po_after_read = combo.po.successor_mask(read)
        kept: List[int] = []
        for w in sources:
            if (po_after_read >> w) & 1:
                stats.rf_sources_pruned += 1
                continue
            kept.append(w)
        return kept


class CoherenceStage(PruneStage):
    """Prunes rf choices and coherence prefixes using the per-location
    coherence shapes (CoWW/CoWR/CoRW/CoRR) that every shipped model
    forbids — the rf/po-derived constraints of the staged solver."""

    name = "coherence"

    def filter_rf_sources(
        self,
        combo: PathCombo,
        read: int,
        sources: List[int],
        stats: EnumerationStats,
    ) -> List[int]:
        prior = combo.writes_before.get(read, ())
        po_after_read = combo.po.successor_mask(read)
        kept: List[int] = []
        for w in sources:
            # reading a po-later same-thread write is a po-loc ∪ rf cycle
            if (po_after_read >> w) & 1:
                stats.rf_sources_pruned += 1
                continue
            # with a same-thread write w' before the read, anything
            # necessarily co-before w' is invisible: the init write, and
            # every same-thread write other than the po-latest (CoWW
            # forces their coherence order)
            if prior:
                if w in combo.init_ids:
                    stats.rf_sources_pruned += 1
                    continue
                if w in prior and w != prior[-1]:
                    stats.rf_sources_pruned += 1
                    continue
            kept.append(w)
        return kept

    def co_precedence(
        self, combo: PathCombo, rf_map: Mapping[int, int]
    ) -> Iterable[Pair]:
        edges: List[Pair] = []
        # CoWW: program order between same-thread same-location writes
        # is coherence order
        for loc_edges in combo.base_co_edges.values():
            edges.extend(loc_edges)
        for r, w in rf_map.items():
            # CoWR: same-thread writes before the read are co-before
            # its rf source
            for w_prior in combo.writes_before.get(r, ()):
                if w_prior != w:
                    edges.append((w_prior, w))
            # CoRW: the rf source is co-before same-thread writes after
            # the read
            for w_later in combo.writes_after.get(r, ()):
                if w_later != w:
                    edges.append((w, w_later))
        # CoRR: po-ordered same-location reads see co-ordered writes
        for r1, r2 in combo.read_pairs:
            wa, wb = rf_map[r1], rf_map[r2]
            if wa != wb:
                edges.append((wa, wb))
        return edges


class PathConstraintStage(PruneStage):
    """Rejects rf assignments whose solved values contradict the branch
    conditions of the chosen control-flow paths."""

    name = "path-constraint"

    def reject_assignment(
        self,
        combo: PathCombo,
        rf_map: Mapping[int, int],
        values: Mapping[int, int],
        stats: EnumerationStats,
    ) -> bool:
        for constraint in combo.constraints:
            env = {r: values[r] for r in constraint.expr.reads()}
            if bool(constraint.expr.eval(env)) != constraint.expected:
                stats.rejected_constraint += 1
                return True
        return False


def default_stages() -> Tuple[PruneStage, ...]:
    """The staged solver's default pruning pipeline."""
    return (CoherenceStage(), PathConstraintStage())


def exhaustive_stages() -> Tuple[PruneStage, ...]:
    """Brute-force enumeration, as the seed enumerator behaved: every
    coherence permutation is materialised and left for the model to
    reject.  Kept for state-explosion studies (paper §IV-E, Fig. 11)."""
    return (BasicRfStage(), PathConstraintStage())


# --------------------------------------------------------------------- #
# path instantiation
# --------------------------------------------------------------------- #
_INIT_TAGS: FrozenSet[str] = frozenset({"INIT"})


class EventStructure(NamedTuple):
    """The part of a :class:`PathCombo` a model check reads (its static
    environment's inputs), kept once the combination's candidates are
    recorded."""

    events: List[Event]
    po: Relation
    rmw: Relation
    addr: Relation
    data: Relation
    ctrl: Relation


def _instantiate_paths(
    init: Mapping[str, int],
    chosen: Sequence[Tuple[ThreadProgram, ThreadPath]],
) -> PathCombo:
    """Assign global event ids and build the static relations."""
    # every location touched gets an init write (herd zero-initialises)
    locations = set(init)
    for _, path in chosen:
        for t in path.templates:
            if t.loc is not None:
                locations.add(t.loc)
    full_init = {loc: init.get(loc, 0) for loc in sorted(locations)}

    events: List[Event] = []
    templates: Dict[int, EventTemplate] = {}
    next_eid = 0
    for loc, value in sorted(full_init.items()):
        events.append(
            Event(
                eid=next_eid,
                tid=INIT_TID,
                kind=EventKind.WRITE,
                loc=loc,
                value=value,
                tags=_INIT_TAGS,
            )
        )
        next_eid += 1

    po_rows: Dict[int, int] = {}
    rmw_pairs: List[Pair] = []
    addr_pairs: List[Pair] = []
    data_pairs: List[Pair] = []
    ctrl_pairs: List[Pair] = []
    finals: List[Tuple[str, Expr]] = []
    constraints: List[PathConstraint] = []
    write_exprs: Dict[int, Expr] = {}

    for program, path in chosen:
        placeholder_to_eid: Dict[int, int] = {}
        thread_eids: List[int] = []
        prev_eid: Optional[int] = None
        for template in path.templates:
            eid = next_eid
            next_eid += 1
            thread_eids.append(eid)
            templates[eid] = template
            if template.placeholder is not None:
                placeholder_to_eid[template.placeholder] = eid
            events.append(
                Event(
                    eid=eid,
                    tid=program.tid,
                    kind=template.kind,
                    loc=template.loc,
                    value=None,
                    order=template.order,
                    tags=template.tags,
                    label=template.label,
                )
            )
            if template.rmw_with_prev:
                if prev_eid is None:
                    raise ValueError("rmw write with no preceding read")
                rmw_pairs.append((prev_eid, eid))
            elif template.rmw_read_pos is not None:
                rmw_pairs.append((thread_eids[template.rmw_read_pos], eid))
            prev_eid = eid
        # program order: total within the thread (transitive), built as
        # suffix bitmasks — one row per event, no pair materialisation
        later = 0
        for eid in reversed(thread_eids):
            if later:
                po_rows[eid] = later
            later |= 1 << eid
        # dependencies and value expressions, renamed to global ids
        for eid in thread_eids:
            template = templates[eid]
            if template.value_expr is not None:
                expr = rename_reads(template.value_expr, placeholder_to_eid)
                write_exprs[eid] = expr
                for r in expr.reads():
                    data_pairs.append((r, eid))
            for p in template.addr_deps:
                addr_pairs.append((placeholder_to_eid[p], eid))
            for p in template.ctrl_deps:
                ctrl_pairs.append((placeholder_to_eid[p], eid))
        for name, expr in path.finals.items():
            finals.append(
                (f"{program.name}:{name}", rename_reads(expr, placeholder_to_eid))
            )
        for constraint in path.constraints:
            constraints.append(
                PathConstraint(
                    rename_reads(constraint.expr, placeholder_to_eid),
                    constraint.expected,
                )
            )

    combo = PathCombo(
        events=events,
        templates=templates,
        po=Relation.from_rows(po_rows),
        rmw=Relation(rmw_pairs),
        addr=Relation(addr_pairs),
        data=Relation(data_pairs),
        ctrl=Relation(ctrl_pairs),
        finals=finals,
        constraints=constraints,
        write_exprs=write_exprs,
    )
    _index_combo(combo)
    return combo


def _index_combo(combo: PathCombo) -> None:
    """Build the write/read indexes the pruning stages consult."""
    events = combo.events
    writes_by_loc: Dict[str, List[int]] = {}
    write_loc: Dict[int, str] = {}
    init_write: Dict[str, int] = {}
    init_ids: Set[int] = set()
    for e in events:
        if e.is_write and e.loc is not None:
            write_loc[e.eid] = e.loc
            if e.is_init:
                init_write[e.loc] = e.eid
                init_ids.add(e.eid)
            else:
                writes_by_loc.setdefault(e.loc, []).append(e.eid)
    combo.writes_by_loc = writes_by_loc
    combo.write_loc = write_loc
    combo.init_write = init_write
    combo.init_ids = frozenset(init_ids)

    po = combo.po
    # per thread+location, accesses in program order
    by_thread_loc: Dict[Tuple[int, Optional[str]], List[Event]] = {}
    for e in events:
        if e.is_access and not e.is_init:
            by_thread_loc.setdefault((e.tid, e.loc), []).append(e)

    writes_before: Dict[int, Tuple[int, ...]] = {}
    writes_after: Dict[int, Tuple[int, ...]] = {}
    read_pairs: List[Tuple[int, int]] = []
    base_co_edges: Dict[str, List[Pair]] = {}
    for (tid, loc), group in by_thread_loc.items():
        if loc is None:
            continue
        for e in group:
            if e.is_read:
                succ = po.successor_mask(e.eid)
                before = tuple(
                    w.eid
                    for w in group
                    if w.is_write and (po.successor_mask(w.eid) >> e.eid) & 1
                )
                after = tuple(
                    w.eid for w in group if w.is_write and (succ >> w.eid) & 1
                )
                if before:
                    writes_before[e.eid] = before
                if after:
                    writes_after[e.eid] = after
        reads = [e.eid for e in group if e.is_read]
        for r1 in reads:
            succ = po.successor_mask(r1)
            for r2 in reads:
                if (succ >> r2) & 1:
                    read_pairs.append((r1, r2))
        ws = [e.eid for e in group if e.is_write]
        for w1 in ws:
            succ = po.successor_mask(w1)
            for w2 in ws:
                if (succ >> w2) & 1:
                    base_co_edges.setdefault(loc, []).append((w1, w2))
    combo.writes_before = writes_before
    combo.writes_after = writes_after
    combo.read_pairs = tuple(read_pairs)
    combo.base_co_edges = base_co_edges


def _rf_candidates(combo: PathCombo) -> Dict[int, List[int]]:
    """For each read, the writes it may structurally read from."""
    writes_by_loc: Dict[str, List[Event]] = {}
    for e in combo.events:
        if e.is_write and e.loc is not None:
            writes_by_loc.setdefault(e.loc, []).append(e)
    own_rmw_write = {r: w for r, w in combo.rmw}
    out: Dict[int, List[int]] = {}
    for e in combo.events:
        if not e.is_read or e.loc is None:
            continue
        candidates: List[int] = []
        for w in writes_by_loc.get(e.loc, ()):
            if w.eid == e.eid:
                continue
            if own_rmw_write.get(e.eid) == w.eid:
                continue  # an RMW cannot read its own write
            candidates.append(w.eid)
        out[e.eid] = candidates
    return out


def _solve_values(
    events: Sequence[Event],
    rf_map: Mapping[int, int],
    write_exprs: Mapping[int, Expr],
) -> Dict[int, int]:
    """Evaluate along data-dep ∪ rf; raise ``_ValueCycle`` on cycles."""
    values: Dict[int, int] = {}
    by_id: Dict[int, Event] = {}
    for e in events:
        by_id[e.eid] = e
        if e.value is not None:
            values[e.eid] = e.value
    visiting: set = set()

    def value_of(eid: int) -> int:
        if eid in values:
            return values[eid]
        if eid in visiting:
            raise _ValueCycle()
        visiting.add(eid)
        kind = by_id[eid].kind
        if kind is EventKind.READ:
            result = value_of(rf_map[eid])
        elif kind is EventKind.WRITE:
            expr = write_exprs.get(eid)
            if expr is None:
                result = 0
            else:
                env = {r: value_of(r) for r in expr.reads()}
                result = expr.eval(env)
        else:
            result = 0
        visiting.discard(eid)
        values[eid] = result
        return result

    for e in events:
        if e.kind in ACCESS_KINDS:
            value_of(e.eid)
    return values


def _base_execution(
    combo: PathCombo, rf: Relation, values: Mapping[int, int]
) -> Execution:
    """The execution of one rf assignment, before any coherence order:
    one sorted event tuple and id index that every coherence order of
    the assignment shares (:meth:`Execution.with_co`)."""
    return Execution(
        events=[
            e if e.value is not None or e.kind not in ACCESS_KINDS
            else Event(e.eid, e.tid, e.kind, e.loc, values[e.eid],
                       e.order, e.tags, e.label)
            for e in combo.events
        ],
        po=combo.po,
        rf=rf,
        co=Relation.empty(),
        rmw=combo.rmw,
        addr=combo.addr,
        data=combo.data,
        ctrl=combo.ctrl,
    )


def _final_values(
    combo: PathCombo, values: Mapping[int, int]
) -> Tuple[Tuple[str, int], ...]:
    """The observed thread-local finals (``("P0:r0", value)``) of one
    rf assignment."""
    return tuple(
        (name, expr.eval({r: values[r] for r in expr.reads()}))
        for name, expr in combo.finals
    )


# --------------------------------------------------------------------- #
# the enumerator
# --------------------------------------------------------------------- #
class ExecutionEnumerator:
    """The staged candidate-execution solver.

    Iterating yields every consistent :class:`Candidate`.  Callers that
    want the per-path-combination structure (e.g. the simulator, which
    evaluates a compiled model's static prefix once per combination)
    drive :meth:`path_combos` / :meth:`candidates_for` directly, wrapped
    in :meth:`start` / :meth:`finish` for budget and timing bookkeeping.
    """

    def __init__(
        self,
        init: Mapping[str, int],
        programs: Sequence[ThreadProgram],
        budget: Optional[Budget] = None,
        stats: Optional[EnumerationStats] = None,
        stages: Optional[Sequence[PruneStage]] = None,
    ) -> None:
        self.init = dict(init)
        self.programs = list(programs)
        self.budget = budget or Budget()
        self.stats = stats if stats is not None else EnumerationStats()
        self.stages: Tuple[PruneStage, ...] = (
            tuple(stages) if stages is not None else default_stages()
        )
        self._counter = 0
        self._started_at: Optional[float] = None

    # -- bookkeeping --------------------------------------------------- #
    def start(self) -> None:
        self.budget.reset()
        self._started_at = time.perf_counter()

    def finish(self) -> None:
        if self._started_at is not None:
            self.stats.elapsed_seconds += time.perf_counter() - self._started_at
            self._started_at = None

    def _tick(self) -> None:
        self._counter += 1
        self.budget.check(self._counter)

    def advance(self, units: int) -> None:
        """Charge ``units`` work units an earlier run recorded, with the
        outcome of ticking them one by one: past the candidate budget,
        the same :class:`SimulationTimeout` at the same count."""
        if units:
            self._counter += units
            self.budget.check(min(self._counter, self.budget.max_candidates + 1))

    # -- stage 1: path combinations ------------------------------------ #
    def path_combos(self) -> Iterator[PathCombo]:
        for combo_paths in itertools.product(*(p.paths for p in self.programs)):
            self.stats.path_combinations += 1
            combo = _instantiate_paths(self.init, list(zip(self.programs, combo_paths)))
            raw = _rf_candidates(combo)
            filtered: Dict[int, List[int]] = {}
            for read, sources in raw.items():
                for stage in self.stages:
                    t0 = time.perf_counter()
                    sources = stage.filter_rf_sources(combo, read, sources, self.stats)
                    self.stats.add_stage_time(stage.name, time.perf_counter() - t0)
                filtered[read] = sources
            combo.rf_candidates = filtered
            combo.read_ids = sorted(filtered)
            if not combo.feasible():
                continue  # a read with no possible source: infeasible path
            yield combo

    # -- stages 2-4: rf assignment, value solving, coherence ----------- #
    def _assignments(
        self, combo: PathCombo
    ) -> Iterator[Tuple[Dict[int, int], Dict[int, int], Dict[str, Dict[int, Set[int]]]]]:
        """The rf assignments of ``combo`` that survive value solving, the
        stages' vetoes and the coherence feasibility check, each with its
        solved values and per-location coherence constraints."""
        for rf_choice in itertools.product(*combo.choice_lists):
            self.stats.rf_assignments += 1
            rf_map = dict(zip(combo.read_ids, rf_choice))
            try:
                values = _solve_values(combo.events, rf_map, combo.write_exprs)
            except _ValueCycle:
                self.stats.rejected_value_cycle += 1
                self._tick()
                continue
            rejected = False
            for stage in self.stages:
                t0 = time.perf_counter()
                verdict = stage.reject_assignment(combo, rf_map, values, self.stats)
                self.stats.add_stage_time(stage.name, time.perf_counter() - t0)
                if verdict:
                    rejected = True
                    break
            if rejected:
                self._tick()
                continue

            edges_by_loc = self._co_constraints(combo, rf_map)
            if edges_by_loc is None:
                self.stats.rejected_rf_coherence += 1
                self._tick()
                continue
            yield rf_map, values, edges_by_loc

    def candidates_for(self, combo: PathCombo) -> Iterator[Candidate]:
        for rf_map, values, edges_by_loc in self._assignments(combo):
            rf = Relation((w, r) for r, w in rf_map.items())
            base = _base_execution(combo, rf, values)
            final_values = _final_values(combo, values)
            for co, _ in self._co_orders(combo, edges_by_loc):
                self.stats.candidates += 1
                self._tick()
                yield Candidate(execution=base.with_co(co), finals=final_values)

    def records_for(
        self,
        combo: PathCombo,
        keep_executions: bool = False,
        outcomes: Optional[Dict[Tuple[Tuple[str, int], ...], Outcome]] = None,
    ) -> Iterator[CandidateRecord]:
        """The candidates of :meth:`candidates_for`, as what a model check
        reads of them.  Builds no :class:`Execution` unless
        ``keep_executions``; the outcome comes straight from the coherence
        chains (the co-last write of each location).  ``outcomes``
        interns equal outcomes across calls."""
        if outcomes is None:
            outcomes = {}
        locs = sorted(combo.writes_by_loc)
        unwritten = {
            loc: combo.events[eid].value
            for loc, eid in combo.init_write.items()
            if loc not in combo.writes_by_loc
        }
        for rf_map, values, edges_by_loc in self._assignments(combo):
            rf = Relation((w, r) for r, w in rf_map.items())
            rf_inverse = rf.inverse()
            base = _base_execution(combo, rf, values) if keep_executions else None
            fixed = dict(unwritten)
            fixed.update(_final_values(combo, values))
            for co, last in self._co_orders(combo, edges_by_loc):
                self.stats.candidates += 1
                self._tick()
                bindings = dict(fixed)
                for loc, w in zip(locs, last):
                    bindings[loc] = values[w]
                key = tuple(sorted(bindings.items()))
                outcome = outcomes.get(key)
                if outcome is None:
                    outcome = outcomes.setdefault(key, Outcome(key))
                yield CandidateRecord(
                    rf, co, rf_inverse.compose(co), outcome,
                    None if base is None else base.with_co(co),
                )

    def _co_constraints(
        self, combo: PathCombo, rf_map: Mapping[int, int]
    ) -> Optional[Dict[str, Dict[int, Set[int]]]]:
        """Per-location predecessor constraints over non-init writes.

        Returns ``None`` when the constraints are unsatisfiable: an edge
        forces a write co-before the init write, or the per-location
        constraint graph is cyclic — either way, no coherence order can
        satisfy this rf assignment.
        """
        preds: Dict[str, Dict[int, Set[int]]] = {
            loc: {w: set() for w in ws} for loc, ws in combo.writes_by_loc.items()
        }
        builders: Dict[str, RelationBuilder] = {}
        for stage in self.stages:
            t0 = time.perf_counter()
            try:
                for a, b in stage.co_precedence(combo, rf_map):
                    if a in combo.init_ids:
                        continue  # init is co-first: trivially satisfied
                    if b in combo.init_ids:
                        return None  # nothing can be co-before init
                    loc = combo.write_loc[a]
                    builder = builders.setdefault(loc, RelationBuilder())
                    # incremental infeasibility check: a constraint edge
                    # that closes a cycle means no coherence order exists
                    if builder.would_close_cycle(a, b):
                        return None
                    if builder.add(a, b):
                        loc_preds = preds.setdefault(loc, {})
                        loc_preds.setdefault(b, set()).add(a)
                        loc_preds.setdefault(a, set())
            finally:
                self.stats.add_stage_time(stage.name, time.perf_counter() - t0)
        return preds

    def _co_orders(
        self, combo: PathCombo, preds: Dict[str, Dict[int, Set[int]]]
    ) -> Iterator[Tuple[Relation, Tuple[int, ...]]]:
        """All coherence orders consistent with the derived constraints.

        Orders are built incrementally, write-by-write and per location:
        a write whose constraint-predecessors are not all placed prunes
        the whole prefix (and its factorial tail) in one step.  Each
        per-location chain becomes a total order via
        :meth:`Relation.from_order` (suffix bitmasks, no pair loops) and
        the cross-location product unions the disjoint row sets, so each
        location-order is encoded once and shared across its whole
        subtree of combinations.  Each order comes with its co-last write
        per location (in sorted location order): the final memory.
        """
        locs = sorted(combo.writes_by_loc)
        per_loc: List[List[Tuple[Relation, int]]] = []
        for loc in locs:
            ws = combo.writes_by_loc[loc]
            orders = [
                (Relation.from_order((combo.init_write[loc],) + chain), chain[-1])
                for chain in self._linear_extensions(ws, preds.get(loc, {}))
            ]
            per_loc.append(orders)
        # init writes of untouched locations are co-minimal trivially
        # (single write, no pairs needed)

        def product(
            index: int, co: Relation, last: Tuple[int, ...]
        ) -> Iterator[Tuple[Relation, Tuple[int, ...]]]:
            if index == len(per_loc):
                yield co, last
                return
            for order, w in per_loc[index]:
                yield from product(index + 1, co.union(order), last + (w,))

        yield from product(0, Relation.empty(), ())

    def _linear_extensions(
        self, writes: Sequence[int], preds: Mapping[int, Set[int]]
    ) -> Iterator[Tuple[int, ...]]:
        """Backtracking linear-extension enumeration with prefix pruning."""
        def extend(placed: List[int], remaining: List[int]) -> Iterator[Tuple[int, ...]]:
            if not remaining:
                yield tuple(placed)
                return
            placed_set = set(placed)
            for i, w in enumerate(remaining):
                if preds.get(w, _EMPTY_SET) <= placed_set:
                    placed.append(w)
                    yield from extend(placed, remaining[:i] + remaining[i + 1 :])
                    placed.pop()
                else:
                    # this prefix can never place w here: the factorial
                    # tail below it is never expanded
                    self.stats.pruned_co_prefixes += 1
                    self._tick()

        yield from extend([], list(writes))

    # -- the classic all-in-one iteration ------------------------------ #
    def __iter__(self) -> Iterator[Candidate]:
        self.start()
        try:
            for combo in self.path_combos():
                yield from self.candidates_for(combo)
        finally:
            self.finish()


_EMPTY_SET: FrozenSet[int] = frozenset()


#: the most candidates one recording :class:`Enumeration` keeps (a few
#: MB); past it, it streams like an unrecorded one
RECORD_LIMIT = 2_000


class Enumeration:
    """The model-free half of a simulation: every path combination of a
    test and, per combination, its candidates as :class:`CandidateRecord`\\ s.

    Nothing here depends on a model, so one enumeration serves every
    model that checks the test (:func:`repro.herd.simulator.check`).  A
    combination's candidates are enumerated the first time a check asks
    for them, so a combination whose static prefix fails under every
    model so far is never expanded; a check that skips it does no work
    for it, exactly as a fresh per-model run would not.

    With ``record`` set, the candidates of each fully enumerated
    combination are kept with the work units (budget ticks) and
    :class:`EnumerationStats` they cost, and later checks replay them:
    the units are charged to the later check's budget
    (:meth:`ExecutionEnumerator.advance`) and the stats folded into its
    own, so every check times out at the same count, with the same
    message and the same stats, as a fresh run under its model.  A
    combination cut short by a timeout is not kept.  Without ``record``
    the enumeration streams: candidates are dropped once checked.  A
    recording enumeration keeps at most :data:`RECORD_LIMIT` candidates;
    a combination past that streams, and every check expands it again.

    Thread-safe for concurrent checks: a combination two checks expand
    at once is enumerated twice and kept once, identically.
    """

    def __init__(
        self,
        init: Mapping[str, int],
        programs: Sequence[ThreadProgram],
        stages: Optional[Sequence[PruneStage]] = None,
        keep_executions: bool = False,
        record: bool = False,
    ) -> None:
        start = time.perf_counter()
        self.stages = tuple(stages) if stages is not None else default_stages()
        self.keep_executions = keep_executions
        self.record = record
        #: the model-free part of every check's stats: combinations and
        #: the rf sources the stages filtered out before any candidate
        self.stats = EnumerationStats()
        enumerator = ExecutionEnumerator(
            init, programs, stats=self.stats, stages=self.stages
        )
        #: every feasible combination; a recorded one is reduced to its
        #: :class:`EventStructure`
        self.combos: List[Union[PathCombo, EventStructure]] = list(
            enumerator.path_combos()
        )
        self._recorded: List[
            Optional[Tuple[int, EnumerationStats, Tuple[CandidateRecord, ...]]]
        ] = [None] * len(self.combos)
        self._outcomes: Dict[Tuple[Tuple[str, int], ...], Outcome] = {}
        self._room = RECORD_LIMIT  # candidates this enumeration may still keep
        self.stats.elapsed_seconds = time.perf_counter() - start

    def run(self, budget: Optional[Budget] = None) -> ExecutionEnumerator:
        """A started enumerator that charges one check's work to
        ``budget`` and counts it into its own stats (a copy of
        :attr:`stats`); pass it to :meth:`candidates`."""
        # the combinations are instantiated already: the run only
        # expands them, so it needs no init or programs
        run = ExecutionEnumerator(
            {}, (), budget=budget, stats=self.stats.copy(), stages=self.stages
        )
        run.start()
        return run

    def candidates(
        self, index: int, run: ExecutionEnumerator
    ) -> Iterable[CandidateRecord]:
        """The candidates of :attr:`combos` ``[index]``, charged to ``run``."""
        # read the combination before the record: a concurrent check
        # records it before reducing it to its event structure, so a
        # combination read unrecorded here is still a whole PathCombo
        combo = self.combos[index]
        recorded = self._recorded[index]
        if recorded is None:
            return self._expand(index, combo, run)
        units, stats, records = recorded
        run.advance(units)
        run.stats.add(stats)
        return records

    def _expand(
        self, index: int, combo: PathCombo, run: ExecutionEnumerator
    ) -> Iterator[CandidateRecord]:
        outer, run.stats = run.stats, EnumerationStats()
        explored = run._counter
        keep = self.record
        records: List[CandidateRecord] = []
        try:
            for record in run.records_for(combo, self.keep_executions, self._outcomes):
                if keep and len(records) < self._room:
                    records.append(record)
                elif keep:
                    keep, records = False, []  # too many to keep: stream
                yield record
        finally:
            stats, run.stats = run.stats, outer
        outer.add(stats)
        if keep:
            self._room -= len(records)
            self._recorded[index] = (run._counter - explored, stats, tuple(records))
            self.combos[index] = EventStructure(
                combo.events, combo.po, combo.rmw, combo.addr, combo.data, combo.ctrl
            )


def enumerate_candidates(
    init: Mapping[str, int],
    programs: Sequence[ThreadProgram],
    budget: Optional[Budget] = None,
    stats: Optional[EnumerationStats] = None,
    stages: Optional[Sequence[PruneStage]] = None,
) -> Iterator[Candidate]:
    """Yield every consistent candidate execution of the test.

    A thin wrapper over :class:`ExecutionEnumerator` kept for callers
    that do not need the staged structure.
    """
    yield from ExecutionEnumerator(
        init, programs, budget=budget, stats=stats, stages=stages
    )
