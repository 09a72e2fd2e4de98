"""The streaming campaign engine: cell producers feeding a typed event stream.

The serial, thread-pool and process-pool backends all *yield*
:class:`CellFinished` events as verdicts land (completion order, not
work-list order), and :func:`fold_events` reconstructs the deterministic
:class:`~repro.pipeline.campaign.CampaignReport` from any complete
stream.

Every campaign mode runs the one round loop of :func:`iter_campaign`
(store replay, then the pending cells, each persisted before its event
is yielded):

* ``mode="tv"`` — translation validation, one round with one cell per
  (test × arch × opt × compiler), evaluated by the staged toolchain's
  ``run_tv``;
* ``mode="differential"`` — compiler vs compiler (paper §IV-D), one
  round with one cell per (test × profile pair), evaluated by
  ``run_differential``.  Cells tally under ``(arch, "diff",
  "<spec_a>|<spec_b>")``, so shard merging, store replay and event
  folding need no special cases;
* ``mode="hunt"`` — the §V mutation loop: tv cells over rounds that the
  verdicts so far schedule, plus reduction of every positive
  (:mod:`repro.hunt`).

Invariants the rest of the system builds on:

* **event ordering** — a stream is ``CampaignStarted`` first,
  ``CampaignFinished`` last (absent only if the run raised); cells may
  arrive in any completion order but carry their deterministic
  work-list ``index``, so folding sorts and any complete stream of the
  same run folds identically.  Hunt streams interleave
  :class:`HuntProgress` after each round's cells (``round_index``
  partitions the cell stream) and :class:`TestReduced` before
  ``CampaignFinished``; neither changes cell tallies.
* **cache identity** — every cache key includes what names resolve *to*
  in the session (model signatures, epoch bug sets, the stage token)
  next to :meth:`CLitmus.digest` content identity, so shadowing a model
  or swapping a stage re-simulates instead of replaying stale verdicts;
  verdicts persisted before the shadowing are equally unreachable.
  Session-local definitions are refused for process pools (workers
  resolve against the globals) and for persistent stores (records key
  by name).
* **shard determinism** — ``shard=(k, n)`` evaluates exactly every n-th
  cell of the deterministic work list starting at the k-th; the n shard
  reports merge back to the unsharded report byte-for-byte.  Hunt work
  lists are dynamic, so hunts refuse cell-sharding (shard the seed
  source instead) — their determinism comes from round-synchronous
  scheduling: the same seeds and verdicts schedule the same rounds on
  every backend.
* **persistence** — each freshly computed record is stored *before* its
  event is yielded, so an interrupted campaign resumes from every
  finished cell.

Every mode and backend evaluates the same thing: a frozen, picklable
:class:`~repro.pipeline.campaign.CellSpec`, answered by the session's
cell memo, run by the one evaluator :func:`run_cell` on a miss and
shaped by the one record shaper
:func:`~repro.pipeline.campaign.shape_record`, all in this process.
The memo holds each cell's record half
(:func:`~repro.pipeline.campaign.result_half`); the identity half
always comes from the cell being answered.
The backends differ only in who produces a memo miss: the session's
toolchain (serial and threads), or a worker of the session's one
process pool, which runs the cell on its own bounded toolchain and
sends the raw result back.  The source side runs first, through the
toolchain's ``simulate-source`` stage (the only source cache), and
each cell's own stage trace says whether it ran it.  Tests that need
to intercept a cell patch :class:`~repro.toolchain.Toolchain`'s
``run_tv``/``run_differential``; workers see a patch only if it is made
before the session's pool forks — before the session's first
``processes`` run, or after ``session.close()``.
"""

from __future__ import annotations

import itertools
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..cat.registry import ARCH_MODEL, resolve_model
from ..compiler.profiles import CompilerProfile
from ..core.errors import ModelError, ReproError
from ..herd.enumerate import Budget
# perfbench/tracing.py wraps simulate_c and prepare from outside; nothing
# in src/ calls them (ROADMAP item 4 removes them)
from ..herd.simulator import simulate_c  # noqa: F401
from ..hunt.reduce import ReductionError, reduce_test
from ..hunt.scheduler import HuntScheduler
from ..lang.ast import CLitmus
from ..lang.printer import print_c_litmus
from ..pipeline.campaign import (
    CampaignReport,
    CellSpec,
    _campaign_cells,
    merge_reports,
    result_half,
    shape_record,
)
from ..toolchain import ArtifactCache, Toolchain, TraceEntry, profile_signature
from ..tools.l2c import prepare  # noqa: F401
from ..tools.mutate import DEFAULT_OPERATORS, MutationError
from .events import (
    CampaignEvent,
    CampaignFinished,
    CampaignStarted,
    CellFinished,
    HuntProgress,
    ShardMerged,
    TestReduced,
)
from .plan import CampaignPlan, PlanError

#: per-process staged toolchain — artifact keys are content addresses, so
#: worker-local caches stay sound and reuse compiles across that worker's
#: cells exactly like the in-process path does.  The cache is *bounded*:
#: workers live as long as the session's pool, and artifacts hold
#: disassembly listings and outcome sets — an unbounded cache would grow
#: linearly with the cells a worker evaluates (a 10k-test campaign would
#: OOM).
_WORKER_TOOLCHAIN = Toolchain(cache=ArtifactCache(max_entries=512))


def run_cell(
    spec: CellSpec,
    chain: Toolchain,
    profiles: Tuple[CompilerProfile, ...],
    trace: Optional[List[TraceEntry]] = None,
):
    """The one cell evaluator: ``spec``'s tv or differential composition.

    Models resolve against ``chain.models`` — the session overlay in
    process, the global registry in a worker.  The composition runs the
    source side first, so a cell whose source times out never compiles,
    on every backend alike.  ``trace`` collects the stages the cell
    reached, even when one raises (see :func:`_ran_source`).
    """
    source_model = resolve_model(spec.source_model, chain.models)
    target_model = resolve_model(ARCH_MODEL[profiles[0].arch], chain.models)
    run = chain.run_differential if spec.pair else chain.run_tv
    return run(
        spec.litmus,
        *profiles,
        source_model=source_model,
        target_model=target_model,
        augment=spec.augment,
        budget=Budget(max_candidates=spec.budget_candidates),
        trace=trace,
    )


def _ran_source(trace: List[TraceEntry]) -> bool:
    """Whether the traced cell produced its source simulation itself —
    rather than replaying it from the ``simulate-source`` stage cache.
    A producer that raised (a source timeout) counts as run."""
    return any(
        entry.artifact.stage == "simulate-source" and not entry.cached
        for entry in trace
    )


def _worker_cell(spec: CellSpec) -> Tuple[object, bool]:
    """Produce one memo miss in a pool worker: the raw result, or the
    :class:`ReproError` the cell raised, and whether it ran its source
    simulation.  The parent re-raises the error, so its memo replays
    timeouts and errors exactly like locally produced ones.  Profiles and
    models resolve against the *global* registries: session overlays do
    not cross the process boundary (the session refuses to try).
    """
    trace: List[TraceEntry] = []
    try:
        result = run_cell(spec, _WORKER_TOOLCHAIN, spec.profiles(), trace)
    except ReproError as exc:
        result = exc
    return result, _ran_source(trace)


def _run_pending(
    pending: List[Tuple[int, CellSpec]],
    plan: CampaignPlan,
    ctx: "_CellContext",
) -> Iterator[Tuple[int, CellSpec, Dict[str, object]]]:
    """Stream ``(index, spec, record)`` for every pending cell under the
    plan's execution backend — the one backend selector every campaign
    mode shares.  Every cell goes through :meth:`_CellContext.evaluate`;
    ``processes`` only hands its memo misses to the session's process
    pool, waited on by twice as many threads, so each worker has its next
    miss queued while the parent shapes the last one.  The sources cells
    ran are folded into ``ctx.simulated_sources``, and the cells the memo
    answered into ``ctx.cached_cells``, here in the consumer's thread, as
    their records land.

    Invariants: records arrive in *completion* order (events carry their
    deterministic index, so folding is order-independent); on a pool an
    unexpected exception from one cell never discards the verdicts of
    cells that still ran (everything streams, then the first failure
    re-raises); a consumer that abandons the stream early cancels
    everything still queued, so it only waits for the cells already
    running.  Serial execution propagates failures immediately.  A
    worker that dies breaks the process pool: the session drops it, and
    its next run starts a fresh one.
    """
    # started here, in the consumer's thread, so workers fork before
    # any of this run's threads exist
    process_pool = (
        ctx.session._process_pool(plan.processes)
        if pending and plan.processes > 0 else None
    )

    def landed(index: int, spec: CellSpec, outcome):
        record, ran_source, cached = outcome
        if ran_source:
            ctx.simulated_sources.add(ctx.source_key_of(spec.litmus))
        ctx.cached_cells += cached
        return index, spec, record

    try:
        threads = 2 * plan.processes or plan.workers
        if not pending or threads <= 1:
            for index, spec in pending:
                yield landed(index, spec, ctx.evaluate(spec, process_pool))
            return
        first_error: Optional[BaseException] = None
        with ThreadPoolExecutor(max_workers=threads) as pool:
            future_map = {}
            try:
                for index, spec in pending:
                    future = pool.submit(ctx.evaluate, spec, process_pool)
                    future_map[future] = (index, spec)
                for future in as_completed(future_map):
                    index, spec = future_map[future]
                    try:
                        outcome = future.result()
                    except Exception as exc:
                        if first_error is None:
                            first_error = exc
                        continue
                    yield landed(index, spec, outcome)
            finally:
                for future in future_map:
                    future.cancel()
        if first_error is not None:
            raise first_error
    except BrokenProcessPool:
        ctx.session.close()
        raise


class _CellContext:
    """The in-process cell evaluation context every campaign mode shares.

    Owns the session-resolved cache identity (model/arch signatures,
    resolved profile signatures, stage token — the PR 2 rule: verdicts
    key by what names *resolve to*, never names alone), the run's tallies
    of source simulations cells ran and of cells the memo answered, and
    :meth:`evaluate`, every backend's face of :func:`run_cell`.
    """

    def __init__(self, plan: CampaignPlan, session) -> None:
        self.session = session
        self.source_model = plan.source_model
        self.augment = plan.augment
        self.budget_candidates = plan.budget_candidates
        self.result_cache = session.result_cache
        self.toolchain = session.toolchain()
        self.stages_token = session.stages_token()
        self.source_sig = self.model_sig(plan.source_model)
        self._arch_sigs: Dict[str, str] = {}
        self._profiles: Dict[Tuple, Tuple] = {}
        #: source-simulation keys actually produced during this run
        self.simulated_sources: set = set()
        #: this run's cells the memo answered without running a producer
        self.cached_cells = 0

    def cell(
        self,
        litmus: CLitmus,
        arch: str,
        opt: str,
        compiler: str,
        pair: Optional[Tuple[str, str]] = None,
    ) -> CellSpec:
        return CellSpec(
            litmus, arch, opt, compiler, self.source_model, self.augment,
            self.budget_candidates, pair,
        )

    # -- cache identity ------------------------------------------------ #
    def model_sig(self, name: str) -> str:
        # an unresolvable name contributes no identity: it surfaces as
        # per-cell error records, the legacy behaviour, never an abort
        try:
            return self.session.model_signature(name)
        except ModelError:
            return ""

    def arch_sig(self, arch: str) -> str:
        if arch not in self._arch_sigs:
            self._arch_sigs[arch] = (
                self.model_sig(ARCH_MODEL[arch]) if arch in ARCH_MODEL else ""
            )
        return self._arch_sigs[arch]

    # -- source-simulation identity ------------------------------------ #
    def source_key_of(self, litmus: CLitmus) -> Tuple:
        return (litmus.digest(), self.source_model, self.source_sig,
                self.augment, self.budget_candidates)

    # -- one cell, in process ------------------------------------------ #
    def evaluate(
        self, spec: CellSpec, process_pool=None
    ) -> Tuple[Dict[str, object], bool, bool]:
        """``(record, ran source, cached)`` for one cell — the cell memo
        answers a repeat (``cached``) without touching the toolchain or a
        worker.  A miss runs on the session's toolchain, or on a worker of
        ``process_pool``."""
        trace: List[TraceEntry] = []
        ran_in_worker = produced = False

        def run(profiles):
            nonlocal ran_in_worker
            if process_pool is None:
                return run_cell(spec, self.toolchain, profiles, trace)
            future = process_pool.submit(_worker_cell, spec)
            result, ran_in_worker = future.result()
            if isinstance(result, ReproError):
                raise result
            return result

        def half(profiles):
            nonlocal produced
            produced = True
            return result_half(spec, run(profiles))

        def produce():
            # the session's epoch overlay decides which compiler bugs this
            # cell simulates; the profile signatures carry those bug sets
            # into the key (private epochs are process/store-guarded).
            # Both are resolved once per (compiler, opt, arch, pair).
            shape = (spec.compiler, spec.opt, spec.arch, spec.pair)
            if shape not in self._profiles:
                profiles = spec.profiles(self.session.epochs)
                self._profiles[shape] = (profiles, tuple(map(profile_signature, profiles)))
            profiles, signatures = self._profiles[shape]
            key = (
                spec.litmus.digest(),
                *signatures,
                self.source_model, self.source_sig, self.arch_sig(spec.arch),
                self.augment, self.budget_candidates, self.stages_token,
            )
            return self.result_cache.get(key, lambda: half(profiles))

        record = shape_record(spec, produce)
        return record, ran_in_worker or _ran_source(trace), not produced


def _lint_tests(tests, clean: Set[str], what: str = "test") -> None:
    """Fail fast on ill-formed litmus tests (a plan's ``lint``, and every
    suite the farm parses).

    Runs :mod:`repro.analysis.litmuslint` over every materialised test
    whose content digest is not in ``clean``, the session's set of tests
    already linted clean; error-severity findings (vacuous conditions,
    malformed threads) raise a :class:`PlanError` carrying the
    diagnostics — before any cell is scheduled, so a bad corpus costs
    nothing but the lint.  Only a batch with no error findings joins
    ``clean``: one that raises records nothing, so it is linted in full,
    and raises, on every plan.
    """
    from ..analysis import Severity, lint_litmus

    errors = []
    linted = set()
    for litmus in tests:
        digest = litmus.digest()
        if digest in clean:
            continue
        errors.extend(
            d for d in lint_litmus(litmus, source_name=litmus.name)
            if d.severity is Severity.ERROR
        )
        linted.add(digest)
    if errors:
        rendered = "; ".join(d.render() for d in errors[:5])
        more = f" (+{len(errors) - 5} more)" if len(errors) > 5 else ""
        exc = PlanError(
            f"{len(errors)} {what}(s) failed static analysis — fix the "
            f"corpus or pass lint=False: {rendered}{more}"
        )
        exc.diagnostics = tuple(errors)
        raise exc
    clean.update(linted)


def _check_session_constraints(plan: CampaignPlan, session) -> None:
    """The store/process-pool guards every campaign mode enforces."""
    if plan.resume and session.store is None:
        raise PlanError("resume=True needs a store to resume from")
    local = sorted(
        session.local_model_names(plan)
        | session.local_epoch_names(plan)
        | session.local_stage_names(plan)
    )
    if local and plan.processes > 0:
        raise PlanError(
            f"session-registered definitions {local} are not visible to "
            f"worker processes; register them globally or use thread "
            f"workers"
        )
    if local and session.store is not None:
        # store records key verdicts by model/profile *name* (the PR 2
        # on-disk format) — a session-local definition behind one of
        # those names would poison, or replay poison from, the store
        raise PlanError(
            f"session-registered definitions {local} cannot be keyed in "
            f"a persistent store (records key by name); register them "
            f"globally or run this session without a store"
        )


def _split_replay(
    work: List[CellSpec], plan: CampaignPlan, store, base: int = 0
) -> Tuple[List[Tuple[int, CellSpec, Dict[str, object]]],
           List[Tuple[int, CellSpec]]]:
    """Partition work into store-replayed and pending cells, with indexes
    continuing from ``base`` (eager: cheap, and ``CampaignStarted``
    reports exact pending counts)."""
    replayed: List[Tuple[int, CellSpec, Dict[str, object]]] = []
    pending: List[Tuple[int, CellSpec]] = []
    for index, spec in enumerate(work, base):
        stored = (
            store.get(spec.store_key())
            if store is not None and plan.resume else None
        )
        if stored is not None:
            replayed.append((index, spec, stored))
        else:
            pending.append((index, spec))
    return replayed, pending


def _differential_arch(plan: CampaignPlan, session) -> str:
    """The one architecture a differential plan's profiles share.

    Resolved eagerly: an unresolvable or cross-architecture pairing is a
    plan mistake, not a per-cell error (there is nothing meaningful left
    to run)."""
    arches_used = set()
    for spec in plan.profiles:
        try:
            arches_used.add(session.profile(spec).arch)
        except ReproError as exc:
            raise PlanError(
                f"differential profile {spec!r} failed to resolve: {exc}"
            )
    if len(arches_used) != 1:
        raise PlanError(
            f"differential testing requires a common architecture; "
            f"profiles target {sorted(arches_used)}"
        )
    (arch,) = arches_used
    return arch


def _work_list(
    plan: CampaignPlan, ctx: "_CellContext", tests
) -> List[CellSpec]:
    """One round's cells in deterministic order: every unordered profile
    pair per test in differential mode, the tv sweep otherwise — then the
    plan's shard of them."""
    if plan.mode == "differential":
        arch = _differential_arch(plan, ctx.session)
        work = [
            ctx.cell(litmus, arch, "diff", f"{a}|{b}", pair=(a, b))
            for litmus in tests
            for a, b in itertools.combinations(plan.profiles, 2)
        ]
    else:
        work = [
            ctx.cell(*cell)
            for cell in _campaign_cells(
                tests, plan.arches, plan.opts, plan.compilers
            )
        ]
    if plan.shard is not None:
        shard_k, shard_n = plan.shard
        work = work[shard_k::shard_n]
    return work


def _hunt_scheduler(plan: CampaignPlan, session, seeds) -> HuntScheduler:
    """The feedback scheduler of a hunt over ``seeds``, once its mutation
    operators resolve in the session."""
    operators = (
        plan.mutations if plan.mutations is not None else DEFAULT_OPERATORS
    )
    try:
        for name in operators:
            session.mutations.resolve(name)
    except MutationError as exc:
        raise PlanError(f"bad hunt mutations: {exc}")
    return HuntScheduler(
        seeds,
        operators=operators,
        registry=session.mutations,
        round_limit=plan.mutation_limit,
    )


def _reductions(
    positive_cells: List[Tuple[int, CellSpec]], ctx: "_CellContext", store
) -> Iterator[TestReduced]:
    """Delta-debug each hunt positive to a 1-minimal reproducer, persist
    its re-verified record (``mode="hunt"`` plus reduction lineage and the
    printed C source) and yield it as a :class:`TestReduced`."""
    for index, spec in positive_cells:
        profiles = spec.profiles(ctx.session.epochs)

        # the reduction oracle: "run_tv still says positive", straight
        # through the session's toolchain (per-stage cache) — deliberately
        # *not* through the cell memo, whose hits this run reports as
        # ``cached_cells`` and must only ever count campaign cells
        def check(candidate: CLitmus) -> bool:
            result = run_cell(
                replace(spec, litmus=candidate), ctx.toolchain, profiles,
            )
            return result.verdict == "positive"

        try:
            reduction = reduce_test(spec.litmus, check)
        except ReductionError:
            # the stored verdict said positive but the oracle disagrees
            # (e.g. a stale store) — nothing to reduce
            continue
        reduced = replace(spec, litmus=reduction.reduced)
        record = shape_record(
            reduced,
            lambda: result_half(
                reduced, run_cell(reduced, ctx.toolchain, profiles)
            ),
        )
        record["mode"] = "hunt"
        record.update(reduction.lineage())
        # the stored reproducer is self-contained: the printed C source
        # rides along (digest-preserving, like write_suite), so a bug
        # report needs nothing but the store record
        record["source"] = print_c_litmus(reduction.reduced)
        if store is not None:
            store.put(record)
        yield TestReduced(
            test=spec.litmus.name,
            digest=spec.litmus.digest(),
            reduced_name=reduction.reduced.name,
            reduced_digest=reduction.reduced.digest(),
            original_statements=reduction.original_statements,
            reduced_statements=reduction.reduced_statements,
            steps=len(reduction.steps),
            checks=reduction.checks,
            record=record,
        )


def iter_campaign(plan: CampaignPlan, session) -> Iterator[CampaignEvent]:
    """Run ``plan`` inside ``session``, yielding events as cells finish.

    Every mode runs the same round loop.  A tv or differential plan is
    one round over its work list.  A hunt (see :mod:`repro.hunt`) starts
    from the plan's tests as *seeds* and repeats rounds over the mutants
    its :class:`HuntScheduler` picks from the verdicts so far — positives
    first, deduplicated by content digest — up to ``mutation_rounds``
    rounds of at most ``mutation_limit`` new mutants, with a
    :class:`HuntProgress` after each round.  Then, with ``reduce``, every
    distinct positive is delta-debugged to a 1-minimal reproducer and
    yielded as a :class:`TestReduced`.  Hunt records carry
    ``mode="hunt"`` plus their mutation or reduction lineage.

    Validation, round 0's work list and its store replay happen eagerly
    (errors raise here, not at first ``next()``); simulation happens
    lazily as the returned stream is consumed.  Hunt scheduling depends
    only on seeds and verdicts, and indexes are assigned in schedule
    order, so a hunt folds to the same report on every backend.
    """
    _check_session_constraints(plan, session)
    tests = plan.resolve_tests(shapes=session.shapes)
    hunt = plan.mode == "hunt"
    if hunt and not tests:
        raise PlanError("a hunt needs at least one seed test")
    if plan.lint:
        _lint_tests(tests, session._linted, what="seed" if hunt else "test")
    ctx = _CellContext(plan, session)
    scheduler = _hunt_scheduler(plan, session, tests) if hunt else None
    store = session.store
    start = time.perf_counter()
    work = _work_list(plan, ctx, scheduler.initial() if scheduler else tests)
    replayed, pending = _split_replay(work, plan, store)

    def events() -> Iterator[CampaignEvent]:
        nonlocal work, replayed, pending
        ok_cells = store_hits = round_index = next_index = 0
        #: first positive cell per digest, in index order — what a hunt
        #: schedules from and reduces (deterministic across backends and
        #: completion orders)
        positive_cells: List[Tuple[int, CellSpec]] = []
        positive_digests: set = set()
        #: every positive cell of the current round, whatever its digest
        round_positives: List[Tuple[int, CellSpec]] = []

        def land(index, spec, record, from_store) -> CellFinished:
            nonlocal ok_cells
            if record.get("status") == "ok":
                ok_cells += 1
            if record.get("verdict") == "positive":
                round_positives.append((index, spec))
            return CellFinished(
                index=index,
                test=spec.litmus.name,
                digest=str(record.get("digest", "")),
                arch=spec.arch,
                opt=spec.opt,
                compiler=spec.compiler,
                record=record,
                from_store=from_store,
                shard=plan.shard,
                mode=plan.mode,
            )

        yield CampaignStarted(
            source_model=plan.source_model,
            tests_input=len(tests),
            cells_total=len(work),
            pending=len(pending),
            workers=plan.workers,
            processes=plan.processes,
            shard=plan.shard,
        )
        while True:
            store_hits += len(replayed)
            for index, spec, record in replayed:
                yield land(index, spec, record, True)

            # evaluate the cells the store could not answer (see
            # _run_pending for the error/cancellation contract)
            producer = _run_pending(pending, plan, ctx)
            try:
                for index, spec, record in producer:
                    if scheduler is not None:
                        # stamp hunt mode + mutation lineage (the
                        # scheduler state never leaves this process)
                        record = dict(record, mode="hunt")
                        record.update(
                            scheduler.lineage(spec.litmus.digest()).as_record()
                        )
                    # persist *now*, so an interrupted campaign resumes
                    # from every finished cell
                    if store is not None:
                        store.put(record)
                    yield land(index, spec, record, False)
            finally:
                # a consumer that abandons the stream early (fuzzing
                # loops break at the first positive) must not pay for the
                # whole campaign: closing the producer cancels the queue
                producer.close()
            if scheduler is None:
                break

            # cells may have landed in completion order; the next round's
            # feedback and the reductions must not depend on it
            for index, spec in sorted(round_positives, key=lambda p: p[0]):
                digest = spec.litmus.digest()
                if digest not in positive_digests:
                    positive_digests.add(digest)
                    positive_cells.append((index, spec))
            round_positives.clear()
            scheduled = (
                scheduler.next_round(positive_digests)
                if round_index < plan.mutation_rounds else []
            )
            yield HuntProgress(
                round_index=round_index,
                cells=len(work),
                positives=len(positive_digests),
                scheduled=len(scheduled),
                unique_tests=scheduler.unique_tests,
                duplicates_skipped=scheduler.duplicates_skipped,
            )
            if not scheduled:
                break
            round_index += 1
            next_index += len(work)
            work = _work_list(plan, ctx, scheduled)
            replayed, pending = _split_replay(work, plan, store, next_index)
        if scheduler is not None and plan.reduce:
            yield from _reductions(positive_cells, ctx, store)
        yield CampaignFinished(
            source_model=plan.source_model,
            compiled_tests=ok_cells,
            elapsed_seconds=time.perf_counter() - start,
            source_sim_keys=frozenset(ctx.simulated_sources),
            cached_cells=ctx.cached_cells,
            store_hits=store_hits,
        )

    return events()


def iter_sharded(
    plan: CampaignPlan, session, shards: int
) -> Iterator[CampaignEvent]:
    """Run every shard of ``plan`` through ``session`` sequentially,
    yielding each shard's events plus a :class:`ShardMerged` checkpoint
    after each — the streaming form of run-shards-then-``merge_reports``.
    """
    # resolve the test list once: every shard partitions the same
    # materialised suite instead of re-running diy generation per shard
    resolved = replace(
        plan, tests=plan.resolve_tests(shapes=session.shapes), config=None
    )
    sub_plans = resolved.split(shards)

    def events() -> Iterator[CampaignEvent]:
        for sub in sub_plans:
            stream = CampaignStream(iter_campaign(sub, session))
            for event in stream:
                yield event
            yield ShardMerged(shard=sub.shard, report=stream.report())

    return events()


def fold_events(events: Iterable[CampaignEvent]) -> CampaignReport:
    """Fold a complete event stream back into the batch report.

    The reconstruction is exact: cells are tallied in work-list order
    (events carry their index, so any completion order folds the same),
    and the aggregates only the run can know come from
    :class:`CampaignFinished`.  A stream containing :class:`ShardMerged`
    checkpoints folds through :func:`merge_reports` instead.  Holds for
    every mode: differential cells tally under their ``(arch, "diff",
    pair)`` key with the same verdict vocabulary, and hunt streams fold
    by their cells alone — :class:`HuntProgress` and
    :class:`TestReduced` are annotations, ignored here.
    """
    started: Optional[CampaignStarted] = None
    finished: Optional[CampaignFinished] = None
    cells: List[CellFinished] = []
    shard_reports: List[CampaignReport] = []
    for event in events:
        if isinstance(event, CellFinished):
            cells.append(event)
        elif isinstance(event, ShardMerged):
            shard_reports.append(event.report)
        elif isinstance(event, CampaignStarted):
            started = started if started is not None else event
        elif isinstance(event, CampaignFinished):
            finished = event
    if shard_reports:
        return merge_reports(shard_reports)
    if started is None or finished is None:
        raise ValueError(
            "cannot fold an incomplete campaign stream (missing "
            "CampaignStarted/CampaignFinished)"
        )
    report = CampaignReport(
        source_model=started.source_model,
        workers=started.workers,
        processes=started.processes,
        shard=started.shard,
    )
    report.tests_input = started.tests_input
    for event in sorted(cells, key=lambda e: e.index):
        cell = report.cell(event.arch, event.opt, event.compiler)
        status = event.record["status"]
        if status == "timeout":
            cell.timeouts += 1
            continue
        if status == "error":
            cell.errors += 1
            continue
        report.compiled_tests += 1
        verdict = str(event.record["verdict"])
        cell.record(verdict)
        if verdict == "positive":
            report.positives.append(
                (event.test, event.arch, event.opt, event.compiler)
            )
    report.source_sim_keys = finished.source_sim_keys
    report.source_simulations = len(finished.source_sim_keys)
    report.cached_cells = finished.cached_cells
    report.store_hits = finished.store_hits
    report.elapsed_seconds = finished.elapsed_seconds
    return report


class CampaignStream:
    """An iterator of campaign events that can fold itself into a report.

    Iterate it for live events; call :meth:`report` at any point to drain
    whatever remains and get the batch :class:`CampaignReport`.  Events
    already consumed are remembered, so iterate-then-fold never loses
    cells.
    """

    def __init__(self, events: Iterator[CampaignEvent]) -> None:
        self._events = events
        self._seen: List[CampaignEvent] = []

    def __iter__(self) -> Iterator[CampaignEvent]:
        for event in self._events:
            self._seen.append(event)
            yield event

    def report(self) -> CampaignReport:
        for _ in self:
            pass  # drain whatever the consumer has not pulled yet
        return fold_events(self._seen)
