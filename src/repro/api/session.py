"""The session: the embeddable, state-owning entry point to the system.

A :class:`Session` owns what used to be process-global mutable state —
model/shape/epoch/stage/mutation registries (as per-session overlays
over the shipped globals), the staged toolchain with its artifact cache, a
cell memo, a worker process pool, a default budget, and an optional
persistent :class:`CampaignStore`.  Two sessions never trample each
other: a service can hold one per tenant, each with private models and
profiles, over one shared process.

    >>> from repro.api import CampaignPlan, Session
    >>> with Session() as session:
    ...     result = session.test(litmus, "llvm-O3-AArch64")
    ...     for event in session.campaign(CampaignPlan(config=my_config)):
    ...         print(event.as_dict())

The ``with`` block (or :meth:`Session.close`) shuts down the process
pool the session starts for the first plan that asks for ``processes``.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Iterable, Optional, Set, Tuple, Union

from ..asm.isa.base import ISAS, Isa, ensure_registered, get_isa
from ..cat.interp import Model
from ..cat.registry import ARCH_MODEL, MODELS, model_signature, resolve_model
from ..compiler.profiles import (
    DEFAULT_VERSION,
    EPOCHS,
    CompilerProfile,
    make_profile,
    parse_profile,
)
from ..core.cache import KeyedCache
from ..core.errors import ModelError, ReproError
from ..herd.enumerate import Budget
from ..lang.ast import CLitmus
from ..pipeline.campaign import CampaignReport
from ..pipeline.store import CampaignStore
from ..hunt.reduce import ReductionResult, reduce_test
from ..toolchain import STAGES, ArtifactCache, Stage, Toolchain, ToolchainTrace
from ..toolchain.results import DifferentialResult, TelechatResult
from ..tools.diy import SHAPES, Shape
from ..tools.mcompare import BaselineIndex
from ..tools.mutate import MUTATIONS
from ..tools.sources import TestSource
from .engine import CampaignStream, iter_campaign, iter_sharded
from .plan import CampaignPlan, FarmPlan, PlanError


class Session:
    """Session-scoped registries, caches, budgets and storage.

    Args:
        store: a :class:`CampaignStore` (or a path to one) that campaigns
            run in this session persist verdicts to and resume from.
        budget_candidates: default enumeration budget for
            :meth:`test` calls that pass no explicit budget
            (``None`` = unbudgeted, the engine default).
        artifact_cache_entries: per-stage bound on the toolchain's
            artifact cache (compiled objects, listings and outcome sets
            are heavyweight — unbounded, the cache grows linearly with
            the cells a long-lived session evaluates).  When a stage
            exceeds the bound its cache is dropped and recomputed on
            demand; pass ``None`` for unbounded.
    """

    def __init__(
        self,
        *,
        store: Optional[Union[str, "os.PathLike[str]", CampaignStore]] = None,
        budget_candidates: Optional[int] = None,
        artifact_cache_entries: Optional[int] = 4096,
    ) -> None:
        #: per-session registry overlays — register here without
        #: touching the process-global tables
        ensure_registered()  # ISA registration is an import side effect
        self.models = MODELS.overlay()
        self.shapes = SHAPES.overlay()
        self.epochs = EPOCHS.overlay()
        self.stages = STAGES.overlay()
        self.mutations = MUTATIONS.overlay()
        #: the session's staged tool-chain: stage resolution through the
        #: session overlay, model identity through the session models,
        #: and a per-session content-addressed artifact cache shared by
        #: every test/differential/campaign run in this session
        self._toolchain = Toolchain(
            stages=self.stages,
            models=self.models,
            cache=ArtifactCache(max_entries=artifact_cache_entries),
        )
        #: the cell memo every campaign in this session shares: each
        #: cell's record half (``result_half``: the record without the
        #: identity fields the cell supplies) keyed by (test digest,
        #: profile signatures, source model and its signature,
        #: arch-model signature, augment, budget, stage token) — content
        #: and what names resolve to, never names alone.  Timeouts and
        #: errors replay like verdicts.  Values are shared: read-only.
        self.result_cache = KeyedCache()
        #: the farm's parsed suites: suite path -> (verified digest,
        #: linted tests), one entry per path (see ``repro.api.farm``)
        self._suites: Dict[str, Tuple[str, Tuple[CLitmus, ...]]] = {}
        #: content digests of the tests this session has linted clean:
        #: a later plan or suite skips their lint (a batch with error
        #: findings records nothing, so it raises on every plan)
        self._linted: Set[str] = set()
        #: the farm's blessed baselines: baseline path -> (file sha256,
        #: canonical row bytes and drift memo), one entry per path
        self._baselines: Dict[str, Tuple[str, BaselineIndex]] = {}
        if store is not None and not isinstance(store, CampaignStore):
            store = CampaignStore(store)
        self.store: Optional[CampaignStore] = store
        self.budget_candidates = budget_candidates
        #: warning-severity diagnostics collected from lint-validated
        #: registrations (errors raise instead of landing here)
        self.lint_warnings: list = []
        #: the worker process pool every ``processes`` plan in this session
        #: shares, and what it was started for — see :meth:`_process_pool`
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_key: Tuple[int, ...] = ()
        self._pool_lock = threading.Lock()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _process_pool(self, processes: int) -> ProcessPoolExecutor:
        """The session's worker process pool with ``processes`` workers.

        Started the first time a plan asks for processes and reused by
        every later campaign, shard and farm baseline cell.  Workers are
        forked copies of the global registries they resolve cells
        against, so a different ``processes`` count, or a global model,
        epoch, ISA or stage registered since the fork, replaces the pool.
        The workers are forked here, in the caller's thread, before a run
        starts any threads of its own.
        """
        key = (processes,) + tuple(
            registry.generation for registry in (MODELS, EPOCHS, ISAS, STAGES)
        )
        with self._pool_lock:
            if self._pool is not None and self._pool_key == key:
                return self._pool
            stale, self._pool = self._pool, None
            if stale is not None:
                stale.shutdown()
            pool = ProcessPoolExecutor(max_workers=processes)
            pool.submit(int).result()  # fork every worker now
            self._pool, self._pool_key = pool, key
            return pool

    def close(self) -> None:
        """Shut down the session's process pool, if one was started.

        The session stays usable: the next plan that asks for processes
        starts a fresh pool (the engine closes a pool a dead worker
        broke the same way)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    @property
    def source_cache(self) -> KeyedCache:
        """The toolchain's ``simulate-source`` stage cache — the one
        place this session caches source simulations (``misses`` counts
        the simulations actually run)."""
        return self._toolchain.cache.stage("simulate-source")

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def register_model(
        self, name: str, source: str, *, lint: bool = True, **meta: object
    ) -> str:
        """Register a private Cat model for this session only.

        The source is statically validated first
        (:mod:`repro.analysis.catlint`): error-severity findings raise
        :class:`~repro.core.errors.LintError` and nothing is registered;
        warnings collect in :attr:`lint_warnings`. Pass ``lint=False``
        to register a deliberately broken model (e.g. to test engine
        error paths)."""
        from ..cat.registry import register_model_source

        warnings = register_model_source(
            name, source, registry=self.models, validate=lint, **meta
        )
        self.lint_warnings.extend(warnings)
        return self.models.resolve(name)

    def register_shape(self, shape: Shape, **meta: object) -> Shape:
        """Register a private litmus shape for this session only.

        Campaign plans run through this session can name it in their
        ``DiyConfig.shapes`` — test generation resolves against the
        session overlay (and generated tests cross the process boundary
        as values, so this works under every backend)."""
        return self.shapes.register(shape.name, shape, display=shape.name,
                                    threads=len(shape.threads), **meta)

    def register_mutation(self, name: str, operator, **meta: object):
        """Register a private mutation operator for this session's hunts.

        ``operator`` is a callable ``(CLitmus) -> iterator of (mutated
        test, site description)`` pairs — see :mod:`repro.tools.mutate`.
        Hunt plans run through this session can name it in
        ``mutations=``; mutants are generated in this process and cross
        pool boundaries as values, so (unlike models or stages) a
        session-local operator works under every backend and store.
        """
        return self.mutations.register(name, operator, **meta)

    def register_stage(self, stage: Stage, **meta: object) -> Stage:
        """Swap a tool-chain stage for this session only.

        ``stage.name`` decides which slot it fills ("prepare",
        "compile", "lift", "simulate-source", "simulate-target",
        "compare") — registering under an existing name shadows the
        stock stage for every :meth:`test`/:meth:`differential`/campaign
        run through this session.  A replacement that computes something
        different should return a distinct :meth:`Stage.signature` so
        its artifacts never collide with stock ones in a shared cache.
        """
        return self.stages.register(stage.name, stage, **meta)

    # ------------------------------------------------------------------ #
    # resolution (overlay-aware)
    # ------------------------------------------------------------------ #
    def model(self, name: Union[str, Model]) -> Model:
        """The compiled model ``name`` under this session's registry."""
        return resolve_model(name, self.models)

    def arch_model(self, arch: str) -> Model:
        """The architecture model for a compilation target."""
        if arch not in ARCH_MODEL:
            raise ModelError(f"no architecture model registered for {arch!r}")
        return self.model(ARCH_MODEL[arch])

    def model_signature(self, name: Union[str, Model]) -> str:
        """A content digest of what ``name`` resolves to here — cache-key
        identity, so a session that shadows a model name can never replay
        verdicts computed under the global model of the same name."""
        return model_signature(name, self.models)

    def lint(self, *targets) -> list:
        """Run the static analyzers, returning one
        :class:`~repro.analysis.LintReport` per target.

        Targets may be model names (resolved against this session's
        overlay, so shadowed models lint as shadowed), compiled
        :class:`Model` objects, or litmus tests (:class:`CLitmus`).
        With no targets, every model visible to the session is linted.
        """
        from ..analysis import lint_cat, lint_cat_source, lint_litmus_report
        from ..analysis.diagnostics import LintReport

        if not targets:
            targets = tuple(self.models.names())
        reports = []
        for target in targets:
            if isinstance(target, CLitmus):
                reports.append(lint_litmus_report(target))
            elif isinstance(target, Model):
                diags = tuple(lint_cat(target.ast, target.name))
                reports.append(LintReport(target.name, "cat", diags))
            else:
                key = self.models.resolve(target)
                reports.append(lint_cat_source(self.models.get(key), key))
        return reports

    def shape(self, name: str) -> Shape:
        return self.shapes.get(name)

    def isa(self, name: str) -> Isa:
        return get_isa(name)

    def profile(self, spec: Union[str, CompilerProfile, tuple]) -> CompilerProfile:
        """Resolve a profile: a :class:`CompilerProfile` passes through, a
        ``(compiler, opt, arch)`` tuple builds one, and an artefact-style
        name (``llvm-O3-AArch64``) parses — all against this session's
        compiler-epoch registry."""
        if isinstance(spec, CompilerProfile):
            return spec
        if isinstance(spec, tuple):
            return make_profile(*spec, epochs=self.epochs)
        return parse_profile(spec, epochs=self.epochs)

    def _plan_arches(self, plan: CampaignPlan) -> Set[str]:
        """The architectures a plan will actually compile for — the
        sweep's arches in tv mode, the profiles' (common) arch in
        differential mode."""
        if plan.mode == "differential" and plan.profiles:
            arches: Set[str] = set()
            for spec in plan.profiles:
                try:
                    arches.add(self.profile(spec).arch)
                except ReproError:
                    continue  # unresolvable specs abort in the engine
            return arches
        return set(plan.arches)

    def local_model_names(self, plan: CampaignPlan) -> Set[str]:
        """The plan's models that only this session knows — the set that
        cannot cross a process-pool boundary or be keyed in a store."""
        names = [plan.source_model]
        names.extend(
            ARCH_MODEL[arch] for arch in self._plan_arches(plan)
            if arch in ARCH_MODEL
        )
        return {
            name for name in names
            if name in self.models and self.models.is_local(name)
        }

    def local_epoch_names(self, plan: CampaignPlan) -> Set[str]:
        """The plan's compiler epochs that only this session knows.

        tv campaigns build default-version profiles, so the relevant
        epochs are ``<compiler>-<default version>``; differential plans
        name their profiles explicitly (a spec may pin any version), so
        the epochs behind each resolved profile count."""
        if plan.mode == "differential" and plan.profiles:
            names = []
            for spec in plan.profiles:
                try:
                    profile = self.profile(spec)
                except ReproError:
                    continue
                names.append(f"{profile.compiler}-{profile.version}")
        else:
            names = [
                f"{compiler}-{DEFAULT_VERSION[compiler]}"
                for compiler in plan.compilers if compiler in DEFAULT_VERSION
            ]
        return {
            name for name in names
            if name in self.epochs and self.epochs.is_local(name)
        }

    def local_stage_names(self, plan: CampaignPlan) -> Set[str]:
        """Tool-chain stages swapped in this session's overlay.

        Like session-local models and epochs, a swapped stage cannot
        cross a process-pool boundary (workers build their toolchain
        from the global registry) and cannot be keyed in a persistent
        store (records key verdicts by name, not by stage identity) —
        the engine refuses both rather than silently running the stock
        stage."""
        return {
            f"stage:{name}" for name in self.stages.names()
            if self.stages.is_local(name)
        }

    def stages_token(self) -> Tuple:
        """An in-memory identity of the session's *effective* stage set.

        Part of the result-cache key, so re-registering a stage
        mid-session re-simulates instead of replaying results the old
        stage computed.  The token holds the stage *objects* (compared
        by identity), not their ``id()``s — a bare id could be recycled
        by a later allocation once the old stage is garbage-collected,
        silently reviving stale cache entries.  The result cache never
        leaves this process, so object identity is sound."""
        return tuple(
            (name, self.stages.get(name)) for name in self.stages.names()
        )

    # ------------------------------------------------------------------ #
    # running things
    # ------------------------------------------------------------------ #
    def _budget(self, budget: Optional[Budget]) -> Optional[Budget]:
        """``budget``, or the session's default candidate budget when the
        caller passes none."""
        if budget is None and self.budget_candidates is not None:
            return Budget(max_candidates=self.budget_candidates)
        return budget

    def test(
        self,
        litmus: CLitmus,
        profile: Union[str, CompilerProfile, tuple],
        *,
        source_model: Union[str, Model] = "rc11",
        target_model: Optional[Union[str, Model]] = None,
        augment: bool = True,
        optimise: bool = True,
        unroll: int = 2,
        budget: Optional[Budget] = None,
    ) -> TelechatResult:
        """Run test_tv on one C litmus test through the session's
        registries and staged toolchain (source side first: a test whose
        source simulation times out never compiles)."""
        resolved_profile = self.profile(profile)
        target = target_model
        if target is None:
            target = self.arch_model(resolved_profile.arch)
        return self._toolchain.run_tv(
            litmus,
            resolved_profile,
            source_model=self.model(source_model),
            target_model=self.model(target),
            augment=augment,
            optimise=optimise,
            unroll=unroll,
            budget=self._budget(budget),
        )

    def differential(
        self,
        litmus: CLitmus,
        profile_a: Union[str, CompilerProfile, tuple],
        profile_b: Union[str, CompilerProfile, tuple],
        *,
        source_model: Optional[Union[str, Model]] = "rc11",
        target_model: Optional[Union[str, Model]] = None,
        augment: bool = True,
        optimise: bool = True,
        unroll: int = 2,
        budget: Optional[Budget] = None,
    ) -> DifferentialResult:
        """Differential-test one C litmus test under two profiles
        (paper §IV-D) through the session's staged toolchain — compile
        and lift artifacts are shared with every other run in this
        session.  ``source_model`` is the undefined-behaviour oracle
        (pass ``None`` to skip the C-source simulation entirely)."""
        resolved_source = (
            None if source_model is None else self.model(source_model)
        )
        return self._toolchain.run_differential(
            litmus,
            self.profile(profile_a),
            self.profile(profile_b),
            source_model=resolved_source,
            target_model=(
                None if target_model is None else self.model(target_model)
            ),
            augment=augment,
            optimise=optimise,
            unroll=unroll,
            budget=self._budget(budget),
        )

    def toolchain(self) -> "Toolchain":
        """The session's staged tool-chain — run stages individually,
        inspect ``.describe()`` (stage inventory + per-stage cache
        counters), or call ``run_tv``/``run_differential`` on it directly."""
        return self._toolchain

    def explain(
        self,
        litmus: CLitmus,
        profile: Union[str, CompilerProfile, tuple],
        *,
        differential_with: Optional[
            Union[str, CompilerProfile, tuple]
        ] = None,
        source_model: Union[str, Model] = "rc11",
        target_model: Optional[Union[str, Model]] = None,
        augment: bool = True,
        optimise: bool = True,
        unroll: int = 2,
        budget: Optional[Budget] = None,
    ) -> ToolchainTrace:
        """Run the chain with a stage trace (executions kept for the
        herd dot dumps) — the engine behind ``repro explain``."""
        return self._toolchain.explain(
            litmus,
            self.profile(profile),
            differential_with=(
                None if differential_with is None
                else self.profile(differential_with)
            ),
            source_model=self.model(source_model),
            target_model=(
                None if target_model is None else self.model(target_model)
            ),
            augment=augment,
            optimise=optimise,
            unroll=unroll,
            budget=self._budget(budget),
        )

    def campaign(self, plan: CampaignPlan) -> CampaignStream:
        """Run a campaign plan, streaming typed events as cells finish.

        Returns a :class:`CampaignStream`: iterate it for live
        ``CampaignStarted`` / ``CellFinished`` / ``CampaignFinished``
        events, or call ``.report()`` to drain it into the batch
        :class:`CampaignReport`.
        """
        return CampaignStream(iter_campaign(plan, self))

    def hunt(
        self,
        seeds: Union[TestSource, Iterable[CLitmus], CampaignPlan],
        **plan_fields,
    ) -> CampaignStream:
        """Run a mutation-guided bug hunt from ``seeds`` (see
        :mod:`repro.hunt` and ``CampaignPlan(mode="hunt")``).

        ``seeds`` is a :class:`~repro.tools.sources.TestSource`, an
        iterable of tests — or a ready-made hunt plan, streamed as-is.
        Remaining keyword arguments are plan fields (``mutations=``,
        ``mutation_rounds=``, ``mutation_limit=``, ``reduce=``,
        ``arches=``, …)::

            for event in session.hunt([seed], arches=("aarch64",)):
                if isinstance(event, TestReduced):
                    print("minimal reproducer:", event.reduced_name)
        """
        if isinstance(seeds, CampaignPlan):
            if plan_fields:
                raise PlanError(
                    "pass plan fields on the CampaignPlan, not to hunt()"
                )
            plan = seeds
            if plan.mode != "hunt":
                raise PlanError(
                    f'Session.hunt needs mode="hunt", got {plan.mode!r}'
                )
        else:
            tests = (
                seeds if isinstance(seeds, TestSource) else tuple(seeds)
            )
            plan = CampaignPlan(mode="hunt", tests=tests, **plan_fields)
        return CampaignStream(iter_campaign(plan, self))

    def reduce(
        self,
        litmus: CLitmus,
        profile: Union[str, CompilerProfile, tuple],
        *,
        source_model: Union[str, Model] = "rc11",
        augment: bool = True,
        budget: Optional[Budget] = None,
        max_checks: Optional[int] = None,
    ) -> ReductionResult:
        """Delta-debug ``litmus`` to a 1-minimal test that still gets a
        ``positive`` verdict under ``profile`` (the engine behind
        ``telechat reduce``).  Every candidate re-verifies through this
        session's cached toolchain; raises
        :class:`~repro.hunt.ReductionError` when the input itself is not
        positive — there is no bug to keep."""
        resolved_profile = self.profile(profile)
        budget = self._budget(budget)

        def check(candidate: CLitmus) -> bool:
            result = self.test(
                candidate,
                resolved_profile,
                source_model=source_model,
                augment=augment,
                budget=budget,
            )
            return result.verdict == "positive"

        return reduce_test(litmus, check, max_checks=max_checks)

    def farm(self, plan: Union[FarmPlan, str, "os.PathLike[str]"]):
        """Run a regression-farm pass over a blessed corpus, streaming
        typed events (:class:`~repro.api.events.FarmStarted`, pass-through
        ``CellFinished`` streams, one ``SuiteFinished`` per baseline cell,
        :class:`~repro.api.events.FarmFinished`).

        ``plan`` is a :class:`~repro.api.plan.FarmPlan` — or just the
        corpus root directory, for an unfiltered single-threaded pass::

            drift = 0
            for event in session.farm("tests/corpus"):
                if event.kind == "farm_finished":
                    drift = event.drift

        See :mod:`repro.pipeline.farm` for the corpus format and
        ``telechat farm`` for the CLI."""
        from .farm import iter_farm

        if not isinstance(plan, FarmPlan):
            plan = FarmPlan(root=os.fspath(plan))
        return iter_farm(plan, self)

    def campaign_sharded(self, plan: CampaignPlan, shards: int) -> CampaignStream:
        """Run all ``shards`` deterministic shards of ``plan`` through
        this session, with a :class:`ShardMerged` checkpoint event after
        each; ``.report()`` folds to the merged single-run Table IV."""
        return CampaignStream(iter_sharded(plan, self, shards))

    def run(self, plan: CampaignPlan) -> CampaignReport:
        """Batch convenience: run ``plan`` and fold the stream."""
        return self.campaign(plan).report()
