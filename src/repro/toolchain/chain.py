"""The staged tool-chain: composition, caching, tracing.

:class:`Toolchain` wires the registered stages into the paper's Fig. 5
graph and owns a per-stage :class:`~repro.toolchain.cache.ArtifactCache`.
The two compositions are

* :meth:`Toolchain.run_tv` — translation validation: source vs compiled,
  with every intermediate product cached under its content address;
* :meth:`Toolchain.run_differential` — compiler vs compiler (§IV-D):
  two compile→lift→simulate branches joined at one compare stage,
  sharing the ``prepare`` artifact and, optionally, a C-source
  simulation as the undefined-behaviour oracle.

Both compositions run the source side first — ``prepare →
simulate-source`` before any ``compile`` — so a test whose source
simulation times out never compiles, and the ``simulate-source`` stage
is the one place a test's ``herd(S′, M_S)`` result is cached: every
compiled cell of that test, on every backend, replays it from there.

Because the cache is per *stage*, not per cell, re-running a test under
a second target model reuses the compiled litmus, and a differential
pair whose profiles also appear in a test_tv sweep reuses those
branches' compiles outright.

Cache-identity invariants (what makes replaying an artifact sound):

* an artifact's key is ``(stage name, stage signature, input keys)``
  and the graph's root key is :meth:`CLitmus.digest` — pure *content*
  addresses.  Test names never enter identity, so renamed tests (hunt
  mutants, reduction outputs, re-generated suites) share artifacts;
* a stage ``signature()`` must cover every parameter that changes its
  output — model identity enters as what the name resolves to in the
  toolchain's model registry (``model_key``), so a session that shadows
  ``rc11`` can never replay global-rc11 outcome sets, and a swapped
  stage with a distinct signature never collides with stock artifacts
  in a shared cache;
* replay is observationally equivalent to recomputation: a cache hit
  returns the artifact another run produced under the exact same key,
  with its original ``seconds`` (timing totals stay honest — consumers
  flag reuse, they don't zero costs);
* the cache is *bounded* per stage (see :class:`ArtifactCache`):
  eviction only ever costs recomputation, never wrong answers.

:meth:`Toolchain.explain` runs either composition with a trace and
returns a :class:`ToolchainTrace` whose :meth:`~ToolchainTrace.render`
prints every stage's artifact — the ``repro explain`` CLI command.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Dict, List, Optional, Tuple, Union

from ..cat.interp import Model
from ..cat.registry import ARCH_MODEL, MODELS, resolve_model
from ..compiler.profiles import CompilerProfile
from ..core.errors import ModelError, ReproError
from ..core.registry import Registry
from ..herd.enumerate import Budget
from ..lang.ast import CLitmus
from .artifacts import (
    Artifact,
    CompiledObject,
    OutcomeSet,
    PreparedSource,
    SourceTest,
    TargetLitmus,
    Verdict,
    artifact_keys,
    make_key,
    model_key,
)
from .cache import ArtifactCache
from .results import DifferentialResult, TelechatResult
from .stages import STAGES, Stage


@dataclass(frozen=True)
class TraceEntry:
    """One stage execution (or cache replay) observed by a traced run.

    A stage that raised (produced by this call or replayed from the
    cache) leaves a bare :class:`Artifact` carrying only its stage and
    key, so a trace records which producers ran even when the run did
    not finish.
    """

    artifact: Artifact
    cached: bool

    def header(self) -> str:
        origin = "cached" if self.cached else f"{self.artifact.seconds*1000:.1f} ms"
        return f"── {self.artifact.stage} [{self.artifact.key}] ({origin})"


@dataclass
class ToolchainTrace:
    """Everything ``repro explain`` prints: stages in execution order."""

    test_name: str
    entries: List[TraceEntry]
    result: object  # TelechatResult | DifferentialResult

    def artifact(self, stage: str) -> Artifact:
        for entry in self.entries:
            if entry.artifact.stage == stage:
                return entry.artifact
        raise KeyError(f"no {stage!r} artifact in this trace")

    def render(self) -> str:
        blocks: List[str] = []
        for entry in self.entries:
            blocks.append(entry.header())
            blocks.append(entry.artifact.render())
            blocks.append("")
        return "\n".join(blocks).rstrip() + "\n"


class Toolchain:
    """The staged test_tv tool-chain over one stage registry and cache.

    Args:
        stages: the stage registry to resolve components against — a
            session passes its overlay so privately registered stages
            (custom compiler drivers, comparators) take effect here only.
        models: the model registry names resolve against (cache identity
            uses what a name resolves *to*, so a session that shadows
            ``rc11`` can never replay global-rc11 artifacts).
        cache: share an :class:`ArtifactCache` across toolchains; by
            default each toolchain owns a fresh one.
    """

    def __init__(
        self,
        *,
        stages: Optional[Registry[Stage]] = None,
        models: Optional[Registry[str]] = None,
        cache: Optional[ArtifactCache] = None,
    ) -> None:
        self.stages = stages if stages is not None else STAGES
        self.models = models if models is not None else MODELS
        self.cache = cache if cache is not None else ArtifactCache()

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def describe(self) -> Dict[str, object]:
        """Stage inventory plus per-stage cache counters — the
        ``Session.toolchain()`` introspection surface."""
        return {
            "stages": self.stages.metadata(),
            "cache": self.cache.stats(),
        }

    # ------------------------------------------------------------------ #
    # stage plumbing
    # ------------------------------------------------------------------ #
    def _model(self, model: Union[str, Model]) -> Model:
        return resolve_model(model, self.models)

    def _run(
        self,
        name: str,
        sig_params: Dict[str, object],
        run_params: Dict[str, object],
        inputs: Tuple[str, ...],
        trace: Optional[List[TraceEntry]],
    ) -> Artifact:
        stage = self.stages.get(name)
        key = make_key(name, stage.signature(**sig_params), inputs)
        produced: List[bool] = []

        def produce() -> Artifact:
            produced.append(True)
            return stage.run(key, **run_params)

        # the bare artifact stands in when the stage raises, so the trace
        # still says whether this call's producer ran
        artifact = Artifact(key=key, stage=name, inputs=inputs)
        try:
            artifact = self.cache.get(name, key, produce)
            return artifact
        finally:
            if trace is not None:
                trace.append(TraceEntry(artifact=artifact, cached=not produced))

    # ------------------------------------------------------------------ #
    # individual stages
    # ------------------------------------------------------------------ #
    def source(self, litmus: CLitmus) -> SourceTest:
        """Wrap the input test as the graph's root artifact (keyed by its
        content digest — names never enter identity)."""
        return SourceTest(
            key=litmus.digest(), stage="source", litmus=litmus
        )

    def prepare(
        self,
        source: Union[SourceTest, CLitmus],
        augment: bool = True,
        trace: Optional[List[TraceEntry]] = None,
    ) -> PreparedSource:
        if isinstance(source, CLitmus):
            source = self.source(source)
        return self._run(
            "prepare",
            {"augment": augment},
            {"source": source, "augment": augment},
            (source.key,),
            trace,
        )

    def compile(
        self,
        prepared: PreparedSource,
        profile: CompilerProfile,
        trace: Optional[List[TraceEntry]] = None,
    ) -> CompiledObject:
        return self._run(
            "compile",
            {"profile": profile},
            {"prepared": prepared, "profile": profile},
            (prepared.key,),
            trace,
        )

    def lift(
        self,
        prepared: PreparedSource,
        compiled: CompiledObject,
        optimise: bool = True,
        trace: Optional[List[TraceEntry]] = None,
    ) -> TargetLitmus:
        return self._run(
            "lift",
            {"optimise": optimise},
            {"prepared": prepared, "compiled": compiled, "optimise": optimise},
            (compiled.key,),
            trace,
        )

    def simulate_source(
        self,
        prepared: PreparedSource,
        model: Union[str, Model] = "rc11",
        unroll: int = 2,
        budget: Optional[Budget] = None,
        keep_executions: bool = False,
        trace: Optional[List[TraceEntry]] = None,
    ) -> OutcomeSet:
        return self._run(
            "simulate-source",
            {
                "model_sig": model_key(model, self.models),
                "unroll": unroll,
                "budget": budget,
                "keep_executions": keep_executions,
            },
            {
                "prepared": prepared,
                "model": self._model(model),
                "unroll": unroll,
                "budget": budget,
                "keep_executions": keep_executions,
            },
            (prepared.key,),
            trace,
        )

    def simulate_target(
        self,
        target: TargetLitmus,
        model: Optional[Union[str, Model]] = None,
        budget: Optional[Budget] = None,
        keep_executions: bool = False,
        trace: Optional[List[TraceEntry]] = None,
    ) -> OutcomeSet:
        if model is None:
            arch = target.litmus.arch
            if arch not in ARCH_MODEL:
                raise ModelError(
                    f"no architecture model registered for {arch!r}"
                )
            model = ARCH_MODEL[arch]
        return self._run(
            "simulate-target",
            {
                "model_sig": model_key(model, self.models),
                "budget": budget,
                "keep_executions": keep_executions,
            },
            {
                "target": target,
                "model": self._model(model),
                "budget": budget,
                "keep_executions": keep_executions,
            },
            (target.key,),
            trace,
        )

    def compare(
        self,
        left: OutcomeSet,
        right: OutcomeSet,
        prepared: PreparedSource,
        trace: Optional[List[TraceEntry]] = None,
    ) -> Verdict:
        return self._run(
            "compare",
            {},
            {"left": left, "right": right, "prepared": prepared},
            (left.key, right.key),
            trace,
        )

    # ------------------------------------------------------------------ #
    # compositions
    # ------------------------------------------------------------------ #
    def run_tv(
        self,
        litmus: CLitmus,
        profile: CompilerProfile,
        *,
        source_model: Union[str, Model] = "rc11",
        target_model: Optional[Union[str, Model]] = None,
        augment: bool = True,
        optimise: bool = True,
        unroll: int = 2,
        budget: Optional[Budget] = None,
        keep_executions: bool = False,
        trace: Optional[List[TraceEntry]] = None,
    ) -> TelechatResult:
        """Translation validation of one test under one profile — the
        Fig. 5 chain as a composition over the cached stage graph.

        The source side runs first, so a test whose source simulation
        times out never compiles.  ``trace`` collects every stage this
        call reached, in order, even when one of them raises."""
        t: List[TraceEntry] = trace if trace is not None else []
        prepared = self.prepare(litmus, augment=augment, trace=t)
        source_out = self.simulate_source(
            prepared, source_model, unroll=unroll, budget=budget,
            keep_executions=keep_executions, trace=t,
        )
        source_reused = t[-1].cached
        compiled = self.compile(prepared, profile, trace=t)
        lifted = self.lift(prepared, compiled, optimise=optimise, trace=t)
        target_out = self.simulate_target(
            lifted, target_model, budget=budget,
            keep_executions=keep_executions, trace=t,
        )
        verdict = self.compare(source_out, target_out, prepared, trace=t)
        return TelechatResult(
            test_name=litmus.name,
            profile=profile,
            comparison=verdict.comparison,
            source_result=source_out.result,
            target_result=target_out.result,
            compiled=lifted.litmus,
            s2l_stats=lifted.stats,
            source_seconds=source_out.seconds,
            target_seconds=target_out.seconds,
            compile_seconds=compiled.seconds + lifted.seconds,
            source_reused=source_reused,
            artifacts=artifact_keys(
                prepared, compiled, lifted, source_out, target_out, verdict
            ),
        )

    def run_differential(
        self,
        litmus: CLitmus,
        profile_a: CompilerProfile,
        profile_b: CompilerProfile,
        *,
        source_model: Optional[Union[str, Model]] = None,
        target_model: Optional[Union[str, Model]] = None,
        augment: bool = True,
        optimise: bool = True,
        unroll: int = 2,
        budget: Optional[Budget] = None,
        keep_executions: bool = False,
        trace: Optional[List[TraceEntry]] = None,
    ) -> DifferentialResult:
        """Differential testing (paper §IV-D): two compile→lift→simulate
        branches joined at one compare stage.

        Unlike the old hand-rolled path this shares the toolchain's
        artifact cache — each (test, profile) compiles once no matter how
        many pairs or test_tv sweeps also need it — and runs the *full*
        s2l optimiser on both branches.  ``source_model`` switches on the
        undefined-behaviour oracle: the C source is simulated once, before
        either branch compiles, and racy tests excuse the difference,
        exactly as in test_tv.  ``trace`` is filled as in :meth:`run_tv`.
        """
        if profile_a.arch != profile_b.arch:
            raise ReproError(
                "differential testing requires a common architecture"
            )
        t: List[TraceEntry] = trace if trace is not None else []
        prepared = self.prepare(litmus, augment=augment, trace=t)
        source_out: Optional[OutcomeSet] = None
        source_reused = False
        if source_model is not None:
            source_out = self.simulate_source(
                prepared, source_model, unroll=unroll, budget=budget,
                keep_executions=keep_executions, trace=t,
            )
            source_reused = t[-1].cached

        def branch(profile: CompilerProfile):
            compiled = self.compile(prepared, profile, trace=t)
            lifted = self.lift(prepared, compiled, optimise=optimise, trace=t)
            out = self.simulate_target(
                lifted, target_model, budget=budget,
                keep_executions=keep_executions, trace=t,
            )
            return compiled, lifted, out

        compiled_a, lifted_a, out_a = branch(profile_a)
        compiled_b, lifted_b, out_b = branch(profile_b)
        verdict = self.compare(out_a, out_b, prepared, trace=t)
        comparison = verdict.comparison
        if source_out is not None:
            # the oracle overrides the UB flag mcompare read off branch a
            # (an asm simulation never carries C-level data-race UB)
            comparison = dc_replace(
                comparison,
                source_has_ub=source_out.result.has_undefined_behaviour,
            )
            # the traced compare entry must render the *final*
            # classification — an explain whose stage dump contradicts
            # its closing verdict line would mislead; the cached verdict
            # artifact stays oracle-independent on purpose
            overridden = dc_replace(verdict, comparison=comparison)
            t[-1] = TraceEntry(artifact=overridden, cached=t[-1].cached)

        artifacts = artifact_keys(prepared, verdict, source_out)
        for suffix, compiled, lifted, out in (
            ("a", compiled_a, lifted_a, out_a),
            ("b", compiled_b, lifted_b, out_b),
        ):
            artifacts[f"compile:{suffix}"] = compiled.key
            artifacts[f"lift:{suffix}"] = lifted.key
            artifacts[f"simulate-target:{suffix}"] = out.key
        return DifferentialResult(
            test_name=litmus.name,
            profile_a=profile_a,
            profile_b=profile_b,
            comparison=comparison,
            result_a=out_a.result,
            result_b=out_b.result,
            compiled_a=lifted_a.litmus,
            compiled_b=lifted_b.litmus,
            stats_a=lifted_a.stats,
            stats_b=lifted_b.stats,
            source_result=source_out.result if source_out else None,
            source_model=source_out.result.model_name if source_out else "",
            source_seconds=source_out.seconds if source_out else 0.0,
            source_reused=source_reused,
            compile_seconds=(
                compiled_a.seconds + lifted_a.seconds
                + compiled_b.seconds + lifted_b.seconds
            ),
            simulate_seconds=out_a.seconds + out_b.seconds,
            artifacts=artifacts,
        )

    # ------------------------------------------------------------------ #
    def explain(
        self,
        litmus: CLitmus,
        profile: CompilerProfile,
        *,
        differential_with: Optional[CompilerProfile] = None,
        source_model: Union[str, Model] = "rc11",
        target_model: Optional[Union[str, Model]] = None,
        augment: bool = True,
        optimise: bool = True,
        unroll: int = 2,
        budget: Optional[Budget] = None,
        keep_executions: bool = True,
    ) -> ToolchainTrace:
        """Run the chain with a trace and keep executions for the dot
        dumps — the engine behind ``repro explain <test>``."""
        trace: List[TraceEntry] = []
        if differential_with is not None:
            result: object = self.run_differential(
                litmus, profile, differential_with,
                source_model=source_model, target_model=target_model,
                augment=augment, optimise=optimise, unroll=unroll,
                budget=budget, keep_executions=keep_executions, trace=trace,
            )
        else:
            result = self.run_tv(
                litmus, profile,
                source_model=source_model, target_model=target_model,
                augment=augment, optimise=optimise, unroll=unroll,
                budget=budget, keep_executions=keep_executions, trace=trace,
            )
        return ToolchainTrace(
            test_name=litmus.name, entries=trace, result=result
        )
