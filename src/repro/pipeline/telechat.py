"""The T´el´échat driver: the ``test_tv`` environment of paper Fig. 5.

One call to :func:`run_test_tv` runs the whole tool-chain on one test
and one compiler profile::

    S ──l2c──> S′ ──c2s──> O ──s2l──> C
    herd(S′, M_S)  ⊇?  herd(C, M_C)          (mcompare)

Since the toolchain redesign this module is a thin composition layer:
the chain itself lives in :mod:`repro.toolchain` as typed, individually
cached stages, and both entry points here — :func:`run_test_tv` and
:func:`run_differential` — build on the same
:class:`~repro.toolchain.Toolchain` graph, which runs the source side
first and caches it in its ``simulate-source`` stage.  The historical
result and serialisation types (:class:`TelechatResult`,
:func:`outcomes_to_jsonable`, …) are re-exported from
:mod:`repro.toolchain.results` unchanged.
"""

from __future__ import annotations

from typing import List, Optional, Union

from ..cat.interp import Model
from ..herd.enumerate import Budget
from ..lang.ast import CLitmus
from ..compiler.profiles import CompilerProfile
from ..toolchain.chain import Toolchain, TraceEntry
from ..toolchain.results import (  # noqa: F401  (re-exports: the store/tests import these from here)
    DifferentialResult,
    TelechatResult,
    comparison_from_record,
    outcomes_from_jsonable,
    outcomes_to_jsonable,
)


def run_test_tv(
    litmus: CLitmus,
    profile: CompilerProfile,
    source_model: Union[str, Model] = "rc11",
    target_model: Optional[Union[str, Model]] = None,
    augment: bool = True,
    optimise: bool = True,
    unroll: int = 2,
    budget: Optional[Budget] = None,
    toolchain: Optional[Toolchain] = None,
    trace: Optional[List[TraceEntry]] = None,
) -> TelechatResult:
    """Run test_tv on one C litmus test under one compiler profile.

    This is the engine entry point behind :meth:`repro.api.Session.test`
    — prefer the session, which resolves models and profiles against
    per-session registries and owns the caches.

    Args:
        litmus: the C litmus test ``S`` (step 1 of Fig. 5).
        profile: the compiler-under-test configuration.
        source_model: the C/C++ oracle (``rc11`` by default; ``rc11+lb``
            reproduces the paper's Claim 4 re-run).
        target_model: the architecture model; defaults to the official
            model registered for the profile's architecture.
        augment: apply the §IV-B local-variable augmentation.
        optimise: apply the §IV-E s2l optimisations (disable to reproduce
            the non-terminating Fig. 11 configuration — bring a budget).
        unroll: loop unroll factor for source simulation.
        budget: enumeration budget for both simulations.
        toolchain: the staged :class:`~repro.toolchain.Toolchain` to run
            over — sessions pass theirs so per-stage artifacts (compiled
            litmus tests, outcome sets) are reused across calls, models
            and differential pairs; in particular each test's source side
            is simulated once per source model, not once per profile.
            ``None`` runs over a private throwaway chain (the historical
            uncached behaviour).
        trace: a list that collects every stage the run reached (see
            :meth:`~repro.toolchain.Toolchain.run_tv`).
    """
    chain = toolchain if toolchain is not None else Toolchain()
    return chain.run_tv(
        litmus,
        profile,
        source_model=source_model,
        target_model=target_model,
        augment=augment,
        optimise=optimise,
        unroll=unroll,
        budget=budget,
        trace=trace,
    )


def run_differential(
    litmus: CLitmus,
    profile_a: CompilerProfile,
    profile_b: CompilerProfile,
    source_model: Optional[Union[str, Model]] = None,
    target_model: Optional[Union[str, Model]] = None,
    augment: bool = True,
    optimise: bool = True,
    unroll: int = 2,
    budget: Optional[Budget] = None,
    toolchain: Optional[Toolchain] = None,
    trace: Optional[List[TraceEntry]] = None,
) -> DifferentialResult:
    """Differential testing (paper §IV-D) over the staged toolchain:
    two compile→lift→simulate branches joined at one compare stage.

    The engine entry point behind ``CampaignPlan(mode="differential")``
    and :meth:`repro.api.Session.differential`.  ``source_model``
    switches on the C-source undefined-behaviour oracle (racy sources
    excuse the difference, verdict ``ub-masked``); it is simulated before
    either profile compiles.
    """
    chain = toolchain if toolchain is not None else Toolchain()
    return chain.run_differential(
        litmus,
        profile_a,
        profile_b,
        source_model=source_model,
        target_model=target_model,
        augment=augment,
        optimise=optimise,
        unroll=unroll,
        budget=budget,
        trace=trace,
    )

