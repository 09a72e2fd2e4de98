"""The herd-style simulator: enumerate, filter by a model, collect outcomes.

``herd(P, M)`` (paper §II) runs litmus test P under memory model M and
returns the set of allowed outcomes.  Every simulation is two halves on
one path, :func:`run_programs` = :func:`check` over an
:class:`~repro.herd.enumerate.Enumeration`: the model-free enumeration
(path combinations, candidates, outcomes, stats) and the per-model check.
A caller that checks one test under several models (the toolchain's
source side) keeps one recorded enumeration and checks it per model.
This module implements that for both front-ends:

* :func:`simulate_c` — C litmus tests under a C/C++ model (rc11, …),
* :func:`simulate_asm` — assembly litmus tests under an architecture model.

Executions flagged by the model (data races → undefined behaviour, const
violations) are reported via :attr:`SimulationResult.flags`; callers such
as mcompare treat UB-flagged source tests as "anything goes".
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from ..cat.interp import Model
from ..cat.registry import get_model
from ..cat.stdlib import build_static_env, dynamic_bindings
from ..core.execution import Execution, Outcome
from ..core.litmus import Condition
from .enumerate import Budget, Enumeration, EnumerationStats, PruneStage
from .templates import ThreadProgram


@dataclass
class SimulationResult:
    """Outcomes of simulating one litmus test under one model."""

    test_name: str
    model_name: str
    outcomes: FrozenSet[Outcome]
    #: flag names raised by any allowed execution (e.g. undefined-behaviour)
    flags: FrozenSet[str]
    #: outcomes of executions that raised flags
    flagged_outcomes: FrozenSet[Outcome]
    stats: EnumerationStats
    #: allowed executions paired with their outcome (kept only on request)
    executions: Tuple[Tuple[Execution, Outcome], ...] = ()
    #: wall-clock the enumeration took.  Cached consumers (every cell of
    #: a test replays its one source simulation from the toolchain cache)
    #: read the *original* cost from here instead of reporting zero.
    elapsed_seconds: float = 0.0

    @property
    def has_undefined_behaviour(self) -> bool:
        return "undefined-behaviour" in self.flags

    @property
    def has_const_violation(self) -> bool:
        return "const-violation" in self.flags

    def condition_holds(self, condition: Condition) -> bool:
        return condition.holds_over(self.outcomes)

    def witnesses(self, condition: Condition) -> List[Outcome]:
        return condition.witnesses(self.outcomes)


def check(
    enumeration: Enumeration,
    model: Union[str, Model],
    name: str = "",
    budget: Optional[Budget] = None,
) -> SimulationResult:
    """The per-model half of a simulation: filter ``enumeration``'s
    candidates by ``model``.

    The staged engine evaluates the model's *static prefix* (see
    :meth:`~repro.cat.interp.Model.compile`) once per path combination —
    over an environment built once per combination too — and only the
    rf/co-dependent suffix per candidate.  A combination whose prefix
    fails is skipped before its candidates are enumerated or charged to
    ``budget``.
    """
    if isinstance(model, str):
        model = get_model(model)
    start = time.perf_counter()
    compiled = model.compile()
    run = enumeration.run(budget)
    outcomes: set = set()
    flagged_outcomes: set = set()
    flags: set = set()
    kept: List[Tuple[Execution, Outcome]] = []
    try:
        for index, combo in enumerate(enumeration.combos):
            static = build_static_env(
                combo.events, combo.po, combo.rmw, combo.addr, combo.data, combo.ctrl
            )
            prefix = compiled.run_static(static.env)
            if not prefix.allowed:
                # a static check already failed: no rf/co choice can
                # make any candidate of this combination allowed
                continue
            for candidate in enumeration.candidates(index, run):
                verdict = compiled.run_dynamic(
                    prefix,
                    dynamic_bindings(candidate, static, compiled.dynamic_names),
                )
                if not verdict.allowed:
                    continue
                outcome = candidate.outcome
                outcomes.add(outcome)
                if verdict.flags:
                    flags.update(verdict.flags)
                    flagged_outcomes.add(outcome)
                if candidate.execution is not None:
                    kept.append((candidate.execution, outcome))
    finally:
        run.finish()

    return SimulationResult(
        test_name=name,
        model_name=model.name,
        outcomes=frozenset(outcomes),
        flags=frozenset(flags),
        flagged_outcomes=frozenset(flagged_outcomes),
        stats=run.stats,
        executions=tuple(kept),
        elapsed_seconds=enumeration.stats.elapsed_seconds + time.perf_counter() - start,
    )


def run_programs(
    name: str,
    init: Dict[str, int],
    programs: Sequence[ThreadProgram],
    model: Union[str, Model],
    budget: Optional[Budget] = None,
    keep_executions: bool = False,
    stages: Optional[Sequence[PruneStage]] = None,
) -> SimulationResult:
    """Enumerate candidates of pre-elaborated threads and filter by model:
    :func:`check` over a streaming :class:`Enumeration`."""
    enumeration = Enumeration(
        init, programs, stages=stages, keep_executions=keep_executions
    )
    return check(enumeration, model, name=name, budget=budget)


def enumerate_c(
    litmus,
    unroll: int = 2,
    keep_executions: bool = False,
    stages: Optional[Sequence[PruneStage]] = None,
    record: bool = False,
) -> Enumeration:
    """The model-free half of :func:`simulate_c`."""
    from ..lang.semantics import elaborate  # local import to avoid cycles

    return Enumeration(
        dict(litmus.init),
        elaborate(litmus, unroll=unroll),
        stages=stages,
        keep_executions=keep_executions,
        record=record,
    )


def simulate_c(
    litmus,
    model: Union[str, Model] = "rc11",
    unroll: int = 2,
    budget: Optional[Budget] = None,
    keep_executions: bool = False,
    stages: Optional[Sequence[PruneStage]] = None,
) -> SimulationResult:
    """Simulate a C litmus test under a C/C++ memory model."""
    enumeration = enumerate_c(
        litmus, unroll=unroll, keep_executions=keep_executions, stages=stages
    )
    return check(enumeration, model, name=litmus.name, budget=budget)


def simulate_asm(
    litmus,
    model: Optional[Union[str, Model]] = None,
    budget: Optional[Budget] = None,
    keep_executions: bool = False,
    stages: Optional[Sequence[PruneStage]] = None,
) -> SimulationResult:
    """Simulate an assembly litmus test under its architecture model."""
    from ..asm.semantics import elaborate_asm  # local import to avoid cycles
    from ..cat.registry import arch_model

    programs = elaborate_asm(litmus)
    chosen = model if model is not None else arch_model(litmus.arch)
    return run_programs(
        litmus.name,
        dict(litmus.init),
        programs,
        chosen,
        budget=budget,
        keep_executions=keep_executions,
        stages=stages,
    )
