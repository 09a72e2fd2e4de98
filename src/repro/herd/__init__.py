"""The herd-style axiomatic simulator."""

from .dot import execution_to_dot, simulation_to_dot
from .enumerate import (
    BasicRfStage,
    Budget,
    Candidate,
    CoherenceStage,
    Enumeration,
    EnumerationStats,
    ExecutionEnumerator,
    PathCombo,
    PathConstraintStage,
    PruneStage,
    default_stages,
    enumerate_candidates,
    exhaustive_stages,
)
from .simulator import (
    SimulationResult,
    check,
    run_programs,
    simulate_asm,
    simulate_c,
)
from .templates import EventTemplate, PathConstraint, ThreadPath, ThreadProgram

__all__ = [
    "execution_to_dot",
    "simulation_to_dot",
    "BasicRfStage",
    "Budget",
    "Candidate",
    "CoherenceStage",
    "Enumeration",
    "EnumerationStats",
    "ExecutionEnumerator",
    "PathCombo",
    "PathConstraintStage",
    "PruneStage",
    "default_stages",
    "enumerate_candidates",
    "exhaustive_stages",
    "SimulationResult",
    "check",
    "run_programs",
    "simulate_asm",
    "simulate_c",
    "EventTemplate",
    "PathConstraint",
    "ThreadPath",
    "ThreadProgram",
]
