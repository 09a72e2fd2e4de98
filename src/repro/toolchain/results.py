"""Result records of the two tool-chain compositions.

:class:`TelechatResult` is one test_tv run: source vs compiled.
:class:`DifferentialResult` is its §IV-D sibling: two compilations of
the same source compared against each other, with the C source
optionally simulated as an undefined-behaviour oracle.

Both carry ``artifacts`` — the ``{stage: key}`` map into the toolchain's
content-addressed cache — and both serialise to the JSON-able verdict
records the campaign store persists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence

from ..asm.litmus import AsmLitmus, total_instructions
from ..compiler.profiles import CompilerProfile
from ..core.execution import Outcome
from ..herd.simulator import SimulationResult
from ..tools.mcompare import ComparisonResult
from ..tools.s2l import S2LStats


# --------------------------------------------------------------------------- #
# record (de)serialisation — the persistent campaign store's currency
# --------------------------------------------------------------------------- #
def outcomes_to_jsonable(outcomes: Iterable[Outcome]) -> List[List[List[object]]]:
    """Serialise an outcome set to a canonical (sorted) JSON-able form."""
    return sorted([[k, v] for k, v in o.bindings] for o in outcomes)


def outcomes_from_jsonable(data: Iterable[Iterable[Sequence[object]]]) -> FrozenSet[Outcome]:
    """Rebuild an outcome set serialised by :func:`outcomes_to_jsonable`."""
    return frozenset(
        Outcome(tuple((str(k), int(v)) for k, v in bindings)) for bindings in data
    )


def comparison_from_record(record: Dict[str, object]) -> ComparisonResult:
    """Rebuild a :class:`ComparisonResult` from a stored verdict record.

    Works for both record shapes: test_tv records store the two sides as
    ``source_outcomes``/``target_outcomes``, differential records as
    ``outcomes_a``/``outcomes_b``.
    """
    if record.get("mode") == "differential":
        left = record["outcomes_a"]
        right = record["outcomes_b"]
        source_model = str(record["profile_a"])
        target_model = str(record["profile_b"])
    else:
        left = record["source_outcomes"]
        right = record["target_outcomes"]
        source_model = str(record["source_model"])
        target_model = str(record["target_model"])
    return ComparisonResult(
        test_name=str(record["test"]),
        source_model=source_model,
        target_model=target_model,
        source_outcomes=outcomes_from_jsonable(left),
        target_outcomes=outcomes_from_jsonable(right),
        positive=outcomes_from_jsonable(record["positive"]),
        negative=outcomes_from_jsonable(record["negative"]),
        source_has_ub=bool(record["source_has_ub"]),
    )


@dataclass
class TelechatResult:
    """Everything one test_tv run produced."""

    test_name: str
    profile: CompilerProfile
    comparison: ComparisonResult
    source_result: SimulationResult
    target_result: SimulationResult
    compiled: AsmLitmus
    s2l_stats: S2LStats
    #: wall-clock of the source simulation.  Always the *real* cost of
    #: producing the outcome set — when the simulation was replayed from
    #: the cache (``source_reused``), this is the original run's
    #: duration, not zero, so campaign timing totals stay honest.
    source_seconds: float
    target_seconds: float
    compile_seconds: float
    #: True when the source simulation was replayed from the toolchain's
    #: ``simulate-source`` cache rather than run inside this call
    source_reused: bool = False
    #: ``{stage: artifact key}`` into the toolchain cache (empty when the
    #: run bypassed the staged toolchain)
    artifacts: Dict[str, str] = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        return self.comparison.verdict()

    @property
    def found_bug(self) -> bool:
        """A positive difference not excused by source undefined behaviour
        (paper def. II.3)."""
        return self.comparison.is_positive

    @property
    def compiled_loc(self) -> int:
        return total_instructions(self.compiled)

    def to_record(self) -> Dict[str, object]:
        """Serialise the verdict and both outcome sets to a JSON-able dict.

        This is the persistent form the campaign store appends: enough to
        replay the cell's Table IV contribution and the mcompare
        drill-down without re-simulating, and to rebuild the comparison
        via :func:`comparison_from_record`.  The heavyweight pieces (the
        compiled litmus, raw executions) intentionally stay out — the
        ``artifacts`` keys point back into the per-stage cache instead.
        """
        record = {
            "test": self.test_name,
            "profile": self.profile.name,
            "verdict": self.verdict,
            "source_model": self.comparison.source_model,
            "target_model": self.comparison.target_model,
            "source_outcomes": outcomes_to_jsonable(self.comparison.source_outcomes),
            "target_outcomes": outcomes_to_jsonable(self.comparison.target_outcomes),
            "positive": outcomes_to_jsonable(self.comparison.positive),
            "negative": outcomes_to_jsonable(self.comparison.negative),
            "source_has_ub": self.comparison.source_has_ub,
            "flags": sorted(self.source_result.flags | self.target_result.flags),
            "compiled_loc": self.compiled_loc,
            "source_reused": self.source_reused,
            "seconds": {
                "source": self.source_seconds,
                "target": self.target_seconds,
                "compile": self.compile_seconds,
            },
        }
        if self.artifacts:
            record["artifacts"] = dict(self.artifacts)
        return record


@dataclass
class DifferentialResult:
    """One differential cell (paper §IV-D): ``comp_a(S)`` vs ``comp_b(S)``.

    The comparison reads branch *a* as the reference side: ``positive``
    outcomes are behaviours profile *b* exhibits that profile *a* does
    not — a compatibility risk, since code from both compilers is
    routinely linked together.  When the C source was simulated as a UB
    oracle (``source_result``), racy sources excuse the difference
    exactly as in test_tv (verdict ``ub-masked``).
    """

    test_name: str
    profile_a: CompilerProfile
    profile_b: CompilerProfile
    comparison: ComparisonResult
    result_a: SimulationResult
    result_b: SimulationResult
    compiled_a: AsmLitmus
    compiled_b: AsmLitmus
    stats_a: S2LStats
    stats_b: S2LStats
    #: the C-source simulation used as the undefined-behaviour oracle
    #: (None when the oracle was skipped)
    source_result: Optional[SimulationResult] = None
    #: the source model the oracle ran under ("" when skipped)
    source_model: str = ""
    source_seconds: float = 0.0
    source_reused: bool = False
    compile_seconds: float = 0.0
    simulate_seconds: float = 0.0
    artifacts: Dict[str, str] = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        return self.comparison.verdict()

    @property
    def profile_pair(self) -> str:
        """The joined profile name differential records/stores key by."""
        return f"{self.profile_a.name}|{self.profile_b.name}"

    @property
    def compiled_loc(self) -> int:
        return total_instructions(self.compiled_a) + total_instructions(
            self.compiled_b
        )

    def to_record(self) -> Dict[str, object]:
        """The differential verdict record (same store/pool currency as
        :meth:`TelechatResult.to_record`, discriminated by ``mode``)."""
        record = {
            "mode": "differential",
            "test": self.test_name,
            "profile": self.profile_pair,
            "profile_a": self.profile_a.name,
            "profile_b": self.profile_b.name,
            "verdict": self.verdict,
            "outcomes_a": outcomes_to_jsonable(self.comparison.source_outcomes),
            "outcomes_b": outcomes_to_jsonable(self.comparison.target_outcomes),
            "positive": outcomes_to_jsonable(self.comparison.positive),
            "negative": outcomes_to_jsonable(self.comparison.negative),
            "source_has_ub": self.comparison.source_has_ub,
            "flags": sorted(self.result_a.flags | self.result_b.flags),
            "compiled_loc": self.compiled_loc,
            "source_reused": self.source_reused,
            "seconds": {
                "source": self.source_seconds,
                "target": self.simulate_seconds,
                "compile": self.compile_seconds,
            },
        }
        if self.artifacts:
            record["artifacts"] = dict(self.artifacts)
        return record
