"""``mcompare`` — outcome comparison with state mappings (Fig. 5, step 5).

Checks the paper's test relation::

    outcomes(herd(comp(S), M_C))  ⊆  outcomes(herd(S, M_S))     (test_tv)

after mapping compiled observables back to source names.  Differences are
classified exactly as in §IV-D:

* **positive** (+ve): compiled outcomes not allowed by the source —
  potential bugs;
* **negative** (-ve): source outcomes the compiled program has lost —
  expected, since optimisations and architecture models both constrain
  behaviour.

Undefined behaviour (data races) in the source makes every compiled
outcome acceptable — the paper ignores such false positives.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..core.execution import Outcome
from ..herd.simulator import SimulationResult


@dataclass(frozen=True)
class StateMapping:
    """Renames compiled observables to source observables.

    ``renames`` maps compiled outcome keys to source keys (identity when
    absent).  ``observables`` fixes the comparison domain: keys the
    *source* condition and shared state can see.  Compiled-side keys
    outside the domain (GOT slots, stack locations, scratch registers)
    are projected away.
    """

    observables: FrozenSet[str]
    renames: Tuple[Tuple[str, str], ...] = ()

    def apply(self, outcome: Outcome) -> Outcome:
        renamed = outcome.rename(dict(self.renames))
        data = renamed.as_dict()
        # missing observables read as zero (herd zero-initialises — the
        # paper's Fig. 9 deleted-local effect)
        complete = {name: data.get(name, 0) for name in self.observables}
        return Outcome.of(complete)


@dataclass
class ComparisonResult:
    """The verdict of one source-vs-compiled comparison."""

    test_name: str
    source_model: str
    target_model: str
    source_outcomes: FrozenSet[Outcome]
    target_outcomes: FrozenSet[Outcome]
    positive: FrozenSet[Outcome]
    negative: FrozenSet[Outcome]
    source_has_ub: bool = False

    @property
    def is_positive(self) -> bool:
        """A potential compiler bug: compiled ⊄ source (and no UB excuse)."""
        return bool(self.positive) and not self.source_has_ub

    @property
    def is_negative(self) -> bool:
        return not self.positive and bool(self.negative)

    @property
    def is_equal(self) -> bool:
        return not self.positive and not self.negative

    def verdict(self) -> str:
        if self.source_has_ub and self.positive:
            return "ub-masked"
        if self.is_positive:
            return "positive"
        if self.is_negative:
            return "negative"
        return "equal"

    def pretty(self) -> str:
        """The mcompare two-column log format of the artefact's Claim 1."""
        lines = [f"{self.test_name}: {self.verdict()}"]
        source = sorted(self.source_outcomes, key=lambda o: o.bindings)
        lines.append("  source outcomes:")
        lines.extend(f"    {o}" for o in source)
        lines.append("  compiled outcomes:")
        for outcome in sorted(self.target_outcomes, key=lambda o: o.bindings):
            marker = " <- NEW (positive difference)" if outcome in self.positive else ""
            lines.append(f"    {outcome}{marker}")
        return "\n".join(lines)


def default_mapping(
    shared_locations: Iterable[str], condition_observables: Iterable[str] = ()
) -> StateMapping:
    """The comparison domain: the litmus final state.

    That is the shared locations plus whatever thread-local observables
    the final-state condition names (``Pn:r``) — the same domain the
    litmus format records.  Compiler- and simulator-internal state
    (scratch registers, GOT slots, stack locations, unobserved locals)
    stays out of the comparison, as in the paper's def. II.2.
    """
    names: Set[str] = set(shared_locations) | set(condition_observables)
    return StateMapping(observables=frozenset(names))


def mcompare(
    source: SimulationResult,
    target: SimulationResult,
    mapping: Optional[StateMapping] = None,
    shared_locations: Iterable[str] = (),
    condition_observables: Iterable[str] = (),
) -> ComparisonResult:
    """Compare compiled outcomes against source outcomes (test_tv)."""
    if mapping is None:
        mapping = default_mapping(shared_locations, condition_observables)
    source_set = frozenset(mapping.apply(o) for o in source.outcomes)
    target_set = frozenset(mapping.apply(o) for o in target.outcomes)
    return ComparisonResult(
        test_name=source.test_name,
        source_model=source.model_name,
        target_model=target.model_name,
        source_outcomes=source_set,
        target_outcomes=target_set,
        positive=target_set - source_set,
        negative=source_set - target_set,
        source_has_ub=source.has_undefined_behaviour,
    )


# --------------------------------------------------------------------- #
# Baseline diffing (repro.farm): verdict records vs a blessed baseline.
# --------------------------------------------------------------------- #

#: record fields that legitimately vary run-to-run (wall-clock, cache
#: luck, artifact keys) — stripped before any baseline comparison.
#: ``source_simulated`` is no longer written, but process-backend records
#: in stores from earlier versions still carry it.
VOLATILE_FIELDS = ("seconds", "artifacts", "source_reused", "source_simulated")

#: the outcome-set fields of tv and differential verdict records.
_OUTCOME_FIELDS = (
    "source_outcomes", "target_outcomes", "outcomes_a", "outcomes_b",
    "positive", "negative",
)

#: drift classes, in reporting order — new positives lead because they
#: are the farm's whole point (a verdict flip in the long tail).
DELTA_KINDS = (
    "new-positive", "lost-positive", "verdict-change", "outcome-change",
    "status-change", "field-change", "missing", "unexpected",
)


def baseline_view(record: Dict[str, object]) -> Dict[str, object]:
    """The stable projection of a verdict record (volatile fields gone)."""
    return {k: v for k, v in record.items() if k not in VOLATILE_FIELDS}


def _canon(value: object) -> str:
    """An order-insensitive canonical form for outcome-set fields."""
    if isinstance(value, list):
        return json.dumps(
            sorted(json.dumps(item, sort_keys=True) for item in value)
        )
    return json.dumps(value, sort_keys=True)


@dataclass(frozen=True)
class BaselineDelta:
    """One divergence between a verdict record and its blessed baseline."""

    kind: str
    digest: str
    profile: str
    test: str
    detail: str

    def pretty(self) -> str:
        return (
            f"  [{self.kind}] {self.test} @ {self.profile}: {self.detail}"
            f" (digest {self.digest[:12]})"
        )


@dataclass
class BaselineDiff:
    """All drift between a run's verdict records and a blessed baseline."""

    label: str
    baseline_count: int
    current_count: int
    deltas: Tuple[BaselineDelta, ...]

    @property
    def has_drift(self) -> bool:
        return bool(self.deltas)

    def count(self, kind: str) -> int:
        return sum(1 for delta in self.deltas if delta.kind == kind)

    def pretty(self) -> str:
        """An mcompare-style drift report (new/lost positives up front)."""
        lines = [
            f"{self.label}: {self.current_count} records vs "
            f"{self.baseline_count} blessed"
        ]
        if not self.deltas:
            lines.append("  no drift")
            return "\n".join(lines)
        summary = ", ".join(
            f"{self.count(kind)} {kind}"
            for kind in DELTA_KINDS
            if self.count(kind)
        )
        lines.append(f"  DRIFT: {summary}")
        for kind in DELTA_KINDS:
            lines.extend(
                delta.pretty() for delta in self.deltas if delta.kind == kind
            )
        return "\n".join(lines)


def _classify(
    baseline: Dict[str, object], current: Dict[str, object]
) -> Optional[Tuple[str, str]]:
    """The (kind, detail) of one shared cell's drift, or ``None``."""
    if baseline.get("status") != current.get("status"):
        return (
            "status-change",
            f"status {baseline.get('status')!r} -> {current.get('status')!r}",
        )
    old_verdict = baseline.get("verdict")
    new_verdict = current.get("verdict")
    if old_verdict != new_verdict:
        if new_verdict == "positive":
            kind = "new-positive"
        elif old_verdict == "positive":
            kind = "lost-positive"
        else:
            kind = "verdict-change"
        return kind, f"verdict {old_verdict!r} -> {new_verdict!r}"
    changed_outcomes = [
        field
        for field in _OUTCOME_FIELDS
        if _canon(baseline.get(field)) != _canon(current.get(field))
    ]
    if changed_outcomes:
        return "outcome-change", f"outcome sets differ: {changed_outcomes}"
    changed_fields = sorted(
        field
        for field in set(baseline) | set(current)
        if field not in _OUTCOME_FIELDS
        and _canon(baseline.get(field)) != _canon(current.get(field))
    )
    if changed_fields:
        return "field-change", f"fields differ: {changed_fields}"
    return None


def diff_baselines(
    baseline_records: Iterable[Dict[str, object]],
    current_records: Iterable[Dict[str, object]],
    label: str = "baseline",
) -> BaselineDiff:
    """Diff verdict records against a blessed baseline, mcompare-style.

    Records are keyed by ``(digest, profile)`` — content identity plus
    the compiler profile — deliberately *not* the full store cell key,
    so a farm re-run under an overridden model (``--cmem``) still lines
    up against the blessed cells and reports verdict flips instead of a
    wall of missing/unexpected.  :data:`VOLATILE_FIELDS` are ignored.
    """

    def index(
        records: Iterable[Dict[str, object]],
    ) -> Dict[Tuple[str, str], Dict[str, object]]:
        return {
            (str(r.get("digest", "")), str(r.get("profile", ""))):
                baseline_view(r)
            for r in records
        }

    blessed = index(baseline_records)
    current = index(current_records)
    deltas: List[BaselineDelta] = []

    def describe(key: Tuple[str, str], record: Dict[str, object]) -> str:
        return str(record.get("test", key[0][:12]))

    for key in sorted(set(blessed) | set(current)):
        digest, profile = key
        if key not in current:
            record = blessed[key]
            deltas.append(BaselineDelta(
                "missing", digest, profile, describe(key, record),
                "blessed cell absent from this run",
            ))
            continue
        if key not in blessed:
            record = current[key]
            deltas.append(BaselineDelta(
                "unexpected", digest, profile, describe(key, record),
                f"cell not in baseline (verdict {record.get('verdict')!r})",
            ))
            continue
        drift = _classify(blessed[key], current[key])
        if drift is not None:
            kind, detail = drift
            deltas.append(BaselineDelta(
                kind, digest, profile, describe(key, current[key]), detail,
            ))
    return BaselineDiff(
        label=label,
        baseline_count=len(blessed),
        current_count=len(current),
        deltas=tuple(deltas),
    )
