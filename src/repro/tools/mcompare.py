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
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple, Union

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


#: ``json.dumps(value, sort_keys=True)`` — the bytes ``write_baseline``
#: blesses — without building a new encoder on every call.
_ENCODE = json.JSONEncoder(sort_keys=True).encode


def _canon(value: object) -> str:
    """An order-insensitive canonical form for outcome-set fields."""
    if isinstance(value, list):
        return _ENCODE(sorted(_ENCODE(item) for item in value))
    return _ENCODE(value)


def _differs(old: object, new: object) -> bool:
    """Whether a field drifted, lists compared as sets.  Equal plain
    encodings are equal canonical forms, so they skip the sort."""
    return _ENCODE(old) != _ENCODE(new) and _canon(old) != _canon(new)


def _row_key(record: Dict[str, object]) -> Tuple[str, str]:
    """A baseline row's key: content digest plus compiler profile."""
    return str(record.get("digest", "")), str(record.get("profile", ""))


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
        if _differs(baseline.get(field), current.get(field))
    ]
    if changed_outcomes:
        return "outcome-change", f"outcome sets differ: {changed_outcomes}"
    changed_fields = sorted(
        field
        for field in set(baseline) | set(current)
        if field not in _OUTCOME_FIELDS
        and _differs(baseline.get(field), current.get(field))
    )
    if changed_fields:
        return "field-change", f"fields differ: {changed_fields}"
    return None


class BaselineIndex:
    """A blessed baseline held as canonical row bytes.

    ``rows`` maps each ``(digest, profile)`` key to
    ``_ENCODE(baseline_view(row))``, the bytes ``write_baseline`` blesses;
    no decoded row is kept.  :meth:`drift` memoises the classification
    of a current row that differs from its blessed one, under the key and
    the current row's bytes: drift is a function of the two byte strings
    alone, so a repeated re-check (the same tests under the same other
    model) reuses it exactly.  Apart from that memo the index is
    read-only; a changed baseline file needs a new index.
    """

    def __init__(self, records: Iterable[Dict[str, object]]) -> None:
        self.rows: Dict[Tuple[str, str], str] = {
            _row_key(record): _ENCODE(baseline_view(record))
            for record in records
        }
        self._drift: Dict[
            Tuple[Tuple[str, str], str], Optional[Tuple[str, str]]
        ] = {}

    def drift(
        self, key: Tuple[str, str], current: str
    ) -> Optional[Tuple[str, str]]:
        """The (kind, detail) of the row bytes ``current`` against the
        blessed row at ``key``, or ``None``.  Equal bytes are equal rows
        (``1``, ``1.0`` and ``true`` encode apart); unequal ones are
        decoded on both sides and classified, once per distinct pair."""
        if current == self.rows[key]:
            return None
        memo = (key, current)
        if memo not in self._drift:
            self._drift[memo] = _classify(
                json.loads(self.rows[key]), json.loads(current)
            )
        return self._drift[memo]


def diff_baselines(
    baseline_records: Union[BaselineIndex, Iterable[Dict[str, object]]],
    current_records: Iterable[Dict[str, object]],
    label: str = "baseline",
) -> BaselineDiff:
    """Diff verdict records against a blessed baseline, mcompare-style.

    Records are keyed by ``(digest, profile)`` — content identity plus
    the compiler profile — deliberately *not* the full store cell key,
    so a farm re-run under an overridden model (``--cmem``) still lines
    up against the blessed cells and reports verdict flips instead of a
    wall of missing/unexpected.  :data:`VOLATILE_FIELDS` are ignored.

    ``baseline_records`` is a :class:`BaselineIndex` (a farm session
    keeps one per blessed file) or plain records, indexed here for this
    call.  Each current row is encoded once and compared with its
    blessed bytes (:meth:`BaselineIndex.drift`): equal bytes have not
    drifted, and only the rest are classified, field by field, once per
    distinct pair of rows.
    """
    blessed = (
        baseline_records
        if isinstance(baseline_records, BaselineIndex)
        else BaselineIndex(baseline_records)
    )
    current = {_row_key(record): record for record in current_records}
    deltas: List[BaselineDelta] = []
    for key in sorted(blessed.rows.keys() | current.keys()):
        digest, profile = key
        record = current.get(key)
        if record is None:
            row = json.loads(blessed.rows[key])
            deltas.append(BaselineDelta(
                "missing", digest, profile, str(row.get("test", digest[:12])),
                "blessed cell absent from this run",
            ))
            continue
        test = str(record.get("test", digest[:12]))
        if key not in blessed.rows:
            deltas.append(BaselineDelta(
                "unexpected", digest, profile, test,
                f"cell not in baseline (verdict {record.get('verdict')!r})",
            ))
            continue
        drift = blessed.drift(key, _ENCODE(baseline_view(record)))
        if drift is not None:
            kind, detail = drift
            deltas.append(BaselineDelta(kind, digest, profile, test, detail))
    return BaselineDiff(
        label=label,
        baseline_count=len(blessed.rows),
        current_count=len(current),
        deltas=tuple(deltas),
    )
