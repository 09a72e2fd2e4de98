"""Litmus-test skeletons and final-state conditions.

A litmus test (paper §II-A) has a fixed initial state, a small concurrent
program, and a predicate over the final state.  This module provides the
language-independent parts: the condition AST (``exists (P1:r0=0 /\\ y=2)``)
and a base class carrying name, initial state and condition.  The C and
assembly front-ends subclass it with their own thread representations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Tuple

from .execution import Outcome


# --------------------------------------------------------------------------- #
# condition AST
# --------------------------------------------------------------------------- #
class Prop:
    """A proposition over final-state observables."""

    def evaluate(self, outcome: Mapping[str, int]) -> bool:
        raise NotImplementedError

    def observables(self) -> FrozenSet[str]:
        raise NotImplementedError


@dataclass(frozen=True)
class LocEq(Prop):
    """``loc = value`` — the final value of a shared location."""

    loc: str
    value: int

    def evaluate(self, outcome: Mapping[str, int]) -> bool:
        return outcome.get(self.loc, 0) == self.value

    def observables(self) -> FrozenSet[str]:
        return frozenset({self.loc})

    def __str__(self) -> str:
        return f"{self.loc}={self.value}"


@dataclass(frozen=True)
class RegEq(Prop):
    """``Pn:r = value`` — the final value of a thread-local observable."""

    thread: str
    reg: str
    value: int

    @property
    def name(self) -> str:
        return f"{self.thread}:{self.reg}"

    def evaluate(self, outcome: Mapping[str, int]) -> bool:
        return outcome.get(self.name, 0) == self.value

    def observables(self) -> FrozenSet[str]:
        return frozenset({self.name})

    def __str__(self) -> str:
        return f"{self.thread}:{self.reg}={self.value}"


@dataclass(frozen=True)
class And(Prop):
    left: Prop
    right: Prop

    def evaluate(self, outcome: Mapping[str, int]) -> bool:
        return self.left.evaluate(outcome) and self.right.evaluate(outcome)

    def observables(self) -> FrozenSet[str]:
        return self.left.observables() | self.right.observables()

    def __str__(self) -> str:
        return f"({self.left} /\\ {self.right})"


@dataclass(frozen=True)
class Or(Prop):
    left: Prop
    right: Prop

    def evaluate(self, outcome: Mapping[str, int]) -> bool:
        return self.left.evaluate(outcome) or self.right.evaluate(outcome)

    def observables(self) -> FrozenSet[str]:
        return self.left.observables() | self.right.observables()

    def __str__(self) -> str:
        return f"({self.left} \\/ {self.right})"


@dataclass(frozen=True)
class Not(Prop):
    inner: Prop

    def evaluate(self, outcome: Mapping[str, int]) -> bool:
        return not self.inner.evaluate(outcome)

    def observables(self) -> FrozenSet[str]:
        return self.inner.observables()

    def __str__(self) -> str:
        return f"~({self.inner})"


@dataclass(frozen=True)
class TrueProp(Prop):
    def evaluate(self, outcome: Mapping[str, int]) -> bool:
        return True

    def observables(self) -> FrozenSet[str]:
        return frozenset()

    def __str__(self) -> str:
        return "true"


def conj(props: Sequence[Prop]) -> Prop:
    """Fold a sequence of propositions into a conjunction."""
    if not props:
        return TrueProp()
    acc = props[0]
    for p in props[1:]:
        acc = And(acc, p)
    return acc


@dataclass(frozen=True)
class Condition:
    """A quantified final-state condition.

    ``exists P`` is satisfied if *some* outcome satisfies P (the litmus
    convention: interesting/forbidden behaviours are phrased as exists
    clauses).  ``forall P`` requires every outcome to satisfy P.
    """

    quantifier: str  # "exists" | "forall"
    prop: Prop

    def __post_init__(self) -> None:
        if self.quantifier not in ("exists", "forall"):
            raise ValueError(f"bad quantifier {self.quantifier!r}")

    def holds_over(self, outcomes: Iterable[Outcome]) -> bool:
        dicts = [o.as_dict() for o in outcomes]
        if self.quantifier == "exists":
            return any(self.prop.evaluate(d) for d in dicts)
        return all(self.prop.evaluate(d) for d in dicts)

    def witnesses(self, outcomes: Iterable[Outcome]) -> List[Outcome]:
        """The outcomes satisfying the proposition."""
        return [o for o in outcomes if self.prop.evaluate(o.as_dict())]

    def observables(self) -> FrozenSet[str]:
        return self.prop.observables()

    def __str__(self) -> str:
        return f"{self.quantifier} {self.prop}"


# --------------------------------------------------------------------------- #
# litmus base
# --------------------------------------------------------------------------- #
@dataclass
class LitmusBase:
    """Common litmus-test fields, independent of the thread language."""

    name: str
    init: Dict[str, int]
    condition: Condition

    def shared_locations(self) -> Tuple[str, ...]:
        return tuple(sorted(self.init))
