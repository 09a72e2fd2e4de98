"""The frozen, validated campaign plan.

:class:`CampaignPlan` holds everything one campaign run needs in one
immutable value that is validated *once*, up front — bad shards,
impossible opt levels or worker combinations fail before any simulation
starts, with did-you-mean quality errors instead of a half-finished
campaign.

Plans are plain data: hashable-free (tests are unhashable lists) but
frozen, shareable between sessions, and splittable into deterministic
shards (:meth:`CampaignPlan.split`) whose streams merge back into the
single-run Table IV.

Two axes arrived with the toolchain redesign:

* ``tests`` accepts a streaming :class:`~repro.tools.sources.TestSource`
  in place of an eager list — a 10k-test diy source costs nothing until
  the engine resolves it;
* ``mode="differential"`` runs compiler-vs-compiler cells (paper §IV-D)
  over ``profiles`` — e.g. ``CampaignPlan(mode="differential",
  profiles=("llvm-O1-AArch64", "llvm-O3-AArch64"))`` — through the same
  engine, events, store and CLI as translation-validation campaigns.

``mode="hunt"`` (the §V mutation-testing loop) treats ``tests`` as the
*seeds* of a feedback-driven hunt: rounds of order/fence-weakening
mutants (``mutations=``, ``mutation_rounds=``, ``mutation_limit=``) are
scheduled positives-first and deduplicated by content digest, and with
``reduce=True`` every positive is delta-debugged to a 1-minimal
reproducer — see :mod:`repro.hunt`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple, Union

from ..core.errors import ReproError
from ..lang.ast import CLitmus
from ..tools.diy import DiyConfig
from ..tools.sources import TestSource, as_source
from .events import json_fields

#: Table IV's row order — the default campaign sweep.
DEFAULT_ARCHES = ("aarch64", "armv7", "riscv64", "ppc64", "x86_64", "mips64")

#: the campaign modes the engine understands.
MODES = ("tv", "differential", "hunt")


class PlanError(ReproError, ValueError):
    """A campaign plan failed validation.

    Subclasses :class:`ValueError`, so plain ``except ValueError``
    callers catch it too.
    """


@dataclass(frozen=True)
class CampaignPlan:
    """Everything one campaign run needs, validated at construction."""

    #: pre-generated tests (or a streaming :class:`TestSource`); when
    #: ``None``, ``config`` drives generation
    tests: Union[Tuple[CLitmus, ...], TestSource, None] = None
    #: diy generation config (defaults to ``DiyConfig()`` when both are None)
    config: Optional[DiyConfig] = None
    arches: Tuple[str, ...] = DEFAULT_ARCHES
    opts: Tuple[str, ...] = ("-O1", "-O2", "-O3")
    compilers: Tuple[str, ...] = ("llvm", "gcc")
    source_model: str = "rc11"
    budget_candidates: int = 400_000
    augment: bool = True
    #: worker threads (in-process caches shared)
    workers: int = 1
    #: worker processes (> 0 overrides ``workers``)
    processes: int = 0
    #: run only the k-th of n deterministic cell partitions
    shard: Optional[Tuple[int, int]] = None
    #: replay verdicts already in the session's store
    resume: bool = False
    #: "tv" (source vs compiled, the default) or "differential"
    #: (compiler vs compiler over ``profiles``, paper §IV-D)
    mode: str = "tv"
    #: differential mode only: the profile names/specs under comparison —
    #: every unordered pair becomes one cell per test.  In differential
    #: mode ``source_model`` is the undefined-behaviour oracle.
    profiles: Optional[Tuple[str, ...]] = None
    #: hunt mode only: the mutation-operator names to hunt with (resolved
    #: against the session's mutation registry; ``None`` = the default
    #: order-weakening set of :data:`repro.tools.mutate.DEFAULT_OPERATORS`)
    mutations: Optional[Tuple[str, ...]] = None
    #: hunt mode: mutation rounds beyond the seed round (round 0)
    mutation_rounds: int = 2
    #: hunt mode: cap on new mutants scheduled per round
    mutation_limit: int = 64
    #: hunt mode: delta-debug every positive down to a 1-minimal
    #: reproducer (ignored outside hunt mode)
    reduce: bool = True
    #: run :mod:`repro.analysis.litmuslint` over every materialised test
    #: before dispatch; error-severity findings abort with a
    #: :class:`PlanError` carrying the diagnostics (fail fast, before a
    #: single cell is scheduled)
    lint: bool = True

    def __post_init__(self) -> None:
        # coerce the sequence fields so list-passing callers still freeze
        # (a streaming TestSource passes through *unmaterialised*)
        for name in ("tests", "arches", "opts", "compilers", "profiles",
                     "mutations"):
            value = getattr(self, name)
            if (
                value is not None
                and not isinstance(value, (tuple, TestSource))
            ):
                object.__setattr__(self, name, tuple(value))
        if self.shard is not None and not isinstance(self.shard, tuple):
            object.__setattr__(self, "shard", tuple(self.shard))

        if self.workers < 1:
            raise PlanError(f"workers must be >= 1, got {self.workers}")
        if self.processes < 0:
            raise PlanError(f"processes must be >= 0, got {self.processes}")
        if self.budget_candidates < 1:
            raise PlanError(
                f"budget_candidates must be >= 1, got {self.budget_candidates}"
            )
        if self.mode not in MODES:
            raise PlanError(
                f"unknown campaign mode {self.mode!r}; expected one of {MODES}"
            )
        if self.mode == "differential":
            if self.profiles is None or len(self.profiles) < 2:
                raise PlanError(
                    "differential mode needs profiles=(a, b, ...) — at "
                    "least two compiler profiles to compare"
                )
            if len(set(self.profiles)) != len(self.profiles):
                raise PlanError(
                    f"differential profiles contain duplicates: "
                    f"{self.profiles}"
                )
        elif self.profiles is not None:
            raise PlanError(
                'profiles= is only meaningful with mode="differential"'
            )
        if self.mode == "hunt":
            if self.mutation_rounds < 0:
                raise PlanError(
                    f"mutation_rounds must be >= 0, got {self.mutation_rounds}"
                )
            if self.mutation_limit < 1:
                raise PlanError(
                    f"mutation_limit must be >= 1, got {self.mutation_limit}"
                )
            if self.shard is not None:
                # hunt work lists grow from per-round feedback; shards of
                # a dynamic list would each see different feedback and
                # diverge — shard the *seeds* (TestSource.shard) instead
                raise PlanError(
                    "hunt campaigns schedule work dynamically and cannot "
                    "be cell-sharded; shard the seed source instead"
                )
        elif self.mutations is not None:
            raise PlanError('mutations= is only meaningful with mode="hunt"')
        # NOTE: arch/compiler/opt *membership* is deliberately not
        # validated here — at campaign scale an unbuildable profile is an
        # error *cell*, never a campaign abort (and a session may carry
        # profiles the global tables don't know).  Only structural
        # mistakes that would silently run the wrong campaign fail fast.
        if not self.arches:
            raise PlanError("a plan needs at least one architecture")
        if not self.compilers:
            raise PlanError("a plan needs at least one compiler")
        if not self.opts:
            raise PlanError("a plan needs at least one optimisation level")
        if self.shard is not None:
            shard_k, shard_n = self.shard
            if shard_n < 1 or not (0 <= shard_k < shard_n):
                raise PlanError(f"bad shard {self.shard!r}: need 0 <= k < n")

    # ------------------------------------------------------------------ #
    def resolve_tests(self, shapes=None) -> Tuple[CLitmus, ...]:
        """The concrete test list (generating from ``config`` or draining
        a streaming source if needed).

        ``shapes`` is the shape registry config names resolve against —
        the engine passes the session's overlay, so plans can name
        session-private shapes.  This is the single point where a
        :class:`TestSource` materialises: plans hold sources lazily, the
        engine resolves them once per run."""
        if isinstance(self.tests, tuple):
            return self.tests  # already materialised — no copy
        return tuple(
            as_source(self.tests, self.config).iter_tests(shapes=shapes)
        )

    def split(self, n: int) -> Tuple["CampaignPlan", ...]:
        """The n deterministic shard plans of this (unsharded) plan."""
        if self.shard is not None:
            raise PlanError(f"plan is already the {self.shard!r} shard")
        if n < 1:
            raise PlanError(f"cannot split into {n} shards")
        return tuple(replace(self, shard=(k, n)) for k in range(n))

    def with_model(self, source_model: str) -> "CampaignPlan":
        """The same sweep under a different source model (Claim 4 re-runs)."""
        return replace(self, source_model=source_model)

    def describe(self) -> Dict[str, object]:
        """A JSON-able summary (no test bodies — those can be huge)."""
        if isinstance(self.tests, TestSource):
            tests: object = self.tests.describe()
        elif self.tests is None:
            tests = None
        else:
            tests = len(self.tests)
        return {
            "tests": tests,
            "config": None if self.config is None else self.config.__class__.__name__,
            **json_fields(self, {"tests": None, "config": None}),
        }


@dataclass(frozen=True)
class FarmPlan:
    """Everything one regression-farm pass needs (see :mod:`repro.api.farm`).

    A farm plan names a *corpus root* (the directory holding
    ``MANIFEST.json``, suites and blessed baselines) plus optional
    filters; the manifest — not the plan — decides what tests run under
    which profiles and models, so the same plan replays any corpus.
    """

    #: the corpus root directory (must contain ``MANIFEST.json``)
    root: str = ""
    #: restrict the pass to these suite names (``None`` = every suite)
    suites: Optional[Tuple[str, ...]] = None
    #: restrict to these profile names (``None`` = every blessed profile)
    profiles: Optional[Tuple[str, ...]] = None
    #: override the blessed source model — the deliberate-perturbation
    #: lever (a farm run under a different model *should* drift)
    source_model: Optional[str] = None
    #: worker threads / processes, exactly as in :class:`CampaignPlan`
    workers: int = 1
    processes: int = 0
    #: re-bless: write the observed records as the new baselines instead
    #: of failing on drift
    bless: bool = False

    def __post_init__(self) -> None:
        for name in ("suites", "profiles"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))
        if not self.root:
            raise PlanError("a farm plan needs a corpus root directory")
        if self.workers < 1:
            raise PlanError(f"workers must be >= 1, got {self.workers}")
        if self.processes < 0:
            raise PlanError(f"processes must be >= 0, got {self.processes}")
        if self.bless and self.source_model is not None:
            # blessing under an override would store verdicts the
            # manifest attributes to a different model — edit the
            # manifest's model instead, then bless
            raise PlanError(
                "cannot bless under a source_model override; change the "
                "model in MANIFEST.json and bless that"
            )
        for name in ("suites", "profiles"):
            value = getattr(self, name)
            if value is not None and not value:
                raise PlanError(
                    f"empty {name}= filter would run nothing; pass None "
                    f"to run every blessed {name.rstrip('s')}"
                )

    def describe(self) -> Dict[str, object]:
        return json_fields(self)
