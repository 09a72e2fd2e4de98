"""Streaming test sources — lazy, shardable suppliers of C litmus tests.

``CampaignPlan(tests=...)`` historically required an eager, fully
materialised list.  A :class:`TestSource` is the streaming alternative:
an object that *yields* tests on demand, knows how to shard itself
deterministically, and can say (cheaply, when it can) how many tests it
holds.  Plans accept one in place of a test tuple, so arbitrarily large
generated suites cost nothing until a campaign actually runs them.

Shipped sources:

* :class:`DiySource` — lazy diy generation from a
  :class:`~repro.tools.diy.DiyConfig` (nothing is built until iterated);
* :class:`ListSource` — wrap an in-memory sequence;
* :class:`PaperSource` — the paper's figure tests by name;
* :class:`SuiteSource` / :func:`write_suite` — a JSONL corpus of printed
  litmus tests (the parse/print round-trip preserves content digests);
* :class:`StoreReplaySource` — replay the tests a stored campaign
  actually saw, filtered by verdict (e.g. re-run only the positives);
* :class:`MutationSource` — order/fence-weakening mutants of any seed
  source (:mod:`repro.tools.mutate`), deduplicated by content digest.

Invariants every source upholds (campaign sharding, store replay and
hunt dedup all rely on them):

* **determinism** — iterating a source twice yields the same tests in
  the same order, and the ``n`` shards of a source partition exactly
  the tests of the unsharded iteration (``shard(k, n)`` = every n-th
  test starting at the k-th), so shard reports merge back to the
  single-run report byte-for-byte;
* **digest preservation** — a test's :meth:`~repro.lang.ast.CLitmus.digest`
  is a pure function of its content, and the dump/load round-trip
  through :func:`write_suite`/:class:`SuiteSource` preserves it (the
  canonical printer guarantees this), so verdicts stored against a
  suite replay across processes, sessions and files;
* **laziness** — nothing is generated, parsed or mutated until the
  iterator advances, and only as far as the consumer pulls.
"""

from __future__ import annotations

import itertools
import json
import os
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple, Union

from ..core.errors import ReproError
from ..core.registry import Registry
from ..lang.ast import CLitmus
from .diy import DiyConfig, iter_generate
from .mutate import DEFAULT_OPERATORS, iter_mutants


class SuiteFormatError(ReproError, ValueError):
    """A malformed line in a JSONL suite or baseline file.

    Carries the offending file and 1-based line number — a corpus
    problem must name where to look, never surface as a bare
    ``json.JSONDecodeError`` with no file context.  Subclasses
    :class:`ValueError` so callers that caught the raw decode error's
    base class keep catching this.
    """

    def __init__(self, path: str, line: int, message: str) -> None:
        self.path = path
        self.line = line
        self.message = message
        super().__init__(f"{path}:{line}: {message}")


def iter_jsonl(
    path: Union[str, "os.PathLike[str]"]
) -> Iterator[Tuple[int, Dict[str, object]]]:
    """Stream ``(line number, record)`` pairs from a JSONL file.

    The shared reader behind :class:`SuiteSource` and the farm's
    baseline files.  A torn *final* line (a crashed writer's partial
    append) is silently skipped, while a malformed line anywhere else —
    invalid JSON or a non-object — raises :class:`SuiteFormatError`
    naming the file and line.  (The
    :class:`~repro.pipeline.store.CampaignStore` reads its file with its
    own loop and a looser contract: it skips, and counts in ``skipped``,
    a bad line *anywhere*, interior lines included.)
    """
    fspath = os.fspath(path)
    #: a decode failure held back until we know whether it was the file's
    #: last line (torn write, tolerated) or an interior line (corrupt)
    pending: Optional[Tuple[int, str]] = None
    with open(fspath, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            if pending is not None:
                raise SuiteFormatError(fspath, pending[0], pending[1])
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                pending = (lineno, f"invalid JSON ({exc.msg})")
                continue
            if not isinstance(record, dict):
                raise SuiteFormatError(
                    fspath, lineno,
                    f"expected a JSON object, got {type(record).__name__}",
                )
            yield lineno, record
    # a pending failure on the final line is a torn trailing write —
    # ignored (CampaignStore._load skips it too, but it also skips a bad
    # interior line that this reader raises on)


class TestSource:
    """Base class of streaming test suppliers.

    Subclasses implement :meth:`iter_tests`; everything else (plain
    iteration, sharding, counting) has shared defaults.  ``shapes`` is
    the shape registry diy-style sources resolve names against — the
    campaign engine passes the session overlay, so sources can name
    session-private shapes.
    """

    def iter_tests(self, shapes: Optional[Registry] = None) -> Iterator[CLitmus]:
        raise NotImplementedError

    def __iter__(self) -> Iterator[CLitmus]:
        return self.iter_tests()

    def count(self) -> Optional[int]:
        """How many tests this source yields, when knowable without
        generating them (``None`` otherwise)."""
        return None

    def shard(self, k: int, n: int) -> "TestSource":
        """The k-th of n deterministic partitions of this source."""
        if n < 1 or not 0 <= k < n:
            raise ValueError(f"bad shard ({k}, {n}): need 0 <= k < n")
        return _ShardSource(self, k, n)

    def describe(self) -> Dict[str, object]:
        return {"source": type(self).__name__, "count": self.count()}


class _ShardSource(TestSource):
    """Every n-th test of a base source, starting at the k-th."""

    def __init__(self, base: TestSource, k: int, n: int) -> None:
        self.base = base
        self.k = k
        self.n = n

    def iter_tests(self, shapes: Optional[Registry] = None) -> Iterator[CLitmus]:
        return itertools.islice(
            self.base.iter_tests(shapes=shapes), self.k, None, self.n
        )

    def count(self) -> Optional[int]:
        total = self.base.count()
        if total is None:
            return None
        return len(range(self.k, total, self.n))

    def describe(self) -> Dict[str, object]:
        meta = self.base.describe()
        meta["shard"] = [self.k, self.n]
        meta["count"] = self.count()
        return meta


class ListSource(TestSource):
    """An eager in-memory suite behind the streaming protocol."""

    def __init__(self, tests: Sequence[CLitmus]) -> None:
        self.tests = tuple(tests)

    def iter_tests(self, shapes: Optional[Registry] = None) -> Iterator[CLitmus]:
        return iter(self.tests)

    def count(self) -> int:
        return len(self.tests)


class DiySource(TestSource):
    """Lazy diy generation: tests are built as the iterator advances.

    A ``DiySource(DiyConfig(limit=10_000))`` costs nothing to construct
    and nothing to put in a plan; generation happens (and only as far as
    needed) when a consumer iterates.
    """

    def __init__(
        self, config: Optional[DiyConfig] = None,
        shapes: Optional[Registry] = None,
    ) -> None:
        self.config = config if config is not None else DiyConfig()
        self.shapes = shapes

    def iter_tests(self, shapes: Optional[Registry] = None) -> Iterator[CLitmus]:
        # an explicitly bound registry wins; otherwise the consumer's
        # (i.e. the session overlay the engine passes) applies
        registry = self.shapes if self.shapes is not None else shapes
        return iter_generate(self.config, shapes=registry)

    def describe(self) -> Dict[str, object]:
        return {
            "source": "DiySource",
            "count": None,
            "shapes": list(self.config.shapes),
            "limit": self.config.limit,
        }


class PaperSource(TestSource):
    """The paper's figure tests (:mod:`repro.papertests`), by name."""

    DEFAULT = ("fig1_exchange", "fig7_lb", "fig9_lb_plain", "fig10_mp_rmw",
               "fig11_lb3")

    def __init__(self, names: Sequence[str] = DEFAULT) -> None:
        self.names = tuple(names)

    def iter_tests(self, shapes: Optional[Registry] = None) -> Iterator[CLitmus]:
        from .. import papertests

        for name in self.names:
            factory = getattr(papertests, name, None)
            if factory is None:
                raise ValueError(
                    f"unknown paper test {name!r}; see repro.papertests"
                )
            yield factory()

    def count(self) -> int:
        return len(self.names)

    def describe(self) -> Dict[str, object]:
        return {"source": "PaperSource", "count": self.count(),
                "names": list(self.names)}


# --------------------------------------------------------------------------- #
# JSONL corpora
# --------------------------------------------------------------------------- #
def write_suite(
    tests: Iterable[CLitmus], path: Union[str, "os.PathLike[str]"]
) -> int:
    """Persist a test suite as a JSONL corpus (one test per line).

    Each line records the printed litmus source plus the content digest;
    :class:`SuiteSource` parses lines back lazily, and the canonical
    printer guarantees the round-trip preserves digests — so verdicts
    stored against these tests replay across the dump/load boundary.
    Returns the number of tests written.
    """
    from ..lang.printer import print_c_litmus

    count = 0
    with open(os.fspath(path), "w", encoding="utf-8") as handle:
        for test in tests:
            line = json.dumps(
                {"name": test.name, "digest": test.digest(),
                 "source": print_c_litmus(test)},
                sort_keys=True,
            )
            handle.write(line + "\n")
            count += 1
    return count


class SuiteSource(TestSource):
    """A JSONL corpus written by :func:`write_suite` (or by hand: any
    JSONL of ``{"source": <C litmus text>}`` objects), parsed lazily —
    one test per line, only as the iterator advances.

    Robustness contract (that of :func:`iter_jsonl`): a torn final line
    is skipped, any other malformed line raises :class:`SuiteFormatError`
    with the file and line number.  Each distinct test text is parsed
    once per process (see :func:`~repro.lang.parser.parse_c_litmus`), so
    a suite read again yields the same, read-only, instances.
    """

    def __init__(self, path: Union[str, "os.PathLike[str]"]) -> None:
        self.path = os.fspath(path)

    def iter_tests(self, shapes: Optional[Registry] = None) -> Iterator[CLitmus]:
        from ..lang.parser import parse_c_litmus

        for lineno, record in iter_jsonl(self.path):
            source = record.get("source")
            if not isinstance(source, str):
                raise SuiteFormatError(
                    self.path, lineno,
                    "suite record has no 'source' litmus text",
                )
            yield parse_c_litmus(source, name=str(record.get("name", "test")))

    def describe(self) -> Dict[str, object]:
        return {"source": "SuiteSource", "count": None, "path": self.path}


class StoreReplaySource(TestSource):
    """Replay the tests a stored campaign actually saw.

    Store records carry content digests, not test bodies, so replay
    cross-references a *corpus* (any other :class:`TestSource` — usually
    the diy config or suite file the campaign ran) against the store:
    only corpus tests whose digest appears in the store (optionally
    restricted to given ``verdicts``) are yielded.  The canonical use is
    re-running just the positives of a finished campaign under a new
    model or compiler epoch::

        replay = StoreReplaySource(store, DiySource(cfg),
                                   verdicts=("positive",))
    """

    def __init__(
        self,
        store,
        corpus: TestSource,
        verdicts: Optional[Sequence[str]] = None,
    ) -> None:
        self.store = store
        self.corpus = corpus
        self.verdicts = None if verdicts is None else tuple(verdicts)

    def _wanted_digests(self) -> frozenset:
        wanted = set()
        for record in self.store.records():
            if self.verdicts is not None:
                if record.get("verdict") not in self.verdicts:
                    continue
            wanted.add(str(record.get("digest", "")))
        return frozenset(wanted)

    def iter_tests(self, shapes: Optional[Registry] = None) -> Iterator[CLitmus]:
        wanted = self._wanted_digests()
        seen: set = set()
        for test in self.corpus.iter_tests(shapes=shapes):
            digest = test.digest()
            if digest in wanted and digest not in seen:
                seen.add(digest)
                yield test

    def describe(self) -> Dict[str, object]:
        return {
            "source": "StoreReplaySource",
            "count": None,
            "store": getattr(self.store, "path", None),
            "verdicts": None if self.verdicts is None else list(self.verdicts),
            "corpus": self.corpus.describe(),
        }


class MutationSource(TestSource):
    """Order/fence-weakening mutants of a seed source, lazily.

    Wraps any :class:`TestSource` (or an in-memory sequence) and yields
    every seed's single-site mutants under the named mutation operators
    (:mod:`repro.tools.mutate`), deduplicated by content digest across
    the whole stream — a mutant reachable from two seeds is yielded
    once.  ``include_seeds=True`` interleaves each seed before its
    mutants (the hunt campaign's round-0 + round-1 suite as one flat
    source); ``limit_per_seed`` caps the mutants taken per seed.

    Like every source, iteration is deterministic, so ``shard(k, n)``
    partitions the mutant stream exactly.
    """

    def __init__(
        self,
        seeds: Union[TestSource, Sequence[CLitmus]],
        operators: Optional[Sequence[str]] = None,
        include_seeds: bool = False,
        limit_per_seed: Optional[int] = None,
        registry: Optional[Registry] = None,
    ) -> None:
        self.seeds = seeds if isinstance(seeds, TestSource) else ListSource(seeds)
        self.operators = (
            tuple(operators) if operators is not None else DEFAULT_OPERATORS
        )
        self.include_seeds = include_seeds
        self.limit_per_seed = limit_per_seed
        self.registry = registry

    def iter_tests(self, shapes: Optional[Registry] = None) -> Iterator[CLitmus]:
        seen: set = set()
        for seed in self.seeds.iter_tests(shapes=shapes):
            if self.include_seeds:
                digest = seed.digest()
                if digest not in seen:
                    seen.add(digest)
                    yield seed
            taken = 0
            for mutation in iter_mutants(
                seed, operators=self.operators, registry=self.registry
            ):
                if self.limit_per_seed is not None and taken >= self.limit_per_seed:
                    break
                digest = mutation.digest
                if digest in seen:
                    continue
                seen.add(digest)
                taken += 1
                yield mutation.litmus

    def describe(self) -> Dict[str, object]:
        return {
            "source": "MutationSource",
            "count": None,
            "operators": list(self.operators),
            "include_seeds": self.include_seeds,
            "limit_per_seed": self.limit_per_seed,
            "seeds": self.seeds.describe(),
        }


def as_source(
    tests: Union[TestSource, Sequence[CLitmus], None],
    config: Optional[DiyConfig] = None,
) -> TestSource:
    """Coerce the plan's ``tests``/``config`` pair to one source."""
    if isinstance(tests, TestSource):
        return tests
    if tests is not None:
        return ListSource(tests)
    return DiySource(config if config is not None else DiyConfig())


__all__ = [
    "DiySource",
    "ListSource",
    "MutationSource",
    "PaperSource",
    "StoreReplaySource",
    "SuiteFormatError",
    "SuiteSource",
    "TestSource",
    "as_source",
    "iter_jsonl",
    "write_suite",
]
