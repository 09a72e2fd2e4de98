"""The per-stage artifact cache.

PR 1's caches were *per cell*: one entry per (test, profile, model)
combination, so re-checking a test under a second target model or a
second compiler profile recomputed every intermediate product.  The
artifact cache is *per stage*: compiled objects, lifted litmus tests and
outcome sets are cached under their content addresses independently, so

* a campaign re-run under a new target model reuses every ``compile``
  and ``lift`` artifact (only the target simulation and compare re-run);
* the two branches of a differential cell share one ``prepare`` artifact
  and one source-side ``OutcomeSet``;
* cells whose compilations lift to the same asm litmus test share one
  target simulation, keyed by :meth:`AsmLitmus.digest` (every field the
  simulation reads); their compiles and lifts still cache separately;
* a source simulation under a second source model (the Claim 4 sweep)
  only checks: the model-free half of every source simulation — path
  combinations, candidates and outcomes — is kept in the
  :data:`ENUMERATE_SOURCE` partition, keyed by the prepared test, unroll,
  budget and execution keeping, and read only when ``simulate-source``
  misses.

Exactly-once semantics, error caching and thread safety come from
:class:`repro.core.cache.KeyedCache`; this module adds the per-stage
partitioning and the hit/miss accounting the cache-reuse benchmarks and
acceptance tests are stated in.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Optional

from ..core.cache import KeyedCache

#: the partition holding each source test's model-free enumeration
#: (:class:`~repro.herd.enumerate.Enumeration`).  It is part of the
#: ``simulate-source`` stage's work, not a stage's output, so
#: :meth:`ArtifactCache.stats` leaves it out; read its counters with
#: :meth:`ArtifactCache.hits` / :meth:`ArtifactCache.misses`.
ENUMERATE_SOURCE = "enumerate-source"


class ArtifactCache:
    """One :class:`KeyedCache` per stage name, created on demand.

    ``max_entries`` (per stage) bounds memory: artifacts hold compiled
    objects, disassembly listings and outcome sets, so an unbounded
    cache grows linearly with the cells a long-lived consumer evaluates.
    When a stage's cache exceeds the bound it is dropped wholesale (the
    next consumer recomputes — correctness is unaffected, only reuse).
    Hits are never sacrificed: the bound is checked on the miss path
    only, so a key already cached replays even at capacity.  Sessions
    bound their cache at 4096 entries per stage by default
    (``Session(artifact_cache_entries=...)``); the campaign engine's
    worker processes use a tighter bound.
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        self.max_entries = max_entries
        self._stages: Dict[str, KeyedCache] = {}
        self._lock = threading.Lock()

    def stage(self, name: str) -> KeyedCache:
        with self._lock:
            if name not in self._stages:
                self._stages[name] = KeyedCache()
            return self._stages[name]

    def get(self, stage: str, key: str, producer: Callable):
        cache = self.stage(stage)
        if (
            self.max_entries is not None
            and len(cache) >= self.max_entries
            and key not in cache  # never turn a hit into a recompute
        ):
            cache.clear()
        return cache.get(key, producer)

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #
    def hits(self, stage: str) -> int:
        return self.stage(stage).hits

    def misses(self, stage: str) -> int:
        """Actual stage executions — the "work done" counter the
        acceptance criteria are stated in (a 2-profile differential
        campaign compiles each (test, profile) exactly once ⇔
        ``misses("compile") == tests × profiles``; its
        ``misses("simulate-target")`` counts distinct lifted tests)."""
        return self.stage(stage).misses

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-stage counters, for ``Session.toolchain()`` introspection
        and the cache-reuse benchmark.  Stages no lookup has reached are
        left out (reading a stage's counters does not make it used), and
        so is :data:`ENUMERATE_SOURCE`, which is not a stage."""
        with self._lock:
            snapshot = dict(self._stages)
        snapshot.pop(ENUMERATE_SOURCE, None)
        return {
            name: {
                "hits": cache.hits,
                "misses": cache.misses,
                "entries": len(cache),
            }
            for name, cache in sorted(snapshot.items())
            if cache.hits or cache.misses
        }
