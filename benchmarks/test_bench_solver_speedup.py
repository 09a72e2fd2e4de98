"""Staged solver engine vs brute-force enumeration on the Fig. 11 family.

Quantifies what the staged solver's pruning stages buy on the paper's
§IV-E state-explosion tests: the raw -O0 compilation (GOT loads + spill
traffic), the s2l-optimised test, and the three-thread source test.  For
each configuration both engines run — :func:`exhaustive_stages` (the
seed's brute-force behaviour) and the default staged pipeline — and the
prune counters, candidate counts and single-shot wall-clock are printed
(``perfbench/`` owns repeated, trustworthy timings).

Soundness is asserted throughout: pruning must never change an outcome
set, only the work done to reach it.
"""

import time

from benchmarks._report import banner, row

from repro.compiler import make_profile
from repro.herd import Budget, exhaustive_stages, simulate_asm, simulate_c
from repro.papertests import fig11_lb3
from repro.tools import assembly_to_litmus, compile_and_disassemble, prepare


def _run(simulate, litmus, **kwargs):
    budget = Budget(max_candidates=10_000_000)
    start = time.perf_counter()
    exhaustive = simulate(litmus, budget=budget, stages=exhaustive_stages(), **kwargs)
    exhaustive_seconds = time.perf_counter() - start
    start = time.perf_counter()
    staged = simulate(litmus, budget=Budget(max_candidates=10_000_000), **kwargs)
    staged_seconds = time.perf_counter() - start
    return exhaustive, exhaustive_seconds, staged, staged_seconds


def test_bench_solver_speedup(benchmark):
    profile = make_profile("llvm", "-O0", "aarch64")
    prepared = prepare(fig11_lb3())
    c2s = compile_and_disassemble(prepared, profile)
    raw = assembly_to_litmus(c2s.obj, prepared.condition,
                             listing=c2s.listing, optimise=False)
    optimised = assembly_to_litmus(c2s.obj, prepared.condition,
                                   listing=c2s.listing, optimise=True)

    configs = [
        ("fig11-raw-O0", simulate_asm, raw, {}),
        ("fig11-optimised", simulate_asm, optimised, {}),
        ("fig11-source", simulate_c, fig11_lb3(), {}),
    ]

    results = {}
    banner("Staged solver engine: pruning vs brute force (Fig. 11 family)")
    for name, simulate, litmus, kwargs in configs:
        exhaustive, ex_s, staged, st_s = _run(simulate, litmus, **kwargs)
        # identical outcome sets: pruning only removes candidates every
        # model rejects
        assert staged.outcomes == exhaustive.outcomes, name
        assert staged.flags == exhaustive.flags, name
        assert staged.stats.candidates <= exhaustive.stats.candidates, name
        results[name] = (exhaustive, staged)
        row(name, "fewer candidates, same outcomes",
            f"candidates {exhaustive.stats.candidates} -> "
            f"{staged.stats.candidates}, pruned {staged.stats.total_pruned}, "
            f"{ex_s*1000:.0f} -> {st_s*1000:.0f} ms")

    # the raw test is where the explosion lives: the staged engine must
    # strictly shrink its candidate space and record the prunes it made
    exhaustive, staged = results["fig11-raw-O0"]
    assert exhaustive.stats.candidates - staged.stats.candidates > 0
    assert staged.stats.total_pruned > 0

    # timed rep of the staged engine on the raw test
    benchmark(simulate_asm, raw)


class _PairRelation:
    """The seed's pair-level relation semantics, kept as the baseline.

    Mirrors what ``Relation`` computed before the bitmask kernels: a
    frozenset of pairs plus a successor index, pairwise composition, and
    one-step relaxation to a transitive-closure fixpoint.  Only used to
    measure what the kernels buy.
    """

    def __init__(self, pairs):
        self.pairs = frozenset(pairs)
        succ = {}
        for a, b in self.pairs:
            succ.setdefault(a, set()).add(b)
        self._succ = succ

    def union(self, other):
        return _PairRelation(self.pairs | other.pairs)

    def compose(self, other):
        out = set()
        for a, b in self.pairs:
            for c in other._succ.get(b, ()):
                out.add((a, c))
        return _PairRelation(out)

    def transitive_closure(self):
        result = self
        while True:
            bigger = result.union(result.compose(self))
            if bigger.pairs == result.pairs:
                return result
            result = bigger


def _random_pairs(rng, n_events, n_pairs):
    pairs = set()
    while len(pairs) < n_pairs:
        pairs.add((rng.randrange(n_events), rng.randrange(n_events)))
    return sorted(pairs)


def test_bench_relation_kernels():
    """Microbench: bitmask kernels vs pair-level reference semantics.

    Transitive closure plus a ``let rec``-style fixpoint on random
    ~256-event relations — the shapes that dominate per-candidate model
    evaluation.  The kernel path must be at least 3x faster; both paths
    must agree exactly.
    """
    import random

    from repro.core.relations import Relation

    rng = random.Random(20240807)
    n_events = 256
    cases = [_random_pairs(rng, n_events, 2048) for _ in range(3)]

    banner("Relation kernels: bitmask rows vs pair-level baseline")

    # -- transitive closure ------------------------------------------- #
    start = time.perf_counter()
    ref_closures = [_PairRelation(pairs).transitive_closure() for pairs in cases]
    ref_closure_s = time.perf_counter() - start

    kernel_reps = 10
    start = time.perf_counter()
    for _ in range(kernel_reps):
        kernel_closures = [Relation(pairs).transitive_closure() for pairs in cases]
    kernel_closure_s = (time.perf_counter() - start) / kernel_reps

    for ref, kernel in zip(ref_closures, kernel_closures):
        assert kernel.pairs == ref.pairs

    # -- let-rec style fixpoint: hb = base | (hb ; base) --------------- #
    def ref_fixpoint(pairs):
        base = _PairRelation(pairs)
        current = _PairRelation(())
        while True:
            nxt = base.union(current.compose(base))
            if nxt.pairs == current.pairs:
                return current
            current = nxt

    def kernel_fixpoint(pairs):
        base = Relation(pairs)
        current = Relation.empty()
        while True:
            nxt = base.union(current.compose(base))
            if nxt == current:
                return current
            current = nxt

    start = time.perf_counter()
    ref_fix = [ref_fixpoint(pairs) for pairs in cases]
    ref_fix_s = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(kernel_reps):
        kernel_fix = [kernel_fixpoint(pairs) for pairs in cases]
    kernel_fix_s = (time.perf_counter() - start) / kernel_reps

    for ref, kernel in zip(ref_fix, kernel_fix):
        assert kernel.pairs == ref.pairs

    closure_speedup = ref_closure_s / kernel_closure_s
    fixpoint_speedup = ref_fix_s / kernel_fix_s
    row("transitive_closure (256 events)", ">=3x",
        f"{closure_speedup:.1f}x ({ref_closure_s*1000:.0f} -> "
        f"{kernel_closure_s*1000:.1f} ms)")
    row("let-rec fixpoint (256 events)", ">=3x",
        f"{fixpoint_speedup:.1f}x ({ref_fix_s*1000:.0f} -> "
        f"{kernel_fix_s*1000:.1f} ms)")
    assert closure_speedup >= 3.0
    assert fixpoint_speedup >= 3.0
