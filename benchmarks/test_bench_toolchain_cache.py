"""Per-stage artifact-cache reuse across a 2-profile × 2-model campaign.

PR 1's caches were per *cell*: re-checking a suite under a second source
model recompiled every test.  The staged toolchain caches per *stage*
under content addresses, so a model sweep (the paper's Claim 4 re-run:
``rc11`` → ``rc11+lb``) reuses every compile and lift artifact — only
the oracle simulations and compares re-run.  This benchmark measures
exactly that: a 2-profile differential campaign over a diy suite, run
cold under one model and warm under a second, printing the per-stage
hit/miss counters and single-shot wall-clock (``perfbench/``'s
``model-sweep`` workload measures the same reuse with repeated runs).

Soundness is asserted throughout: the warm run must compile nothing new
(misses unchanged ⇔ each (test, profile) compiled exactly once for the
whole sweep), and each test's source side simulates once per model.
"""

import time

from benchmarks._report import banner, row

from repro.api import CampaignPlan, Session
from repro.core.events import MemoryOrder
from repro.tools.diy import DiyConfig

CONFIG = DiyConfig(
    shapes=("LB", "SB", "MP", "S", "R"),
    orders=("rlx", "sc"),
    fences=(None, MemoryOrder.SC),
    deps=("po", "ctrl2"),
    variants=("load-store",),
)
PROFILES = ("llvm-O1-AArch64", "llvm-O3-AArch64")
MODELS = ("rc11", "rc11+lb")


def test_bench_toolchain_cache(benchmark):
    banner("Per-stage artifact cache: 2-profile × 2-model differential sweep")

    session = Session()
    plan = CampaignPlan(config=CONFIG, mode="differential",
                        profiles=PROFILES)
    tests = len(plan.resolve_tests())

    start = time.perf_counter()
    cold = session.campaign(plan).report()
    cold_seconds = time.perf_counter() - start
    cold_stats = session.toolchain().cache.stats()

    start = time.perf_counter()
    warm = session.campaign(plan.with_model(MODELS[1])).report()
    warm_seconds = time.perf_counter() - start
    warm_stats = session.toolchain().cache.stats()

    # correctness before speed: the acceptance identities
    assert cold.compiled_tests == warm.compiled_tests == tests
    assert cold_stats["compile"]["misses"] == tests * len(PROFILES)
    assert cold_stats["lift"]["misses"] == tests * len(PROFILES)
    # the warm (second-model) run compiled and lifted *nothing*
    assert warm_stats["compile"]["misses"] == cold_stats["compile"]["misses"]
    assert warm_stats["lift"]["misses"] == cold_stats["lift"]["misses"]
    # one source simulation per (test, model)
    assert cold.source_simulations == tests
    assert warm.source_simulations == tests

    compile_hits = (
        warm_stats["compile"]["hits"] + warm_stats["lift"]["hits"]
    )
    speedup = cold_seconds / warm_seconds if warm_seconds > 0 else float("inf")
    row(f"cold sweep ({tests} tests × {len(PROFILES)} profiles)",
        "compiles every branch", f"{cold_seconds:.2f}s")
    row("warm sweep (second source model)",
        "reuses every compile+lift", f"{warm_seconds:.2f}s")
    row("compile+lift cache hits on the warm run",
        f"{tests * len(PROFILES) * 2} possible", f"{compile_hits}")
    row("model-sweep speedup from artifact reuse", "> 1x",
        f"{speedup:.2f}x")

    benchmark(lambda: Session().campaign(CampaignPlan(
        config=DiyConfig(shapes=("LB",), orders=("rlx",), fences=(None,),
                         deps=("po",), variants=("load-store",)),
        mode="differential", profiles=PROFILES,
    )).report())
