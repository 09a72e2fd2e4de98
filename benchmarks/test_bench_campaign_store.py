"""Persistent-store and process-pool speedups for the Table IV campaign.

Three comparisons against the serial cold run of one Table IV slice:

* **warm store** — a resumed re-run against a fully populated
  :class:`CampaignStore` must re-simulate *zero* cells, so its cost is
  pure replay (the paper's nightly-regression deployment, §IV-F);
* **thread pool** — GIL-bound, so the speedup on this pure-Python
  workload is bounded;
* **process pool** — the ``ProcessPoolExecutor`` backend sidesteps the
  GIL; this is the row that lets campaigns scale with cores.

The speedups are printed from single timings, which are noise on a
small machine; ``perfbench/`` measures the engine with repeated runs.
"""

import os
import time

from benchmarks._report import banner, row

from repro.api import CampaignPlan, Session
from repro.pipeline import CampaignStore
from repro.tools.diy import DiyConfig

CONFIG = DiyConfig(
    shapes=("LB", "SB", "MP", "WRC"),
    orders=("rlx", "sc"),
    fences=(None,),
    deps=("po", "data", "ctrl2"),
    variants=("load-store",),
)
ARCHES = ("aarch64", "armv7")
OPTS = ("-O1", "-O2")
COMPILERS = ("llvm", "gcc")


def _run(store=None, **fields):
    """The Table IV slice in a fresh session over ``store``."""
    with Session(store=store) as session:
        return session.run(CampaignPlan(
            config=CONFIG, arches=ARCHES, opts=OPTS, compilers=COMPILERS,
            **fields,
        ))


def _campaign(**kwargs):
    start = time.perf_counter()
    report = _run(**kwargs)
    return report, time.perf_counter() - start


def test_bench_campaign_store(benchmark, tmp_path):
    store_path = tmp_path / "campaign.jsonl"

    banner("Persistent, shardable, process-parallel campaigns (Table IV slice)")
    cold, cold_seconds = _campaign(store=store_path)
    cells = sum(c.total for c in cold.cells.values())

    threaded, thread_seconds = _campaign(workers=4)
    processed, process_seconds = _campaign(processes=4)

    store = CampaignStore(store_path)
    warm, warm_seconds = _campaign(store=store, resume=True)

    # correctness before speed: every backend reproduces the serial table
    for report in (threaded, processed, warm):
        assert report.positives == cold.positives
        for key, cell in cold.cells.items():
            other = report.cells[key]
            assert (cell.positive, cell.negative, cell.equal) == (
                other.positive, other.negative, other.equal
            ), key

    # the acceptance bar: a warm store re-simulates nothing
    assert warm.store_hits == cells
    assert warm.source_simulations == 0

    # the pools can only beat serial when the machine has cores to give
    # them; print the cpu count so the speedups stay interpretable
    cpus = os.cpu_count() or 1
    row("cold serial", "the baseline", f"{cells} cells in {cold_seconds:.2f}s")
    row("thread pool x4", "GIL-bound", f"{thread_seconds:.2f}s "
        f"({cold_seconds/thread_seconds:.1f}x on {cpus} cpus)")
    row("process pool x4", "scales with cores", f"{process_seconds:.2f}s "
        f"({cold_seconds/process_seconds:.1f}x on {cpus} cpus)")
    row("warm store", "0 cells re-simulated", f"{warm_seconds:.2f}s "
        f"({cold_seconds/warm_seconds:.0f}x)")

    # timed rep: the warm replay is the campaign engine's hot path now
    benchmark(_run, store=store, resume=True)
