"""One iteration of a perfbench workload, in a fresh interpreter.

``run.py`` starts this script once per iteration and reads the single
JSON line it prints.  An iteration is: set up (import, ``Session()``,
load and verify the corpus manifest), run the workload cold, re-run it
warm in the same session (at least twice, for ``--warm-seconds`` of
CPU), then check every verdict.  With ``--trace`` the layer wrappers of
:mod:`tracing` are installed first.

    PYTHONPATH=src:perfbench python3 perfbench/workload.py \\
        --workload farm --corpus DIR --t0 <time.monotonic() at spawn>
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time
from collections import Counter
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))

#: Reference verdicts, written by ``bless.py``.
EXPECTED = os.path.join(HERE, "expected")

#: The source models of the Claim 4 sweep, smallest first: each allows
#: at least the outcomes of the one before it.
SWEEP_MODELS = ("sc", "rc11", "rc11+lb")

#: The §IV-D differential profiles; the pairs run -O1|-O2, -O1|-O3, -O2|-O3.
DIFF_PROFILES = ("llvm-O1-AArch64", "llvm-O2-AArch64", "llvm-O3-AArch64")

#: Blessed records of the differential workload, diffed in its pass the
#: way the farm diffs tv cells against the corpus baselines.
DIFF_BASELINE = "differential--rc11.jsonl"

#: The record fields that baseline keeps: the verdict and the outcomes
#: that decide it, without the two full outcome sets.
DIFF_FIELDS = ("digest", "profile", "test", "status", "verdict", "positive",
               "negative", "source_has_ub", "flags", "compiled_loc")

WORKLOADS = ("farm", "model-sweep", "differential", "farm-procs")

#: Pool worker processes per workload (0: serial); the box has 2 cores.
PROCESSES = {"farm-procs": 2}

#: CPU seconds of warm re-passes per iteration (at least two passes).
#: A warm pass is short, and whether a full garbage collection lands in
#: it decides a third of its time, so the rate is taken over several.
WARM_SECONDS = 2.0


def cpu_clock() -> float:
    """CPU seconds of this process and its reaped children (pool workers)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Pass:
    """What one pass of a workload produced, as the client saw it.

    Time is kept on two clocks: wall, and the CPU time of the process
    tree.  A serial run's CPU time is its wall time on an idle machine;
    on a shared one it leaves out the time the process waited for a CPU,
    which is why the gated metrics use it."""

    def __init__(self) -> None:
        self.records: List[Tuple[str, Dict[str, object]]] = []  # (model, record)
        self.gaps: List[float] = []  # CPU seconds between consecutive verdicts
        self.drift: Dict[str, int] = {}  # source model -> baseline deltas
        self.wall = self.cpu = 0.0

    def start(self) -> None:
        self._wall0 = time.perf_counter()
        self._cpu0 = self._last = cpu_clock()

    def cell(self, model: str, record: Dict[str, object], first: bool) -> None:
        """One verdict.  The gap before a suite's first verdict also holds
        the suite read and the previous suite's baseline diff, which the
        farm.* layers time; it is not a cell's latency, so it is left out."""
        now = cpu_clock()
        if not first:
            self.gaps.append(now - self._last)
        self._last = now
        self.records.append((model, record))

    def finish(self) -> None:
        self.wall = time.perf_counter() - self._wall0
        self.cpu = cpu_clock() - self._cpu0


def farm_pass(session, corpus: str, processes: int, models, setup) -> Pass:
    """``Session.farm`` over the corpus, once per source model."""
    from repro.api import CellFinished, FarmPlan, FarmStarted, SuiteFinished

    result = Pass()
    if setup is None:
        result.start()
    for model in models:
        plan = FarmPlan(
            root=corpus, processes=processes,
            source_model=None if model == "rc11" else model,
        )
        first = True
        for event in session.farm(plan):
            if isinstance(event, FarmStarted) and setup is not None:
                setup()  # the manifest is loaded and every digest verified
                setup = None
                result.start()
            elif isinstance(event, CellFinished):
                result.cell(model, event.record, first)
                first = False
            elif isinstance(event, SuiteFinished):
                result.drift[model] = result.drift.get(model, 0) + event.drift
                first = True
    result.finish()
    return result


def differential_pass(session, corpus: str) -> Pass:
    """One §IV-D campaign over every corpus test, then a diff of its
    records against the blessed differential baseline."""
    from repro.api import CampaignPlan, CellFinished
    from repro.pipeline import farm as farm_mod
    from repro.tools.sources import SuiteSource

    # the module, not the function of the same name repro.tools exports
    mcompare = importlib.import_module("repro.tools.mcompare")
    result = Pass()
    result.start()
    manifest = farm_mod.FarmManifest.load(corpus)
    tests = tuple(
        test
        for name in sorted(manifest.suites)
        for test in SuiteSource(manifest.path(manifest.suites[name].file))
    )
    plan = CampaignPlan(mode="differential", profiles=DIFF_PROFILES,
                        tests=tests, source_model="rc11")
    for event in session.campaign(plan):
        if isinstance(event, CellFinished):
            result.cell("rc11", event.record, not result.records)
    diff = mcompare.diff_baselines(
        farm_mod.read_baseline(os.path.join(EXPECTED, DIFF_BASELINE)),
        [diff_view(record) for _, record in result.records],
    )
    result.drift["rc11"] = len(diff.deltas)
    result.finish()
    return result


def diff_view(record: Dict[str, object]) -> Dict[str, object]:
    """A differential record cut down to :data:`DIFF_FIELDS`."""
    return {field: record[field] for field in DIFF_FIELDS if field in record}


def run_workload(workload: str, session, corpus: str, setup) -> Pass:
    if workload == "differential":
        return differential_pass(session, corpus)
    models = SWEEP_MODELS if workload == "model-sweep" else ("rc11",)
    processes = PROCESSES.get(workload, 0)
    return farm_pass(session, corpus, processes, models, setup)


# --------------------------------------------------------------------- #
# verdict checks: the benchmark's own, sharing no code with the solver
# --------------------------------------------------------------------- #
def _outcomes(record: Dict[str, object], field: str) -> frozenset:
    return frozenset(json.dumps(o, sort_keys=True) for o in record[field])


def check_verdicts(workload: str, passes: List[Pass], expected: Dict) -> Dict:
    """Count cells whose verdict disagrees with the expected file or the
    metamorphic oracle, and cells whose status is not ``ok``."""
    mismatches = 0
    failed = 0
    tallies: Dict[str, Counter] = {}
    for index, one in enumerate(passes):
        # overridden models drift from the rc11 baselines by design; the
        # expected file judges their verdicts instead
        mismatches += one.drift.get("rc11", 0)
        by_cell: Dict[Tuple[str, str], Dict[str, Dict]] = {}
        for model, record in one.records:
            if record.get("status") != "ok":
                failed += 1
            key = (str(record["digest"]), str(record["profile"]))
            table = expected["differential" if workload == "differential" else model]
            if table.get(key[1], {}).get(key[0]) != record.get("verdict"):
                mismatches += 1
            by_cell.setdefault(key, {})[model] = record
            if index == 0:
                tallies.setdefault(model, Counter())[str(record["verdict"])] += 1
        if workload == "model-sweep":
            mismatches += metamorphic_violations(by_cell)
    return {
        "mismatches": mismatches,
        "failed": failed,
        "tallies": {m: dict(sorted(t.items())) for m, t in tallies.items()},
    }


def metamorphic_violations(by_cell: Dict[Tuple[str, str], Dict[str, Dict]]) -> int:
    """sc ⊆ rc11 ⊆ rc11+lb on source outcomes, so on every (test,
    profile) the positive outcomes (target minus source) can only shrink
    as the model grows; a cell missing a model is a violation too."""
    violations = 0
    for cell in by_cell.values():
        if set(cell) != set(SWEEP_MODELS):
            violations += 1
            continue
        sources = [_outcomes(cell[m], "source_outcomes") for m in SWEEP_MODELS]
        positives = [_outcomes(cell[m], "positive") for m in SWEEP_MODELS]
        if not (sources[0] <= sources[1] <= sources[2]
                and positives[0] >= positives[1] >= positives[2]):
            violations += 1
    return violations


def load_expected() -> Dict:
    """``{model or "differential": {profile: {digest: verdict}}}``."""
    with open(os.path.join(EXPECTED, "verdicts.json"), encoding="utf-8") as handle:
        expected = json.load(handle)
    table: Dict[str, Dict[str, str]] = {}
    with open(os.path.join(EXPECTED, DIFF_BASELINE), encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            table.setdefault(record["profile"], {})[record["digest"]] = record["verdict"]
    expected["differential"] = table
    return expected


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--corpus", required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent spawned us")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop when the first cell would be dispatched")
    parser.add_argument("--warm-seconds", type=float, default=WARM_SECONDS)
    parser.add_argument("--trace", metavar="DIR",
                        help="record spans; write the trace and spill files here")
    args = parser.parse_args(argv)

    marks: Dict[str, float] = {}

    def setup_done() -> None:
        marks["setup_s"] = cpu_clock()  # CPU since the interpreter started
        marks["setup_wall_s"] = time.monotonic() - args.t0

    from repro.api import Session

    recorder = None
    if args.trace:
        import tracing

        recorder = tracing.Recorder(spill_dir=args.trace)
        tracing.install(recorder)
    session = Session()
    if args.workload == "differential":
        from repro.pipeline.farm import FarmManifest

        manifest = FarmManifest.load(args.corpus)
        for name in manifest.suites:
            manifest.verify_suite(name)
        setup_done()
    if args.setup_only:
        if args.workload != "differential":
            from repro.api import FarmPlan

            stream = session.farm(FarmPlan(root=args.corpus))
            next(stream)  # FarmStarted: manifest loaded, digests verified
            setup_done()
            stream.close()
        print(json.dumps(marks))
        return 0
    cold = run_workload(args.workload, session, args.corpus, setup_done)
    warm = [run_workload(args.workload, session, args.corpus, None)]
    # the session's own counters after one warm pass, before the others
    counts = {
        "cells": len(cold.records),
        "warm_cells": len(warm[0].records),
        "result_cache.hits": session.result_cache.hits,
        "source_cache.misses": session.source_cache.misses,
    }
    for stage, stats in session.toolchain().cache.stats().items():
        counts[f"session.cache.{stage}.hits"] = stats["hits"]
        counts[f"session.cache.{stage}.misses"] = stats["misses"]
    # peak memory at a fixed point, as the warm passes that follow vary
    # in number: the workload process plus, for each pool worker, the
    # largest worker's peak (an upper bound on what was resident at once)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_kb += PROCESSES.get(args.workload, 0) * resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss
    while len(warm) < 2 or sum(w.cpu for w in warm) < args.warm_seconds:
        warm.append(run_workload(args.workload, session, args.corpus, None))
    cache_end = {
        f"cache.{stage}.{kind}": stats[kind]
        for stage, stats in session.toolchain().cache.stats().items()
        for kind in ("hits", "misses")
    }

    checks = check_verdicts(args.workload, [cold] + warm, load_expected())
    out = dict(
        marks,
        wall_s=cold.wall + sum(w.wall for w in warm),
        cells_per_s=len(cold.records) / cold.cpu,
        wall_cells_per_s=len(cold.records) / cold.wall,
        warm_cells_per_s=(sum(len(w.records) for w in warm)
                          / sum(w.cpu for w in warm)),
        cell_gaps_ms=[round(1000 * gap, 4) for gap in cold.gaps],
        peak_rss_mb=rss_kb / 1024,
        attempted=len(cold.records) + sum(len(w.records) for w in warm),
        failed=checks["failed"],
        mismatches=checks["mismatches"],
        tallies=checks["tallies"],
        counts=counts,
        cache_end=cache_end,
    )
    if recorder is not None:
        recorder.load_spills()
        out["self_s"] = recorder.self_seconds()
        out["layer_s"] = sum(out["self_s"].values())
        out["worker_layer_s"] = sum(
            span[4] for span in recorder.spans if span[1] != os.getpid()
        ) / 1e9
        out["trace_counts"] = dict(recorder.counts)
        recorder.write_chrome_trace(os.path.join(args.trace, "trace.json"))
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
