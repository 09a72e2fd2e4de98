"""Spans and counts recorded from outside the program, at its layer boundaries.

The benchmark does not edit ``src/``: :func:`install` replaces the public
entry points of each layer with wrappers that time the call and count
the work it did, then call the original.  Spans live in memory (a
:class:`Recorder`) and are written out once, at the end, as Chrome
trace-event JSON.  Pool workers forked by the process backend inherit
the wrappers; their spans and counts are appended, one JSON line per
record, to ``spans-<pid>.jsonl`` in the recorder's spill directory,
because a worker's memory never returns to the parent.

A layer's *self time* is the sum of its spans' durations minus the time
covered by spans nested inside them.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

#: The six Fig. 5 stages: (Toolchain method, artifact-cache stage name).
STAGES = (
    ("prepare", "prepare"),
    ("compile", "compile"),
    ("lift", "lift"),
    ("simulate_source", "simulate-source"),
    ("simulate_target", "simulate-target"),
    ("compare", "compare"),
)

#: Span name -> per-layer metric name; every layer is named after its module.
LAYERS = {f"toolchain.{method}": f"toolchain.{method}_s" for method, _ in STAGES}
LAYERS.update({
    "farm.suite_read": "farm.suite_read_s",
    "farm.baseline_diff": "farm.baseline_diff_s",
})

#: One span: (name, pid, start_ns, duration_ns, self_ns).
Span = Tuple[str, int, int, int, int]


class Recorder:
    """An in-memory span stack plus counters, one per process."""

    def __init__(self, spill_dir: Optional[str] = None) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []  # child time of each open span
        self._spill_dir = spill_dir
        self._spill = None  # set in forked workers only
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.spans, self.counts = [], Counter()
        if self._spill_dir is not None:
            self._spill = open(
                os.path.join(self._spill_dir, f"spans-{os.getpid()}.jsonl"),
                "a", encoding="utf-8", buffering=1,
            )

    def count(self, key: str, amount: float = 1) -> None:
        if self._spill is not None:
            self._spill.write(json.dumps({"c": [key, amount]}) + "\n")
        else:
            self.counts[key] += amount

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        start = time.perf_counter_ns()
        self._stack.append(0)
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter_ns() - start
            children = self._stack.pop()
            if self._stack:
                self._stack[-1] += duration
            span = (name, os.getpid(), start, duration, duration - children)
            if self._spill is not None:
                self._spill.write(json.dumps({"s": span}) + "\n")
            else:
                self.spans.append(span)

    def load_spills(self) -> None:
        """Fold every worker's spill file into this recorder."""
        if self._spill_dir is None:
            return
        for entry in sorted(os.listdir(self._spill_dir)):
            if not entry.startswith("spans-"):
                continue
            with open(os.path.join(self._spill_dir, entry), encoding="utf-8") as handle:
                for line in handle:
                    record = json.loads(line)
                    if "s" in record:
                        self.spans.append(tuple(record["s"]))
                    else:
                        key, amount = record["c"]
                        self.counts[key] += amount

    def self_seconds(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for name, _, _, _, self_ns in self.spans:
            totals[name] = totals.get(name, 0.0) + self_ns / 1e9
        return totals

    def write_chrome_trace(self, path: str) -> None:
        """Chrome trace-event JSON (opens in chrome://tracing or Perfetto),
        one track per process."""
        events = [
            {"name": name, "ph": "X", "pid": pid, "tid": pid,
             "ts": start / 1000, "dur": duration / 1000,
             "args": {"self_us": self_ns / 1000}}
            for name, pid, start, duration, self_ns in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def _count_simulation(recorder: Recorder, side: str, result) -> None:
    """Herd work counters of one actual simulation (SimulationResult.stats)."""
    stats = result.stats
    recorder.count(f"herd.{side}.simulations")
    recorder.count(f"herd.{side}.candidates", stats.candidates)
    recorder.count(f"herd.{side}.rf_assignments", stats.rf_assignments)
    recorder.count(f"herd.{side}.pruned", stats.total_pruned)
    recorder.count(f"herd.{side}.prune_s", sum(stats.stage_seconds.values()))


def _on_miss(recorder: Recorder, method: str, artifact, kwargs) -> None:
    """Work counters read off the artifact a stage actually produced."""
    if method == "lift":
        recorder.count("s2l.parsed_instructions", artifact.stats.parsed_instructions)
        recorder.count("s2l.removed_instructions", artifact.stats.total_removed)
        recorder.count("s2l.instructions_after", artifact.instructions)
    elif method == "simulate_target":
        _count_simulation(recorder, "target", artifact.result)
    elif method == "simulate_source" and kwargs.get("seed") is None:
        # a seeded call only caches the engine's hoisted simulation,
        # which the engine.simulate_c wrapper has already counted
        _count_simulation(recorder, "source", artifact.result)


def install(recorder: Recorder) -> None:
    """Wrap each layer's public entry points so calls land in ``recorder``."""
    from repro.api import engine, farm as api_farm
    from repro.pipeline import farm as pipeline_farm
    from repro.toolchain.chain import Toolchain
    from repro.tools.sources import SuiteSource

    mcompare = importlib.import_module("repro.tools.mcompare")
    def stage_method(method: str, stage: str):
        original = getattr(Toolchain, method)

        @functools.wraps(original)
        def traced(self, *args, **kwargs):
            cache = self.cache.stage(stage)
            before = cache.misses
            artifact = recorder.call(
                f"toolchain.{method}", original, self, *args, **kwargs
            )
            missed = cache.misses > before
            recorder.count(f"cache.{stage}.{'misses' if missed else 'hits'}")
            if missed:
                _on_miss(recorder, method, artifact, kwargs)
            return artifact

        setattr(Toolchain, method, traced)

    for method, stage in STAGES:
        stage_method(method, stage)

    # the engine hoists source simulation out of the cell and seeds the
    # simulate-source stage with it: time it as that stage
    hoisted_simulate = engine.simulate_c
    hoisted_prepare = engine.prepare

    def simulate_c(*args, **kwargs):
        result = recorder.call(
            "toolchain.simulate_source", hoisted_simulate, *args, **kwargs
        )
        _count_simulation(recorder, "source", result)
        return result

    engine.simulate_c = simulate_c
    engine.prepare = functools.partial(
        recorder.call, "toolchain.prepare", hoisted_prepare
    )

    iter_tests = SuiteSource.iter_tests

    def traced_iter_tests(self, *args, **kwargs):
        recorder.count("farm.suite_parses")
        inner = iter_tests(self, *args, **kwargs)
        while True:
            try:
                test = recorder.call("farm.suite_read", next, inner)
            except StopIteration:
                return
            yield test

    SuiteSource.iter_tests = traced_iter_tests

    for module, name in (
        (api_farm, "read_baseline"), (api_farm, "diff_baselines"),
        (pipeline_farm, "read_baseline"), (mcompare, "diff_baselines"),
    ):
        setattr(module, name, functools.partial(
            recorder.call, "farm.baseline_diff", getattr(module, name)
        ))
