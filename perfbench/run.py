"""End-to-end verdict benchmark over the checked-in regression corpus.

    python3 perfbench/run.py --workload farm --seed 1 --seconds 25 --trace 0

Each iteration runs the workload in a fresh interpreter (``workload.py``)
on a copy of ``tests/corpus`` whose test order is a permutation drawn
from ``--seed``.  Iterations repeat until ``--seconds`` is spent; the
figures are medians over them.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` alternates untraced and traced iterations and
reports the per-layer ones.  Every verdict is checked; a wrong verdict,
a failed cell or a count that differs between iterations makes
``correct`` false.  The last line of output is the JSON result; the
full record (environment, every iteration) goes to
``.perfbench/results/``, the Chrome trace of a traced run to
``.perfbench/trace/<workload>-seed<seed>/trace.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CORPUS = os.path.join(ROOT, "tests", "corpus")
WORK = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)
from tracing import LAYERS, STAGES  # noqa: E402
from workload import PROCESSES, WORKLOADS  # noqa: E402

#: (name, unit) of every end-to-end metric, in print order.
END_TO_END = (
    ("setup_s", "s"),
    ("cells_per_s", "cells/s"),
    ("cell_p50_ms", "ms"),
    ("cell_tail_ms", "ms"),
    ("warm_cells_per_s", "cells/s"),
    ("peak_rss_mb", "MB"),
)

MIN_ITERATIONS = 2
MIN_SETUPS = 5
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot produce a result."""


# --------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------- #
def sha256(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def permuted_corpus(seed: int) -> str:
    """A copy of the corpus with each suite's tests in seeded order.

    Suite digests are checked against the manifest first and recomputed
    for the copy; baselines are keyed by test digest, so they copy as
    they are."""
    with open(os.path.join(CORPUS, "MANIFEST.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    dest = os.path.join(WORK, f"corpus-seed{seed}")
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(os.path.join(dest, "suites"))
    rng = random.Random(seed)
    for suite in manifest["suites"]:
        with open(os.path.join(CORPUS, suite["file"]), "rb") as handle:
            data = handle.read()
        if sha256(data) != suite["digest"]:
            raise BenchError(f"{suite['file']} does not match MANIFEST.json")
        lines = data.splitlines(keepends=True)
        rng.shuffle(lines)
        data = b"".join(lines)
        with open(os.path.join(dest, suite["file"]), "wb") as handle:
            handle.write(data)
        suite["digest"] = sha256(data)
    shutil.copytree(os.path.join(CORPUS, "baselines"), os.path.join(dest, "baselines"))
    with open(os.path.join(dest, "MANIFEST.json"), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return dest


def environment(seed: int) -> Dict[str, object]:
    return {
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "src_digest": src_digest(),
    }


def git_commit() -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` (None outside a repo)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """Content digest of the program under test, which names the code
    even where there is no git metadata."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def percentile(values: List[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[rank - 1]


def tail_percentile(samples: int) -> int:
    """The highest whole percentile with at least ten samples beyond it."""
    return max(50, min(99, int(100 * (1 - 10 / samples))))


# --------------------------------------------------------------------- #
# iterations
# --------------------------------------------------------------------- #
def iteration(workload: str, corpus: str, *extra: str) -> Dict[str, object]:
    """Run ``workload.py`` once in a fresh interpreter; its JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
    start = time.monotonic()
    command = [sys.executable, os.path.join(HERE, "workload.py"),
               "--workload", workload, "--corpus", corpus,
               "--t0", repr(start), *extra]
    # its own process group, so a timeout also stops its pool workers
    proc = subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} iteration exceeded {CHILD_TIMEOUT_S}s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"{workload} iteration failed:\n{err[-4000:]}")
    return json.loads(out.strip().splitlines()[-1])


def repeat(seconds: float, run_one, minimum: int) -> List[Dict[str, object]]:
    """Run iterations until the next one would overrun ``seconds``."""
    start = time.monotonic()
    results: List[Dict[str, object]] = []
    while True:
        results.append(run_one())
        elapsed = time.monotonic() - start
        if len(results) >= minimum and elapsed * (1 + 1 / len(results)) > seconds:
            return results


def varying(samples: List[Dict[str, object]], field: str) -> List[str]:
    """Keys of a count dict that differ between iterations (timings,
    named ``*_s``, are not counts)."""
    keys = sorted(set().union(*(s[field] for s in samples)))
    return [
        key for key in keys
        if not key.endswith("_s")
        and len({json.dumps(s[field].get(key)) for s in samples}) > 1
    ]


def verdict_problems(samples: List[Dict[str, object]]) -> List[str]:
    problems = []
    for field in ("counts", "tallies"):
        problems += [f"{field}: {key} varies" for key in varying(samples, field)]
    mismatches = sum(s["mismatches"] for s in samples)
    if mismatches:
        problems.append(f"{mismatches} verdict mismatches")
    return problems


def median(samples: List[Dict[str, object]], key: str) -> float:
    return statistics.median(s[key] for s in samples)


# --------------------------------------------------------------------- #
# the two kinds of run
# --------------------------------------------------------------------- #
def end_to_end(workload: str, corpus: str, seconds: float, report: Dict) -> Dict:
    samples = repeat(seconds, lambda: iteration(workload, corpus), MIN_ITERATIONS)
    setups = [{key: s[key] for key in ("setup_s", "setup_wall_s")} for s in samples]
    while len(setups) < MIN_SETUPS:
        setups.append(iteration(workload, corpus, "--setup-only"))
    report.update(iterations=samples, setups=setups)
    # per-cell gaps pooled over the run's cold passes; the tail is taken
    # at the percentile one pass's cell count allows, so it does not
    # depend on how many iterations fitted in the run
    gaps = [gap for s in samples for gap in s["cell_gaps_ms"]]
    pct = tail_percentile(len(samples[0]["cell_gaps_ms"]))
    metrics = {name: median(samples, name) for name in
               ("cells_per_s", "warm_cells_per_s", "peak_rss_mb")}
    metrics["setup_s"] = median(setups, "setup_s")
    metrics["cell_p50_ms"] = percentile(gaps, 50)
    metrics["cell_tail_ms"] = percentile(gaps, pct)
    units = dict(END_TO_END)
    first = samples[0]
    cells = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    lines = [
        f"  {name:<22}{metrics[name]:>12.4f} {units[name]}"
        + (f"   (p{pct} of {len(gaps)} cells in {len(samples)} cold passes)"
           if name == "cell_tail_ms" else "")
        + (f"   (median of {len(setups)} set-ups)" if name == "setup_s" else "")
        for name, _ in END_TO_END
    ]
    lines.append(f"  wall clock, for reference: set-up {median(setups, 'setup_wall_s'):.4f} s,"
                 f" {median(samples, 'wall_cells_per_s'):.4f} cells/s cold")
    lines.append(f"  {'verdict_mismatches':<22}"
                 f"{sum(s['mismatches'] for s in samples):>12d} count")
    lines.append(f"  {'failed_share':<22}{failed / cells:>12.4f} ratio")
    lines.append(f"  verdict tallies: {json.dumps(first['tallies'], sort_keys=True)}")
    return {
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name, _ in END_TO_END},
        "lines": lines,
        "samples": samples,
        "problems": verdict_problems(samples),
    }


def per_layer(workload: str, corpus: str, seconds: float, seed: int,
              report: Dict) -> Dict:
    trace_dir = os.path.join(WORK, "trace", f"{workload}-seed{seed}")

    pairs: List[tuple] = []

    def pair():
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
        # both sides run the cold pass and exactly two warm passes; which
        # side goes first alternates, so drift in machine speed cancels
        plain = ("--warm-seconds", "0")
        sides = [plain, plain + ("--trace", trace_dir)]
        if len(pairs) % 2:
            sides.reverse()
        results = [iteration(workload, corpus, *side) for side in sides]
        pairs.append(tuple(sorted(results, key=lambda r: "self_s" in r)))
        return pairs[-1]

    repeat(seconds, pair, 1)
    untraced = [plain for plain, _ in pairs]
    traced = [spans for _, spans in pairs]
    report.update(iterations=untraced, traced=traced)
    processes = max(1, PROCESSES.get(workload, 0))

    untraced_wall = median(untraced, "wall_s")
    traced_wall = median(traced, "wall_s")
    for sample in traced:
        # pool workers run side by side: their span time is spread over them
        sample["layer_wall_s"] = (sample["layer_s"] - sample["worker_layer_s"]
                                  * (1 - 1 / processes))
        sample["engine_s"] = sample["wall_s"] - sample["layer_wall_s"]
    layer_wall = median(traced, "layer_wall_s")
    metrics: Dict[str, tuple] = {}
    for span, name in LAYERS.items():
        metrics[name] = (statistics.median(s["self_s"].get(span, 0.0) for s in traced), "s")
    # wall not covered by a layer span, within the traced process: the
    # untraced wall minus the spans would mix two processes' noise
    metrics["engine.overhead_s"] = (median(traced, "engine_s"), "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.span_share"] = (layer_wall / untraced_wall, "ratio")

    counts = traced[0]["trace_counts"]
    plain_counts = untraced[0]["counts"]
    metrics["cells"] = (plain_counts["cells"], "count")
    metrics["farm.suite_parses"] = (counts.get("farm.suite_parses", 0), "count")
    for _, stage in STAGES:
        for kind in ("hits", "misses"):
            key = f"cache.{stage}.{kind}"
            metrics[key] = (counts.get(key, 0), "count")
    for key in ("result_cache.hits", "source_cache.misses"):
        metrics[key] = (plain_counts[key], "count")
    for side in ("source", "target"):
        for field in ("simulations", "candidates", "rf_assignments", "pruned"):
            key = f"herd.{side}.{field}"
            metrics[key] = (counts.get(key, 0), "count")
        candidates = counts.get(f"herd.{side}.candidates", 0)
        attempted = counts.get(f"herd.{side}.rf_assignments", 0)
        metrics[f"herd.{side}.yield"] = (candidates / attempted if attempted else 0.0, "ratio")
        metrics[f"herd.{side}.prune_s"] = (statistics.median(
            s["trace_counts"].get(f"herd.{side}.prune_s", 0.0) for s in traced), "s")
    for key in ("parsed_instructions", "removed_instructions", "instructions_after"):
        metrics[f"s2l.{key}"] = (counts.get(f"s2l.{key}", 0), "count")

    problems = verdict_problems(untraced + traced)
    if processes > 1 and not all(s["worker_layer_s"] for s in traced):
        problems.append("no spans from pool workers (they must be forked "
                        "to inherit the wrappers)")
    problems += [f"trace_counts: {key} varies" for key in varying(traced, "trace_counts")]
    # the boundary counts must agree with the session's own cache counters
    # wherever the session did the work (not in pool workers)
    for sample in traced:
        for key, value in sample["cache_end"].items():
            if sample["trace_counts"].get(key, 0) != value:
                problems.append(f"session {key} = {value} but the trace "
                                f"counted {sample['trace_counts'].get(key, 0)}")

    lines = [f"  {'layer':<28}{'self s':>10}{'share':>9}"]
    for span, name in LAYERS.items():
        value = metrics[name][0]
        lines.append(f"  {span:<28}{value:>10.4f}{value / untraced_wall:>9.1%}")
    lines.append(f"  {'engine (traced - spans)':<28}"
                 f"{metrics['engine.overhead_s'][0]:>10.4f}"
                 f"{metrics['engine.overhead_s'][0] / untraced_wall:>9.1%}")
    lines.append(f"  untraced wall {untraced_wall:.4f} s, traced wall "
                 f"{traced_wall:.4f} s, tracing overhead "
                 f"{traced_wall - untraced_wall:+.4f} s; spans cover "
                 f"{layer_wall / untraced_wall:.1%} of the untraced wall")
    for name, (value, unit) in metrics.items():
        if unit == "count":
            lines.append(f"  {name:<28}{value:>12} {unit}")
        elif unit != "s" or name.startswith("herd."):
            lines.append(f"  {name:<28}{value:>12.4f} {unit}")
    lines.append(f"  Chrome trace: {os.path.relpath(trace_dir, ROOT)}/trace.json")
    return {
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "lines": lines,
        "samples": untraced,
        "problems": problems,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (os.path.join(ROOT, "src", "repro", "__init__.py"),
                   os.path.join(CORPUS, "MANIFEST.json")):
        if not os.path.exists(needed):
            print(f"perfbench: {os.path.relpath(needed, ROOT)} is missing; run "
                  f"from a checkout of the repository", file=sys.stderr)
            return 2
    report: Dict[str, object] = {
        "workload": args.workload, "trace": args.trace,
        "environment": environment(args.seed),
    }
    try:
        corpus = permuted_corpus(args.seed)
        if args.trace:
            result = per_layer(args.workload, corpus, args.seconds, args.seed, report)
        else:
            result = end_to_end(args.workload, corpus, args.seconds, report)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    samples = result["samples"]
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    correct = not result["problems"] and failed == 0 and attempted > 0
    report.update(metrics=result["metrics"], problems=result["problems"])
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)

    env = report["environment"]
    print(f"perfbench {args.workload}: seed {args.seed}, {len(samples)} "
          f"iterations, {env['cpu_count']} cpus, python {env['python']}, "
          f"commit {env['git_commit'] or 'unknown'}, src {env['src_digest']}")
    for line in result["lines"]:
        print(line)
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
