"""Check that the benchmark is steady: run it on several seeds per
workload and report, for each end-to-end metric, the median and the
spread (distance between the first and third quartile, as a share of
the median) next to the metric's bound in BENCHMARK.json.  Counts and
verdict tallies must be identical across seeds.

    python3 perfbench/prove.py --seeds 10                 # every workload
    python3 perfbench/prove.py --workloads farm --seeds 5
    python3 perfbench/prove.py --seeds 10 --against .perfbench/prove.json

``--against`` compares medians with an earlier summary (each run writes
``.perfbench/prove.json``) and flags a metric whose median got worse
than the earlier one by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--against")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    earlier = {}
    if args.against:
        with open(args.against, encoding="utf-8") as handle:
            earlier = json.load(handle)
    summary = {}
    failures = 0
    for workload in workloads:
        values = {name: [] for name in bounds}
        facts = set()
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            command = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(command, cwd=ROOT, capture_output=True,
                                 text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect result\n{out}")
                failures += 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            path = os.path.join(ROOT, ".perfbench", "results",
                                f"{workload}-seed{seed}-trace0.json")
            with open(path, encoding="utf-8") as handle:
                first = json.load(handle)["iterations"][0]
            facts.add(json.dumps([first["counts"], first["tallies"]], sort_keys=True))
        if len(facts) != 1:
            print(f"{workload}: counts or tallies differ between seeds")
            failures += 1
        summary[workload] = {}
        print(f"{workload} ({args.seeds} seeds)")
        for name, spec in bounds.items():
            median = statistics.median(values[name])
            share = spread(values[name])
            summary[workload][name] = median
            verdict = "ok" if share <= spec["bound"] / 3 else (
                "WIDE" if share > spec["bound"] else "within bound")
            line = (f"  {name:<18} median {median:>10.4f} {spec['unit']:<8}"
                    f" spread {share:>7.2%}  bound {spec['bound']:.0%}  {verdict}")
            before = earlier.get(workload, {}).get(name)
            if before is not None:
                worse = (median - before) / before
                if spec["better"] == "higher":
                    worse = -worse
                line += f"  vs earlier {worse:+.2%}"
                if worse > spec["bound"]:
                    line += " WORSE"
                    failures += 1
            if name != "setup_s" and share > spec["bound"]:
                failures += 1
            print(line)
    with open(os.path.join(ROOT, ".perfbench", "prove.json"), "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1, sort_keys=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
