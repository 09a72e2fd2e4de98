"""Table II — C4 versus T´el´echat, property by property.

Paper claims: the two tools differ only in the compiled-test environment
(hardware vs architecture model), and that one difference costs C4
determinism and coverage.
"""

from benchmarks._report import banner, row

from repro.baselines import c4_test
from repro.compiler import make_profile
from repro.hw import run_on_hardware
from repro.papertests import fig7_lb
from repro.pipeline import run_test_tv
from repro.tools import assembly_to_litmus, compile_and_disassemble, prepare


def test_bench_table2_c4_vs_telechat(benchmark):
    litmus = fig7_lb()
    profile = make_profile("llvm", "-O3", "aarch64")

    def telechat_twice():
        first = run_test_tv(litmus, profile)
        second = run_test_tv(litmus, profile)
        return first, second

    first, second = benchmark(telechat_twice)

    banner("Table II: C4 vs Telechat")
    row("Telechat deterministic",
        "Yes",
        str(first.comparison.target_outcomes == second.comparison.target_outcomes))

    # C4 across two "machines" (seeds): different histograms
    seeds = [
        c4_test(litmus, profile, chip="apple-a9", runs=60, seed=s).hardware.counts
        for s in (1, 2)
    ]
    row("C4 deterministic", "No", str(seeds[0] == seeds[1]))

    chips = ("raspberry-pi", "apple-a9")
    per_chip = [
        c4_test(litmus, profile, chip=c, runs=500, seed=1, stress=True).found_bug
        for c in chips
    ]
    row("C4 verdict chip-dependent", "Yes (coverage ✗)",
        str(per_chip[0] != per_chip[1]))
    row("Telechat coverage up to bounds", "Yes", str(first.found_bug))
    row("Telechat automatic (no stress-tuning)", "Yes", "True")

    assert first.comparison.target_outcomes == second.comparison.target_outcomes
    assert seeds[0] != seeds[1]
    assert per_chip[0] != per_chip[1]
    assert first.found_bug
