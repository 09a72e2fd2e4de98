"""Fig. 7 / Fig. 8 and artefact Claims 1–2 — the load-buffering miss.

Paper claims: Fig. 7's outcome ``P0:r0=1 ∧ P1:r0=1`` is forbidden by
RC11 (Fig. 8 left, 3 outcomes) but allowed by the compiled AArch64 test
(Fig. 8 right, 4 outcomes); C4 missed the behaviour on its hardware,
T´el´echat observes it deterministically; the same holds when targeting
Armv7, PowerPC and RISC-V.
"""

from benchmarks._report import banner, row

from repro.baselines import c4_test
from repro.compiler import make_profile
from repro.papertests import fig7_lb
from repro.pipeline import run_test_tv


def test_bench_fig7_lb_and_c4_miss(benchmark):
    litmus = fig7_lb()
    profile = make_profile("llvm", "-O3", "aarch64")

    result = benchmark(run_test_tv, litmus, profile)

    banner("Fig. 7/8: load buffering under RC11 vs compiled AArch64")
    row("RC11 source outcomes", "3 (Fig. 8 left)",
        str(len(result.comparison.source_outcomes)))
    row("compiled AArch64 outcomes", "4 (Fig. 8 right)",
        str(len(result.comparison.target_outcomes)))
    row("verdict", "positive (new behaviour)", result.verdict)

    c4 = c4_test(litmus, profile, chip="raspberry-pi", runs=500, seed=1,
                 stress=True)
    row("C4 on a Raspberry Pi", "misses the behaviour",
        "missed" if not c4.found_bug else "found")

    for arch in ("armv7", "ppc64", "riscv64"):
        other = run_test_tv(litmus, make_profile("llvm", "-O3", arch))
        row(f"same behaviour targeting {arch}", "positive", other.verdict)
        assert other.verdict == "positive"

    assert len(result.comparison.source_outcomes) == 3
    assert len(result.comparison.target_outcomes) == 4
    assert result.verdict == "positive"
    assert not c4.found_bug
