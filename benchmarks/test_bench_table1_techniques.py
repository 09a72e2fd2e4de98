"""Table I — comparison of testing techniques on the same bug.

Paper claim: on the Fig. 10 RMW bug, the state-of-the-art is blind —
cmmtest suppresses thread-local deletions (Morisset et al.'s claim),
validc never leaves the IR, and C4's generator produces the *historical*
message-passing form that observes the RMW result directly, in which the
heisenbug hides (§IV-B) — while T´el´echat flags it automatically.
"""

from benchmarks._report import banner, row

from repro.baselines import c4_test, cmmtest_check, validc_check
from repro.compiler import make_profile
from repro.lang.parser import parse_c_litmus
from repro.papertests import FIG10_SOURCE, fig10_mp_rmw
from repro.pipeline import run_test_tv


def test_bench_table1_techniques(benchmark):
    litmus = fig10_mp_rmw()
    # the historical test form C4-era generators emit: r1 is observed, so
    # the compiler keeps it live and the buggy selection never fires
    historical = parse_c_litmus(
        FIG10_SOURCE.replace(
            "exists (P1:r0=0 /\\ y=2)",
            "exists (P1:r0=0 /\\ P1:r1=1 /\\ y=2)",
        ),
        "fig10_historical",
    )
    buggy = make_profile("llvm", "-O2", "aarch64", version=11)

    def run_all():
        return {
            "telechat": run_test_tv(litmus, buggy).found_bug,
            "c4": c4_test(historical, buggy, chip="thunderx2",
                          runs=300, seed=0, stress=True).found_bug,
            "cmmtest": bool(cmmtest_check(litmus, buggy).warnings),
            "validc": not validc_check(litmus, buggy).valid,
        }

    found = benchmark(run_all)

    banner("Table I: who finds the Fig. 10 bug? (buggy LLVM-11, AArch64)")
    row("Telechat (models only)", "finds bug", str(found["telechat"]))
    row("C4 (historical test form, on hardware)", "misses", str(found["c4"]))
    row("cmmtest (exec matching, local-safe claim)", "misses", str(found["cmmtest"]))
    row("validc (IR-level matching)", "misses", str(found["validc"]))
    assert found["telechat"]
    assert not found["c4"]
    assert not found["cmmtest"]
    assert not found["validc"]
