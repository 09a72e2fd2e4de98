"""Fig. 10 — the two historical fetch_add bugs and their heisenbug nature.

Paper claims: past LLVM/GCC allowed ``P1:r0=0 ∧ y=2`` (STADD selection /
LDADD destination zeroing); the latest versions no longer exhibit it; and
the bug hides when the RMW result is observed directly.
"""

from benchmarks._report import banner, row

from repro.compiler import make_profile
from repro.lang.parser import parse_c_litmus
from repro.papertests import FIG10_SOURCE, fig10_mp_rmw
from repro.pipeline import run_test_tv


def test_bench_fig10_rmw_bugs(benchmark):
    litmus = fig10_mp_rmw()

    def bug_matrix():
        verdicts = {}
        for compiler, version in (("llvm", 11), ("gcc", 9),
                                  ("llvm", 16), ("gcc", 12)):
            profile = make_profile(compiler, "-O2", "aarch64", version=version)
            verdicts[f"{compiler}-{version}"] = run_test_tv(
                litmus, profile
            ).verdict
        return verdicts

    verdicts = benchmark(bug_matrix)

    banner("Fig. 10: unused fetch_add reorders past the acquire fence")
    row("llvm-11 (past)", "bug", verdicts["llvm-11"])
    row("gcc-9 (past)", "bug", verdicts["gcc-9"])
    row("llvm-16 (latest)", "fixed", verdicts["llvm-16"])
    row("gcc-12 (latest)", "fixed", verdicts["gcc-12"])

    # the heisenbug: observing r1 directly hides the bug
    observed = parse_c_litmus(
        FIG10_SOURCE.replace(
            "exists (P1:r0=0 /\\ y=2)",
            "exists (P1:r0=0 /\\ P1:r1=1 /\\ y=2)",
        ),
        "fig10_observed",
    )
    profile = make_profile("llvm", "-O2", "aarch64", version=11)
    direct = run_test_tv(observed, profile).verdict
    row("observing r1 directly (heisenbug)", "bug hides", direct)

    assert verdicts["llvm-11"] == "positive"
    assert verdicts["gcc-9"] == "positive"
    assert verdicts["llvm-16"] in ("equal", "negative")
    assert verdicts["gcc-12"] in ("equal", "negative")
    assert direct != "positive"
