"""Fig. 1 — the atomic_exchange bug [38].

Paper claim: the outcome ``P1:r0=0 ∧ y=2`` is forbidden by the C/C++
model but allowed by the (buggy) LLVM compilation for Armv8.1+, because
the unused SWP destination turns the RMW read into a NORET event the
acquire fence no longer orders.
"""

from benchmarks._report import banner, row

from repro.compiler import make_profile
from repro.papertests import fig1_exchange
from repro.toolchain import Toolchain


def test_bench_fig1_exchange_bug(benchmark):
    litmus = fig1_exchange()
    buggy = make_profile("llvm", "-O2", "aarch64", version=16)
    fixed = make_profile("llvm", "-O2", "aarch64", version=17)

    result = benchmark(lambda: Toolchain().run_tv(litmus, buggy))

    fixed_result = Toolchain().run_tv(litmus, fixed)
    banner("Fig. 1: atomic_exchange reordering past an acquire fence")
    row("buggy LLVM verdict", "bug (r0=0 & y=2)", result.verdict)
    row("fixed LLVM verdict", "no bug", fixed_result.verdict)
    witness = [o.as_dict() for o in result.comparison.positive]
    row("witness outcome present",
        "{P1:r0=0; y=2}",
        str(any(o.get("out_P1_r0") == 0 and o.get("y") == 2 for o in witness)))
    assert result.verdict == "positive"
    assert fixed_result.verdict in ("equal", "negative")
