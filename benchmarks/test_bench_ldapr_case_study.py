"""§IV-F — the LDAPR acquire-load case study (the Google proposal [57]).

Paper claims: compiling C/C++ acquire loads to LDAPR (Armv8.3 RCpc)
instead of LDAR is *correct* — T´el´echat finds no positive difference on
the acquire suite — even though LDAPR is strictly weaker: it drops the
``[L]; po; [A]`` ordering against a program-order-earlier store-release,
observable as extra (still source-allowed) outcomes.
"""

from benchmarks._report import banner, row

from repro.compiler import make_profile
from repro.core.events import MemoryOrder
from repro.toolchain import Toolchain
from repro.tools.diy import DiyConfig, generate

#: the c11_acq.conf analogue: acquire/release decorated families.
ACQ_SUITE = DiyConfig(
    shapes=("MP", "LB", "SB", "S", "R"),
    orders=("ar",),
    fences=(None,),
    deps=("po", "data"),
    variants=("load-store",),
)


def test_bench_ldapr_case_study(benchmark):
    tests = generate(ACQ_SUITE)
    ldar = make_profile("llvm", "-O2", "aarch64", rcpc=False)
    ldapr = make_profile("llvm", "-O2", "aarch64", rcpc=True)

    def run_suite():
        verdicts = []
        for litmus in tests:
            verdicts.append(
                (
                    Toolchain().run_tv(litmus, ldar),
                    Toolchain().run_tv(litmus, ldapr),
                )
            )
        return verdicts

    verdicts = benchmark(run_suite)

    banner("§IV-F: LDAR vs LDAPR on the acquire suite (the [57] proposal)")
    row("suite size", "c11_acq.conf", str(len(tests)))
    ldapr_positives = sum(1 for _, b in verdicts if b.found_bug)
    row("LDAPR positive differences", "0 (proposal accepted)",
        str(ldapr_positives))
    weaker = sum(
        1
        for a, b in verdicts
        if a.comparison.target_outcomes < b.comparison.target_outcomes
    )
    row("tests where LDAPR shows extra (allowed) outcomes",
        "> 0 (LDAPR weaker wrt prior STLR)", str(weaker))
    assert ldapr_positives == 0
    assert weaker > 0
    # every LDAR outcome is an LDAPR outcome (LDAR strictly stronger)
    for a, b in verdicts:
        assert a.comparison.target_outcomes <= b.comparison.target_outcomes
