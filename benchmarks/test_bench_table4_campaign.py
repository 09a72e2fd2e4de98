"""Table IV — the large-scale differential-testing campaign (scaled).

Paper claims reproduced in shape:

* positive differences appear on Armv8, Armv7, RISC-V and PowerPC — all
  of them load-buffering variants (the paper's 2352 = 294 LB variants ×
  flags; our counts scale with the configured suite);
* Intel x86-64 and MIPS show **zero** positives;
* gcc -O1 on Armv7 shows strictly more positives than clang -O1 (the
  §IV-D control-dependency deletion), masked again at -O2;
* re-running under ``rc11+lb`` makes every positive difference vanish
  (artefact Claim 4).
"""

import pytest
from benchmarks._report import banner, row

from repro.core.events import MemoryOrder
from repro.api import CampaignPlan, Session
from repro.tools.diy import DiyConfig

CONFIG = DiyConfig(
    shapes=("MP", "LB", "SB", "S", "R"),
    orders=("rlx",),
    fences=(None, MemoryOrder.SC),
    deps=("po", "data", "ctrl2"),
    variants=("load-store",),
)
ARCHES = ("aarch64", "armv7", "riscv64", "ppc64", "x86_64", "mips64")
OPTS = ("-O1", "-O2")


def run_plan(**fields):
    """One campaign in a fresh session (no cache carried between runs)."""
    return Session().run(CampaignPlan(**fields))


@pytest.fixture(scope="module")
def rc11_report():
    return run_plan(config=CONFIG, arches=ARCHES, opts=OPTS,
                    compilers=("llvm", "gcc"), source_model="rc11")


def test_bench_table4_campaign(benchmark, rc11_report):
    small = DiyConfig(shapes=("LB",), orders=("rlx",), fences=(None,),
                      deps=("po",), variants=("load-store",))
    benchmark(
        run_plan, config=small, arches=("aarch64",), opts=("-O2",),
        compilers=("llvm",), source_model="rc11",
    )

    report = rc11_report
    banner("Table IV (scaled): +ve/-ve differences per architecture")
    print(report.table())
    print()
    weak = ("aarch64", "armv7", "riscv64", "ppc64")
    strong = ("x86_64", "mips64")
    for arch in weak:
        row(f"{arch} positives", "> 0 (LB family)",
            str(report.total_positive(arch)))
        assert report.total_positive(arch) > 0
    for arch in strong:
        row(f"{arch} positives", "0", str(report.total_positive(arch)))
        assert report.total_positive(arch) == 0
    row("negative differences overall", "4-7% per cell",
        str(report.total_negative()))
    assert report.total_negative() > 0

    gcc_o1 = report.cell("armv7", "-O1", "gcc").positive
    clang_o1 = report.cell("armv7", "-O1", "llvm").positive
    gcc_o2 = report.cell("armv7", "-O2", "gcc").positive
    row("armv7 gcc -O1 vs clang -O1 positives", "3480 vs 2352 (gcc more)",
        f"{gcc_o1} vs {clang_o1}")
    row("armv7 gcc -O2 (data dep masks)", "back to parity", str(gcc_o2))
    assert gcc_o1 > clang_o1
    assert gcc_o2 < gcc_o1


def test_bench_table4_claim4_rc11_lb(rc11_report):
    """All positive differences disappear under rc11+lb."""
    report = run_plan(config=CONFIG, arches=("aarch64", "armv7"),
                      opts=OPTS, compilers=("llvm", "gcc"),
                      source_model="rc11+lb")
    banner("Table IV / Claim 4: re-run under rc11+lb")
    row("positives under rc11", "> 0",
        str(rc11_report.total_positive("aarch64")
            + rc11_report.total_positive("armv7")))
    row("positives under rc11+lb", "0", str(report.total_positive()))
    assert report.total_positive() == 0
