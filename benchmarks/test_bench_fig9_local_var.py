"""Fig. 9 — the local variable problem and the l2c augmentation.

Paper claims: ``clang -O2`` deletes the unused locals of the plain LB
test, leaving ``{P0:r0=0; P1:r0=0}`` as the only checkable outcome; the
l2c augmentation (persisting locals to globals) restores all four.
"""

from benchmarks._report import banner, row

from repro.compiler import make_profile
from repro.papertests import fig9_lb_plain
from repro.toolchain import Toolchain


def test_bench_fig9_local_variable_problem(benchmark):
    litmus = fig9_lb_plain()
    profile = make_profile("llvm", "-O2", "aarch64")

    def both():
        bare = Toolchain().run_tv(litmus, profile, augment=False)
        augmented = Toolchain().run_tv(litmus, profile, augment=True)
        return bare, augmented

    bare, augmented = benchmark(both)

    banner("Fig. 9: unused-local deletion masks outcomes; augmentation fixes")
    row("outcomes without augmentation", "1 (all-zero only)",
        str(len(bare.comparison.target_outcomes)))
    row("outcomes with l2c augmentation", "4",
        str(len(augmented.comparison.target_outcomes)))
    lb_visible = any(
        o.as_dict().get("out_P0_r0") == 1 and o.as_dict().get("out_P1_r0") == 1
        for o in augmented.comparison.target_outcomes
    )
    row("LB behaviour observable after augmentation", "yes", str(lb_visible))
    assert len(bare.comparison.target_outcomes) == 1
    assert len(augmented.comparison.target_outcomes) == 4
    assert lb_visible
