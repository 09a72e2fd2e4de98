"""§IV-E — the Armv7 model bug [35] found with a compiled SB test.

Paper claims: the pre-fix (unofficial) Armv7 Cat model did not recognise
``dmb ish`` as a fence, so a store-buffering test compiled with seq_cst
atomics was wrongly *allowed* the ``0/0`` outcome — forbidden by RC11 and
by the Armv7 hardware checked.  The fix (herdtools PR #385) restores
agreement.  Only model-based testing hits this limitation class.
"""

from benchmarks._report import banner, row

from repro.compiler import make_profile
from repro.papertests import sb_sc
from repro.toolchain import Toolchain


def test_bench_armv7_model_bug(benchmark):
    litmus = sb_sc()
    profile = make_profile("llvm", "-O2", "armv7")

    def both_models():
        buggy = Toolchain().run_tv(litmus, profile, target_model="armv7_buggy")
        fixed = Toolchain().run_tv(litmus, profile)
        return buggy, fixed

    buggy, fixed = benchmark(both_models)

    banner("§IV-E: the Armv7 model bug (dmb ish not a fence)")
    row("pre-fix model verdict on compiled SB", "false positive (model bug)",
        buggy.verdict)
    row("fixed model verdict", "agreement (no bug)", fixed.verdict)
    sb_outcome = any(
        o.as_dict().get("out_P0_r0") == 0 and o.as_dict().get("out_P1_r0") == 0
        for o in buggy.comparison.positive
    )
    row("wrongly-allowed outcome", "{P0:r0=0; P1:r0=0}", str(sb_outcome))
    assert buggy.verdict == "positive"
    assert fixed.verdict in ("equal", "negative")
    assert sb_outcome
