"""Integration tests: the full test_tv pipeline on the paper's studies.

These tests ARE the paper's headline results, asserted end-to-end:
Fig. 1 / Fig. 7 / Fig. 9 / Fig. 10 verdicts, the 128-bit bug trio, the
Armv7 model bug, the LDAPR case study, and per-architecture behaviour.
"""

import pytest

from repro.compiler import make_profile
from repro.herd import Budget
from repro.lang import parse_c_litmus
from repro.papertests import (
    atomics_128,
    fig1_exchange,
    fig7_lb,
    fig9_lb_plain,
    fig10_mp_rmw,
    fig11_lb3,
    sb_sc,
)
from repro.toolchain import Toolchain


def verdict(litmus, profile, **kwargs):
    return Toolchain().run_tv(litmus, profile, **kwargs).verdict


class TestFig7AcrossArchitectures:
    """Table IV's architecture split on the Fig. 7 LB test."""

    @pytest.mark.parametrize("arch", ["aarch64", "armv7", "riscv64", "ppc64"])
    def test_weak_architectures_show_positive(self, arch):
        profile = make_profile("llvm", "-O3", arch)
        assert verdict(fig7_lb(), profile) == "positive"

    @pytest.mark.parametrize("arch", ["x86_64", "mips64"])
    def test_strong_mappings_show_none(self, arch):
        profile = make_profile("llvm", "-O3", arch)
        assert verdict(fig7_lb(), profile) in ("equal", "negative")

    @pytest.mark.parametrize("arch", ["aarch64", "armv7", "riscv64", "ppc64"])
    def test_positives_vanish_under_rc11_lb(self, arch):
        """The paper's Claim 4."""
        profile = make_profile("llvm", "-O3", arch)
        assert verdict(fig7_lb(), profile, source_model="rc11+lb") == "equal"

    @pytest.mark.parametrize("compiler", ["llvm", "gcc"])
    @pytest.mark.parametrize("opt", ["-O1", "-O2", "-O3"])
    def test_stable_across_flags(self, compiler, opt):
        profile = make_profile(compiler, opt, "aarch64")
        assert verdict(fig7_lb(), profile) == "positive"


class TestFig1ExchangeBug:
    def test_reported_epoch_buggy(self):
        """The paper reported [38] against current LLVM."""
        profile = make_profile("llvm", "-O2", "aarch64", version=16)
        result = Toolchain().run_tv(fig1_exchange(), profile)
        assert result.found_bug

    def test_fixed_epoch_clean(self):
        profile = make_profile("llvm", "-O2", "aarch64", version=17)
        assert verdict(fig1_exchange(), profile) in ("equal", "negative")

    def test_bug_witness_is_paper_outcome(self):
        profile = make_profile("llvm", "-O2", "aarch64", version=16)
        result = Toolchain().run_tv(fig1_exchange(), profile)
        witnesses = [o.as_dict() for o in result.comparison.positive]
        assert any(
            o.get("out_P1_r0") == 0 and o.get("y") == 2 for o in witnesses
        )


class TestFig10RmwBugs:
    @pytest.mark.parametrize("compiler,version", [("llvm", 11), ("gcc", 9)])
    def test_past_versions_buggy(self, compiler, version):
        profile = make_profile(compiler, "-O2", "aarch64", version=version)
        assert verdict(fig10_mp_rmw(), profile) == "positive"

    @pytest.mark.parametrize("compiler,version", [("llvm", 16), ("gcc", 12)])
    def test_latest_versions_fixed(self, compiler, version):
        """'We assisted Arm's compiler teams ... showing that the latest
        versions of LLVM and GCC no longer exhibit them.'"""
        profile = make_profile(compiler, "-O2", "aarch64", version=version)
        assert verdict(fig10_mp_rmw(), profile) in ("equal", "negative")

    def test_heisenbug_disappears_when_result_observed(self):
        """§IV-B: observe r1 in the condition and the bug hides — the
        RMW result is then live, so no ST-form is selected."""
        source = fig10_mp_rmw()
        heisen = parse_c_litmus(
            """
C fig10_observed
{ *x = 0; *y = 0; }
void P0(atomic_int* y, atomic_int* x) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
  atomic_thread_fence(memory_order_release);
  atomic_store_explicit(y, 1, memory_order_relaxed);
}
void P1(atomic_int* y, atomic_int* x) {
  int r1 = atomic_fetch_add_explicit(y, 1, memory_order_relaxed);
  atomic_thread_fence(memory_order_acquire);
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
}
exists (P1:r0=0 /\\ P1:r1=1 /\\ y=2)
""",
            "fig10_observed",
        )
        profile = make_profile("llvm", "-O2", "aarch64", version=11)
        assert verdict(source, profile) == "positive"      # indirect: found
        assert verdict(heisen, profile) != "positive"      # direct: hidden


class TestFig9LocalVariableProblem:
    def test_unaugmented_masks_all_outcomes(self):
        profile = make_profile("llvm", "-O2", "aarch64")
        result = Toolchain().run_tv(fig9_lb_plain(), profile, augment=False)
        assert len(result.comparison.target_outcomes) == 1

    def test_augmentation_restores_observability(self):
        profile = make_profile("llvm", "-O2", "aarch64")
        result = Toolchain().run_tv(fig9_lb_plain(), profile, augment=True)
        assert len(result.comparison.target_outcomes) == 4


class Test128BitBugs:
    def test_ldp_seqcst_bug(self):
        buggy = make_profile("llvm", "-O2", "aarch64", version=16, v84=True)
        fixed = make_profile("llvm", "-O2", "aarch64", version=17, v84=True)
        assert verdict(atomics_128(), buggy) == "positive"
        assert verdict(atomics_128(), fixed) in ("equal", "negative")

    def test_stp_wrong_endian(self):
        source = parse_c_litmus(
            """
C stp_endian
{ *x = 0; }
void P0(atomic_int128* x) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
}
void P1(atomic_int128* x) {
  __int128 r0 = atomic_load_explicit(x, memory_order_relaxed);
}
exists (P1:r0=1)
""",
            "stp_endian",
        )
        buggy = make_profile("llvm", "-O2", "aarch64", version=16, v84=True)
        result = Toolchain().run_tv(source, buggy)
        flipped = {o.as_dict().get("x") for o in result.comparison.positive}
        assert (1 << 64) in flipped  # the endian-swapped value

    def test_const_load_crash(self):
        source = parse_c_litmus(
            """
C const_load
{ const *c = 5; }
void P0(atomic_int128* c) {
  __int128 r0 = atomic_load_explicit(c, memory_order_seq_cst);
}
exists (P0:r0=5)
""",
            "const_load",
        )
        v80 = make_profile("llvm", "-O2", "aarch64", version=16, v84=False)
        result = Toolchain().run_tv(source, v80)
        assert result.target_result.has_const_violation
        fixed = make_profile("llvm", "-O2", "aarch64", version=17, v84=True)
        result_fixed = Toolchain().run_tv(source, fixed)
        assert not result_fixed.target_result.has_const_violation


class TestArmv7ModelBug:
    def test_buggy_model_false_positive(self):
        profile = make_profile("llvm", "-O2", "armv7")
        assert verdict(sb_sc(), profile, target_model="armv7_buggy") == "positive"

    def test_fixed_model_clean(self):
        profile = make_profile("llvm", "-O2", "armv7")
        assert verdict(sb_sc(), profile) in ("equal", "negative")


class TestGccArmv7O1Quirk:
    """§IV-D: gcc -O1 drops a control dependency; -O2+ masks it again."""

    SOURCE = """
C lb_ctrl2
{ *x = 0; *y = 0; }
void P0(atomic_int* y, atomic_int* x) {
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
  if (r0 == 1) { atomic_store_explicit(y, 1, memory_order_relaxed); }
  else { atomic_store_explicit(y, 1, memory_order_relaxed); }
}
void P1(atomic_int* y, atomic_int* x) {
  int r0 = atomic_load_explicit(y, memory_order_relaxed);
  if (r0 == 1) { atomic_store_explicit(x, 1, memory_order_relaxed); }
  else { atomic_store_explicit(x, 1, memory_order_relaxed); }
}
exists (P0:r0=1 /\\ P1:r0=1)
"""

    def litmus(self):
        return parse_c_litmus(self.SOURCE, "lb_ctrl2")

    def test_gcc_o1_drops_ctrl_dep(self):
        profile = make_profile("gcc", "-O1", "armv7")
        assert verdict(self.litmus(), profile) == "positive"

    def test_clang_o1_keeps_ctrl_dep(self):
        profile = make_profile("llvm", "-O1", "armv7")
        assert verdict(self.litmus(), profile) != "positive"

    def test_gcc_o2_masked_by_data_dep(self):
        profile = make_profile("gcc", "-O2", "armv7")
        assert verdict(self.litmus(), profile) != "positive"


class TestScalability:
    def test_fig11_unoptimised_exceeds_budget(self):
        """Claim 5 precondition: the raw compiled test explodes under
        brute-force enumeration; the staged solver prunes the explosion
        away at identical outcomes."""
        from repro.core.errors import SimulationTimeout
        from repro.tools import assembly_to_litmus, compile_and_disassemble, prepare
        from repro.herd import exhaustive_stages, simulate_asm

        profile = make_profile("llvm", "-O0", "aarch64")
        prepared = prepare(fig11_lb3())
        c2s = compile_and_disassemble(prepared, profile)
        raw = assembly_to_litmus(c2s.obj, prepared.condition,
                                 listing=c2s.listing, optimise=False)
        with pytest.raises(SimulationTimeout):
            simulate_asm(raw, budget=Budget(max_candidates=400),
                         stages=exhaustive_stages())
        # the staged solver survives the same budget: coherence pruning
        # collapses the factorial coherence space before it is expanded
        staged = simulate_asm(raw, budget=Budget(max_candidates=400))
        assert staged.stats.total_pruned > 0
        exhaustive = simulate_asm(raw, stages=exhaustive_stages())
        assert staged.outcomes == exhaustive.outcomes
        assert staged.stats.candidates < exhaustive.stats.candidates

    def test_fig11_optimised_terminates_quickly(self):
        """Claim 5: with s2l optimisation, milliseconds."""
        profile = make_profile("llvm", "-O0", "aarch64")
        result = Toolchain().run_tv(
            fig11_lb3(), profile, budget=Budget(max_candidates=500_000)
        )
        assert result.target_seconds < 2.0
        assert result.verdict in ("positive", "ub-masked")


class TestDifferentialMode:
    def test_same_compiler_different_levels(self):
        a = make_profile("llvm", "-O1", "aarch64")
        b = make_profile("llvm", "-O3", "aarch64")
        comparison = Toolchain().run_differential(fig7_lb(), a, b).comparison
        assert comparison.verdict() == "equal"

    def test_cross_compiler(self):
        a = make_profile("llvm", "-O2", "aarch64")
        b = make_profile("gcc", "-O2", "aarch64")
        comparison = Toolchain().run_differential(fig7_lb(), a, b).comparison
        assert comparison.verdict() == "equal"

    def test_cross_arch_rejected(self):
        from repro.core.errors import ReproError

        a = make_profile("llvm", "-O2", "aarch64")
        b = make_profile("llvm", "-O2", "x86_64")
        with pytest.raises(ReproError):
            Toolchain().run_differential(fig7_lb(), a, b)
