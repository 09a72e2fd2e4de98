"""Tests for the hardware simulator and the C4/cmmtest/validc baselines."""

import pytest

from repro.baselines import c4_test, cmmtest_check, validc_check
from repro.compiler import make_profile
from repro.hw import CHIPS, get_chip, list_chips, run_on_hardware
from repro.papertests import fig7_lb, fig9_lb_plain, fig10_mp_rmw
from repro.tools import assembly_to_litmus, compile_and_disassemble, prepare


def compiled_fig7(profile=None):
    profile = profile or make_profile("llvm", "-O3", "aarch64")
    prepared = prepare(fig7_lb())
    c2s = compile_and_disassemble(prepared, profile)
    return assembly_to_litmus(c2s.obj, prepared.condition, listing=c2s.listing)


class TestChips:
    def test_inventory(self):
        for name in ("raspberry-pi", "apple-a9", "tegra2", "thunderx2",
                     "sc-reference"):
            assert name in list_chips()

    def test_unknown_chip_raises(self):
        with pytest.raises(KeyError):
            get_chip("pentium-pro")

    def test_stress_raises_weakness(self):
        chip = get_chip("apple-a9")
        assert chip.effective_weakness(True) > chip.effective_weakness(False)

    def test_weakness_capped_at_one(self):
        chip = get_chip("thunderx2")
        assert chip.effective_weakness(True) <= 1.0


class TestHardwareSimulator:
    def test_pi_never_shows_lb(self):
        """In-order silicon cannot exhibit load buffering — the §IV-A miss."""
        result = run_on_hardware(compiled_fig7(), "raspberry-pi",
                                 runs=500, seed=3, stress=True)
        lb = [o for o in result.observed
              if o.as_dict().get("out_P0_r0") == 1
              and o.as_dict().get("out_P1_r0") == 1]
        assert not lb
        assert result.missed  # the behaviour exists architecturally

    def test_ooo_chip_can_show_lb(self):
        result = run_on_hardware(compiled_fig7(), "thunderx2",
                                 runs=500, seed=3, stress=True)
        lb = [o for o in result.observed
              if o.as_dict().get("out_P0_r0") == 1
              and o.as_dict().get("out_P1_r0") == 1]
        assert lb

    def test_seed_determinism(self):
        a = run_on_hardware(compiled_fig7(), "apple-a9", runs=100, seed=7)
        b = run_on_hardware(compiled_fig7(), "apple-a9", runs=100, seed=7)
        assert a.counts == b.counts

    def test_different_seeds_may_differ(self):
        """Across seeds (= machines/runs) histograms differ: C4's
        nondeterminism, reproducibly."""
        a = run_on_hardware(compiled_fig7(), "apple-a9", runs=50, seed=1)
        b = run_on_hardware(compiled_fig7(), "apple-a9", runs=50, seed=2)
        assert a.counts != b.counts

    def test_observed_subset_of_architecture(self):
        result = run_on_hardware(compiled_fig7(), "thunderx2", runs=200, seed=5)
        assert result.observed <= result.architecturally_allowed

    def test_run_count_conserved(self):
        result = run_on_hardware(compiled_fig7(), "apple-a9", runs=123, seed=0)
        assert sum(result.counts.values()) == 123

    def test_arch_mismatch_rejected(self):
        with pytest.raises(ValueError):
            run_on_hardware(compiled_fig7(), "tegra2")  # armv7 chip

    def test_histogram_renders(self):
        result = run_on_hardware(compiled_fig7(), "apple-a9", runs=10, seed=0)
        assert "runs" in result.histogram()


class TestC4:
    def test_c4_misses_lb_on_pi(self):
        """The paper's central §IV-A comparison (Claim 2)."""
        result = c4_test(fig7_lb(), make_profile("llvm", "-O3", "aarch64"),
                         chip="raspberry-pi", runs=500, seed=1, stress=True)
        assert not result.found_bug
        assert result.missed_behaviours
        assert not result.deterministic

    def test_c4_finds_lb_on_ooo_silicon(self):
        result = c4_test(fig7_lb(), make_profile("llvm", "-O3", "aarch64"),
                         chip="thunderx2", runs=500, seed=1, stress=True)
        assert result.found_bug

    def test_c4_may_miss_even_on_capable_chip(self):
        """Few runs + no stress: the weak outcome often never surfaces."""
        result = c4_test(fig7_lb(), make_profile("llvm", "-O3", "aarch64"),
                         chip="apple-a9", runs=5, seed=0, stress=False)
        assert not result.found_bug

    def test_telechat_vs_c4_on_same_input(self):
        """T´el´echat (model-based) finds what C4-on-Pi cannot."""
        from repro.toolchain import Toolchain

        profile = make_profile("llvm", "-O3", "aarch64")
        tele = Toolchain().run_tv(fig7_lb(), profile)
        c4 = c4_test(fig7_lb(), profile, chip="raspberry-pi",
                     runs=1000, seed=0, stress=True)
        assert tele.found_bug and not c4.found_bug


class TestCmmtest:
    def test_clean_compilation_no_warnings(self):
        result = cmmtest_check(fig7_lb(), make_profile("llvm", "-O1", "aarch64"))
        assert not result.needs_expert

    def test_deleted_local_suppressed_not_warned(self):
        """The [65] blind spot: thread-local deletion generates only a
        *suppressed* note, never a warning."""
        result = cmmtest_check(fig9_lb_plain(),
                               make_profile("llvm", "-O2", "aarch64"))
        assert not result.warnings
        assert result.suppressed
        assert all(w.kind == "local-deleted" for w in result.suppressed)

    def test_fig10_bug_invisible_to_cmmtest(self):
        """cmmtest cannot flag the Fig. 10 bug: the RMW's shared-memory
        trace is unchanged; only the (suppressed) local vanished."""
        result = cmmtest_check(fig10_mp_rmw(),
                               make_profile("llvm", "-O2", "aarch64", version=11))
        assert not result.warnings


class TestValidc:
    def test_valid_optimisation_passes(self):
        result = validc_check(fig7_lb(), make_profile("llvm", "-O3", "aarch64"))
        assert result.valid

    def test_backend_bugs_invisible_to_validc(self):
        """validc checks IR only: the AArch64 ST-form selection bug of
        Fig. 10 happens below IR, so validc sees nothing (Table I's
        generality gap)."""
        buggy = make_profile("llvm", "-O2", "aarch64", version=11)
        result = validc_check(fig10_mp_rmw(), buggy)
        assert result.valid

    def test_ir_outcomes_match_source_semantics(self):
        from repro.herd import simulate_c

        result = validc_check(fig7_lb(), make_profile("llvm", "-O1", "aarch64"))
        source = simulate_c(fig7_lb(), "rc11")
        assert result.reference.outcomes == source.outcomes
