"""Mutation-based test generation (the paper's §V future-work line).

The paper expects "conducting mutation-based testing [46] will find more
bugs".  The l2c fuzzer implements CCmutator-style order weakening; this
test shows it working end-to-end: a seed test whose full fence hides the
Fig. 1 bug mutates into a variant that exposes it.
"""

import pytest

from repro.compiler import make_profile
from repro.lang.ast import Fence
from repro.lang.parser import parse_c_litmus
from repro.toolchain import Toolchain
from repro.tools import fuzz_variants

#: the Fig. 1 shape with a *seq_cst* fence after the exchange: the full
#: barrier (DMB ISH) orders even the NORET read, so the buggy SWP
#: selection is invisible here.
SEED = """
C fig1_seed
{ *x = 0; *y = 0; }
void P0(atomic_int* y, atomic_int* x) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
  atomic_thread_fence(memory_order_release);
  atomic_store_explicit(y, 1, memory_order_relaxed);
}
void P1(atomic_int* y, atomic_int* x) {
  atomic_exchange_explicit(y, 2, memory_order_release);
  atomic_thread_fence(memory_order_seq_cst);
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
}
exists (P1:r0=0 /\\ y=2)
"""


class TestMutationCampaign:
    def test_seed_hides_the_bug(self):
        litmus = parse_c_litmus(SEED, "fig1_seed")
        profile = make_profile("llvm", "-O2", "aarch64", version=16)
        assert Toolchain().run_tv(litmus, profile).verdict != "positive"

    def test_mutation_exposes_the_bug(self):
        """Weakening the seq_cst fence to acquire re-creates Fig. 1."""
        litmus = parse_c_litmus(SEED, "fig1_seed")
        profile = make_profile("llvm", "-O2", "aarch64", version=16)
        verdicts = {}
        for variant in fuzz_variants(litmus, limit=32):
            result = Toolchain().run_tv(variant, profile)
            verdicts[variant.name] = result.verdict
        assert "positive" in verdicts.values(), (
            f"no mutation exposed the bug: {verdicts}"
        )

    def test_mutations_change_one_statement(self):
        litmus = parse_c_litmus(SEED, "fig1_seed")
        for variant in fuzz_variants(litmus, limit=8):
            differences = 0
            for original, mutated in zip(litmus.threads, variant.threads):
                differences += sum(
                    1 for a, b in zip(original.body, mutated.body) if a != b
                )
            assert differences == 1

    def test_mutations_preserve_condition(self):
        litmus = parse_c_litmus(SEED, "fig1_seed")
        for variant in fuzz_variants(litmus, limit=8):
            assert str(variant.condition) == str(litmus.condition)

    def test_fence_mutations_weaken_only(self):
        from repro.core.events import MemoryOrder

        litmus = parse_c_litmus(SEED, "fig1_seed")
        for variant in fuzz_variants(litmus, limit=32):
            for original, mutated in zip(litmus.threads, variant.threads):
                for a, b in zip(original.body, mutated.body):
                    if a != b and isinstance(a, Fence) and isinstance(b, Fence):
                        assert b.order < a.order
