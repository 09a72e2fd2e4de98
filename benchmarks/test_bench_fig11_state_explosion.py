"""Fig. 11 / Claim 5 — the state explosion and the s2l optimisation.

Paper claims: the unoptimised compiled three-thread LB test does not
terminate under herd (one-hour timeout); after T´el´echat's optimisation
the simulation terminates in milliseconds.  Our analogue: under
brute-force enumeration (:func:`exhaustive_stages`, the seed behaviour)
the raw -O0 compilation (GOT loads + spill traffic) blows the candidate
budget, while the optimised test simulates in milliseconds with a
fraction of the candidates.

The staged solver engine attacks the same explosion from the simulator
side: coherence-violation pruning collapses the raw test's factorial
coherence space to the handful of orders the models could ever accept —
strictly fewer candidates at identical outcomes.
"""

import time

import pytest
from benchmarks._report import banner, row

from repro.compiler import make_profile
from repro.core.errors import SimulationTimeout
from repro.herd import Budget, exhaustive_stages, simulate_asm
from repro.papertests import fig11_lb3
from repro.tools import S2LStats, assembly_to_litmus, compile_and_disassemble, prepare


def test_bench_fig11_state_explosion(benchmark):
    profile = make_profile("llvm", "-O0", "aarch64")
    prepared = prepare(fig11_lb3())
    c2s = compile_and_disassemble(prepared, profile)
    stats = S2LStats()
    raw = assembly_to_litmus(c2s.obj, prepared.condition, listing=c2s.listing,
                             optimise=False)
    optimised = assembly_to_litmus(c2s.obj, prepared.condition,
                                   listing=c2s.listing, optimise=True,
                                   stats=stats)

    optimised_result = benchmark(simulate_asm, optimised)

    # the seed/brute-force behaviour: every coherence permutation
    start = time.perf_counter()
    raw_result = simulate_asm(raw, budget=Budget(max_candidates=5_000_000),
                              stages=exhaustive_stages())
    raw_seconds = time.perf_counter() - start

    # the staged solver on the same raw test: coherence pruning
    staged_result = simulate_asm(raw, budget=Budget(max_candidates=5_000_000))

    banner("Fig. 11 / Claim 5: state explosion vs s2l optimisation")
    raw_loc = sum(len(t.instructions) for t in raw.threads)
    opt_loc = sum(len(t.instructions) for t in optimised.threads)
    row("compiled instructions raw -> optimised",
        "~3 per access -> 1", f"{raw_loc} -> {opt_loc}")
    row("lines removed by s2l", "~4 per access", str(stats.total_removed))
    row("candidates raw -> optimised", "factorial blow-up -> small",
        f"{raw_result.stats.candidates} -> {optimised_result.stats.candidates}")
    row("simulation time raw", "> 1 hour (herd, paper)",
        f"{raw_seconds*1000:.0f} ms")
    speedup = raw_seconds / max(optimised_result.stats.elapsed_seconds, 1e-9)
    row("optimised simulation", "milliseconds",
        f"{optimised_result.stats.elapsed_seconds*1000:.1f} ms "
        f"({speedup:.0f}x faster)")
    row("staged solver on raw", "same outcomes, pruned",
        f"{staged_result.stats.candidates} candidates "
        f"({staged_result.stats.total_pruned} pruned, "
        f"{staged_result.stats.elapsed_seconds*1000:.1f} ms)")

    assert raw_result.stats.candidates > 20 * optimised_result.stats.candidates
    assert optimised_result.stats.elapsed_seconds < 0.5

    # the staged engine kills the explosion at identical outcome sets
    assert staged_result.stats.candidates < raw_result.stats.candidates
    assert staged_result.stats.total_pruned > 0
    assert staged_result.outcomes == raw_result.outcomes

    # the herd-timeout analogue: a tight budget kills the brute-force
    # simulation of the raw test
    with pytest.raises(SimulationTimeout):
        simulate_asm(raw, budget=Budget(max_candidates=400),
                     stages=exhaustive_stages())
