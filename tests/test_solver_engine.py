"""Tests for the staged solver engine across its four layers:

* the ExecutionEnumerator's pruning stages (soundness: pruning never
  changes an outcome set, only the work),
* compiled Cat models (static prefix / dynamic suffix split),
* the Budget deadline semantics,
* the campaign's source-simulation and result caches + worker pool.
"""

import sys
import time

import pytest

from repro.cat import build_env, get_model, list_models
from repro.cat.interp import DYNAMIC_BASE_NAMES, Model
from repro.cat.stdlib import build_static_env, dynamic_bindings
from repro.core.errors import SimulationTimeout
from repro.herd import (
    Budget,
    CoherenceStage,
    EnumerationStats,
    ExecutionEnumerator,
    default_stages,
    exhaustive_stages,
    simulate_c,
)
from repro.lang import parse_c_litmus
from repro.lang.semantics import elaborate
from repro.papertests import fig7_lb, fig10_mp_rmw, fig11_lb3
from repro.api import CampaignPlan, Session
from repro.tools.diy import DiyConfig

COWW = """
C coww
{ *x = 0; }
void P0(atomic_int* x) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
  atomic_store_explicit(x, 2, memory_order_relaxed);
}
void P1(atomic_int* x) {
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
  int r1 = atomic_load_explicit(x, memory_order_relaxed);
}
exists (P1:r0=2 /\\ P1:r1=1)
"""

CORW = """
C corw
{ *x = 0; }
void P0(atomic_int* x) {
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
  atomic_store_explicit(x, 1, memory_order_relaxed);
}
void P1(atomic_int* x) {
  atomic_store_explicit(x, 2, memory_order_relaxed);
}
exists (P0:r0=2)
"""


def _enumerate(litmus, stages):
    stats = EnumerationStats()
    enumerator = ExecutionEnumerator(
        dict(litmus.init), elaborate(litmus), stats=stats, stages=stages
    )
    return list(enumerator), stats


class TestPruningSoundness:
    """Pruned enumeration must agree with brute force on every outcome,
    under every registered model."""

    @pytest.mark.parametrize(
        "source_fn",
        [fig7_lb, fig10_mp_rmw, fig11_lb3,
         lambda: parse_c_litmus(COWW), lambda: parse_c_litmus(CORW)],
    )
    def test_same_outcomes_fewer_candidates_rc11(self, source_fn):
        litmus = source_fn()
        staged = simulate_c(litmus, "rc11")
        brute = simulate_c(litmus, "rc11", stages=exhaustive_stages())
        assert staged.outcomes == brute.outcomes
        assert staged.flags == brute.flags
        assert staged.stats.candidates <= brute.stats.candidates

    @pytest.mark.parametrize("model", sorted(list_models()))
    def test_same_outcomes_under_every_model(self, model):
        litmus = parse_c_litmus(COWW)
        staged = simulate_c(litmus, model)
        brute = simulate_c(litmus, model, stages=exhaustive_stages())
        assert staged.outcomes == brute.outcomes

    def test_coww_prunes_coherence_prefixes(self):
        """Two same-thread writes to one location leave exactly one
        feasible coherence order; brute force tries both."""
        litmus = parse_c_litmus(COWW)
        staged_cands, staged_stats = _enumerate(litmus, default_stages())
        brute_cands, brute_stats = _enumerate(litmus, exhaustive_stages())
        assert staged_stats.candidates < brute_stats.candidates
        assert staged_stats.total_pruned > 0
        staged_finals = {c.finals for c in staged_cands}
        # every staged candidate also appears under brute force
        assert staged_finals <= {c.finals for c in brute_cands}

    def test_corr_never_reads_backwards(self):
        """CoRR: po-ordered reads never observe coherence-reversed
        writes in any surviving candidate."""
        litmus = parse_c_litmus(COWW)
        result = simulate_c(litmus, "sc")
        for outcome in result.outcomes:
            data = outcome.as_dict()
            # r0=2 then r1=1 would read the coherence order backwards
            assert not (data["P1:r0"] == 2 and data["P1:r1"] == 1)

    def test_stage_counters_recorded(self):
        litmus = fig11_lb3()
        result = simulate_c(litmus, "rc11")
        stats = result.stats.as_dict()
        assert stats["total_pruned"] == result.stats.total_pruned
        assert result.stats.rf_assignments > 0

    def test_custom_stage_plugs_in(self):
        class VetoEverything(CoherenceStage):
            name = "veto"

            def reject_assignment(self, combo, rf_map, values, stats):
                stats.rejected_constraint += 1
                return True

        litmus = fig7_lb()
        stats = EnumerationStats()
        enumerator = ExecutionEnumerator(
            dict(litmus.init), elaborate(litmus),
            stats=stats, stages=(VetoEverything(),),
        )
        assert list(enumerator) == []
        assert stats.rejected_constraint == stats.rf_assignments > 0


class TestCompiledModels:
    @pytest.mark.parametrize("name", sorted(list_models()))
    def test_split_covers_all_statements(self, name):
        model = get_model(name)
        compiled = model.compile()
        assert len(compiled.static_statements) + len(
            compiled.dynamic_statements
        ) == len(model.ast.statements)
        # compilation is cached
        assert model.compile() is compiled

    @pytest.mark.parametrize("name", ["rc11", "aarch64", "x86tso", "ppc"])
    def test_models_have_nontrivial_static_prefix(self, name):
        compiled = get_model(name).compile()
        assert compiled.static_statements  # fences/deps bindings at least
        assert compiled.dynamic_statements  # rf/co checks always dynamic

    @pytest.mark.parametrize("name", sorted(list_models()))
    def test_compiled_agrees_with_interpreted(self, name):
        """Static-prefix + dynamic-suffix evaluation must be observably
        identical to whole-model evaluation."""
        model = get_model(name)
        compiled = model.compile()
        litmus = fig7_lb()
        result = simulate_c(litmus, "sc", keep_executions=True)
        assert result.executions
        for execution, _ in result.executions:
            whole = model.evaluate(build_env(execution))
            static = build_static_env(
                execution.events, execution.po, execution.rmw,
                execution.addr, execution.data, execution.ctrl,
            )
            prefix = compiled.run_static(static.env)
            split = compiled.run_dynamic(
                prefix, dynamic_bindings(execution, static)
            )
            assert split.allowed == whole.allowed
            assert sorted(split.flags) == sorted(whole.flags)
            assert {(c.name, c.passed) for c in split.checks} == {
                (c.name, c.passed) for c in whole.checks
            }

    def test_dynamic_suffix_names(self):
        """A model binding only po-derived names is fully static except
        its rf/co checks."""
        model = Model.from_source(
            "TEST\n"
            "let fences = fencerel(F)\n"
            "let order = po | fences\n"
            "acyclic order as static-check\n"
            "let hb = order | rf\n"
            "acyclic hb as dynamic-check\n"
        )
        compiled = model.compile()
        static_checks = [
            s for s in compiled.static_statements if hasattr(s, "kind")
        ]
        dynamic_checks = [
            s for s in compiled.dynamic_statements if hasattr(s, "kind")
        ]
        assert [c.name for c in static_checks] == ["static-check"]
        assert [c.name for c in dynamic_checks] == ["dynamic-check"]

    def test_dynamic_base_names_match_stdlib(self):
        litmus = fig7_lb()
        result = simulate_c(litmus, "sc", keep_executions=True)
        execution, _ = result.executions[0]
        assert set(dynamic_bindings(execution)) == set(DYNAMIC_BASE_NAMES)


class TestBudgetSemantics:
    def test_deadline_measured_from_first_use(self):
        """A Budget built long before use must not be born expired."""
        budget = Budget(deadline_seconds=0.05)
        time.sleep(0.08)  # older than its own deadline
        budget.check(1)  # first use: starts the clock — no timeout
        with pytest.raises(SimulationTimeout):
            time.sleep(0.08)
            budget.check(2)

    def test_reset_restarts_clock(self):
        budget = Budget(deadline_seconds=0.05)
        budget.check(1)
        time.sleep(0.08)
        budget.reset()
        budget.check(2)  # fresh clock: no timeout

    def test_enumeration_resets_budget(self):
        budget = Budget(deadline_seconds=5.0)
        budget._start = time.perf_counter() - 100.0  # poisoned clock
        litmus = fig7_lb()
        result = simulate_c(litmus, "rc11", budget=budget)  # no timeout
        assert result.outcomes


class TestCampaignCaches:
    CONFIG = DiyConfig(
        shapes=("LB",), orders=("rlx",), fences=(None,),
        deps=("po",), variants=("load-store",),
    )

    def test_source_simulated_exactly_once_per_model(self):
        session = Session()
        cache = session.source_cache
        report = session.run(CampaignPlan(
            config=self.CONFIG, arches=("aarch64", "x86_64"),
            opts=("-O1", "-O2"), compilers=("llvm", "gcc"),
        ))
        assert report.tests_input > 0
        assert report.source_simulations == report.tests_input
        assert cache.misses == report.tests_input
        # 8 cells per test consumed the cached source
        assert cache.hits == report.compiled_tests - cache.misses

    def test_result_cache_skips_repeat_cells(self):
        session = Session()
        plan = CampaignPlan(
            config=self.CONFIG, arches=("aarch64",), opts=("-O2",),
            compilers=("llvm",),
        )
        first = session.run(plan)
        again = session.run(plan)
        assert again.source_simulations == 0
        assert again.cached_cells == again.compiled_tests > 0
        assert again.cells.keys() == first.cells.keys()
        for key, cell in again.cells.items():
            assert cell.positive == first.cells[key].positive
            assert cell.negative == first.cells[key].negative

    def test_worker_pool_is_deterministic(self):
        serial = Session().run(CampaignPlan(
            config=self.CONFIG, arches=("aarch64", "armv7"),
            opts=("-O2",), compilers=("llvm",),
        ))
        threaded = Session().run(CampaignPlan(
            config=self.CONFIG, arches=("aarch64", "armv7"),
            opts=("-O2",), compilers=("llvm",), workers=4,
        ))
        assert threaded.workers == 4
        assert threaded.positives == serial.positives
        assert threaded.source_simulations == serial.source_simulations
        for key, cell in serial.cells.items():
            other = threaded.cells[key]
            assert (cell.positive, cell.negative, cell.equal) == (
                other.positive, other.negative, other.equal
            )

    def test_cache_replays_errors(self):
        from repro.core.cache import KeyedCache
        from repro.core.errors import ReproError

        cache = KeyedCache()
        calls = []

        def explode():
            calls.append(1)
            raise ReproError("boom")

        for _ in range(2):
            with pytest.raises(ReproError):
                cache.get("k", explode)
        assert len(calls) == 1
        assert cache.misses == 1 and cache.hits == 1

    def test_thread_backend_counts_only_cold_sources(self):
        """Run 2 covers T1 ∪ T2 on four threads after run 1 warmed T1's
        sources: only T2's source simulations are reported, exactly,
        although T1's new cells miss the cell memo and run concurrently."""
        from repro.tools.diy import build_test, get_shape

        t1 = [build_test(get_shape(s), "rlx", name=f"T1_{s}")
              for s in ("LB", "MP")]
        t2 = [build_test(get_shape(s), "rlx", name=f"T2_{s}")
              for s in ("SB", "S", "R")]
        session = Session()
        first = session.run(CampaignPlan(
            tests=t1, arches=("aarch64",), opts=("-O2",),
            compilers=("llvm",),
        ))
        assert first.source_simulations == len(t1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the workers finely
        try:
            second = session.run(CampaignPlan(
                tests=t1 + t2, arches=("aarch64",), opts=("-O1", "-O2"),
                compilers=("llvm", "gcc"), workers=4,
            ))
        finally:
            sys.setswitchinterval(interval)
        assert second.cached_cells == len(t1)  # the -O2 llvm cells
        assert second.source_simulations == len(t2)
        assert {key[0] for key in second.source_sim_keys} == {
            t.digest() for t in t2
        }

    def test_telechat_source_reuse_flag(self):
        from repro.compiler import make_profile
        from repro.toolchain import Toolchain

        litmus = fig7_lb()
        chain = Toolchain()
        first = chain.run_tv(litmus, make_profile("llvm", "-O3", "aarch64"))
        second = chain.run_tv(litmus, make_profile("llvm", "-O2", "aarch64"))
        assert second.source_reused and not first.source_reused
        assert second.source_result is first.source_result
        assert chain.cache.misses("simulate-source") == 1
        # a replayed source simulation reports the *original* run's cost,
        # not zero — campaign timing totals must not under-report
        assert second.source_seconds == first.source_seconds > 0.0
