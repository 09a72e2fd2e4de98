"""Tests for the staged solver engine across its four layers:

* the ExecutionEnumerator's pruning stages (soundness: pruning never
  changes an outcome set, only the work),
* compiled Cat models (static prefix / dynamic suffix split),
* the Budget deadline semantics,
* the campaign's source-simulation and result caches + worker pool.
"""

import pathlib
import sys
import time

import pytest

from repro.cat import build_env, get_model, list_models
from repro.cat.interp import DYNAMIC_BASE_NAMES, Model
from repro.cat.stdlib import build_static_env, dynamic_bindings
from repro.core.errors import SimulationTimeout
from repro.core.execution import Outcome
from repro.herd import (
    Budget,
    CoherenceStage,
    Enumeration,
    EnumerationStats,
    ExecutionEnumerator,
    check,
    default_stages,
    exhaustive_stages,
    run_programs,
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


# --------------------------------------------------------------------- #
# one enumeration, checked under every model
# --------------------------------------------------------------------- #
CORPUS = pathlib.Path(__file__).parent / "corpus" / "suites"
SOURCE_ORDERS = (("sc", "rc11", "rc11+lb"), ("rc11+lb", "rc11", "sc"))
COUNTERS = (
    "path_combinations", "rf_assignments", "candidates", "rejected_value_cycle",
    "rejected_constraint", "rf_sources_pruned", "rejected_rf_coherence",
    "pruned_co_prefixes",
)

#: a registered-style model whose static check fails on every path
#: combination with a non-init store: it skips combinations the C11
#: models check, so its work (and its budget use) is smaller
NO_STORES = Model.from_source(
    "NOSTORES\nempty W \\ IW as no-stores\nacyclic po | rf | co | fr as sc\n"
)

LB_CONDITIONAL = """
C lb_conditional
{ *x = 0; *y = 0; }
void P0(atomic_int* x, atomic_int* y) {
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
  if ((r0 == 1)) {
    atomic_store_explicit(y, 1, memory_order_relaxed);
  }
}
void P1(atomic_int* x, atomic_int* y) {
  int r0 = atomic_load_explicit(y, memory_order_relaxed);
  if ((r0 == 1)) {
    atomic_store_explicit(x, 1, memory_order_relaxed);
  }
}
exists (P0:r0=1 /\\ P1:r0=1)
"""


def _one_pass(init, programs, model, budget=None, keep_executions=False):
    """The reference: enumerate and check in one pass under one budget,
    a combination skipped as soon as the model's static prefix fails."""
    compiled = model.compile()
    stats = EnumerationStats()
    enumerator = ExecutionEnumerator(init, programs, budget=budget, stats=stats)
    outcomes, flagged, flags, kept = set(), set(), set(), []
    enumerator.start()
    try:
        for combo in enumerator.path_combos():
            static = build_static_env(
                combo.events, combo.po, combo.rmw, combo.addr, combo.data, combo.ctrl
            )
            prefix = compiled.run_static(static.env)
            if not prefix.allowed:
                continue
            for candidate in enumerator.candidates_for(combo):
                execution = candidate.execution
                verdict = compiled.run_dynamic(
                    prefix, dynamic_bindings(execution, static, compiled.dynamic_names)
                )
                if not verdict.allowed:
                    continue
                bindings = dict(execution.final_memory())
                bindings.update(candidate.finals_dict())
                outcome = Outcome.of(bindings)
                outcomes.add(outcome)
                if verdict.flags:
                    flags.update(verdict.flags)
                    flagged.add(outcome)
                if keep_executions:
                    kept.append((execution, outcome))
    finally:
        enumerator.finish()
    return outcomes, flags, flagged, stats, kept


def _summary(outcomes, flags, flagged, stats):
    return (
        frozenset(outcomes), frozenset(flags), frozenset(flagged),
        {name: getattr(stats, name) for name in COUNTERS},
    )


def _result_summary(result):
    return _summary(result.outcomes, result.flags, result.flagged_outcomes, result.stats)


def _attempt(run):
    """``run()``'s value, or the (message, count) of its timeout."""
    try:
        return run()
    except SimulationTimeout as exc:
        return ("timeout", str(exc), exc.candidates_explored)


def _execution_view(execution, outcome):
    return (execution.events, execution.rf, execution.co, execution.fr, outcome)


def _source_programs():
    from repro.toolchain import Toolchain
    from repro.tools.sources import SuiteSource

    chain = Toolchain()
    for path in sorted(CORPUS.glob("*.jsonl")):
        for litmus in SuiteSource(path).iter_tests():
            prepared = chain.prepare(litmus).litmus
            yield prepared.name, dict(prepared.init), elaborate(prepared, unroll=2)


class TestSharedEnumeration:
    """``run_programs`` is ``check(Enumeration(...))``: one recorded
    enumeration checked under several models, in any order, answers
    exactly as a one-pass run per model would."""

    @pytest.mark.parametrize("order", SOURCE_ORDERS, ids="-then-".join)
    def test_corpus_checks_match_one_pass_runs(self, order):
        models = [get_model(name) for name in order]
        tests = 0
        for name, init, programs in _source_programs():
            shared = Enumeration(init, programs, record=True)
            for model in models:
                checked = check(shared, model, name=name)
                expected = _summary(*_one_pass(init, programs, model)[:4])
                assert _result_summary(checked) == expected, (name, model.name)
                fresh = run_programs(name, init, programs, model)
                assert _result_summary(fresh) == expected, (name, model.name)
                assert checked.test_name == name
                assert checked.model_name == model.name
            tests += 1
        assert tests == 222

    @pytest.mark.parametrize("skipping_first", [True, False])
    def test_skipped_combinations_are_never_charged(self, skipping_first):
        litmus = parse_c_litmus(LB_CONDITIONAL)
        init, programs = dict(litmus.init), elaborate(litmus)
        models = [get_model(name) for name in ("sc", "rc11", "rc11+lb")]
        models = [NO_STORES] + models if skipping_first else models + [NO_STORES]
        shared = Enumeration(init, programs, record=True)
        assert len(shared.combos) == 4
        for model in models:
            checked = check(shared, model, name=litmus.name)
            assert _result_summary(checked) == _summary(
                *_one_pass(init, programs, model)[:4]
            )
        skipping = check(shared, NO_STORES).stats
        assert 0 < skipping.candidates < check(shared, "sc").stats.candidates

    @pytest.mark.parametrize("order", SOURCE_ORDERS, ids="-then-".join)
    def test_budget_timeouts_replay_identically(self, order):
        """Every budget from 1 up past the whole enumeration: each model
        times out at the same count with the same message as its one-pass
        run, or finishes with the same answer, whatever ran before it on
        the shared enumeration (a combination cut short by a timeout is
        not kept)."""
        models = [get_model(name) for name in order] + [NO_STORES]
        for source in (LB_CONDITIONAL, COWW):
            litmus = parse_c_litmus(source)
            init, programs = dict(litmus.init), elaborate(litmus)
            timeouts = 0
            for limit in range(1, 40):
                shared = Enumeration(init, programs, record=True)
                for model in models:
                    def one_pass():
                        return _summary(*_one_pass(
                            init, programs, model, budget=Budget(max_candidates=limit)
                        )[:4])

                    def shared_check():
                        return _result_summary(check(
                            shared, model, budget=Budget(max_candidates=limit)
                        ))

                    expected = _attempt(one_pass)
                    assert _attempt(shared_check) == expected, (litmus.name, limit, model.name)
                    timeouts += expected[0] == "timeout"
            assert timeouts > 0

    def test_skipping_model_finishes_where_the_others_time_out(self):
        litmus = parse_c_litmus(LB_CONDITIONAL)
        init, programs = dict(litmus.init), elaborate(litmus)
        need = check(Enumeration(init, programs), NO_STORES).stats
        limit = need.candidates + need.rejected_value_cycle + need.rejected_constraint
        shared = Enumeration(init, programs, record=True)
        with pytest.raises(SimulationTimeout) as first:
            check(shared, "rc11", budget=Budget(max_candidates=limit))
        assert first.value.candidates_explored == limit + 1
        assert check(shared, NO_STORES, budget=Budget(max_candidates=limit)).outcomes
        with pytest.raises(SimulationTimeout) as again:
            check(shared, "rc11", budget=Budget(max_candidates=limit))
        assert str(again.value) == str(first.value)

    def test_combinations_past_the_record_limit_stream(self, monkeypatch):
        from repro.herd import enumerate as enumerate_module

        monkeypatch.setattr(enumerate_module, "RECORD_LIMIT", 1)
        litmus = parse_c_litmus(LB_CONDITIONAL)
        init, programs = dict(litmus.init), elaborate(litmus)
        shared = Enumeration(init, programs, record=True)
        for name in ("sc", "rc11", "rc11+lb"):
            model = get_model(name)
            expected = _summary(*_one_pass(init, programs, model)[:4])
            for _ in range(2):
                assert _result_summary(check(shared, model)) == expected
        kept = [entry for entry in shared._recorded if entry is not None]
        assert sum(len(records) for _, _, records in kept) <= 1
        assert 0 < len(kept) < len(shared.combos)

    @pytest.mark.parametrize("source_fn", [fig7_lb, fig11_lb3])
    def test_kept_executions_match(self, source_fn):
        litmus = source_fn()
        init, programs = dict(litmus.init), elaborate(litmus)
        shared = Enumeration(init, programs, keep_executions=True, record=True)
        for name in ("sc", "rc11", "rc11+lb"):
            model = get_model(name)
            for _ in range(2):  # the first check expands, the second replays
                kept = check(shared, model).executions
                reference = _one_pass(init, programs, model, keep_executions=True)[4]
                assert [_execution_view(*pair) for pair in kept] == [
                    _execution_view(*pair) for pair in reference
                ]
        assert simulate_c(litmus, "rc11").executions == ()

    def test_toolchain_enumerates_each_source_test_once(self):
        from repro.compiler import make_profile
        from repro.toolchain import Toolchain
        from repro.toolchain.cache import ENUMERATE_SOURCE

        chain = Toolchain()
        profile = make_profile("llvm", "-O2", "aarch64")
        litmus = fig7_lb()
        for model in ("sc", "rc11", "rc11+lb"):
            result = chain.run_tv(litmus, profile, source_model=model)
            assert result.source_result.outcomes == simulate_c(
                chain.prepare(litmus).litmus, model
            ).outcomes
        assert chain.cache.misses("simulate-source") == 3
        assert chain.cache.misses(ENUMERATE_SOURCE) == 1
        assert chain.cache.hits(ENUMERATE_SOURCE) == 2
        # not a stage: the per-stage counters leave it out
        assert ENUMERATE_SOURCE not in chain.cache.stats()
