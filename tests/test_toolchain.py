"""The staged tool-chain: typed artifacts, per-stage caching, differential
campaigns, stage registration, and the explain trace.

Covers the redesign's acceptance criteria:

* a 2-profile differential campaign performs each compile+lift exactly
  once per (test, profile) and each source simulation once per
  (test, model) — asserted on the per-stage cache counters;
* ``fold_events`` parity holds for differential runs across the serial,
  thread-pool and process-pool backends;
* differential and single-profile runs exercise the same s2l path —
  both produce identical compiled litmus tests for the same profile.
"""

import json
import re

import pytest

from repro.api import CampaignPlan, PlanError, Session
from repro.compiler.profiles import make_profile, parse_profile
from repro.core.errors import ReproError, SimulationTimeout
from repro.herd.enumerate import Budget
from repro.papertests import fig7_lb
from repro.pipeline.store import CampaignStore
from repro.toolchain import (
    STAGES,
    CompareStage,
    Toolchain,
    Verdict,
    make_key,
)
from repro.tools.diy import build_test, get_shape


def _tests(n=2):
    shapes = ("LB", "MP", "SB", "S", "R")
    return [
        build_test(get_shape(shapes[i % len(shapes)]), "rlx",
                   name=f"T{i:03d}")
        for i in range(n)
    ]


PROFILE_A = "llvm-O1-AArch64"
PROFILE_B = "llvm-O3-AArch64"


class TestArtifactGraph:
    def test_stage_registry_has_the_fig5_chain(self):
        names = STAGES.names()
        for stage in ("prepare", "compile", "lift", "simulate-source",
                      "simulate-target", "compare"):
            assert stage in names
        # aliases from the paper's tool names resolve too
        assert STAGES.resolve("s2l") == "lift"
        assert STAGES.resolve("mcompare") == "compare"

    def test_keys_chain_from_content_digest(self):
        chain = Toolchain()
        litmus = fig7_lb()
        profile = make_profile("llvm", "-O2", "aarch64")
        prepared = chain.prepare(litmus)
        compiled = chain.compile(prepared, profile)
        lifted = chain.lift(prepared, compiled)
        # provenance is walkable: inputs carry the upstream keys
        assert prepared.inputs == (litmus.digest(),)
        assert compiled.inputs == (prepared.key,)
        assert lifted.inputs == (compiled.key,)
        # ...and identity is content, not name: a renamed copy of the
        # same test produces byte-identical keys
        renamed = build_test(get_shape("LB"), "rlx", name="other_name")
        lb = build_test(get_shape("LB"), "rlx", name="LB001")
        assert chain.prepare(renamed).key == chain.prepare(lb).key

    def test_same_inputs_same_key_across_toolchains(self):
        litmus = fig7_lb()
        profile = make_profile("llvm", "-O2", "aarch64")
        keys = []
        for _ in range(2):
            chain = Toolchain()  # fresh cache each time
            prepared = chain.prepare(litmus)
            compiled = chain.compile(prepared, profile)
            keys.append(compiled.key)
        assert keys[0] == keys[1]

    def test_profile_identity_includes_bug_set(self):
        """The profile *name* carries no version/bug set; artifact keys
        must (a patched-epoch re-run can never replay stale compiles)."""
        chain = Toolchain()
        prepared = chain.prepare(fig7_lb())
        old = make_profile("llvm", "-O2", "aarch64", version=11)
        new = make_profile("llvm", "-O2", "aarch64", version=16)
        assert chain.compile(prepared, old).key != chain.compile(
            prepared, new
        ).key

    def test_compile_reused_across_target_models(self):
        """Per-stage (not per-cell) caching: re-checking under a second
        target model must not recompile."""
        session = Session()
        litmus = fig7_lb()
        session.test(litmus, PROFILE_B)
        stats = session.toolchain().cache.stats()
        assert stats["compile"]["misses"] == 1
        session.test(litmus, PROFILE_B, target_model="aarch64")
        stats = session.toolchain().cache.stats()
        assert stats["compile"]["misses"] == 1  # replayed, not recompiled
        assert stats["lift"]["misses"] == 1
        # the second target simulation did run (same model resolved by
        # default vs explicitly — same key, so it replays too)
        assert stats["simulate-target"]["misses"] == 1


class TestSourceFirst:
    """Both compositions simulate the source before anything compiles,
    so a test whose source times out never reaches ``compile``."""

    def test_session_test_source_timeout_never_compiles(self):
        session = Session()
        with pytest.raises(SimulationTimeout):
            session.test(fig7_lb(), PROFILE_B,
                         budget=Budget(max_candidates=1))
        cache = session.toolchain().cache
        assert cache.misses("simulate-source") == 1
        assert cache.misses("compile") == 0

    def test_serial_campaign_source_timeout_never_compiles(self):
        session = Session()
        report = session.run(CampaignPlan(
            tests=[fig7_lb()], arches=("aarch64",), opts=("-O2", "-O3"),
            compilers=("llvm",), budget_candidates=1,
        ))
        assert report.cells[("aarch64", "-O2", "llvm")].timeouts == 1
        assert report.cells[("aarch64", "-O3", "llvm")].timeouts == 1
        # the timed-out simulation ran once and counts once
        assert report.source_simulations == 1
        cache = session.toolchain().cache
        assert cache.misses("simulate-source") == 1
        assert cache.misses("compile") == 0

    def test_trace_runs_source_before_compile(self):
        session = Session()
        tv = session.explain(fig7_lb(), PROFILE_B)
        assert [e.artifact.stage for e in tv.entries][:3] == [
            "prepare", "simulate-source", "compile",
        ]
        diff = session.explain(fig7_lb(), PROFILE_A,
                               differential_with=PROFILE_B)
        assert [e.artifact.stage for e in diff.entries][:3] == [
            "prepare", "simulate-source", "compile",
        ]

    def test_trace_records_a_stage_that_raised(self):
        """A producer that raised is still in the trace — how a campaign
        counts a timed-out source simulation exactly once."""
        chain = Toolchain()
        litmus = fig7_lb()
        profile = make_profile("llvm", "-O2", "aarch64")
        budget = Budget(max_candidates=1)
        traces = [[], []]
        for trace in traces:
            with pytest.raises(SimulationTimeout):
                chain.run_tv(litmus, profile, budget=budget, trace=trace)
        produced, replayed = traces
        assert [(e.artifact.stage, e.cached) for e in produced] == [
            ("prepare", False), ("simulate-source", False),
        ]
        assert [(e.artifact.stage, e.cached) for e in replayed] == [
            ("prepare", True), ("simulate-source", True),
        ]


class TestDifferentialToolchain:
    def test_both_paths_produce_identical_compiled_litmus(self):
        """Satellite regression: differential runs the same s2l path as
        single-profile runs — identical compiled litmus per profile."""
        session = Session()
        litmus = fig7_lb()
        tv = session.test(litmus, PROFILE_A)
        diff = session.differential(litmus, PROFILE_A, PROFILE_B)
        assert diff.compiled_a == tv.compiled
        assert diff.compiled_a.pretty() == tv.compiled.pretty()
        # and the optimiser actually ran on both branches
        assert diff.stats_a.total_removed > 0
        assert diff.stats_b.total_removed > 0

    def test_run_differential_exposes_s2l_controls(self):
        """The differential entry point threads optimise/unroll/
        source_model through instead of silently dropping them."""
        a = make_profile("llvm", "-O1", "aarch64")
        b = make_profile("llvm", "-O3", "aarch64")
        opt = Toolchain().run_differential(fig7_lb(), a, b)
        raw = Toolchain().run_differential(fig7_lb(), a, b, optimise=False)
        opt_a, opt_b = opt.result_a, opt.result_b
        raw_a, raw_b = raw.result_a, raw.result_b
        # the outcome sets agree (s2l soundness) even though the raw
        # tests carry GOT/stack traffic the optimised ones dropped
        assert opt_a.outcomes == raw_a.outcomes
        assert opt_b.outcomes == raw_b.outcomes

    def test_differential_requires_common_architecture(self):
        chain = Toolchain()
        with pytest.raises(ReproError, match="common architecture"):
            chain.run_differential(
                fig7_lb(),
                make_profile("llvm", "-O2", "aarch64"),
                make_profile("llvm", "-O2", "x86_64"),
            )

    def test_ub_oracle_excuses_racy_sources(self):
        """A racy (plain-access) source makes compiler differences
        uninteresting — the oracle flags it exactly as test_tv does."""
        racy = build_test(get_shape("LB"), "rlx", atomic=False,
                          name="LB_plain")
        session = Session()
        with_oracle = session.differential(racy, PROFILE_A, PROFILE_B)
        assert with_oracle.comparison.source_has_ub
        without = session.differential(racy, PROFILE_A, PROFILE_B,
                                       source_model=None)
        assert not without.comparison.source_has_ub
        assert without.source_result is None

    def test_branches_share_prepare_and_source_artifacts(self):
        session = Session()
        session.differential(fig7_lb(), PROFILE_A, PROFILE_B)
        stats = session.toolchain().cache.stats()
        assert stats["prepare"]["misses"] == 1
        assert stats["compile"]["misses"] == 2  # one per branch
        assert stats["simulate-source"]["misses"] == 1  # the oracle, once


class TestDifferentialCampaigns:
    def test_plan_validation(self):
        with pytest.raises(PlanError, match="at least two"):
            CampaignPlan(mode="differential")
        with pytest.raises(PlanError, match="at least two"):
            CampaignPlan(mode="differential", profiles=(PROFILE_A,))
        with pytest.raises(PlanError, match="duplicates"):
            CampaignPlan(mode="differential",
                         profiles=(PROFILE_A, PROFILE_A))
        with pytest.raises(PlanError, match="differential"):
            CampaignPlan(profiles=(PROFILE_A, PROFILE_B))
        with pytest.raises(PlanError, match="unknown campaign mode"):
            CampaignPlan(mode="sideways")
        plan = CampaignPlan(mode="differential",
                            profiles=[PROFILE_A, PROFILE_B])
        assert plan.profiles == (PROFILE_A, PROFILE_B)
        assert plan.describe()["mode"] == "differential"

    def test_cross_arch_pairing_is_a_plan_error(self):
        plan = CampaignPlan(
            tests=_tests(1), mode="differential",
            profiles=(PROFILE_A, "llvm-O2-x86-64"),
        )
        with pytest.raises(PlanError, match="common architecture"):
            Session().campaign(plan).report()

    def test_unresolvable_profile_is_a_plan_error(self):
        plan = CampaignPlan(
            tests=_tests(1), mode="differential",
            profiles=(PROFILE_A, "llvm-O9-AArch64"),
        )
        with pytest.raises(PlanError, match="failed to resolve"):
            Session().campaign(plan).report()

    def test_cache_hit_counters_acceptance(self):
        """THE acceptance criterion: a 2-profile differential campaign
        over N tests compiles+lifts exactly once per (test, profile) and
        simulates each source exactly once per (test, model)."""
        tests = _tests(3)
        session = Session()
        plan = CampaignPlan(
            tests=tests, mode="differential",
            profiles=(PROFILE_A, PROFILE_B),
        )
        report = session.campaign(plan).report()
        assert report.compiled_tests == len(tests)  # one pair per test
        stats = session.toolchain().cache.stats()
        assert stats["compile"]["misses"] == len(tests) * 2
        assert stats["lift"]["misses"] == len(tests) * 2
        # the target simulation is keyed by the lifted test's content:
        # one run per distinct lifted litmus, however many cells lift to it
        chain = Toolchain()
        lifted = {
            chain.lift(prepared, chain.compile(prepared, parse_profile(spec)))
            .litmus.digest()
            for prepared in map(chain.prepare, tests)
            for spec in (PROFILE_A, PROFILE_B)
        }
        assert stats["simulate-target"]["misses"] == len(lifted) <= len(tests) * 2
        # one source simulation per (test, model): N sims for one model
        assert report.source_simulations == len(tests)
        assert stats["simulate-source"]["misses"] == len(tests)

        # a Claim-4-style re-run under a second source model reuses every
        # compile/lift artifact — only the oracle re-simulates
        report2 = session.campaign(plan.with_model("rc11+lb")).report()
        stats2 = session.toolchain().cache.stats()
        assert stats2["compile"]["misses"] == len(tests) * 2  # unchanged
        assert stats2["lift"]["misses"] == len(tests) * 2
        assert report2.source_simulations == len(tests)  # the new model
        assert stats2["simulate-source"]["misses"] == len(tests) * 2

    def test_fold_parity_across_backends(self):
        """fold_events parity for differential runs: serial, thread pool
        and process pool produce the same report modulo timing."""
        tests = _tests(2)
        base = dict(
            tests=tests, mode="differential",
            profiles=(PROFILE_A, PROFILE_B, "gcc-O2-AArch64"),
        )
        dumps = []
        for extra in ({}, {"workers": 3}, {"processes": 2}):
            with Session() as session:
                report = session.run(CampaignPlan(**base, **extra))
            payload = report.to_jsonable(include_timing=False)
            payload.pop("workers")
            payload.pop("processes")
            dumps.append(json.dumps(payload, sort_keys=True))
        assert dumps[0] == dumps[1] == dumps[2]

    def test_store_resume_differential(self, tmp_path):
        tests = _tests(2)
        path = tmp_path / "diff.jsonl"
        plan = CampaignPlan(
            tests=tests, mode="differential",
            profiles=(PROFILE_A, PROFILE_B), resume=True,
        )
        cold = Session(store=CampaignStore(path)).campaign(plan).report()
        assert cold.store_hits == 0
        warm_session = Session(store=CampaignStore(path))
        warm = warm_session.campaign(plan).report()
        assert warm.store_hits == len(tests)
        assert warm.source_simulations == 0  # nothing re-simulated
        assert warm_session.source_cache.misses == 0
        # untouched: reading the source cache's counters uses no stage
        assert warm_session.toolchain().cache.stats() == {}
        # verdict parity between the cold run and the store replay
        assert json.dumps(
            {k and "|".join(k): (c.positive, c.negative, c.equal)
             for k, c in sorted(cold.cells.items())}
        ) == json.dumps(
            {k and "|".join(k): (c.positive, c.negative, c.equal)
             for k, c in sorted(warm.cells.items())}
        )

    def test_sharded_differential_merges(self):
        tests = _tests(3)
        plan = CampaignPlan(
            tests=tests, mode="differential",
            profiles=(PROFILE_A, PROFILE_B),
        )
        whole = Session().campaign(plan).report()
        sharded = Session().campaign_sharded(plan, 2).report()
        assert sharded.compiled_tests == whole.compiled_tests
        for key, cell in whole.cells.items():
            other = sharded.cells[key]
            assert (cell.positive, cell.negative, cell.equal) == (
                other.positive, other.negative, other.equal
            )

    def test_differential_events_carry_mode_and_artifacts(self):
        plan = CampaignPlan(
            tests=_tests(1), mode="differential",
            profiles=(PROFILE_A, PROFILE_B),
        )
        cells = [e for e in Session().campaign(plan)
                 if type(e).__name__ == "CellFinished"]
        assert len(cells) == 1
        event = cells[0]
        assert event.mode == "differential"
        assert event.opt == "diff"
        assert event.compiler == f"{PROFILE_A}|{PROFILE_B}"
        for stage in ("prepare", "compile:a", "lift:a", "compile:b",
                      "lift:b", "compare", "simulate-source"):
            assert stage in event.artifacts, stage
        assert event.record["mode"] == "differential"
        assert event.record["profile_a"] == PROFILE_A
        # the JSON projection stays serialisable
        json.dumps(event.as_dict(), sort_keys=True)

    def test_tv_events_carry_artifacts(self):
        plan = CampaignPlan(tests=_tests(1), arches=("aarch64",),
                            opts=("-O2",), compilers=("llvm",))
        cells = [e for e in Session().campaign(plan)
                 if type(e).__name__ == "CellFinished"]
        assert cells and cells[0].mode == "tv"
        for stage in ("prepare", "compile", "lift", "simulate-source",
                      "simulate-target", "compare"):
            assert stage in cells[0].artifacts, stage

    def test_cli_differential_json_stream(self, capsys):
        from repro.pipeline.cli import main

        code = main([
            "campaign", "--small", "--json", "--no-progress",
            "--differential", PROFILE_A, PROFILE_B,
        ])
        assert code == 0
        lines = [json.loads(line) for line in
                 capsys.readouterr().out.strip().splitlines()]
        kinds = {line["event"] for line in lines}
        assert {"campaign_started", "cell_finished",
                "campaign_finished"} <= kinds
        diff_cells = [l for l in lines if l["event"] == "cell_finished"]
        assert all(l["mode"] == "differential" for l in diff_cells)


class TestSessionToolchain:
    def test_toolchain_introspection(self):
        session = Session()
        described = session.toolchain().describe()
        stage_names = {entry["name"] for entry in described["stages"]}
        assert "compile" in stage_names and "lift" in stage_names
        assert described["cache"] == {}  # nothing run yet
        session.test(fig7_lb(), PROFILE_B)
        described = session.toolchain().describe()
        assert described["cache"]["compile"]["misses"] == 1

    def test_register_stage_overlay_is_session_local(self):
        class EveryoneWins(CompareStage):
            def signature(self):
                return "everyone-wins-v1"  # never collide with stock

            def run(self, key, *, left, right, prepared):
                verdict = super().run(
                    key, left=left, right=right, prepared=prepared
                )
                comparison = verdict.comparison
                comparison.positive = frozenset()
                comparison.negative = frozenset()
                return Verdict(
                    key=key, stage=self.name,
                    inputs=(left.key, right.key),
                    comparison=comparison,
                )

        litmus = fig7_lb()
        patched = Session()
        patched.register_stage(EveryoneWins())
        assert patched.test(litmus, PROFILE_B).verdict == "equal"
        # another session still sees the stock comparator (fig7 at -O3
        # on AArch64 is the paper's positive LB difference)
        assert Session().test(litmus, PROFILE_B).verdict == "positive"

    def test_explain_trace_renders_every_stage(self):
        session = Session()
        trace = session.explain(fig7_lb(), (*("llvm", "-O2"), "aarch64"))
        stages = [entry.artifact.stage for entry in trace.entries]
        for stage in ("prepare", "compile", "lift", "simulate-source",
                      "simulate-target", "compare"):
            assert stage in stages, stage
        text = trace.render()
        assert "digraph" in text  # the herd execution dot dump
        assert "exists" in text  # the prepared source
        assert re.search(r"ldr|LOAD", text)  # the disassembly
        assert trace.artifact("lift").stats.parsed_instructions > 0

    def test_explain_differential(self):
        session = Session()
        trace = session.explain(
            fig7_lb(), PROFILE_A, differential_with=PROFILE_B
        )
        stages = [entry.artifact.stage for entry in trace.entries]
        assert stages.count("compile") == 2
        assert trace.result.profile_pair == (
            "llvm-O1-AArch64|llvm-O3-AArch64"
        )

    def test_cli_explain_smoke(self, capsys):
        from repro.pipeline.cli import main

        code = main(["explain", "fig7_lb", "--opt=-O2", "--cmem",
                     "rc11+lb"])
        out = capsys.readouterr().out
        assert code == 0  # rc11+lb excuses the LB outcome (Claim 4)
        assert "── prepare" in out and "── compare" in out
        assert "digraph" in out

    def test_record_round_trip_differential(self):
        """Differential records rebuild through comparison_from_record."""
        from repro.toolchain.results import comparison_from_record

        session = Session()
        result = session.differential(fig7_lb(), PROFILE_A, PROFILE_B)
        record = result.to_record()
        rebuilt = comparison_from_record(record)
        assert rebuilt.verdict() == result.verdict
        assert rebuilt.source_outcomes == result.comparison.source_outcomes

    def test_session_local_stages_refuse_pools_and_stores(self, tmp_path):
        """A swapped stage must not be silently ignored by worker
        processes (which build their toolchain from the globals) or
        poison a persistent store (which keys verdicts by name)."""

        class Custom(CompareStage):
            def signature(self):
                return "custom-v1"

        plan_args = dict(tests=_tests(1), arches=("aarch64",),
                         opts=("-O2",), compilers=("llvm",))
        patched = Session()
        patched.register_stage(Custom())
        with pytest.raises(PlanError, match="stage:compare"):
            patched.campaign(
                CampaignPlan(**plan_args, processes=2)
            ).report()
        stored = Session(store=CampaignStore(tmp_path / "s.jsonl"))
        stored.register_stage(Custom())
        with pytest.raises(PlanError, match="stage:compare"):
            stored.campaign(CampaignPlan(**plan_args)).report()
        # thread workers without a store stay fine
        report = patched.campaign(
            CampaignPlan(**plan_args, workers=2)
        ).report()
        assert report.compiled_tests == 1

    def test_reregistering_a_stage_invalidates_cached_cells(self):
        """The in-process result cache must not replay cells the old
        stage set computed after a mid-session register_stage()."""

        class EveryoneWins(CompareStage):
            def signature(self):
                return "everyone-wins-v2"

            def run(self, key, *, left, right, prepared):
                verdict = super().run(
                    key, left=left, right=right, prepared=prepared
                )
                verdict.comparison.positive = frozenset()
                return verdict

        tests = _tests(1)
        plan = CampaignPlan(tests=tests, arches=("aarch64",),
                            opts=("-O3",), compilers=("llvm",))
        session = Session()
        before = session.campaign(plan).report()
        assert before.total_positive() == 1  # LB at -O3: the paper's bug
        session.register_stage(EveryoneWins())
        after = session.campaign(plan).report()
        assert after.cached_cells == 0  # re-simulated, not replayed
        assert after.total_positive() == 0

    def test_bounded_artifact_cache_recomputes_instead_of_growing(self):
        from repro.toolchain import ArtifactCache

        cache = ArtifactCache(max_entries=2)
        for i in range(10):
            cache.get("compile", f"k{i}", lambda i=i: i)
        assert len(cache.stage("compile")) <= 2
        # a replayable key still replays while under the bound
        fresh = ArtifactCache(max_entries=8)
        fresh.get("compile", "k", lambda: "v")
        assert fresh.get("compile", "k", lambda: "other") == "v"
        # ...and even AT capacity a present key is a hit, never a purge
        full = ArtifactCache(max_entries=2)
        full.get("compile", "a", lambda: 1)
        full.get("compile", "b", lambda: 2)
        assert full.get("compile", "a", lambda: 99) == 1
        assert len(full.stage("compile")) == 2

    def test_stages_token_holds_stage_references(self):
        """The token must hold the stage objects themselves — a bare
        id() could be recycled after GC and revive stale entries."""
        session = Session()
        token = session.stages_token()
        assert any(isinstance(item[1], type(STAGES.get("compare")).__mro__[-2])
                   or hasattr(item[1], "run") for item in token)
        # re-registering changes the token
        class Custom(CompareStage):
            def signature(self):
                return "token-test-v1"
        session.register_stage(Custom())
        assert session.stages_token() != token

    def test_session_artifact_cache_is_bounded(self):
        session = Session(artifact_cache_entries=2)
        for i in range(5):
            session.test(_tests(5)[i], PROFILE_B)
        assert len(session.toolchain().cache.stage("compile")) <= 2
        unbounded = Session(artifact_cache_entries=None)
        assert unbounded.toolchain().cache.max_entries is None

    def test_explain_diff_trace_matches_final_verdict(self):
        """The compare stage dump must render the post-oracle
        classification, not contradict the closing verdict line."""
        racy = build_test(get_shape("LB"), "rlx", atomic=False,
                          name="LB_plain")
        session = Session()
        trace = session.explain(racy, PROFILE_A,
                                differential_with=PROFILE_B)
        compare_artifact = trace.artifact("compare")
        assert (compare_artifact.comparison.source_has_ub
                == trace.result.comparison.source_has_ub)

    def test_cli_differential_single_profile_is_a_usage_error(self, capsys):
        from repro.pipeline.cli import main

        code = main(["campaign", "--small", "--differential", PROFILE_A,
                     "--no-progress"])
        assert code == 2
        assert "at least two" in capsys.readouterr().err

    def test_cli_differential_rejects_sweep_flags(self, capsys):
        """Explicit --arch with --differential must not be silently
        ignored — the user would believe the sweep arch ran."""
        from repro.pipeline.cli import main

        code = main(["campaign", "--small", "--differential", PROFILE_A,
                     PROFILE_B, "--arch", "x86_64", "--no-progress"])
        assert code == 2
        assert "profile names" in capsys.readouterr().err

    def test_make_key_is_order_sensitive_and_stable(self):
        assert make_key("compare", "", ("a", "b")) != make_key(
            "compare", "", ("b", "a")
        )
        assert make_key("lift", "optimise=1", ("x",)) == make_key(
            "lift", "optimise=1", ("x",)
        )
