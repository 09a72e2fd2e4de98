"""The repro.api surface: sessions, plans, the event stream, and the
stream↔batch parity guarantee."""

import json

import pytest

from repro.api import (
    CampaignFinished,
    CampaignPlan,
    CampaignStarted,
    CellFinished,
    PlanError,
    Session,
    ShardMerged,
    fold_events,
)
from repro.cat.registry import MODELS, get_source
from repro.tools.diy import DiyConfig, build_test, get_shape, small_config

CONFIG = DiyConfig(
    shapes=("LB",), orders=("rlx",), fences=(None,),
    deps=("po", "ctrl2"), variants=("load-store",),
)

PLAN = CampaignPlan(
    config=CONFIG, arches=("aarch64", "x86_64"), opts=("-O1", "-O2"),
    compilers=("llvm", "gcc"),
)


def report_bytes(report):
    """The canonical byte string the parity guarantee is stated in."""
    return json.dumps(
        report.to_jsonable(include_timing=False), sort_keys=True
    ).encode()


def batch_run(**kwargs):
    """The batch API: one plan, run and folded in a throwaway session."""
    return Session().run(CampaignPlan(
        config=CONFIG, arches=PLAN.arches, opts=PLAN.opts,
        compilers=PLAN.compilers, **kwargs,
    ))


# --------------------------------------------------------------------------- #
# plan validation
# --------------------------------------------------------------------------- #
class TestPlanValidation:
    def test_bad_shard(self):
        with pytest.raises(PlanError, match="bad shard"):
            CampaignPlan(shard=(5, 2))
        with pytest.raises(PlanError, match="bad shard"):
            CampaignPlan(shard=(-1, 4))
        with pytest.raises(PlanError, match="bad shard"):
            CampaignPlan(shard=(0, 0))

    def test_plan_error_is_a_value_error(self):
        """Legacy callers catch ValueError; the plan keeps that contract."""
        with pytest.raises(ValueError):
            CampaignPlan(shard=(2, 2))

    def test_resume_without_store(self):
        with pytest.raises(PlanError, match="needs a store"):
            Session().campaign(CampaignPlan(config=CONFIG, resume=True))

    def test_structural_bounds(self):
        with pytest.raises(PlanError, match="workers"):
            CampaignPlan(workers=0)
        with pytest.raises(PlanError, match="processes"):
            CampaignPlan(processes=-1)
        with pytest.raises(PlanError, match="budget_candidates"):
            CampaignPlan(budget_candidates=0)
        with pytest.raises(PlanError, match="at least one architecture"):
            CampaignPlan(arches=())
        with pytest.raises(PlanError, match="at least one compiler"):
            CampaignPlan(compilers=())
        with pytest.raises(PlanError, match="at least one optimisation"):
            CampaignPlan(opts=())

    def test_sequences_coerced_to_tuples(self):
        plan = CampaignPlan(arches=["aarch64"], opts=["-O2"],
                            compilers=["llvm"], shard=[0, 2])
        assert plan.arches == ("aarch64",)
        assert plan.shard == (0, 2)

    def test_split(self):
        shards = PLAN.split(3)
        assert [p.shard for p in shards] == [(0, 3), (1, 3), (2, 3)]
        with pytest.raises(PlanError, match="already"):
            shards[0].split(2)

    def test_with_model(self):
        assert PLAN.with_model("rc11+lb").source_model == "rc11+lb"
        assert PLAN.source_model == "rc11"  # frozen: original untouched

    def test_describe_is_jsonable(self):
        json.dumps(PLAN.describe())


# --------------------------------------------------------------------------- #
# the event stream
# --------------------------------------------------------------------------- #
class TestEventStream:
    @pytest.fixture(scope="class")
    def events(self):
        return list(Session().campaign(PLAN))

    def test_stream_grammar(self, events):
        assert isinstance(events[0], CampaignStarted)
        assert isinstance(events[-1], CampaignFinished)
        cells = events[1:-1]
        assert cells and all(isinstance(e, CellFinished) for e in cells)
        assert events[0].cells_total == len(cells)
        assert sorted(e.index for e in cells) == list(range(len(cells)))

    def test_cell_events_carry_records(self, events):
        cell = next(e for e in events if isinstance(e, CellFinished))
        assert cell.status in ("ok", "timeout", "error")
        assert cell.record["digest"] == cell.digest
        assert cell.verdict in ("positive", "negative", "equal", "ub-masked")

    def test_events_are_jsonable(self, events):
        for event in events:
            json.dumps(event.as_dict())

    def test_fold_matches_stream_report(self, events):
        session_report = Session().campaign(PLAN).report()
        assert report_bytes(fold_events(events)) == report_bytes(session_report)

    def test_partial_consumption_then_report(self):
        stream = Session().campaign(PLAN)
        consumed = [next(iter(stream))]
        assert isinstance(consumed[0], CampaignStarted)
        report = stream.report()  # drains the rest, loses nothing
        assert report.tests_input == consumed[0].tests_input
        assert sum(c.total for c in report.cells.values()) > 0

    def test_fold_of_incomplete_stream_raises(self):
        with pytest.raises(ValueError, match="incomplete"):
            fold_events([CampaignStarted()])

    def test_early_exit_is_cheap(self):
        """A fuzzing loop can stop at the first positive: unconsumed
        cells are never simulated."""
        session = Session()
        stream = session.campaign(PLAN)
        started = None
        for event in stream:
            if isinstance(event, CampaignStarted):
                started = event
            if isinstance(event, CellFinished) and event.verdict == "positive":
                break
        assert started is not None
        # only the cells up to the first positive were evaluated
        assert len(session.result_cache) < started.cells_total
        assert session.source_cache.misses < started.tests_input

    def test_early_exit_cancels_queued_pool_work(self):
        """Abandoning a parallel stream cancels the queued cells: pool
        shutdown waits only for what is already running."""
        session = Session()
        plan = CampaignPlan(config=CONFIG, arches=PLAN.arches,
                            opts=PLAN.opts, compilers=PLAN.compilers,
                            workers=2)
        started = None
        for event in session.campaign(plan):
            if isinstance(event, CampaignStarted):
                started = event
            if isinstance(event, CellFinished):
                break
        # at most: the consumed cell + the <= workers cells in flight
        # when the stream was closed (the rest were cancelled)
        assert len(session.result_cache) < started.cells_total // 2


# --------------------------------------------------------------------------- #
# stream ↔ batch parity (the acceptance bar)
# --------------------------------------------------------------------------- #
class TestParity:
    @pytest.fixture(scope="class")
    def batch_serial(self):
        return batch_run()

    def test_serial_parity(self, batch_serial):
        folded = Session().campaign(PLAN).report()
        assert report_bytes(folded) == report_bytes(batch_serial)

    def test_thread_parity(self):
        plan = CampaignPlan(
            config=CONFIG, arches=PLAN.arches, opts=PLAN.opts,
            compilers=PLAN.compilers, workers=4,
        )
        folded = Session().campaign(plan).report()
        assert report_bytes(folded) == report_bytes(batch_run(workers=4))

    def test_process_parity(self):
        plan = CampaignPlan(
            config=CONFIG, arches=PLAN.arches, opts=PLAN.opts,
            compilers=PLAN.compilers, processes=2,
        )
        folded = Session().campaign(plan).report()
        assert report_bytes(folded) == report_bytes(batch_run(processes=2))

    def test_serial_thread_process_agree(self, batch_serial):
        """All three backends fold to the identical Table IV bytes."""
        serial = Session().campaign(PLAN).report()
        threaded = Session().campaign(
            CampaignPlan(config=CONFIG, arches=PLAN.arches, opts=PLAN.opts,
                         compilers=PLAN.compilers, workers=3)
        ).report()
        # workers/processes are honest run metadata: mask them before the
        # cross-backend comparison (cells/positives/sims must agree)
        a, b = serial.to_jsonable(include_timing=False), threaded.to_jsonable(include_timing=False)
        a["workers"] = b["workers"] = 0
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    @pytest.mark.parametrize("budget,timeouts", [(2, 14), (5, 2)])
    def test_backend_parity_under_timeouts(self, budget, timeouts):
        """Serial, thread and process backends fold to the same bytes when
        cells time out — source simulations included, which a worker
        reports from its own toolchain's simulate-source stage."""
        reports = [
            Session().run(CampaignPlan(
                config=small_config(), arches=("aarch64",), opts=("-O2",),
                budget_candidates=budget, **backend,
            ))
            for backend in ({}, {"workers": 2}, {"processes": 2})
        ]
        folded = set()
        for report in reports:
            data = report.to_jsonable(include_timing=False)
            data["workers"] = data["processes"] = 0
            folded.add(json.dumps(data, sort_keys=True))
        assert len(folded) == 1
        serial = reports[0]
        assert sum(c.timeouts for c in serial.cells.values()) == timeouts
        assert serial.source_simulations == 7

    def test_sharded_stream_merges_to_single_run(self):
        session = Session()
        stream = session.campaign_sharded(PLAN, 3)
        events = list(stream)
        merges = [e for e in events if isinstance(e, ShardMerged)]
        assert [e.shard for e in merges] == [(0, 3), (1, 3), (2, 3)]
        merged = stream.report()
        single = Session().campaign(PLAN).report()
        assert {k: vars(v) for k, v in merged.cells.items()} == \
               {k: vars(v) for k, v in single.cells.items()}
        assert sorted(merged.positives) == sorted(single.positives)
        assert merged.source_simulations == single.source_simulations


class TestFarmParity:
    """Blessing the same mini-corpus on every execution backend must
    produce byte-identical baseline files — the farm extension of the
    fold_events parity guarantee (completion order and backend never
    leak into the blessed bytes)."""

    @pytest.fixture(scope="class")
    def corpus_template(self, tmp_path_factory):
        from repro.pipeline.farm import generate_corpus

        root = tmp_path_factory.mktemp("farm-parity") / "corpus"
        generate_corpus(
            root,
            suites={"mini": CONFIG},
            profiles=("llvm-O2-AArch64", "gcc-O1-ARM"),
        )
        return root

    def _bless_bytes(self, corpus_template, tmp_path, **plan_fields):
        import shutil

        from repro.api import FarmPlan

        root = tmp_path / "corpus"
        shutil.copytree(corpus_template, root)
        plan = FarmPlan(root=str(root), bless=True, **plan_fields)
        for event in Session().farm(plan):
            pass
        baseline_dir = root / "baselines"
        return {
            path.name: path.read_bytes()
            for path in sorted(baseline_dir.iterdir())
        }

    def test_backends_bless_identically(self, corpus_template, tmp_path):
        serial = self._bless_bytes(corpus_template, tmp_path / "s")
        threaded = self._bless_bytes(corpus_template, tmp_path / "t",
                                     workers=4)
        pooled = self._bless_bytes(corpus_template, tmp_path / "p",
                                   processes=2)
        assert set(serial) == {
            "mini--gcc-O1-ARM--rc11.jsonl",
            "mini--llvm-O2-AArch64--rc11.jsonl",
        }
        assert serial == threaded
        assert serial == pooled


# --------------------------------------------------------------------------- #
# sessions
# --------------------------------------------------------------------------- #
class TestSession:
    def test_private_model_does_not_leak(self):
        session = Session()
        session.register_model("rc11_mine", get_source("rc11+lb"))
        assert session.model("rc11_mine").name == "rc11_mine"
        assert "rc11_mine" not in MODELS
        assert "rc11_mine" not in Session().models

    def test_shadowing_a_global_model(self):
        """A session can shadow ``rc11`` itself; the globals never see it."""
        session = Session()
        session.register_model("rc11", get_source("rc11+lb"))
        lb = build_test(get_shape("LB"), "rlx", name="LB004")
        shadowed = session.test(lb, ("llvm", "-O3", "aarch64"))
        vanilla = Session().test(lb, ("llvm", "-O3", "aarch64"))
        # under the shadowed (weaker) rc11 the LB outcome is allowed at
        # the source, so the compiled test shows no positive difference
        assert vanilla.found_bug and not shadowed.found_bug

    def test_campaign_under_private_model(self):
        session = Session()
        session.register_model("lb_ok", get_source("rc11+lb"))
        plan = CampaignPlan(config=CONFIG, arches=("aarch64",), opts=("-O2",),
                            compilers=("llvm",), source_model="lb_ok")
        report = session.campaign(plan).report()
        assert report.total_positive() == 0
        assert report.source_model == "lb_ok"

    def test_shadowed_model_never_replays_stale_verdicts(self):
        """Cache identity includes what the model *name* resolves to in
        the session — shadowing ``rc11`` after a campaign re-simulates
        under the new model instead of replaying verdicts computed under
        the global one (the PR 2 content-identity rule, for models)."""
        session = Session()
        plan = CampaignPlan(config=CONFIG, arches=("aarch64",),
                            opts=("-O2",), compilers=("llvm",))
        before = session.run(plan)
        assert before.total_positive() > 0
        session.register_model("rc11", get_source("rc11+lb"))
        after = session.run(plan)
        assert after.total_positive() == 0

    def test_session_isas_populated_in_fresh_interpreter(self):
        """The ISA registry populates by import side effect; the session
        overlay must trigger it even when nothing else has."""
        import os
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        out = subprocess.run(
            [sys.executable, "-c",
             "from repro.api import Session; print(Session().isa('aarch64').name)"],
            capture_output=True, text=True, env=env,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "aarch64"

    def test_private_model_refused_by_process_pool(self):
        session = Session()
        session.register_model("lb_ok", get_source("rc11+lb"))
        plan = CampaignPlan(config=CONFIG, arches=("aarch64",), opts=("-O2",),
                            compilers=("llvm",), source_model="lb_ok",
                            processes=2)
        with pytest.raises(PlanError, match="not visible to worker"):
            session.campaign(plan)

    def test_local_guard_sees_through_aliases(self):
        """Shadowing a model and addressing it by a parent-defined alias
        must still trip the process-pool guard."""
        session = Session()
        session.register_model("rc11+lb", get_source("rc11"))
        plan = CampaignPlan(config=CONFIG, arches=("aarch64",), opts=("-O2",),
                            compilers=("llvm",), source_model="RC11-LB",
                            processes=2)
        with pytest.raises(PlanError, match="not visible to worker"):
            session.campaign(plan)

    def test_private_model_refused_by_store(self, tmp_path):
        """Store records key verdicts by name; a session-local model
        behind that name would poison the store."""
        session = Session(store=tmp_path / "s.jsonl")
        session.register_model("rc11", get_source("rc11+lb"))
        plan = CampaignPlan(config=CONFIG, arches=("aarch64",), opts=("-O2",),
                            compilers=("llvm",))
        with pytest.raises(PlanError, match="cannot be keyed"):
            session.campaign(plan)

    def test_session_epochs_drive_campaign_cells(self):
        """A session-registered compiler epoch changes what the campaign
        simulates — validating a compiler fix without touching globals."""
        config = DiyConfig(shapes=("LB",), orders=("rlx",), fences=(None,),
                           deps=("ctrl2",), variants=("load-store",))
        plan = CampaignPlan(config=config, arches=("armv7",), opts=("-O1",),
                            compilers=("gcc",))
        session = Session()
        buggy = session.run(plan)
        assert buggy.total_positive() > 0  # gcc -O1 drops the ctrl dep
        # registering the fixed epoch on the *same* session re-simulates —
        # the epoch's bug set is cache-key identity, not just its name
        session.epochs.register("gcc-12", frozenset())
        assert session.run(plan).total_positive() == 0
        with pytest.raises(PlanError, match="not visible to worker"):
            session.campaign(
                CampaignPlan(config=config, arches=("armv7",), opts=("-O1",),
                             compilers=("gcc",), processes=2)
            )

    def test_session_shapes_drive_generation(self):
        """A session-registered shape is usable from a plan's DiyConfig."""
        from repro.tools.diy import lb_chain

        session = Session()
        session.register_shape(lb_chain(5))
        plan = CampaignPlan(
            config=DiyConfig(shapes=("LB5",), orders=("rlx",), fences=(None,),
                             deps=("po",), variants=("load-store",)),
            arches=("aarch64",), opts=("-O2",), compilers=("llvm",),
        )
        report = session.run(plan)
        assert report.tests_input == 1 and report.compiled_tests == 1
        # the global registry never learns about LB5
        with pytest.raises(Exception, match="unknown shape"):
            Session().run(plan)

    def test_profile_resolution_forms(self):
        session = Session()
        by_tuple = session.profile(("llvm", "-O3", "aarch64"))
        by_name = session.profile("llvm-O3-AArch64")
        assert by_tuple == by_name
        assert session.profile(by_tuple) is by_tuple

    def test_test_by_profile_name(self):
        lb = build_test(get_shape("LB"), "rlx", name="LB004")
        result = Session().test(lb, "llvm-O3-AArch64")
        assert result.found_bug
        assert result.profile.name == "llvm-O3-AArch64"

    def test_session_default_budget(self):
        session = Session(budget_candidates=2)
        lb = build_test(get_shape("LB"), "rlx", name="LB004")
        from repro.core.errors import SimulationTimeout

        with pytest.raises(SimulationTimeout):
            session.test(lb, "llvm-O3-AArch64")

    def test_store_resume_via_session(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        cold = Session(store=path).campaign(PLAN).report()
        assert cold.store_hits == 0
        warm_session = Session(store=path)
        resumed = warm_session.campaign(
            CampaignPlan(config=CONFIG, arches=PLAN.arches, opts=PLAN.opts,
                         compilers=PLAN.compilers, resume=True)
        )
        events = list(resumed)
        assert all(
            e.from_store for e in events if isinstance(e, CellFinished)
        )
        report = resumed.report()
        assert report.store_hits == sum(c.total for c in cold.cells.values())
        assert report.source_simulations == 0  # warm: nothing re-simulated
        assert {k: vars(v) for k, v in report.cells.items()} == \
               {k: vars(v) for k, v in cold.cells.items()}
        assert report.positives == cold.positives
