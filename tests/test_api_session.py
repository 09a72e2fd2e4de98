"""The repro.api surface: sessions, plans, the event stream, and the
stream↔batch parity guarantee."""

import dataclasses
import json
import os
import pathlib
from concurrent.futures.process import BrokenProcessPool

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
from repro.api import session as session_module
from repro.cat.registry import MODELS, get_source
from repro.hunt import example_seeds
from repro.papertests import fig1_exchange
from repro.toolchain import Toolchain
from repro.tools.diy import DiyConfig, build_test, get_shape, small_config

CORPUS = pathlib.Path(__file__).parent / "corpus"

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
    with Session() as session:
        return session.run(CampaignPlan(
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
        with Session() as session:
            folded = session.campaign(plan).report()
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
        reports = []
        for backend in ({}, {"workers": 2}, {"processes": 2}):
            with Session() as session:
                reports.append(session.run(CampaignPlan(
                    config=small_config(), arches=("aarch64",),
                    opts=("-O2",), budget_candidates=budget, **backend,
                )))
        folded = set()
        for report in reports:
            data = report.to_jsonable(include_timing=False)
            data["workers"] = data["processes"] = 0
            folded.add(json.dumps(data, sort_keys=True))
        assert len(folded) == 1
        serial = reports[0]
        assert sum(c.timeouts for c in serial.cells.values()) == timeouts
        assert serial.source_simulations == 7

    @pytest.mark.parametrize(
        "backend", [{}, {"workers": 2}, {"processes": 2}],
        ids=["serial", "threads", "processes"],
    )
    def test_same_session_rerun_is_answered_by_the_memo(self, backend):
        """A repeat in one session is all memo hits on every backend:
        no cell reaches the toolchain or a worker, so no source is
        simulated again."""
        plan = CampaignPlan(
            config=small_config(), arches=("aarch64", "x86_64"),
            opts=("-O1", "-O2"), **backend,
        )
        with Session() as session:
            cold = session.run(plan)
            warm = session.run(plan)
        assert cold.source_simulations == 7
        assert warm.cached_cells == 56
        assert warm.source_simulations == 0
        assert warm.positives == cold.positives
        assert warm.cells == cold.cells

    @pytest.mark.parametrize("mode", ["tv", "differential"])
    @pytest.mark.parametrize(
        "backend", [{}, {"workers": 2}, {"processes": 2}],
        ids=["serial", "threads", "processes"],
    )
    def test_memo_hit_keeps_the_cells_own_identity(self, backend, mode):
        """Two tests with the same content but different names share one
        memo entry; each record still names its own test (and, in
        differential mode, its own profile specs)."""
        original = fig1_exchange()
        renamed = dataclasses.replace(original, name="renamed")
        assert renamed.digest() == original.digest()
        if mode == "tv":
            axes = dict(arches=("aarch64",), opts=("-O2",),
                        compilers=("llvm",))
        else:
            axes = dict(mode="differential",
                        profiles=("llvm-O1-AArch64", "llvm-O2-AArch64"))
        plan = CampaignPlan(tests=(original, renamed), **axes, **backend)
        with Session() as session:
            events = list(session.campaign(plan))
        cells = [e for e in events if isinstance(e, CellFinished)]
        assert sorted(e.test for e in cells) == ["fig1_exchange", "renamed"]
        for event in cells:
            assert event.status == "ok"
            assert event.record["test"] == event.test
            assert event.record["compiler"] == event.compiler
        assert events[-1].cached_cells == 1
        if mode == "differential":
            assert {e.record["profile"] for e in cells} == {
                "llvm-O1-AArch64|llvm-O2-AArch64"
            }

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


BACKENDS = pytest.mark.parametrize(
    "backend", [{}, {"workers": 2}, {"processes": 2}],
    ids=["serial", "threads", "processes"],
)


class TestCachedCells:
    """``cached_cells`` counts the memo hits of the run it reports on —
    never those of another run that lands while its stream is open."""

    @staticmethod
    def _plans(backend):
        # 4 tv cells; a one-round hunt over two seeds, 4 cells as well
        axes = dict(arches=("aarch64",), compilers=("llvm", "gcc"))
        return {
            "tv": CampaignPlan(tests=(fig1_exchange(),),
                               opts=("-O1", "-O2"), **axes, **backend),
            "hunt": CampaignPlan(mode="hunt", tests=example_seeds()[:2],
                                 opts=("-O2",), mutation_rounds=0,
                                 reduce=False, **axes, **backend),
        }

    @staticmethod
    def _cells_and_report(events):
        cells = sum(isinstance(e, CellFinished) for e in events)
        report = fold_events(events)
        assert report.cached_cells <= cells
        return cells, report

    @pytest.mark.parametrize("mode", ["tv", "hunt"])
    @BACKENDS
    def test_interleaved_run_does_not_leak_hits(self, backend, mode):
        plan = self._plans(backend)[mode]
        with Session() as session:
            cold_cells, cold = self._cells_and_report(
                list(session.campaign(plan))
            )
            assert cold.cached_cells == 0
            a = session.campaign(plan)  # built, not yet drained
            b_cells, b = self._cells_and_report(list(session.campaign(plan)))
            a_cells, a_report = self._cells_and_report(list(a))
        assert cold_cells == a_cells == b_cells == 4
        assert b.cached_cells == 4
        assert a_report.cached_cells == a_cells


class TestEventProjection:
    """``as_dict`` is the JSON face of every event (the CLI prints it as
    ``--json``): its keys and value shapes are pinned here."""

    KEYS = {
        "campaign_started": {
            "source_model", "tests_input", "cells_total", "pending",
            "workers", "processes", "shard",
        },
        "cell_finished": {
            "index", "test", "digest", "arch", "opt", "compiler",
            "from_store", "shard", "mode", "record",
        },
        "hunt_progress": {
            "round", "cells", "positives", "scheduled", "unique_tests",
            "duplicates_skipped",
        },
        "test_reduced": {
            "test", "digest", "reduced_name", "reduced_digest",
            "original_statements", "reduced_statements", "steps", "checks",
            "record",
        },
        "shard_merged": {"shard", "report"},
        "farm_started": {
            "root", "suites", "baselines", "tests_total", "workers",
            "processes", "bless",
        },
        "suite_finished": {
            "suite", "profile", "model", "tests", "records", "drift",
            "drift_counts", "report", "blessed",
        },
        "farm_finished": {
            "baselines", "cells", "drift", "blessed", "elapsed_seconds",
        },
        "campaign_finished": {
            "source_model", "compiled_tests", "elapsed_seconds",
            "source_simulations", "cached_cells", "store_hits",
        },
    }

    @pytest.fixture(scope="class")
    def events(self):
        """The first event of each kind, from tv, differential, sharded,
        hunt and farm streams."""
        from repro.api import FarmPlan

        small = dict(config=small_config(), arches=("aarch64",),
                     opts=("-O2",))
        first = {}
        with Session() as session:
            streams = (
                session.campaign(CampaignPlan(**small)),
                session.campaign(CampaignPlan(
                    config=small_config(), mode="differential",
                    profiles=("llvm-O1-AArch64", "llvm-O3-AArch64"),
                )),
                session.campaign_sharded(CampaignPlan(**small), 2),
                session.hunt(example_seeds()[:2], arches=("aarch64",),
                             opts=("-O2",), mutation_rounds=1),
                session.farm(FarmPlan(root=str(CORPUS), suites=("lb",),
                                      profiles=("llvm-O2-AArch64",))),
            )
            for stream in streams:
                for event in stream:
                    first.setdefault(event.kind, event)
        return first

    def test_every_kind_is_covered(self, events):
        assert set(events) == set(self.KEYS)

    def test_keys(self, events):
        for kind, event in events.items():
            data = event.as_dict()
            assert data["event"] == kind
            assert set(data) - {"event"} == self.KEYS[kind], kind
        assert "round_index" not in events["hunt_progress"].as_dict()
        assert "source_sim_keys" not in events["campaign_finished"].as_dict()

    def test_value_shapes(self, events):
        for event in events.values():
            data = event.as_dict()
            if "shard" in data:
                assert data["shard"] is None or type(data["shard"]) is list
            for key in ("record", "drift_counts"):
                if key in data:
                    assert type(data[key]) is dict
            json.dumps(data)
        assert type(events["farm_started"].as_dict()["suites"]) is list
        merged = events["shard_merged"]
        assert merged.as_dict()["report"] == merged.report.to_jsonable()
        assert merged.as_dict()["shard"] == [0, 2]
        finished = events["campaign_finished"]
        assert finished.as_dict()["source_simulations"] == len(
            finished.source_sim_keys
        )
        progress = events["hunt_progress"]
        assert progress.as_dict()["round"] == progress.round_index


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
        with Session() as session:
            for event in session.farm(plan):
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
# the session's process pool
# --------------------------------------------------------------------------- #
@pytest.fixture
def pools(monkeypatch):
    """Every process pool a session builds while the test runs."""
    built = []

    class CountingPool(session_module.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(session_module, "ProcessPoolExecutor", CountingPool)
    return built


def _is_shut_down(pool) -> bool:
    try:
        pool.submit(int).result()
    except RuntimeError:  # also BrokenProcessPool
        return True
    return False


class TestProcessPool:
    def test_one_pool_serves_every_farm_pass(self, pools):
        """Every baseline cell of a farm pass, and every later pass, runs
        on the one pool the session started."""
        from repro.api import FarmFinished, FarmPlan

        plan = FarmPlan(root=str(CORPUS), processes=2)
        with Session() as session:
            cold = list(session.farm(plan))
            assert len(pools) == 1
            hits = session.result_cache.hits
            warm = list(session.farm(plan))
            assert len(pools) == 1
            assert session.result_cache.hits - hits == 444
        assert _is_shut_down(pools[0])
        for events in (cold, warm):
            assert events[-1] == FarmFinished(
                baselines=6, cells=444, drift=0, blessed=0,
                elapsed_seconds=events[-1].elapsed_seconds,
            )

    def test_pool_starts_lazily_and_closes(self, pools):
        def plan(**backend):
            return CampaignPlan(config=CONFIG, arches=("aarch64",),
                                opts=("-O2",), compilers=("llvm",),
                                **backend)

        session = Session()
        session.run(plan(workers=2))
        assert pools == []  # no plan asked for processes
        session.run(plan(processes=2))
        session.run(plan(processes=2, budget_candidates=10))
        assert len(pools) == 1
        session.run(plan(processes=1, budget_candidates=20))
        assert len(pools) == 2  # a new size replaces the pool
        assert _is_shut_down(pools[0])
        session.close()
        assert _is_shut_down(pools[1])
        session.close()  # idempotent
        # a closed session stays usable: the next plan starts a new pool
        session.run(plan(processes=1, budget_candidates=30))
        assert len(pools) == 3
        session.close()

    def test_global_registration_after_fork_reaches_workers(
        self, pools, monkeypatch
    ):
        """Workers are forked copies of the global registries: a model
        registered (or re-registered) globally after the session's pool
        started replaces the pool, so no worker resolves a stale or
        missing definition."""
        for table in ("_entries", "_aliases", "_meta"):
            monkeypatch.setattr(MODELS, table, dict(getattr(MODELS, table)))

        def positives(**plan):
            events = list(session.campaign(CampaignPlan(
                config=CONFIG, arches=("aarch64",), opts=("-O2",),
                compilers=("llvm",), processes=2, **plan)))
            cells = [e for e in events if isinstance(e, CellFinished)]
            assert cells and all(e.status == "ok" for e in cells)
            return sum(e.verdict == "positive" for e in cells)

        with Session() as session:
            under_rc11 = positives()
            assert under_rc11 > 0 and len(pools) == 1
            MODELS.register("rc11_global", get_source("rc11"))
            assert positives(source_model="rc11_global") == under_rc11
            assert len(pools) == 2
            MODELS.register("rc11_global", get_source("rc11+lb"))
            assert positives(source_model="rc11_global") == 0
            assert len(pools) == 3
            assert positives() == under_rc11  # memo hits, same pool
            assert len(pools) == 3

    @pytest.mark.parametrize("argv", [
        ["campaign", "--small", "--arch", "aarch64", "--opt=-O2"],
        ["farm", "run", "--root", str(CORPUS), "--suites", "lb",
         "--profiles", "llvm-O2-AArch64"],
        ["hunt", "--seeds", "examples", "--rounds", "1", "--no-reduce"],
    ], ids=["campaign", "farm", "hunt"])
    def test_cli_commands_close_their_pool(self, pools, argv):
        from repro.pipeline.cli import main

        assert main(argv + ["--processes", "2", "--no-progress"]) == 0
        assert len(pools) == 1
        assert _is_shut_down(pools[0])

    def test_dead_worker_breaks_only_its_run(self, pools, monkeypatch):
        """A worker that dies mid-run: every finished cell streams, the
        run raises, and the next run in the same session starts a fresh
        pool and folds to the serial verdicts."""
        parent = os.getpid()
        real_run_tv = Toolchain.run_tv
        plan = CampaignPlan(config=CONFIG, arches=PLAN.arches,
                            opts=PLAN.opts, compilers=PLAN.compilers,
                            processes=2)
        victim = plan.resolve_tests()[-1].digest()

        def dies_in_worker(chain, litmus, profile, **kwargs):
            if os.getpid() != parent and litmus.digest() == victim:
                os._exit(1)  # this worker only
            return real_run_tv(chain, litmus, profile, **kwargs)

        monkeypatch.setattr(Toolchain, "run_tv", dies_in_worker)
        with Session() as session:
            streamed = []
            with pytest.raises(BrokenProcessPool):
                for event in session.campaign(plan):
                    if isinstance(event, CellFinished):
                        streamed.append(event)
            assert streamed
            assert all(e.digest != victim for e in streamed)
            assert all(e.status == "ok" for e in streamed)
            assert _is_shut_down(pools[0])

            monkeypatch.setattr(Toolchain, "run_tv", real_run_tv)
            rerun = session.run(plan)
            assert len(pools) == 2
            assert rerun.cached_cells == len(streamed)
        serial = batch_run()
        assert rerun.cells == serial.cells
        assert rerun.positives == serial.positives
        assert rerun.compiled_tests == serial.compiled_tests


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

    def test_lift_failure_is_an_error_record(self, monkeypatch, tmp_path):
        """A line the ISA cannot parse fails its cell, not the campaign:
        a serial run completes and stores the cell as an error."""
        from repro.asm.isa.mips import Mips
        from repro.pipeline.store import CampaignStore

        # -O0 spills through a stack register MIPS syntax rejects, so
        # every mips64 -O0 lift raises IsaError
        monkeypatch.setattr(Mips, "stack_reg", "sp")
        path = tmp_path / "campaign.jsonl"
        report = Session(store=path).run(CampaignPlan(
            tests=(fig1_exchange(),), arches=("mips64", "aarch64"),
            opts=("-O0",),
        ))
        for compiler in ("llvm", "gcc"):
            assert report.cells["mips64", "-O0", compiler].errors == 1
            assert report.cells["aarch64", "-O0", compiler].errors == 0
        statuses = sorted((r["arch"], r["status"])
                          for r in CampaignStore(path).records())
        assert statuses == [("aarch64", "ok")] * 2 + [("mips64", "error")] * 2

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


# --------------------------------------------------------------------------- #
# the session lint set: one lint per test per session
# --------------------------------------------------------------------------- #
BAD_TEST_SOURCE = """C vacuous
{ x = 0; }
void P0(atomic_int* x) { atomic_store_explicit(x, 1, memory_order_relaxed); }
void P1(atomic_int* x) { int r0 = atomic_load_explicit(x, memory_order_relaxed); }
exists (P1:r9=1)
"""


@pytest.fixture
def lints(monkeypatch):
    """How many times ``lint_litmus`` ran."""
    import repro.analysis

    real = repro.analysis.lint_litmus
    count = [0]

    def counting(*args, **kwargs):
        count[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(repro.analysis, "lint_litmus", counting)
    return count


class TestLintMemo:
    ONE_PROFILE = CampaignPlan(config=CONFIG, arches=("aarch64",),
                               opts=("-O2",), compilers=("llvm",))

    def test_a_session_lints_each_test_once(self, lints):
        tests = self.ONE_PROFILE.resolve_tests()
        with Session() as session:
            first = session.run(self.ONE_PROFILE)
            assert lints[0] == len(tests) > 0
            for model in ("sc", "rc11+lb"):
                session.run(dataclasses.replace(self.ONE_PROFILE,
                                                source_model=model))
            again = session.run(self.ONE_PROFILE)
        assert lints[0] == len(tests)  # the later campaigns linted 0 tests
        assert again.positives == first.positives

    def test_a_fresh_session_lints_again(self, lints):
        tests = self.ONE_PROFILE.resolve_tests()
        for _ in range(2):
            with Session() as session:
                session.run(self.ONE_PROFILE)
        assert lints[0] == 2 * len(tests)

    def test_a_test_with_errors_raises_on_every_campaign(self, lints):
        from repro.lang.parser import parse_c_litmus

        good = fig1_exchange()
        bad = parse_c_litmus(BAD_TEST_SOURCE, "vacuous")
        plan = dataclasses.replace(self.ONE_PROFILE, config=None, tests=(good, bad))
        with Session() as session:
            for _ in range(2):
                with pytest.raises(PlanError, match="failed static analysis") \
                        as exc_info:
                    session.campaign(plan)
                assert [d.code for d in exc_info.value.diagnostics] == \
                       ["LIT001"]
            # a batch that raised recorded nothing: both were linted twice
            assert lints[0] == 4
            # the clean test alone is linted once more, then never again
            clean = dataclasses.replace(plan, tests=(good,))
            session.campaign(clean)
            session.campaign(clean)
        assert lints[0] == 5
