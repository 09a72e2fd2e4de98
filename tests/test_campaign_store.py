"""Persistent campaign store, content digests, sharding, and the
campaign-engine bugfixes (cache identity, pool lifecycle, verdict
strictness)."""

import json

import pytest

from repro.api import CampaignPlan, Session
from repro.api import engine as engine_module
from repro.lang.parser import parse_c_litmus
from repro.lang.printer import print_c_litmus
from repro.pipeline.campaign import CampaignCell, merge_reports
from repro.pipeline.store import STORE_SCHEMA, CampaignStore, cell_key, record_key
from repro.toolchain import Toolchain
from repro.toolchain.results import (
    comparison_from_record,
    outcomes_from_jsonable,
    outcomes_to_jsonable,
)
from repro.tools.diy import DiyConfig, build_test, get_shape

CONFIG = DiyConfig(
    shapes=("LB",), orders=("rlx",), fences=(None,),
    deps=("po", "ctrl2"), variants=("load-store",),
)

ARCHES = ("aarch64", "x86_64")
OPTS = ("-O1", "-O2")
COMPILERS = ("llvm", "gcc")


def run_plan(store=None, **fields):
    """One plan, run and folded in a fresh session over ``store``."""
    with Session(store=store) as session:
        return session.run(CampaignPlan(**fields))


def small_run(**kwargs):
    return run_plan(config=CONFIG, arches=ARCHES, opts=OPTS,
                        compilers=COMPILERS, **kwargs)


# --------------------------------------------------------------------------- #
# content digests
# --------------------------------------------------------------------------- #
class TestDigest:
    def test_name_is_not_identity(self):
        a = build_test(get_shape("LB"), "rlx", name="LB001")
        b = build_test(get_shape("LB"), "rlx", name="TOTALLY-DIFFERENT")
        assert a.digest() == b.digest()

    def test_content_is_identity(self):
        a = build_test(get_shape("LB"), "rlx", name="LB001")
        b = build_test(get_shape("LB"), "sc", name="LB001")
        assert a.digest() != b.digest()

    def test_printer_round_trip_preserves_digest(self):
        for shape in ("LB", "MP", "SB", "WRC"):
            for dep in ("po", "ctrl2", "data"):
                original = build_test(get_shape(shape), "rlx", dep=dep)
                reparsed = parse_c_litmus(print_c_litmus(original))
                assert reparsed.digest() == original.digest(), (shape, dep)

    def test_digest_stable_across_processes(self):
        # a fixed-content test must hash identically forever: stored
        # verdicts from past sessions key on it
        litmus = build_test(get_shape("LB"), "rlx", name="LB001")
        assert litmus.digest() == build_test(get_shape("LB"), "rlx").digest()
        assert len(litmus.digest()) == 16
        int(litmus.digest(), 16)  # hex


# --------------------------------------------------------------------------- #
# the cache-identity bugfix: name collisions across DiyConfigs
# --------------------------------------------------------------------------- #
class TestCacheIdentity:
    def test_name_collision_does_not_replay_stale_verdicts(self):
        """Two different tests both named LB001 must not share cache
        entries when caches persist across campaigns (the pre-digest
        code keyed by ``litmus.name`` and replayed the first test's
        verdicts for the second)."""
        relaxed = build_test(get_shape("LB"), "rlx", name="LB001")
        strong = build_test(get_shape("LB"), "sc", name="LB001")
        session = Session()
        first = session.run(CampaignPlan(
            tests=[relaxed], arches=("aarch64",), opts=("-O2",),
            compilers=("llvm",),
        ))
        second = session.run(CampaignPlan(
            tests=[strong], arches=("aarch64",), opts=("-O2",),
            compilers=("llvm",),
        ))
        # the relaxed LB shows the positive difference; the seq_cst one
        # must not inherit it from the shared cache
        assert first.total_positive() == 1
        assert second.total_positive() == 0
        assert second.cached_cells == 0
        assert second.source_simulations == 1

    def test_same_content_different_name_shares_cache(self):
        a = build_test(get_shape("LB"), "rlx", name="LB001")
        b = build_test(get_shape("LB"), "rlx", name="LB999")
        session = Session()
        session.run(CampaignPlan(tests=[a], arches=("aarch64",),
                                 opts=("-O2",), compilers=("llvm",)))
        again = session.run(CampaignPlan(tests=[b], arches=("aarch64",),
                                         opts=("-O2",), compilers=("llvm",)))
        assert again.cached_cells == 1
        assert again.source_simulations == 0
        # the report speaks the *current* test's name
        assert again.positives == [("LB999", "aarch64", "-O2", "llvm")]


# --------------------------------------------------------------------------- #
# verdict strictness
# --------------------------------------------------------------------------- #
class TestCellVerdicts:
    def test_known_verdicts_tally(self):
        cell = CampaignCell()
        for verdict in ("positive", "negative", "equal", "ub-masked"):
            cell.record(verdict)
        assert cell.total == 4
        assert (cell.positive, cell.negative, cell.equal, cell.ub_masked) == (
            1, 1, 1, 1,
        )

    def test_unknown_verdict_raises(self):
        cell = CampaignCell()
        with pytest.raises(ValueError, match="unknown verdict"):
            cell.record("suspicious")
        # nothing was silently counted as equal
        assert cell.total == 0


# --------------------------------------------------------------------------- #
# pool lifecycle
# --------------------------------------------------------------------------- #
class TestPoolLifecycle:
    def test_thread_pool_shut_down_on_unexpected_exception(self, monkeypatch):
        pools = []
        real_pool = engine_module.ThreadPoolExecutor

        def tracking_pool(*args, **kwargs):
            pool = real_pool(*args, **kwargs)
            pools.append(pool)
            return pool

        def explode(*args, **kwargs):
            raise RuntimeError("not a simulation failure")

        monkeypatch.setattr(engine_module, "ThreadPoolExecutor", tracking_pool)
        monkeypatch.setattr(Toolchain, "run_tv", explode)
        with pytest.raises(RuntimeError, match="not a simulation failure"):
            run_plan(config=CONFIG, arches=("aarch64",), opts=("-O2",),
                         compilers=("llvm",), workers=2)
        assert len(pools) == 1
        assert pools[0]._shutdown  # workers released, not leaked


# --------------------------------------------------------------------------- #
# the persistent store
# --------------------------------------------------------------------------- #
class TestStore:
    def test_round_trip_resimulates_nothing(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        cold = small_run(store=path)
        assert cold.store_hits == 0
        total_cells = sum(c.total for c in cold.cells.values())

        # reload from disk in a fresh store object: the acceptance bar —
        # a warm re-run re-simulates zero cells
        store = CampaignStore(path)
        assert len(store) == total_cells == store.loaded
        warm = small_run(store=store, resume=True)
        assert warm.store_hits == total_cells
        assert warm.source_simulations == 0
        assert store.appended == 0

        # identical Table IV body and drill-down
        assert warm.positives == cold.positives
        for key, cell in cold.cells.items():
            other = warm.cells[key]
            assert (cell.positive, cell.negative, cell.equal,
                    cell.ub_masked) == (other.positive, other.negative,
                                        other.equal, other.ub_masked)

    def test_without_resume_store_only_records(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        small_run(store=path)
        store = CampaignStore(path)
        rerun = small_run(store=store)
        assert rerun.store_hits == 0
        assert rerun.source_simulations > 0
        # last-write-wins: re-recording supersedes, not duplicates
        assert len(CampaignStore(path)) == len(store)

    def test_records_are_jsonable_and_rebuild_comparisons(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        small_run(store=path)
        store = CampaignStore(path)
        positives = [r for r in store.records() if r.get("verdict") == "positive"]
        assert positives
        for record in store.records():
            json.dumps(record)  # plain JSON all the way down
            assert record["schema"] == STORE_SCHEMA
            assert record_key(record) == cell_key(
                record["digest"], record["profile"], record["source_model"],
                record["augment"], record["budget_candidates"],
            )
        comparison = comparison_from_record(positives[0])
        assert comparison.verdict() == "positive"
        assert comparison.positive  # the differing outcomes survived the disk

    def test_outcome_set_round_trip(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        small_run(store=path)
        record = CampaignStore(path).records()[0]
        outcomes = outcomes_from_jsonable(record["source_outcomes"])
        assert outcomes_to_jsonable(outcomes) == record["source_outcomes"]

    def test_torn_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        small_run(store=path)
        intact = len(CampaignStore(path))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"schema": 1, "digest": "abc", "trunc')
        recovered = CampaignStore(path)
        assert len(recovered) == intact
        assert recovered.skipped == 1

    def test_foreign_schema_records_are_skipped(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"schema": 999, "digest": "x"}) + "\n")
        store = CampaignStore(path)
        assert len(store) == 0 and store.skipped == 1

    def test_interrupted_campaign_persists_completed_cells(
        self, tmp_path, monkeypatch
    ):
        """Verdicts stream to the store as they land, so a crashed
        campaign resumes from every cell that finished."""
        path = tmp_path / "campaign.jsonl"
        calls = []
        real = Toolchain.run_tv

        def explode_on_third(*args, **kwargs):
            calls.append(1)
            if len(calls) >= 3:
                raise RuntimeError("simulated crash")
            return real(*args, **kwargs)

        monkeypatch.setattr(Toolchain, "run_tv", explode_on_third)
        with pytest.raises(RuntimeError, match="simulated crash"):
            small_run(store=path)
        survivors = CampaignStore(path)
        assert len(survivors) == 2  # the cells that finished before the crash
        # and a resumed run only re-simulates what the crash swallowed
        monkeypatch.setattr(Toolchain, "run_tv", real)
        resumed = small_run(store=path, resume=True)
        assert resumed.store_hits == 2

    def test_unbuildable_profile_is_an_error_cell_not_an_abort(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        report = run_plan(
            tests=[build_test(get_shape("LB"), "rlx", name="LB001")],
            arches=("no-such-arch",), opts=("-O2",), compilers=("llvm",),
            store=path,
        )
        assert report.cells[("no-such-arch", "-O2", "llvm")].errors == 1
        assert report.compiled_tests == 0
        # the error verdict is stored (and keyed) like any other
        assert len(CampaignStore(path)) == 1
        assert CampaignStore(path).records()[0]["status"] == "error"

    def test_resume_without_store_rejected(self):
        """The API and the CLI agree: resume without a store is a usage
        error, not a silent full-cost cold run."""
        with pytest.raises(ValueError, match="needs a store"):
            small_run(resume=True)

    def test_pool_exception_keeps_other_finished_verdicts(
        self, tmp_path, monkeypatch
    ):
        """One crashing cell must not discard the verdicts of cells the
        pool still ran to completion."""
        path = tmp_path / "campaign.jsonl"
        real = Toolchain.run_tv

        def explode_for_gcc(chain, litmus, profile, **kwargs):
            if profile.compiler == "gcc":
                raise RuntimeError("simulated crash")
            return real(chain, litmus, profile, **kwargs)

        monkeypatch.setattr(Toolchain, "run_tv", explode_for_gcc)
        with pytest.raises(RuntimeError, match="simulated crash"):
            small_run(store=path, workers=2)
        survivors = CampaignStore(path)
        # every llvm cell finished and was persisted despite gcc crashing
        llvm_cells = sum(
            1 for r in survivors.records() if r["compiler"] == "llvm"
        )
        assert llvm_cells == len(survivors) > 0

    def test_store_path_accepted_directly(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        report = run_plan(
            tests=[build_test(get_shape("LB"), "rlx", name="LB001")],
            arches=("aarch64",), opts=("-O2",), compilers=("llvm",),
            store=str(path),
        )
        assert report.compiled_tests == 1
        assert path.exists() and len(CampaignStore(path)) == 1


# --------------------------------------------------------------------------- #
# sharding and the deterministic merge
# --------------------------------------------------------------------------- #
class TestShardMerge:
    def test_shards_partition_the_work(self):
        single = small_run()
        shards = [small_run(shard=(k, 3)) for k in range(3)]
        assert sum(sum(c.total for c in s.cells.values()) for s in shards) \
            == sum(c.total for c in single.cells.values())

    def test_merged_shards_equal_single_run_table(self):
        single = small_run()
        shards = [small_run(shard=(k, 4)) for k in range(4)]
        merged = merge_reports(shards)
        # wall-clock is the one legitimately run-dependent field
        single.elapsed_seconds = merged.elapsed_seconds = 0.0
        assert merged.table() == single.table()
        assert merged.positives == sorted(single.positives)
        assert merged.cells.keys() == single.cells.keys()

    def test_merge_order_does_not_matter(self):
        shards = [small_run(shard=(k, 4)) for k in range(4)]
        forward = merge_reports(shards)
        backward = merge_reports(list(reversed(shards)))
        forward.elapsed_seconds = backward.elapsed_seconds = 0.0
        assert forward.table() == backward.table()
        assert forward.positives == backward.positives

    def test_sharded_stores_resume_and_merge(self, tmp_path):
        """The full distributed flow: one store file per shard, warm
        resume per shard, merge equals the single run."""
        single = small_run()
        cold_reports = []
        for k in range(2):
            path = tmp_path / f"shard{k}.jsonl"
            cold_reports.append(small_run(shard=(k, 2), store=path))
            warm = small_run(shard=(k, 2), store=path, resume=True)
            # the warm shard replays its store: zero re-simulation
            assert warm.source_simulations == 0
            assert warm.positives == cold_reports[-1].positives
        merged = merge_reports(cold_reports)
        single.elapsed_seconds = merged.elapsed_seconds = 0.0
        assert merged.table() == single.table()

    def test_bad_shard_rejected(self):
        with pytest.raises(ValueError, match="bad shard"):
            small_run(shard=(4, 4))
        with pytest.raises(ValueError, match="bad shard"):
            small_run(shard=(-1, 2))

    def test_merge_rejects_mixed_models(self):
        a = small_run(shard=(0, 2))
        b = run_plan(config=CONFIG, arches=ARCHES, opts=OPTS,
                         compilers=COMPILERS, source_model="rc11+lb",
                         shard=(1, 2))
        with pytest.raises(ValueError, match="source models"):
            merge_reports([a, b])


# --------------------------------------------------------------------------- #
# the process-pool backend
# --------------------------------------------------------------------------- #
class TestProcessPool:
    def test_process_pool_matches_serial(self):
        serial = run_plan(config=CONFIG, arches=("aarch64", "armv7"),
                              opts=("-O2",), compilers=("llvm",))
        parallel = run_plan(config=CONFIG, arches=("aarch64", "armv7"),
                                opts=("-O2",), compilers=("llvm",),
                                processes=2)
        assert parallel.processes == 2
        assert parallel.positives == serial.positives
        assert parallel.source_simulations == serial.source_simulations
        for key, cell in serial.cells.items():
            other = parallel.cells[key]
            assert (cell.positive, cell.negative, cell.equal) == (
                other.positive, other.negative, other.equal
            )

    def test_process_pool_fills_a_store_resumable_in_process(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        cold = run_plan(config=CONFIG, arches=("aarch64",), opts=("-O2",),
                            compilers=("llvm",), processes=2, store=path)
        warm = run_plan(config=CONFIG, arches=("aarch64",), opts=("-O2",),
                            compilers=("llvm",), store=path, resume=True)
        assert warm.store_hits == sum(c.total for c in cold.cells.values())
        assert warm.source_simulations == 0
        assert warm.positives == cold.positives


# --------------------------------------------------------------------------- #
# CLI plumbing
# --------------------------------------------------------------------------- #
class TestCliFlags:
    def test_campaign_store_resume_shard_flags(self, tmp_path, capsys):
        from repro.pipeline.cli import main

        path = str(tmp_path / "store.jsonl")
        args = ["campaign", "--small", "--arch", "aarch64", "--opt=-O2",
                "--store", path]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "store" in out and "appended" in out

        assert main(args + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "0 source simulations" in out

        assert main(args + ["--shard", "0/2"]) == 0

    def test_resume_requires_store(self, capsys):
        from repro.pipeline.cli import main

        assert main(["campaign", "--small", "--resume"]) == 2
        assert "--resume needs --store" in capsys.readouterr().err

    def test_bad_shard_rejected_by_parser(self):
        from repro.pipeline.cli import build_parser

        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["campaign", "--shard", "4/4"])
        with pytest.raises(SystemExit):
            parser.parse_args(["campaign", "--shard", "nonsense"])
