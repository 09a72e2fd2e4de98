"""repro.farm: corpus manifests, blessed baselines, drift diffing, the
farm event stream, and the ``telechat farm`` CLI."""

import json
import os
import random
from pathlib import Path

import pytest

from repro.api import (
    CellFinished,
    FarmFinished,
    FarmPlan,
    FarmStarted,
    PlanError,
    Session,
    SuiteFinished,
)
from repro.pipeline.cli import main
from repro.pipeline.farm import (
    FarmError,
    FarmManifest,
    baseline_record,
    file_digest,
    generate_corpus,
    read_baseline,
    write_baseline,
)
from repro.tools.diy import DiyConfig
from repro.tools.mcompare import diff_baselines

#: a deliberately tiny family — two LB tests (po + the ctrl2 deleted
#: dependency the gcc-O1-ARM profile turns positive) — so end-to-end
#: farm passes stay fast.
MINI_SUITES = {
    "mini": DiyConfig(
        shapes=("LB",), orders=("rlx",), fences=(None,),
        deps=("po", "ctrl2"), variants=("load-store",),
    ),
}
MINI_PROFILES = ("gcc-O1-ARM",)


@pytest.fixture()
def corpus(tmp_path):
    """A generated-and-blessed mini corpus."""
    root = tmp_path / "corpus"
    generate_corpus(root, suites=MINI_SUITES, profiles=MINI_PROFILES)
    for event in Session().farm(FarmPlan(root=str(root), bless=True)):
        pass
    return str(root)


# --------------------------------------------------------------------------- #
# manifest + corpus files
# --------------------------------------------------------------------------- #
class TestManifest:
    def test_generate_and_load_round_trip(self, tmp_path):
        manifest = generate_corpus(tmp_path, suites=MINI_SUITES,
                                   profiles=MINI_PROFILES)
        loaded = FarmManifest.load(tmp_path)
        assert set(loaded.suites) == {"mini"}
        assert loaded.suites["mini"] == manifest.suites["mini"]
        assert loaded.baselines == manifest.baselines
        assert loaded.suites["mini"].tests == 2

    def test_verify_suite_passes_on_intact_file(self, tmp_path):
        generate_corpus(tmp_path, suites=MINI_SUITES, profiles=MINI_PROFILES)
        manifest = FarmManifest.load(tmp_path)
        spec = manifest.verify_suite("mini")
        assert spec.digest == file_digest(tmp_path / "suites" / "mini.jsonl")

    def test_verify_suite_catches_drifted_file(self, tmp_path):
        generate_corpus(tmp_path, suites=MINI_SUITES, profiles=MINI_PROFILES)
        suite_path = tmp_path / "suites" / "mini.jsonl"
        with open(suite_path, "a") as handle:
            handle.write("\n")
        with pytest.raises(FarmError, match="drifted on disk"):
            FarmManifest.load(tmp_path).verify_suite("mini")

    def test_unknown_suite_is_an_error(self, tmp_path):
        generate_corpus(tmp_path, suites=MINI_SUITES, profiles=MINI_PROFILES)
        with pytest.raises(FarmError, match="unknown suite"):
            FarmManifest.load(tmp_path).verify_suite("nope")

    def test_missing_manifest_is_an_error(self, tmp_path):
        with pytest.raises(FarmError, match="no farm manifest"):
            FarmManifest.load(tmp_path)

    def test_manifest_save_is_deterministic(self, tmp_path):
        manifest = generate_corpus(tmp_path, suites=MINI_SUITES,
                                   profiles=MINI_PROFILES)
        first = Path(manifest.manifest_path).read_bytes()
        manifest.save()
        assert Path(manifest.manifest_path).read_bytes() == first


# --------------------------------------------------------------------------- #
# baselines
# --------------------------------------------------------------------------- #
def _record(digest="d1", profile="llvm-O2-AArch64", verdict="equal", **extra):
    record = {
        "schema": 1, "digest": digest, "test": "LB001", "profile": profile,
        "source_model": "rc11", "augment": True, "budget_candidates": 400000,
        "status": "ok", "verdict": verdict,
        "target_outcomes": [{"r0": 0}], "positive": [], "negative": [],
        "seconds": {"source": 0.1}, "source_reused": True,
        "artifacts": {"compile": "abc"}, "source_simulated": False,
    }
    record.update(extra)
    return record


class TestBaselines:
    def test_baseline_record_strips_volatile_fields(self):
        blessed = baseline_record(_record())
        for volatile in ("seconds", "artifacts", "source_reused",
                         "source_simulated"):
            assert volatile not in blessed
        assert blessed["verdict"] == "equal"
        assert blessed["schema"] == 1  # still store-loadable

    def test_write_baseline_is_order_insensitive(self, tmp_path):
        records = [_record(digest=f"d{i}") for i in range(8)]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert write_baseline(records, a) == 8
        shuffled = records[:]
        random.Random(7).shuffle(shuffled)
        write_baseline(shuffled, b)
        assert a.read_bytes() == b.read_bytes()

    def test_read_baseline_tolerates_torn_final_line(self, tmp_path):
        path = tmp_path / "base.jsonl"
        write_baseline([_record()], path)
        with open(path, "a") as handle:
            handle.write('{"digest": "torn-mid-wri')
        assert len(read_baseline(path)) == 1


# --------------------------------------------------------------------------- #
# drift diffing
# --------------------------------------------------------------------------- #
class TestDiffBaselines:
    def test_identical_records_have_no_drift(self):
        records = [_record(digest="d1"), _record(digest="d2")]
        diff = diff_baselines(records, records)
        assert not diff.has_drift
        assert "no drift" in diff.pretty()

    def test_volatile_fields_never_drift(self):
        noisy = _record(seconds={"source": 99.0}, source_reused=False,
                        artifacts={"compile": "other"})
        assert not diff_baselines([_record()], [noisy]).has_drift

    def test_new_and_lost_positive(self):
        blessed = [_record(digest="d1", verdict="equal"),
                   _record(digest="d2", verdict="positive")]
        current = [_record(digest="d1", verdict="positive"),
                   _record(digest="d2", verdict="equal")]
        diff = diff_baselines(blessed, current)
        assert diff.count("new-positive") == 1
        assert diff.count("lost-positive") == 1
        assert "new-positive" in diff.pretty()
        assert "lost-positive" in diff.pretty()

    def test_missing_and_unexpected(self):
        diff = diff_baselines([_record(digest="d1")], [_record(digest="d2")])
        assert diff.count("missing") == 1
        assert diff.count("unexpected") == 1

    def test_outcome_change_with_same_verdict(self):
        current = _record(target_outcomes=[{"r0": 1}])
        diff = diff_baselines([_record()], [current])
        assert diff.count("outcome-change") == 1

    def test_outcome_lists_compare_as_sets(self):
        blessed = _record(target_outcomes=[{"r0": 0}, {"r0": 1}])
        current = _record(target_outcomes=[{"r0": 1}, {"r0": 0}])
        assert not diff_baselines([blessed], [current]).has_drift

    def test_status_change(self):
        diff = diff_baselines([_record()], [_record(status="timeout")])
        assert diff.count("status-change") == 1

    def test_deltas_are_deterministically_ordered(self):
        blessed = [_record(digest=f"d{i}") for i in range(4)]
        diff_a = diff_baselines(blessed, [])
        diff_b = diff_baselines(list(reversed(blessed)), [])
        assert diff_a.deltas == diff_b.deltas


# --------------------------------------------------------------------------- #
# the farm event stream
# --------------------------------------------------------------------------- #
class TestFarmStream:
    def test_bless_then_clean_run(self, corpus):
        events = list(Session().farm(corpus))
        assert isinstance(events[0], FarmStarted)
        assert isinstance(events[-1], FarmFinished)
        assert events[-1].drift == 0
        suite_events = [e for e in events if isinstance(e, SuiteFinished)]
        assert [e.suite for e in suite_events] == ["mini"]
        assert suite_events[0].records == 2
        cells = [e for e in events if isinstance(e, CellFinished)]
        assert len(cells) == 2
        # the ctrl2 deleted-dependency positive is blessed, not drift
        assert "positive" in {e.verdict for e in cells}

    def test_stream_grammar(self, corpus):
        kinds = [e.kind for e in Session().farm(corpus)]
        assert kinds[0] == "farm_started"
        assert kinds[-1] == "farm_finished"
        assert kinds.count("suite_finished") == 1
        # every event serialises
        for event in Session().farm(corpus):
            json.dumps(event.as_dict(), sort_keys=True)

    def test_model_perturbation_drifts(self, corpus):
        plan = FarmPlan(root=corpus, source_model="rc11+lb")
        events = list(Session().farm(plan))
        finished = events[-1]
        assert finished.drift > 0
        suite = next(e for e in events if isinstance(e, SuiteFinished))
        assert suite.drift_counts.get("lost-positive", 0) >= 1
        assert "DRIFT" in suite.report

    def test_unblessed_baseline_is_an_error(self, tmp_path):
        generate_corpus(tmp_path, suites=MINI_SUITES, profiles=MINI_PROFILES)
        stream = Session().farm(str(tmp_path))
        with pytest.raises(FarmError, match="not blessed"):
            for event in stream:
                pass

    def test_unknown_filters_are_errors(self, corpus):
        with pytest.raises(FarmError, match="unknown suites"):
            list(Session().farm(FarmPlan(root=corpus, suites=("nope",))))
        with pytest.raises(FarmError, match="unknown profiles"):
            list(Session().farm(FarmPlan(root=corpus,
                                         profiles=("llvm-O9-Zarch",))))

    def test_rebless_is_byte_identical(self, corpus):
        baseline = os.path.join(corpus, "baselines",
                                "mini--gcc-O1-ARM--rc11.jsonl")
        first = Path(baseline).read_bytes()
        for event in Session().farm(FarmPlan(root=corpus, bless=True)):
            pass
        assert Path(baseline).read_bytes() == first


class TestFarmPlanValidation:
    def test_needs_root(self):
        with pytest.raises(PlanError, match="corpus root"):
            FarmPlan()

    def test_bless_refuses_model_override(self):
        with pytest.raises(PlanError, match="bless under a source_model"):
            FarmPlan(root="x", bless=True, source_model="sc")

    def test_empty_filters_are_errors(self):
        with pytest.raises(PlanError, match="empty suites"):
            FarmPlan(root="x", suites=())
        with pytest.raises(PlanError, match="empty profiles"):
            FarmPlan(root="x", profiles=())

    def test_worker_bounds(self):
        with pytest.raises(PlanError, match="workers"):
            FarmPlan(root="x", workers=0)
        with pytest.raises(PlanError, match="processes"):
            FarmPlan(root="x", processes=-1)


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
class TestFarmCli:
    def _gen(self, root):
        """The CLI default corpus is the full 222-test one — too slow for
        a unit test — so seed the mini corpus through the library and
        drive run/bless/diff through the CLI."""
        generate_corpus(root, suites=MINI_SUITES, profiles=MINI_PROFILES)

    def test_bless_run_and_perturb(self, tmp_path, capsys):
        root = str(tmp_path)
        self._gen(root)
        assert main(["farm", "bless", "--root", root, "--no-progress"]) == 0
        assert main(["farm", "run", "--root", root, "--no-progress"]) == 0
        out = capsys.readouterr().out
        assert "no drift" in out
        assert main(["farm", "run", "--root", root, "--no-progress",
                     "--cmem", "rc11+lb"]) == 1
        out = capsys.readouterr().out
        assert "DRIFT" in out
        assert "lost-positive" in out

    def test_run_before_bless_fails_cleanly(self, tmp_path, capsys):
        root = str(tmp_path)
        self._gen(root)
        assert main(["farm", "run", "--root", root, "--no-progress"]) == 2
        assert "not blessed" in capsys.readouterr().err

    def test_json_stream(self, tmp_path, capsys):
        root = str(tmp_path)
        self._gen(root)
        main(["farm", "bless", "--root", root, "--no-progress"])
        capsys.readouterr()
        assert main(["farm", "run", "--root", root, "--no-progress",
                     "--json"]) == 0
        lines = [json.loads(line)
                 for line in capsys.readouterr().out.splitlines() if line]
        kinds = [line["event"] for line in lines]
        assert kinds[0] == "farm_started"
        assert kinds[-1] == "farm_finished"
        assert "suite_finished" in kinds

    def test_offline_diff(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        write_baseline([_record(verdict="equal")], a)
        write_baseline([_record(verdict="positive")], b)
        assert main(["farm", "diff", str(a), str(a)]) == 0
        assert main(["farm", "diff", str(a), str(b)]) == 1
        assert "new-positive" in capsys.readouterr().out

    def test_gen_declares_unblessed_baselines(self, tmp_path, capsys):
        # 'farm gen' itself, on a corpus small enough for a test: reuse
        # the default profiles but confirm the manifest lands and names
        # every declared baseline cell
        root = str(tmp_path)
        self._gen(root)
        manifest = FarmManifest.load(root)
        assert [spec.profile for spec in manifest.baselines] == ["gcc-O1-ARM"]
        assert not os.path.exists(
            os.path.join(root, manifest.baselines[0].file)
        )
