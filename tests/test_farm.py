"""repro.farm: corpus manifests, blessed baselines, drift diffing, the
farm event stream, and the ``telechat farm`` CLI."""

import dataclasses
import json
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
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
from repro.lang.parser import parse_c_litmus
from repro.lang.printer import print_c_litmus
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
from repro.tools.mcompare import DELTA_KINDS, BaselineIndex, diff_baselines

#: the checked-in corpus: 3 suites, 222 tests, 2 profiles (444 cells).
CORPUS = Path(__file__).parent / "corpus"

#: the repository root (``src/`` and ``perfbench/`` live under it).
REPO = Path(__file__).resolve().parents[1]

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


def _every_delta_kind():
    """Blessed and current records with one delta of every kind."""
    blessed = [
        _record(digest="np", verdict="equal"),
        _record(digest="lp", verdict="positive"),
        _record(digest="vc", verdict="equal"),
        _record(digest="oc"),
        _record(digest="sc"),
        _record(digest="fc", compiled_loc=4),
        _record(digest="gone"),
    ]
    current = [
        _record(digest="np", verdict="positive"),
        _record(digest="lp", verdict="equal"),
        _record(digest="vc", verdict="negative"),
        _record(digest="oc", target_outcomes=[{"r0": 1}]),
        _record(digest="sc", status="error"),
        _record(digest="fc", compiled_loc=5),
        _record(digest="new"),
    ]
    return blessed, current


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

    def test_write_baseline_orders_tests_that_share_a_digest(self, tmp_path):
        records = [_record(digest="d1", test=f"T{i}") for i in range(4)]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_baseline(records, a)
        write_baseline(records[::-1], b)
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
        # every outcome field at once: the rows' bytes differ, the sets not
        outcomes = [{"r0": 0}, {"r0": 1}, {"r0": 2}]
        fields = ("source_outcomes", "target_outcomes", "outcomes_a",
                  "outcomes_b", "positive", "negative")
        blessed = _record(**{name: outcomes for name in fields})
        current = _record(**{name: outcomes[::-1] for name in fields})
        assert not diff_baselines([blessed], [current]).has_drift

    def test_status_change(self):
        diff = diff_baselines([_record()], [_record(status="timeout")])
        assert diff.count("status-change") == 1

    def test_every_delta_kind_fires(self):
        blessed, current = _every_delta_kind()
        diff = diff_baselines(blessed, current)
        assert sorted(d.kind for d in diff.deltas) == sorted(DELTA_KINDS)
        for kind in DELTA_KINDS:
            assert diff.count(kind) == 1

    @pytest.mark.parametrize("changed", [True, 1.0], ids=["bool", "float"])
    def test_equal_in_python_is_not_equal_in_the_baseline(self, changed):
        """``1 == True == 1.0`` in Python, but each blesses different
        bytes: a change between them is drift, in plain fields and
        inside outcome sets alike."""
        diff = diff_baselines([_record(compiled_loc=1)],
                              [_record(compiled_loc=changed)])
        assert [d.kind for d in diff.deltas] == ["field-change"]
        assert "compiled_loc" in diff.deltas[0].detail
        diff = diff_baselines([_record(target_outcomes=[{"r0": 1}])],
                              [_record(target_outcomes=[{"r0": changed}])])
        assert [d.kind for d in diff.deltas] == ["outcome-change"]

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


# --------------------------------------------------------------------------- #
# the session's suite cache
# --------------------------------------------------------------------------- #
#: a test whose condition reads a register no thread writes (LIT001).
BAD_SOURCE = """C bad
{ x = 0; }
void P0(atomic_int* x) { atomic_store_explicit(x, 1, memory_order_relaxed); }
void P1(atomic_int* x) { int r0 = atomic_load_explicit(x, memory_order_relaxed); }
exists (P1:r9=1)
"""


class Calls:
    """``parse_c_litmus`` and ``lint_litmus`` calls, with every parsed
    test and the digest it had when it was parsed."""

    def __init__(self):
        self.parsed = []
        self.lints = 0


@pytest.fixture
def calls(monkeypatch):
    import repro.analysis
    import repro.lang.parser

    seen = Calls()
    parse = repro.lang.parser.parse_c_litmus
    lint = repro.analysis.lint_litmus

    def counting_parse(*args, **kwargs):
        test = parse(*args, **kwargs)
        seen.parsed.append((test, test.digest()))
        return test

    def counting_lint(*args, **kwargs):
        seen.lints += 1
        return lint(*args, **kwargs)

    monkeypatch.setattr(repro.lang.parser, "parse_c_litmus", counting_parse)
    monkeypatch.setattr(repro.analysis, "lint_litmus", counting_lint)
    return seen


def _regenerate_suite(root, lines):
    """Rewrite the mini suite with ``lines`` and record its new digest in
    the manifest, as regenerating the corpus would."""
    manifest = FarmManifest.load(root)
    spec = manifest.suites["mini"]
    path = manifest.path(spec.file)
    Path(path).write_text("".join(line + "\n" for line in lines))
    manifest.suites["mini"] = dataclasses.replace(
        spec, tests=len(lines), digest=file_digest(path)
    )
    manifest.save()


class TestSuiteCache:
    def test_each_suite_is_parsed_and_linted_once_per_session(self, calls):
        with Session() as session:
            cold = list(session.farm(str(CORPUS)))
            assert len(calls.parsed) == calls.lints == 222
            warm = list(session.farm(str(CORPUS)))
            for model in ("sc", "rc11+lb"):
                plan = FarmPlan(root=str(CORPUS), source_model=model)
                for event in session.farm(plan):
                    pass
        assert len(calls.parsed) == calls.lints == 222
        for events in (cold, warm):
            assert events[-1].cells == 444
            assert events[-1].drift == 0
        # the shared tests are read-only: a fresh copy digests the same
        for test, digest in calls.parsed:
            assert dataclasses.replace(test).digest() == digest

    def test_drifted_suite_still_raises(self, corpus):
        with Session() as session:
            assert list(session.farm(corpus))[-1].drift == 0
            suite = os.path.join(corpus, "suites", "mini.jsonl")
            with open(suite, "a") as handle:
                handle.write("\n")
            with pytest.raises(FarmError, match="drifted on disk"):
                list(session.farm(corpus))

    def test_regenerated_suite_is_parsed_again(self, corpus, calls):
        suite = os.path.join(corpus, "suites", "mini.jsonl")
        lines = Path(suite).read_text().splitlines()
        with Session() as session:
            list(session.farm(corpus))
            assert len(calls.parsed) == 2
            # the same tests in a new order: a new digest, the same cells
            _regenerate_suite(corpus, lines[::-1])
            events = list(session.farm(corpus))
            assert len(calls.parsed) == 4
            assert events[-1].drift == 0
            # one test, blessed under the new digest
            _regenerate_suite(corpus, lines[:1])
            plan = FarmPlan(root=corpus, bless=True)
            events = list(session.farm(plan))
            assert len(calls.parsed) == 5
            assert events[-1].cells == 1
            # the suite's path holds one entry, whatever its history
            assert len(session._suites) == 1

    def test_suite_that_fails_lint_raises_on_every_pass(self, corpus, calls):
        bad = parse_c_litmus(BAD_SOURCE, "bad")
        suite = os.path.join(corpus, "suites", "mini.jsonl")
        lines = Path(suite).read_text().splitlines()
        _regenerate_suite(corpus, lines + [json.dumps(
            {"name": "bad", "source": print_c_litmus(bad)}, sort_keys=True,
        )])
        with Session() as session:
            for _ in range(2):
                with pytest.raises(PlanError, match="failed static analysis"):
                    list(session.farm(corpus))
        # three tests parsed and linted on each pass
        assert len(calls.parsed) == calls.lints == 2 * 3


    def test_tests_sharing_a_digest_raise_on_every_pass(self, corpus):
        """A renamed copy of a test would share its baseline row: one of
        the two verdicts would never be diffed."""
        suite = os.path.join(corpus, "suites", "mini.jsonl")
        lines = Path(suite).read_text().splitlines()
        entry = json.loads(lines[0])
        copy = dict(entry, name="copy", source=entry["source"].replace(
            f"C {entry['name']}", "C copy", 1))
        _regenerate_suite(corpus, lines + [json.dumps(copy, sort_keys=True)])
        with Session() as session:
            for _ in range(2):
                with pytest.raises(
                    FarmError,
                    match=f"suite 'mini' .* '{entry['name']}' and 'copy'",
                ):
                    list(session.farm(corpus))
            assert not session._suites


# --------------------------------------------------------------------------- #
# the session's baseline index
# --------------------------------------------------------------------------- #
def _mini_baseline(root):
    return os.path.join(root, "baselines", "mini--gcc-O1-ARM--rc11.jsonl")


@pytest.fixture
def baseline_reads(monkeypatch):
    """The paths the farm engine reads blessed baselines from."""
    import repro.api.farm

    paths = []
    read = repro.api.farm.read_baseline

    def counting_read(path):
        paths.append(path)
        return read(path)

    monkeypatch.setattr(repro.api.farm, "read_baseline", counting_read)
    return paths


def _suite_reports(events):
    return [(e.report, e.drift_counts)
            for e in events if isinstance(e, SuiteFinished)]


class TestBaselineCache:
    def test_each_baseline_is_read_once_per_session(self, baseline_reads):
        with Session() as session:
            cold = list(session.farm(str(CORPUS)))
            assert len(baseline_reads) == 6
            warm = list(session.farm(str(CORPUS)))
            assert len(baseline_reads) == 6
            assert len(session._baselines) == 6
        for events in (cold, warm):
            assert events[-1].cells == 444
            assert events[-1].drift == 0

    def test_flipped_verdict_is_read_again(self, corpus, baseline_reads):
        path = _mini_baseline(corpus)
        with Session() as session:
            assert list(session.farm(corpus))[-1].drift == 0
            rows = read_baseline(path)
            flipped = next(r for r in rows if r["verdict"] == "positive")
            flipped["verdict"] = "equal"
            write_baseline(rows, path)
            events = list(session.farm(corpus))
        assert len(baseline_reads) == 2
        [(report, counts)] = _suite_reports(events)
        assert counts == {"new-positive": 1}
        assert f"[new-positive] {flipped['test']}" in report

    def test_torn_final_line_is_read_again(self, corpus, baseline_reads):
        with Session() as session:
            list(session.farm(corpus))
            with open(_mini_baseline(corpus), "a") as handle:
                handle.write('{"digest": "torn-mid-wri')
            events = list(session.farm(corpus))
        assert len(baseline_reads) == 2
        assert events[-1].drift == 0

    def test_bless_then_run_reads_the_file_again(self, corpus, baseline_reads):
        with Session() as session:
            list(session.farm(corpus))
            list(session.farm(FarmPlan(root=corpus, bless=True)))
            events = list(session.farm(corpus))
        assert len(baseline_reads) == 2
        assert events[-1].drift == 0

    def test_one_entry_per_baseline_path(self, corpus):
        path = _mini_baseline(corpus)
        with Session() as session:
            for tail in ("", "\n", '{"torn'):
                with open(path, "a") as handle:
                    handle.write(tail)
                list(session.farm(corpus))
                assert list(session._baselines) == [os.path.abspath(path)]
                assert session._baselines[os.path.abspath(path)][0] == \
                    file_digest(path)

    def test_repeated_recheck_matches_a_fresh_session(self, corpus):
        plan = FarmPlan(root=corpus, source_model="rc11+lb")
        fresh = _suite_reports(Session().farm(plan))
        assert fresh[0][1].get("lost-positive")
        with Session() as session:
            list(session.farm(corpus))
            # another model's drift first: the memo must not answer for it
            sc = _suite_reports(
                session.farm(FarmPlan(root=corpus, source_model="sc")))
            assert sc != fresh
            passes = [_suite_reports(session.farm(plan)) for _ in range(2)]
        assert passes == [fresh, fresh]

    def test_an_index_diffs_like_its_records(self):
        blessed, current = _every_delta_kind()
        expected = diff_baselines(blessed, current)
        index = BaselineIndex(blessed)
        for _ in range(2):  # the second diff answers from the drift memo
            diff = diff_baselines(index, current)
            assert diff.deltas == expected.deltas
            assert diff.pretty() == expected.pretty()


class TestPerfbenchHooks:
    def test_traced_farm_records_baseline_diff_spans(self, corpus):
        """``perfbench/tracing.py`` wraps names in ``src/`` by hand; a
        rename must fail here, not only in a benchmark run."""
        script = textwrap.dedent("""
            import json, sys
            sys.path.insert(0, sys.argv[1])
            from tracing import Recorder, install
            recorder = Recorder()
            install(recorder)
            from repro.api import Session
            with Session() as session:
                for _ in range(2):
                    for event in session.farm(sys.argv[2]):
                        pass
            print(json.dumps([span[0] for span in recorder.spans]))
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
        ))
        run = subprocess.run(
            [sys.executable, "-c", script, str(REPO / "perfbench"), corpus],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert run.returncode == 0, run.stderr
        spans = Counter(json.loads(run.stdout.splitlines()[-1]))
        # one baseline read, then one diff on each pass
        assert spans["farm.baseline_diff"] == 3
        assert spans["farm.suite_read"] > 0


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
