"""The hunt subsystem: mutation operators, the feedback scheduler, the
delta-debugging reducer, and mode="hunt" campaigns end to end."""

import json

import pytest

from repro.api import (
    CampaignPlan,
    CellFinished,
    HuntProgress,
    PlanError,
    Session,
    TestReduced,
    fold_events,
)
from repro.hunt import (
    HuntScheduler,
    ReductionError,
    example_seeds,
    fig1_masked,
    lb_masked,
    reduce_test,
    test_size,
)
from repro.lang.ast import Fence
from repro.lang.parser import parse_c_litmus
from repro.papertests import fig1_exchange, fig7_lb
from repro.pipeline.store import CampaignStore
from repro.tools.mutate import (
    DEFAULT_OPERATORS,
    MUTATIONS,
    MutationError,
    fuzz_variants,
    iter_mutants,
)

AXES = dict(arches=("aarch64",), opts=("-O2",))
PROFILE = ("llvm", "-O2", "aarch64")


# --------------------------------------------------------------------------- #
# mutation operators
# --------------------------------------------------------------------------- #
class TestMutationRegistry:
    def test_default_operators_registered(self):
        for name in DEFAULT_OPERATORS:
            assert name in MUTATIONS
        assert "drop-fence" in MUTATIONS

    def test_unknown_operator_did_you_mean(self):
        with pytest.raises(MutationError, match="weaken-fence"):
            list(iter_mutants(fig1_masked(), operators=("weaken-fenc",)))

    def test_mutant_names_are_content_derived(self):
        """The historical ``+m{len}`` counter suffix collided across
        repeated calls on renamed tests; digest-derived names cannot."""
        from dataclasses import replace

        seed = fig1_masked()
        renamed = replace(seed, name="other_name")
        by_digest = {m.digest: m.litmus.name for m in iter_mutants(seed)}
        again = {m.digest: m.litmus.name for m in iter_mutants(seed)}
        assert by_digest == again  # repeated calls: same names
        other = {m.digest: m.litmus.name for m in iter_mutants(renamed)}
        # same contents, different seed name: digests line up, names
        # differ in the seed base — never collide with a counter
        assert set(other) == set(by_digest)
        names = list(by_digest.values()) + list(other.values())
        assert len(set(names)) == len(names)

    def test_mutants_do_not_grow_suffix_chains(self):
        seed = fig1_masked()
        first = next(iter(iter_mutants(seed))).litmus
        second = next(iter(iter_mutants(first))).litmus
        assert second.name.count("+") == 1  # flat: base+op.digest

    def test_fig1_masked_mutates_into_fig1_exchange(self):
        """Weakening the masking seq_cst fence to acquire reproduces the
        paper's Fig. 1 test exactly — by content digest."""
        digests = {m.digest for m in iter_mutants(fig1_masked())}
        assert fig1_exchange().digest() in digests

    def test_drop_fence_removes_a_statement(self):
        seed = fig1_masked()
        dropped = [
            m.litmus
            for m in iter_mutants(seed, operators=("drop-fence",))
        ]
        assert dropped
        for mutant in dropped:
            assert test_size(mutant) == test_size(seed) - 1
            fences = sum(
                isinstance(s, Fence) for t in mutant.threads for s in t.body
            )
            assert fences == 1  # the seed has two

    def test_fuzz_variants_respects_limit_and_registry(self):
        session = Session()
        calls = []

        def null_op(litmus):
            calls.append(litmus.name)
            return iter(())

        session.register_mutation("null-op", null_op)
        assert fuzz_variants(
            fig1_masked(), operators=("null-op",),
            registry=session.mutations,
        ) == []
        assert calls == ["fig1_masked"]
        assert len(fuzz_variants(fig1_masked(), limit=3)) == 3


# --------------------------------------------------------------------------- #
# the scheduler
# --------------------------------------------------------------------------- #
class TestHuntScheduler:
    def test_seeds_dedup_by_digest(self):
        sched = HuntScheduler([fig1_masked(), fig1_masked(), lb_masked()])
        assert len(sched.initial()) == 2
        assert sched.duplicates_skipped == 1

    def test_rounds_dedup_and_track_lineage(self):
        sched = HuntScheduler(example_seeds())
        seeds = sched.initial()
        round1 = sched.next_round([])
        assert round1
        digests = {t.digest() for t in seeds} | {t.digest() for t in round1}
        assert len(digests) == sched.unique_tests
        for mutant in round1:
            lineage = sched.lineage(mutant.digest())
            assert lineage.depth == 1
            assert lineage.parent in {t.digest() for t in seeds}
            assert lineage.operator in DEFAULT_OPERATORS

    def test_positives_are_mutated_first(self):
        sched = HuntScheduler(example_seeds(), round_limit=3)
        seeds = sched.initial()
        # claim the *second* seed went positive: its mutants must lead
        positive = seeds[1].digest()
        round1 = sched.next_round([positive])
        assert len(round1) == 3
        for mutant in round1:
            assert sched.lineage(mutant.digest()).parent == positive

    def test_round_limit_resumes_parent_next_round(self):
        capped = HuntScheduler(example_seeds(), round_limit=2)
        first = capped.next_round([])
        second = capped.next_round([])
        free = HuntScheduler(example_seeds(), round_limit=1000)
        everything = {t.digest() for t in free.next_round([])}
        # nothing is lost to the cap: later rounds pick up the remainder
        assert {t.digest() for t in first} < everything
        assert {t.digest() for t in second} <= everything

    def test_resumed_parents_do_not_inflate_duplicate_count(self):
        """Re-enumerating a round_limit-interrupted parent must not
        re-count its already-admitted prefix as duplicates."""
        capped = HuntScheduler(example_seeds(), round_limit=2)
        while capped.next_round([]):
            pass
        free = HuntScheduler(example_seeds(), round_limit=1000)
        while free.next_round([]):
            pass
        assert capped.unique_tests == free.unique_tests
        assert capped.duplicates_skipped == free.duplicates_skipped

    def test_exhaustion_returns_empty(self):
        sched = HuntScheduler([lb_masked()], round_limit=10_000)
        rounds = 0
        while sched.next_round([]):
            rounds += 1
            assert rounds < 50  # the weakening lattice is finite
        assert sched.next_round([]) == []


# --------------------------------------------------------------------------- #
# the reducer
# --------------------------------------------------------------------------- #
class TestReducer:
    def test_reduces_fig1_no_larger_than_handwritten(self):
        session = Session()
        result = session.reduce(fig1_exchange(), PROFILE)
        assert test_size(result.reduced) <= test_size(fig1_exchange())
        assert session.test(result.reduced, PROFILE).verdict == "positive"
        # lineage points back at the original by content digest
        assert result.lineage()["reduced_from"] == fig1_exchange().digest()

    def test_terminates_on_already_minimal(self):
        """Reduction is idempotent: re-reducing a reduced test returns
        it unchanged, with zero steps, after one bounded no-progress
        pass — the reducer never loops on a test it cannot shrink."""
        session = Session()
        litmus = fig7_lb()
        assert session.test(litmus, PROFILE).verdict == "positive"
        minimal = session.reduce(litmus, PROFILE).reduced
        result = session.reduce(minimal, PROFILE)
        assert not result.changed
        assert result.steps == ()
        assert result.reduced.digest() == minimal.digest()
        assert result.reduced.name == minimal.name  # no cosmetic rename
        # 1 input check + one rejected candidate each: strictly bounded
        size = test_size(minimal)
        assert result.checks <= 1 + 3 * size + len(minimal.threads) + 8

    def test_rejects_non_positive_input(self):
        session = Session()
        with pytest.raises(ReductionError):
            session.reduce(fig1_masked(), PROFILE)

    def test_max_checks_budget(self):
        calls = []

        def check(candidate):
            calls.append(candidate)
            return True  # everything "reproduces": reduction runs long

        result = reduce_test(fig1_exchange(), check, max_checks=5)
        assert result.checks <= 5
        # partial progress is kept, not discarded
        assert test_size(result.reduced) <= test_size(fig1_exchange())

    def test_every_step_reverified(self):
        """The reducer never keeps a shrink its oracle rejected."""
        session = Session()

        def check(candidate):
            return session.test(candidate, PROFILE).verdict == "positive"

        result = reduce_test(fig1_exchange(), check)
        for step in result.steps:
            assert step.digest  # each step carries its content identity
        assert check(result.reduced)


# --------------------------------------------------------------------------- #
# hunt campaigns end to end
# --------------------------------------------------------------------------- #
def _run_hunt(session=None, **plan_fields):
    plan = CampaignPlan(
        mode="hunt", tests=tuple(example_seeds()), **AXES, **plan_fields
    )
    if session is None:
        with Session() as fresh:
            return _run_hunt(fresh, **plan_fields)
    events = list(session.campaign(plan))
    return events, fold_events(events)


class TestHuntCampaign:
    def test_finds_fig1_from_non_exposing_seed(self):
        """The acceptance scenario: the seeds themselves are clean, and
        mutation recovers the Fig. 1 exchange bug."""
        events, report = _run_hunt()
        cells = [e for e in events if isinstance(e, CellFinished)]
        seed_cells = [e for e in cells if e.record.get("depth") == 0]
        assert seed_cells and all(
            e.verdict != "positive" for e in seed_cells
        )
        positives = {e.digest for e in cells if e.verdict == "positive"}
        assert fig1_exchange().digest() in positives

    def test_reduction_events_and_size_bound(self):
        events, _ = _run_hunt()
        reduced = [e for e in events if isinstance(e, TestReduced)]
        fig1 = [
            e for e in reduced if e.digest == fig1_exchange().digest()
        ]
        assert fig1, "the Fig. 1 positive was not reduced"
        assert fig1[0].reduced_statements <= test_size(fig1_exchange())
        for event in reduced:
            assert event.record["mode"] == "hunt"
            assert event.record["reduced_from"] == event.digest
            assert event.record["verdict"] == "positive"
            assert "source" in event.record  # self-contained reproducer

    def test_round2_feedback_finds_lb(self):
        """lb_masked needs two weakenings — only a multi-round,
        feedback-driven hunt reaches it."""
        events_1, _ = _run_hunt(mutation_rounds=1)
        events_2, _ = _run_hunt(mutation_rounds=2)

        def positive_names(events):
            return {
                e.test for e in events
                if isinstance(e, CellFinished) and e.verdict == "positive"
            }

        assert not any(
            n.startswith("lb_masked") for n in positive_names(events_1)
        )
        assert any(
            n.startswith("lb_masked") for n in positive_names(events_2)
        )

    def test_hunt_progress_partitions_the_stream(self):
        events, _ = _run_hunt()
        rounds = [e for e in events if isinstance(e, HuntProgress)]
        assert [e.round_index for e in rounds] == list(range(len(rounds)))
        cells = [e for e in events if isinstance(e, CellFinished)]
        assert sum(e.cells for e in rounds) == len(cells)
        assert all(e.mode == "hunt" for e in cells)
        # indexes are deterministic schedule positions
        assert sorted(e.index for e in cells) == list(range(len(cells)))

    def test_backend_parity(self):
        """Same hunt, same folded report — and the same reductions, down
        to which cell's profile each positive is reduced under — on all
        three backends (modulo the parallelism metadata the report
        records).  Completion order must never pick the representative."""
        runs = [_run_hunt(), _run_hunt(workers=4), _run_hunt(processes=2)]
        dumps = []
        reduction_keys = []
        for events, report in runs:
            data = report.to_jsonable(include_timing=False)
            data.pop("workers")
            data.pop("processes")
            dumps.append(json.dumps(data, sort_keys=True))
            reduction_keys.append([
                (e.digest, e.reduced_digest, e.record["profile"])
                for e in events if isinstance(e, TestReduced)
            ])
        assert dumps[0] == dumps[1] == dumps[2]
        assert reduction_keys[0] == reduction_keys[1] == reduction_keys[2]

    def test_store_records_lineage_and_resume(self, tmp_path):
        store_path = tmp_path / "hunt.jsonl"
        session = Session(store=CampaignStore(store_path))
        events, report = _run_hunt(session=session)
        store = CampaignStore(store_path)
        hunt_records = [
            r for r in store.records() if r.get("mode") == "hunt"
        ]
        assert hunt_records
        mutants = [r for r in hunt_records if r.get("operator")]
        assert mutants and all("seed" in r for r in mutants)
        reduced = [r for r in hunt_records if "reduced_from" in r]
        assert reduced
        for record in reduced:
            assert record["reduction_steps"] is not None
            assert record["source"].startswith("C ")
        # a warm re-run replays every cell from the store
        warm_session = Session(store=CampaignStore(store_path))
        warm_events, warm_report = _run_hunt(
            session=warm_session, resume=True
        )
        warm_cells = [
            e for e in warm_events if isinstance(e, CellFinished)
        ]
        assert warm_cells and all(e.from_store for e in warm_cells)
        assert warm_report.to_jsonable(include_timing=False)["cells"] == \
            report.to_jsonable(include_timing=False)["cells"]

    def test_session_hunt_sugar_and_validation(self):
        session = Session()
        stream = session.hunt([fig1_masked()], **AXES, mutation_rounds=1)
        assert any(
            isinstance(e, HuntProgress) for e in stream
        )
        with pytest.raises(PlanError):
            session.hunt(CampaignPlan(**AXES))  # mode is "tv"
        with pytest.raises(PlanError):
            session.hunt([], **AXES)
        with pytest.raises(PlanError):
            _run_hunt(mutations=("no-such-op",))

    def test_plan_validation(self):
        with pytest.raises(PlanError):
            CampaignPlan(mutations=("weaken-fence",))  # tv mode
        with pytest.raises(PlanError):
            CampaignPlan(mode="hunt", shard=(0, 2))
        with pytest.raises(PlanError):
            CampaignPlan(mode="hunt", mutation_limit=0)
        plan = CampaignPlan(mode="hunt", mutations=["weaken-fence"])
        assert plan.mutations == ("weaken-fence",)
        assert plan.describe()["mutations"] == ["weaken-fence"]

    def test_stored_reproducers_round_trip_through_parser(self):
        """Mutant/reduction names carry ``+``/``.`` suffixes and weakened
        conditions print bare (``exists P1:r0=0``); the parser accepts
        both, so a stored reproducer re-parses digest-identically."""
        events, _ = _run_hunt()
        reduced = [e for e in events if isinstance(e, TestReduced)]
        assert reduced
        for event in reduced:
            litmus = parse_c_litmus(str(event.record["source"]))
            assert litmus.name == event.reduced_name
            assert litmus.digest() == event.reduced_digest
        # ...without regressing one-line headers, where the init block
        # opens on the name's line
        one_liner = parse_c_litmus(
            "C mp { *x = 0; }\n"
            "void P0(atomic_int* x) "
            "{ atomic_store_explicit(x, 1, memory_order_relaxed); }\n"
            "exists (x=1)\n"
        )
        assert one_liner.name == "mp"
        assert one_liner.init == {"x": 0}

    def test_no_reduce_skips_reduction(self):
        events, _ = _run_hunt(reduce=False)
        assert not any(isinstance(e, TestReduced) for e in events)

    def test_session_mutation_overlay_drives_hunts(self):
        """A session-registered operator is usable by name — and stays
        invisible to other sessions."""
        session = Session()
        session.register_mutation(
            "nothing", lambda litmus: iter(())
        )
        plan = CampaignPlan(
            mode="hunt", tests=(fig1_masked(),), **AXES,
            mutations=("nothing",), mutation_rounds=1, reduce=False,
        )
        events = list(session.campaign(plan))
        cells = [e for e in events if isinstance(e, CellFinished)]
        assert len(cells) == 2  # the seed cells only: no mutants exist
        with pytest.raises(PlanError):
            list(Session().campaign(plan))
