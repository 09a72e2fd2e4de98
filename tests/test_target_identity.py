"""The target simulation is keyed by the lifted test's content.

``Toolchain.simulate_target`` keys its stage by :meth:`AsmLitmus.digest`,
so every cell whose compilation lifts to the same asm litmus test shares
one ``herd(C, M_C)`` run.  These tests pin what makes that sound:

* the digest covers every field a simulation can read, ignores the
  test's name, and is the same in every process;
* ``compare`` names every input it reads in its key (``prepared`` too);
* a shared outcome set equals a fresh simulation of each cell's own
  lifted test, over the whole checked-in corpus;
* no result, record or explain dump carries another test's name.
"""

import json
import os
import pathlib
import subprocess
import sys
from dataclasses import replace

import pytest

from repro.api import CampaignPlan, CellFinished, Session
from repro.compiler.profiles import parse_profile
from repro.core.litmus import Condition
from repro.herd import simulate_asm
from repro.lang.parser import parse_c_litmus
from repro.papertests import fig7_lb
from repro.toolchain import Toolchain, make_key
from repro.tools.sources import SuiteSource

CORPUS = pathlib.Path(__file__).parent / "corpus" / "suites"
SRC = pathlib.Path(__file__).parent.parent / "src"
FARM_PROFILES = ("llvm-O2-AArch64", "gcc-O1-ARM")

LB = """C {name}
{{ *x = 0; *y = 0; }}

void P0(atomic_int* x, atomic_int* y) {{
    int r0 = atomic_load_explicit(x, memory_order_relaxed);
{fence}    atomic_store_explicit(y, 1, memory_order_relaxed);
}}

void P1(atomic_int* x, atomic_int* y) {{
    int r0 = atomic_load_explicit(y, memory_order_relaxed);
    atomic_store_explicit(x, 1, memory_order_relaxed);
}}

exists (P0:r0=1 /\\ P1:r0=1)
"""

#: a relaxed fence compiles to nothing, so these two differently named
#: tests differ in their C source but lift to the same asm test
RELAXED_FENCE = "    atomic_thread_fence(memory_order_relaxed);\n"


def _twins(kind):
    second_fence = RELAXED_FENCE if kind == "distinct-source" else ""
    first = parse_c_litmus(LB.format(name="first_twin", fence=""), "first_twin")
    second = parse_c_litmus(
        LB.format(name="second_twin", fence=second_fence), "second_twin"
    )
    return first, second


def _lifted():
    chain = Toolchain()
    prepared = chain.prepare(fig7_lb())
    profile = parse_profile("llvm-O2-AArch64")
    return chain.lift(prepared, chain.compile(prepared, profile)).litmus


class TestAsmDigest:
    def test_ignores_the_name(self):
        lifted = _lifted()
        assert replace(lifted, name="renamed").digest() == lifted.digest()

    @pytest.mark.parametrize("field", [
        "instruction", "fence_tags", "observed", "addr_env", "layout",
        "widths", "const_locations", "private_locations", "addr_locations",
        "regions", "arch", "init", "condition",
    ])
    def test_each_semantic_field_changes_it(self, field):
        lifted = _lifted()
        thread = lifted.threads[0]
        first = thread.instructions[0]

        def with_thread(**changes):
            threads = (replace(thread, **changes),) + lifted.threads[1:]
            return replace(lifted, threads=threads)

        def with_first(**changes):
            body = (first.evolve(**changes),) + thread.instructions[1:]
            return with_thread(instructions=body)

        changed = {
            "instruction": lambda: with_first(acquire=not first.acquire),
            "fence_tags": lambda: with_first(fence_tags=frozenset({"DMB.ISH"})),
            "observed": lambda: with_thread(observed={**thread.observed, "w9": "r9"}),
            "addr_env": lambda: with_thread(addr_env={**thread.addr_env, "x9": "y"}),
            "layout": lambda: replace(lifted, layout={**lifted.layout, "x": 4}),
            "widths": lambda: replace(lifted, widths={**lifted.widths, "x": 64}),
            "const_locations": lambda: replace(lifted, const_locations=("x",)),
            "private_locations": lambda: replace(
                lifted, private_locations=lifted.private_locations + ("x",)
            ),
            "addr_locations": lambda: replace(
                lifted, addr_locations={**lifted.addr_locations, "got_z": "x"}
            ),
            "regions": lambda: replace(lifted, regions={**lifted.regions, "sp": 16}),
            "arch": lambda: replace(lifted, arch="armv7"),
            "init": lambda: replace(lifted, init={**lifted.init, "x": 1}),
            "condition": lambda: replace(
                lifted, condition=Condition("forall", lifted.condition.prop)
            ),
        }[field]()
        assert changed.digest() != lifted.digest()

    def test_same_in_every_process(self):
        """Sets are sorted before they are hashed: two interpreters with
        different string hash seeds iterate ``fence_tags`` in different
        orders and still agree on the digest."""
        script = """
import json
from dataclasses import replace
from repro.asm.isa.base import Instruction, Op
from repro.compiler.profiles import parse_profile
from repro.papertests import fig7_lb
from repro.toolchain import Toolchain

chain = Toolchain()
prepared = chain.prepare(fig7_lb())
lifted = chain.lift(
    prepared, chain.compile(prepared, parse_profile("llvm-O2-AArch64"))
).litmus
tags = frozenset({"DMB.ISH", "DMB.LD", "DMB.ST", "DSB.SY", "ISB"})
fence = Instruction(op=Op.FENCE, fence_tags=tags)
thread = replace(lifted.threads[0], instructions=(fence,) + lifted.threads[0].instructions)
lifted = replace(lifted, threads=(thread,) + lifted.threads[1:])
print(json.dumps([lifted.digest(), list(tags)]))
"""
        seen = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
            out = subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True,
            ).stdout
            seen.append(json.loads(out))
        (digest_0, order_0), (digest_1, order_1) = seen
        assert order_0 != order_1  # the two processes really disagree
        assert digest_0 == digest_1


class TestStageKeys:
    def test_target_key_is_the_lifted_content(self):
        chain = Toolchain()
        first, second = _twins("distinct-source")
        assert first.digest() != second.digest()
        outs = []
        for litmus in (first, second):
            prepared = chain.prepare(litmus)
            lifted = chain.lift(
                prepared, chain.compile(prepared, parse_profile("llvm-O2-AArch64"))
            )
            outs.append(chain.simulate_target(lifted))
        assert outs[0].key == outs[1].key
        assert outs[0].inputs == (lifted.litmus.digest(),)
        stats = chain.cache.stats()["simulate-target"]
        assert (stats["misses"], stats["hits"]) == (1, 1)

    def test_compare_key_includes_prepared(self):
        """``compare`` reads the prepared source (shared locations and
        condition observables), so two prepared sources never share a
        verdict even over the same two outcome sets."""
        chain = Toolchain()
        first, second = _twins("distinct-source")
        prepared_a, prepared_b = chain.prepare(first), chain.prepare(second)
        profile = parse_profile("llvm-O2-AArch64")
        left = chain.simulate_source(prepared_a)
        right = chain.simulate_target(
            chain.lift(prepared_a, chain.compile(prepared_a, profile))
        )
        verdict_a = chain.compare(left, right, prepared_a)
        verdict_b = chain.compare(left, right, prepared_b)
        assert verdict_a.inputs == (left.key, right.key, prepared_a.key)
        assert verdict_a.key == make_key(
            "compare", "", (left.key, right.key, prepared_a.key)
        )
        assert verdict_a.key != verdict_b.key
        assert chain.cache.stats()["compare"]["misses"] == 2


def _corpus():
    for path in sorted(CORPUS.glob("*.jsonl")):
        yield from SuiteSource(path).iter_tests()


class TestSharedTargetParity:
    @pytest.mark.parametrize("profile", FARM_PROFILES)
    def test_shared_outcomes_equal_a_fresh_simulation(self, profile):
        """Every corpus cell's (possibly shared) target outcome set is
        exactly what its own lifted test simulates to."""
        chain = Toolchain()
        compiler = parse_profile(profile)
        cells = 0
        for litmus in _corpus():
            prepared = chain.prepare(litmus)
            lifted = chain.lift(prepared, chain.compile(prepared, compiler))
            shared = chain.simulate_target(lifted).result
            fresh = simulate_asm(lifted.litmus)
            assert shared.outcomes == fresh.outcomes, litmus.name
            assert shared.flags == fresh.flags, litmus.name
            assert shared.flagged_outcomes == fresh.flagged_outcomes, litmus.name
            cells += 1
        assert cells == 222
        # the corpus does lift to fewer distinct tests than it has cells
        assert chain.cache.stats()["simulate-target"]["misses"] < cells


@pytest.fixture(params=["distinct-source", "renamed-copy"])
def twins(request):
    return _twins(request.param)


class TestOwnNames:
    """A shared artifact carries the name of the test that produced it
    first; nothing the second test gets back may."""

    def test_session_test(self, twins):
        first, second = twins
        session = Session()
        session.test(first, "llvm-O2-AArch64")
        result = session.test(second, "llvm-O2-AArch64")
        assert session.toolchain().cache.stats()["simulate-target"]["hits"] == 1
        assert result.test_name == "second_twin"
        assert result.comparison.test_name == "second_twin"
        assert result.source_result.test_name == "second_twin"
        assert result.target_result.test_name == "second_twin"
        assert result.compiled.name == "second_twin"
        assert result.to_record()["test"] == "second_twin"
        assert result.comparison.pretty().startswith("second_twin: ")

    def test_session_differential(self, twins):
        first, second = twins
        session = Session()
        session.differential(first, "llvm-O1-AArch64", "llvm-O3-AArch64")
        result = session.differential(second, "llvm-O1-AArch64", "llvm-O3-AArch64")
        assert session.toolchain().cache.stats()["simulate-target"]["hits"] >= 2
        assert result.comparison.test_name == "second_twin"
        for sim in (result.result_a, result.result_b, result.source_result):
            assert sim.test_name == "second_twin"
        assert result.compiled_a.name == result.compiled_b.name == "second_twin"

    def test_differential_campaign(self, twins):
        session = Session()
        plan = CampaignPlan(
            tests=list(twins), mode="differential",
            profiles=("llvm-O1-AArch64", "llvm-O3-AArch64"),
        )
        names = [
            (event.record["test"], event.record["digest"])
            for event in session.campaign(plan)
            if isinstance(event, CellFinished)
        ]
        assert sorted(n for n, _ in names) == ["first_twin", "second_twin"]
        digests = {t.name: t.digest() for t in twins}
        assert all(digests[name] == digest for name, digest in names)
        assert session.toolchain().cache.stats()["simulate-target"]["hits"] >= 1

    @pytest.mark.parametrize("differential", [False, True])
    def test_explain(self, twins, differential):
        first, second = twins
        chain = Toolchain()
        kwargs = {}
        if differential:
            kwargs["differential_with"] = parse_profile("llvm-O3-AArch64")
        profile = parse_profile("llvm-O1-AArch64")
        chain.explain(first, profile, **kwargs)
        trace = chain.explain(second, profile, **kwargs)
        assert any(entry.cached for entry in trace.entries
                   if entry.artifact.stage == "simulate-target")
        text = trace.render()
        assert "first_twin" not in text
        assert "second_twin: " in text  # the compare dump's header
        assert trace.artifact("simulate-target").result.test_name == "second_twin"
        assert trace.artifact("compare").comparison.test_name == "second_twin"
        assert trace.result.comparison.test_name == "second_twin"
