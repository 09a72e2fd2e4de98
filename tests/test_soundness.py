"""The soundness gate: a compiler with none of the modelled bugs may only
remove outcomes (N4455's as-if rule), so with every bug flag off no cell
may come out ``positive``, and every cell must compile and lift.

Under rc11 the LB shapes would still be positive (rc11 forbids the
load buffering the hardware models allow; paper Fig. 7), so the gate
runs under rc11+lb.  CI runs the same gate over the whole corpus.
"""

import pathlib

from repro import papertests
from repro.api import CampaignPlan, Session
from repro.compiler.profiles import ARCHES, DEFAULT_VERSION, make_profile
from repro.toolchain import Toolchain
from repro.tools.sources import SuiteSource

CORPUS = pathlib.Path(__file__).parent / "corpus" / "suites"
OPTS = ("-O0", "-O1", "-O2", "-O3")


def _corpus():
    tests = []
    for path in sorted(CORPUS.glob("*.jsonl")):
        tests.extend(SuiteSource(path).iter_tests())
    return tests


def _bug_free_run(tests, arches, opts):
    """Campaign ``tests`` with the default compiler epochs' bugs fixed."""
    session = Session()
    for compiler, version in DEFAULT_VERSION.items():
        session.epochs.register(f"{compiler}-{version}", frozenset())
    return session.run(CampaignPlan(tests=tuple(tests), arches=arches,
                                    opts=opts, source_model="rc11+lb"))


def _assert_sound(report, cells):
    assert report.positives == []
    assert sum(cell.errors + cell.timeouts for cell in report.cells.values()) == 0
    assert sum(cell.total for cell in report.cells.values()) == cells


def test_x86_exchange_keeps_its_operand():
    """XCHG and LOCK XADD overwrite their register operand with the old
    memory value.  An exchange whose result is unused must not run in
    the register of a local that is observed later (S004's
    ``r0 = load(y); exchange(x, r0)``), or the target reports the old
    ``x`` as ``r0``: an outcome the source forbids."""
    tests = [t for t in _corpus() if t.name in ("S004", "S018", "S032")]
    assert len(tests) == 3
    report = _bug_free_run(tests, ("x86_64",), ("-O1", "-O2", "-O3"))
    _assert_sound(report, 3 * 2 * 3)


def test_soundness_gate_every_fourth_corpus_test():
    """Every 4th test of each suite (as ``test_isa_lifts`` picks them),
    every arch, both compilers, -O0 to -O3."""
    tests = []
    for path in sorted(CORPUS.glob("*.jsonl")):
        tests.extend(list(SuiteSource(path).iter_tests())[::4])
    report = _bug_free_run(tests, ARCHES, OPTS)
    _assert_sound(report, len(tests) * len(ARCHES) * 2 * len(OPTS))


def test_mips_o0_spills_lift():
    """-O0 code spills through the stack register, which MIPS spells
    ``$sp``: every corpus and paper test lifts under mips64 -O0."""
    chain = Toolchain()
    tests = _corpus() + papertests.all_tests()
    for compiler in ("llvm", "gcc"):
        profile = make_profile(compiler, "-O0", "mips64")
        for litmus in tests:
            prepared = chain.prepare(litmus)
            lifted = chain.lift(prepared, chain.compile(prepared, profile))
            assert lifted.litmus.threads
