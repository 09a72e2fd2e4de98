"""Every ISA front-end prints and parses back what it did before.

The c2s → s2l round trip prints each compiled instruction as objdump
text and parses it back (paper Fig. 6), so a lifted test's content
digest covers both directions of an ISA's syntax.  One sha256 pins the
lifts of all six architectures under llvm and gcc at -O1, -O2 and -O3.
"""

import hashlib
import pathlib

from repro import papertests
from repro.compiler.profiles import ARCHES, make_profile
from repro.toolchain import Toolchain
from repro.tools.sources import SuiteSource

CORPUS = pathlib.Path(__file__).parent / "corpus" / "suites"

#: sha256 over the newline-joined ``AsmLitmus.digest()`` of every lift,
#: arch by arch, then compiler, then opt level, then test
PINNED = "f4143ecf41bb5c7ad0b7870a0d3f6b7667bec58a89ef41c1047d10f244b3f44f"


def _tests():
    """The paper tests plus every 4th test of each corpus suite."""
    tests = papertests.all_tests()
    for path in sorted(CORPUS.glob("*.jsonl")):
        tests.extend(list(SuiteSource(path).iter_tests())[::4])
    return tests


def test_six_isa_lift_digests_are_pinned():
    chain = Toolchain()
    tests = _tests()
    digests = []
    for arch in ARCHES:
        for compiler in ("llvm", "gcc"):
            for opt in ("-O1", "-O2", "-O3"):
                profile = make_profile(compiler, opt, arch)
                for litmus in tests:
                    prepared = chain.prepare(litmus)
                    compiled = chain.compile(prepared, profile)
                    digests.append(chain.lift(prepared, compiled).litmus.digest())
    assert len(digests) == len(ARCHES) * 2 * 3 * len(tests) == 2268
    assert hashlib.sha256("\n".join(digests).encode()).hexdigest() == PINNED
