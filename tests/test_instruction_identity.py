"""One parse and one canonical form per distinct instruction.

The compile/lift front end answers repeated lines and instructions from
bounded memos (:meth:`Isa.parse_body`, :meth:`Isa.render`) and hashes a
lifted test by joining each instruction's cached canonical form
(:meth:`Instruction.canonical`).  None of that may change what a digest
or a parse says.
"""

import hashlib
import pathlib

import pytest

from repro.asm.isa import base
from repro.asm.isa.base import Instruction, Op, canonical, get_isa
from repro.compiler.disasm import strip_listing
from repro.compiler.profiles import parse_profile
from repro.toolchain import Toolchain
from repro.tools.sources import SuiteSource

CORPUS = pathlib.Path(__file__).parent / "corpus" / "suites"

#: sha256 over the newline-joined ``AsmLitmus.digest()`` of every corpus
#: test lifted under the profile, in suite-file and suite order —
#: computed before the memos and the cached canonical form existed
PINNED = {
    "llvm-O2-AArch64": "43f03adeb52d72c0c47dff99b48348da0b4befaa5f03dc40aa91479572aa3ac6",
    "gcc-O1-ARM": "b28c5707029894aa1b6053707c22475aedfec2fb6ee40e9d09048fe2320b8a8e",
}


def _corpus():
    for path in sorted(CORPUS.glob("*.jsonl")):
        yield from SuiteSource(path).iter_tests()


def _fields_canonical(instr):
    """The canonical form walked field by field, as before it was cached."""
    return base._canonical_fields(instr, base._FIELDS)


@pytest.mark.parametrize("spec", sorted(PINNED))
def test_corpus_lift_digests_are_pinned(spec):
    chain = Toolchain()
    profile = parse_profile(spec)
    digests = []
    for litmus in _corpus():
        prepared = chain.prepare(litmus)
        lifted = chain.lift(prepared, chain.compile(prepared, profile)).litmus
        digests.append(lifted.digest())
        for thread in lifted.threads:
            for instr in thread.instructions:
                assert instr.canonical() == _fields_canonical(instr)
    assert len(digests) == 222
    assert hashlib.sha256("\n".join(digests).encode()).hexdigest() == PINNED[spec]


@pytest.mark.parametrize("spec", sorted(PINNED))
def test_memoised_parse_equals_a_fresh_parse(spec):
    chain = Toolchain()
    profile = parse_profile(spec)
    isa = get_isa(profile.arch)
    lines = 0
    for litmus in _corpus():
        compiled = chain.compile(chain.prepare(litmus), profile)
        for listing in compiled.c2s.listing.values():
            for text in strip_listing(listing):
                parsed = isa.parse_body([text])
                fresh = isa.parse_line(text.strip())
                assert parsed == [fresh]
                assert parsed[0].canonical() == _fields_canonical(fresh)
                lines += 1
    assert lines > 1000


class TestCanonicalForm:
    def test_evolve_never_carries_the_cached_form(self):
        instr = Instruction(op=Op.LOAD, dst="w9", addr_reg="x0", text="ldr w9, [x0]")
        cached = instr.canonical()
        copy = instr.evolve(acquire=True)
        assert "_canonical" not in copy.__dict__
        assert copy.canonical() != cached
        assert copy.canonical() == Instruction(
            op=Op.LOAD, dst="w9", addr_reg="x0", acquire=True, text="ldr w9, [x0]"
        ).canonical()
        # the original keeps its own form
        assert instr.canonical() == cached == _fields_canonical(instr)

    def test_evolve_keeps_fields_and_rejects_unknown_ones(self):
        instr = Instruction(op=Op.FENCE, fence_tags=frozenset({"DMB.ISH"}))
        instr.canonical()
        assert instr.evolve() == instr
        assert list(instr.evolve().__dict__) == list(base._FIELDS)
        with pytest.raises(TypeError):
            instr.evolve(_canonical="forged")

    def test_canonical_sorts_sets(self):
        tags = frozenset({"DMB.ISH", "DMB.SY", "ISB"})
        instr = Instruction(op=Op.FENCE, fence_tags=tags)
        assert "{'DMB.ISH','DMB.SY','ISB'}" in instr.canonical()
        assert canonical((instr,)) == f"({instr.canonical()})"


class TestMemosStayBounded:
    def test_parse_memo(self):
        isa = get_isa("aarch64")
        lines = [f"mov w1, #{n}" for n in range(base.MEMO_ENTRIES + 64)]
        parsed = isa.parse_body(lines)
        assert [i.imm for i in parsed] == list(range(len(lines)))
        assert base._parse.cache_info().currsize <= base.MEMO_ENTRIES
        # a repeat answers with the memo's (frozen) instance
        assert isa.parse_body(lines[-1:])[0] is parsed[-1]

    def test_render_memo(self):
        isa = get_isa("aarch64")
        for n in range(base.MEMO_ENTRIES + 64):
            rendered = isa.render(Instruction(op=Op.MOVI, dst="w1", imm=n))
            assert rendered.text == f"mov w1, #{n}"
        assert base._render.cache_info().currsize <= base.MEMO_ENTRIES
