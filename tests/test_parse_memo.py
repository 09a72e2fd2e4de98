"""One parse per distinct C litmus text per process.

:func:`parse_c_litmus` answers a repeated ``(source, name)`` from a
bounded memo with the first parse's (read-only) instance, so a suite read
again under another model or compiler pair costs no parse.  None of that
may change what a parse or a digest says, and a bad text must raise on
every call.
"""

import hashlib
import pathlib

import pytest

from repro.core.errors import ParseError
from repro.lang import parser
from repro.lang.parser import PARSE_MEMO_ENTRIES, parse_c_litmus
from repro.papertests import FIG7_SOURCE
from repro.tools.sources import SuiteSource, iter_jsonl

SUITES = pathlib.Path(__file__).parent / "corpus" / "suites"

#: sha256 over the newline-joined ``CLitmus.digest()`` of every corpus
#: test, in suite-file and suite order — computed before the memo existed
PINNED_DIGESTS = "ceebb48bb5d194696bb57e906b83982606535340dd2db6151a66c4264f87aa2a"

BAD_SOURCE = """C bad
{ x = 0; }
void P0(atomic_int* x) { atomic_store_explicit(x, 1, memory_order_relaxed) }
exists (x=1)
"""


def _mp(value: int) -> str:
    return (
        "C mp\n"
        f"{{ x = {value}; }}\n"
        "void P0(atomic_int* x) {\n"
        "  atomic_store_explicit(x, 1, memory_order_relaxed);\n"
        "}\n"
        "exists (x=1)\n"
    )


def test_a_repeat_is_the_same_instance():
    first = parse_c_litmus(FIG7_SOURCE, "fig7")
    assert parse_c_litmus(FIG7_SOURCE, "fig7") is first
    assert parse_c_litmus(FIG7_SOURCE, name="fig7") is first


def test_another_name_is_another_instance_with_the_same_digest():
    one = parse_c_litmus(_mp(7), "one")
    two = parse_c_litmus(_mp(7), "two")
    assert one is not two
    assert one.digest() == two.digest()


def test_a_memo_hit_equals_a_fresh_parse():
    for path in sorted(SUITES.glob("*.jsonl")):
        for _, record in iter_jsonl(path):
            source, name = record["source"], str(record.get("name", "test"))
            shared = parse_c_litmus(source, name)
            fresh = parser._parse.__wrapped__(source, name)
            assert fresh == shared and fresh is not shared
            assert parse_c_litmus(source, name) is shared


def test_a_parse_error_is_raised_on_every_call_and_never_kept():
    before = parser._parse.cache_info()
    raised = []
    for _ in range(2):
        with pytest.raises(ParseError) as exc_info:
            parse_c_litmus(BAD_SOURCE, "bad.litmus")
        raised.append(exc_info.value)
        assert exc_info.value.line == 3
        assert exc_info.value.snippet.startswith("void P0")
        assert "bad.litmus:3:" in exc_info.value.render()
    assert raised[0] is not raised[1]
    after = parser._parse.cache_info()
    assert after.hits == before.hits  # the second call parsed again
    assert after.misses == before.misses + 2
    assert after.currsize == before.currsize


def test_the_memo_stays_bounded():
    texts = [_mp(n) for n in range(PARSE_MEMO_ENTRIES + 64)]
    parsed = [parse_c_litmus(text, "mp") for text in texts]
    assert [t.init["x"] for t in parsed] == list(range(len(texts)))
    assert parser._parse.cache_info().currsize <= PARSE_MEMO_ENTRIES
    # the most recent texts are still held
    assert parse_c_litmus(texts[-1], "mp") is parsed[-1]


def test_a_suite_read_twice_is_parsed_once():
    path = SUITES / "mp.jsonl"
    first = list(SuiteSource(path))
    misses = parser._parse.cache_info().misses
    second = list(SuiteSource(path))
    assert parser._parse.cache_info().misses == misses
    assert len(second) == len(first) == 66
    assert all(a is b for a, b in zip(first, second))


def test_corpus_digests_are_pinned():
    digests = [
        test.digest()
        for path in sorted(SUITES.glob("*.jsonl"))
        for test in SuiteSource(path)
    ]
    assert len(digests) == 222
    joined = "\n".join(digests).encode()
    assert hashlib.sha256(joined).hexdigest() == PINNED_DIGESTS
