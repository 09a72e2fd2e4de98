"""Parity of the partially evaluated solver path with the whole-model
reference.

``CompiledModel`` hoists static subterms of dynamic statements into its
prefix and rewrites the suffix over flattened ``|``/``;`` chains with
row-masking brackets.  None of that may be observable: for every
candidate execution, allowed or not, ``run_static`` + ``run_dynamic``
(fed only the base names the suffix reads, as the simulator does) must
agree with ``Model.evaluate(build_env(execution))`` on ``allowed``, the
flags and the (name, passed) pair of every check.
"""

import pathlib

import pytest

from repro.asm.semantics import elaborate_asm
from repro.cat import build_env, get_model, list_models
from repro.cat.interp import (
    DYNAMIC_BASE_NAMES,
    Bracket,
    Chain,
    Let,
    Model,
    Name,
    _free_names,
)
from repro.cat.registry import arch_model
from repro.cat.stdlib import build_static_env, dynamic_bindings
from repro.compiler.profiles import parse_profile
from repro.herd import ExecutionEnumerator, simulate_c
from repro.lang.semantics import elaborate
from repro.papertests import fig7_lb, fig10_mp_rmw, fig11_lb3
from repro.toolchain import Toolchain
from repro.tools.sources import SuiteSource

CORPUS = pathlib.Path(__file__).parent / "corpus" / "suites"
SOURCE_MODELS = ("rc11", "sc", "rc11+lb")
PROFILES = ("llvm-O2-AArch64", "gcc-O1-ARM")


def _summary(result):
    return (
        result.allowed,
        sorted(result.flags),
        sorted((c.name, c.passed) for c in result.checks),
    )


def assert_parity(init, programs, models):
    """Check every candidate of a test under each of ``models``; return
    the number of candidates seen."""
    compiled = [(m, m.compile()) for m in models]
    enumerator = ExecutionEnumerator(init, programs)
    seen = 0
    enumerator.start()
    try:
        for combo in enumerator.path_combos():
            static = build_static_env(
                combo.events, combo.po, combo.rmw, combo.addr, combo.data, combo.ctrl
            )
            prefixes = [(m, c, c.run_static(static.env)) for m, c in compiled]
            for candidate in enumerator.candidates_for(combo):
                execution = candidate.execution
                reference_env = build_env(execution)
                for model, comp, prefix in prefixes:
                    split = comp.run_dynamic(
                        prefix, dynamic_bindings(execution, static, comp.dynamic_names)
                    )
                    whole = model.evaluate(reference_env)
                    assert _summary(split) == _summary(whole), model.name
                seen += 1
    finally:
        enumerator.finish()
    return seen


def _corpus():
    for path in sorted(CORPUS.glob("*.jsonl")):
        yield from SuiteSource(path).iter_tests()


class TestCorpusParity:
    """Every candidate of every checked-in corpus test."""

    def test_sources_under_c11_models(self):
        models = [get_model(name) for name in SOURCE_MODELS]
        tests = candidates = 0
        for litmus in _corpus():
            prepared = Toolchain().prepare(litmus)
            candidates += assert_parity(
                dict(prepared.litmus.init), elaborate(prepared.litmus, unroll=2), models
            )
            tests += 1
        assert tests == 222
        assert candidates > 0

    @pytest.mark.parametrize("profile", PROFILES)
    def test_lifted_targets_under_arch_model(self, profile):
        chain = Toolchain()
        compiler = parse_profile(profile)
        candidates = 0
        for litmus in _corpus():
            prepared = chain.prepare(litmus)
            target = chain.lift(prepared, chain.compile(prepared, compiler)).litmus
            candidates += assert_parity(
                dict(target.init),
                elaborate_asm(target),
                [get_model(arch_model(target.arch))],
            )
        assert candidates > 0


def _hand_model(body):
    return Model.from_source("TEST\n" + body)


HAND_MODELS = {
    # a let rec's own names stay dynamic even where they look static
    "let-rec": """
let rec hbr = po | (hbr ; rf) | (hbr ; [W] ; po)
and fwd = ([R] ; po) | (fwd ; rf)
acyclic hbr as rec-acyclic
irreflexive fwd ; co as rec-coherence
""",
    # `base` is static at its first use, rebound dynamically later
    "rebind-after-suffix": """
let base = po & loc
acyclic (base ; [W]) | rf as first
let base = base | co
acyclic base | fr as second
let x = base ; [W]
irreflexive x ; rf as third
""",
    # sets and relations mixed in one flattened union chain
    "mixed-union": """
let u = W | rf | R | (po ; [F]) | IW | fr | F
empty u \\ (u | 0) as self-difference
let v = R | rf ; [W] | W
irreflexive v ; co as mixed
let sets = (W | R) | (F | W)
acyclic [sets] ; rf ; po as sets-only
""",
    # brackets on both sides of `;`, leading, trailing and back to back
    "brackets": """
let a = [W] ; co ; [W]
let b = [R] ; [R & RLX] ; fr ; po ; [W] ; [W]
let c = rf ; [_] ; po ; [M] ; rf^-1
let d = [domain(rf)] ; po ; [range(co)]
acyclic a | b | c | d as brackets
empty [W] ; [R] ; rf as disjoint-brackets
""",
    # complement, reflexive-transitive closure and optional over
    # hoisted terms
    "postfix-complement": """
let s = ~(po | loc) & (rf ; (po ; [F])?)
let t = ((po ; [W])^* ; rf) | (~(W * R) & fr)
let u = (rf ; (po & loc)^*)? ; co
acyclic s | t | u as postfix
flag ~empty (t \\ ~(W * W)) as marked
""",
}


class TestHandWrittenModels:
    @pytest.mark.parametrize("name", sorted(HAND_MODELS))
    @pytest.mark.parametrize(
        "test_fn", [fig7_lb, fig10_mp_rmw, fig11_lb3], ids=lambda f: f.__name__
    )
    def test_parity(self, name, test_fn):
        litmus = test_fn()
        model = _hand_model(HAND_MODELS[name])
        assert assert_parity(dict(litmus.init), elaborate(litmus), [model]) > 0

    def test_let_rec_names_are_not_hoisted(self):
        compiled = _hand_model(HAND_MODELS["let-rec"]).compile()
        for _, term in compiled._hoisted:
            assert not _free_names(term) & {"hbr", "fwd"}

    def test_rebound_name_hoisted_only_while_static(self):
        compiled = _hand_model(HAND_MODELS["rebind-after-suffix"]).compile()
        # the first `base ; [W]` reads the static `base` and is hoisted
        assert [_free_names(t) for _, t in compiled._hoisted] == [{"base", "W"}]
        # after `base` is rebound to an rf/co-dependent value, the same
        # text is evaluated per candidate
        last_let = [s for s in compiled._suffix if isinstance(s, Let)][-1]
        assert last_let.bindings[0][1] == Chain(";", (Name("base"), Bracket(Name("W"))))

    def test_brackets_stay_masks(self):
        compiled = _hand_model(HAND_MODELS["brackets"]).compile()
        (a_let,) = [s for s in compiled._suffix if isinstance(s, Let) and s.bindings[0][0] == "a"]
        chain = a_let.bindings[0][1]
        assert isinstance(chain, Chain) and chain.op == ";"
        assert isinstance(chain.operands[0], Bracket)
        assert isinstance(chain.operands[-1], Bracket)


def _suffix_exprs(compiled):
    for stmt in compiled._suffix:
        if isinstance(stmt, Let):
            for _, expr in stmt.bindings:
                yield expr
        else:
            yield stmt.expr


def _subterms(expr, parent=None):
    yield expr, parent
    if isinstance(expr, Chain):
        children = expr.operands
    elif hasattr(expr, "args"):
        children = expr.args
    elif hasattr(expr, "left"):
        children = (expr.left, expr.right)
    elif hasattr(expr, "inner"):
        children = (expr.inner,)
    else:
        children = ()
    for child in children:
        yield from _subterms(child, expr)


class TestHoistingStructure:
    """Regression guard for every shipped model's rewritten suffix."""

    @pytest.mark.parametrize("name", sorted(list_models()))
    def test_no_static_subterm_left_in_suffix(self, name):
        compiled = get_model(name).compile()
        dynamic = set(DYNAMIC_BASE_NAMES)
        for stmt in compiled.dynamic_statements:
            if isinstance(stmt, Let):
                dynamic |= {n for n, _ in stmt.bindings}
        for expr in _suffix_exprs(compiled):
            for term, parent in _subterms(expr):
                if _free_names(term) & dynamic or isinstance(term, Name):
                    continue
                # the one static shape kept on purpose: a `[name]` mask
                # operand of a `;` chain
                assert (
                    isinstance(term, Bracket)
                    and isinstance(term.inner, Name)
                    and isinstance(parent, Chain)
                    and parent.op == ";"
                ), (name, term)

    @pytest.mark.parametrize("name", sorted(list_models()))
    def test_built_names_equal_read_names(self, name):
        compiled = get_model(name).compile()
        read = set()
        for expr in _suffix_exprs(compiled):
            read |= _free_names(expr)
        read &= set(DYNAMIC_BASE_NAMES)
        execution, _ = simulate_c(fig7_lb(), "sc", keep_executions=True).executions[0]
        built = dynamic_bindings(execution, None, compiled.dynamic_names)
        assert set(built) == read == compiled.dynamic_names

    @pytest.mark.parametrize("name", ["rc11", "aarch64"])
    def test_shipped_models_hoist(self, name):
        assert get_model(name).compile()._hoisted
