"""Evaluator for Cat models over candidate executions.

A :class:`Model` wraps parsed Cat statements.  :meth:`Model.evaluate` takes
an environment (built by :mod:`repro.cat.stdlib` from an
:class:`~repro.core.execution.Execution`) and returns a
:class:`ModelResult`: whether the execution is *allowed* (all non-flag
checks pass) plus any *flags* raised (e.g. data races → undefined
behaviour, which callers treat as "any outcome permitted" rather than as a
compiler bug — paper §IV-D).

Values are either :class:`~repro.core.relations.Relation` or event sets
(``frozenset[int]``); sets are coerced to identity relations where a
relation is required, exactly as in herd's cat.

Compilation to relation kernels
-------------------------------

Statements are not re-interpreted per candidate.  Each statement compiles
**once per model** into a closure over row-level kernel ops of
:class:`~repro.core.relations.Relation` (the AST is walked at compile
time; only bitmask arithmetic runs at evaluation time).  For the staged
solver, :meth:`Model.compile` additionally splits a model into a *static
prefix* — statements whose free names are derivable from the event
structure and po/rmw/dependency relations alone — and a *dynamic suffix*
of rf/co-dependent statements.  The suffix is then partially evaluated:
its ``|`` and ``;`` chains are flattened, and every maximal subterm of a
dynamic statement that reads only static names becomes a fresh binding
of the prefix.  The prefix's fused op sequence — static statements plus
those hoisted subterms — runs once per path combination (see
:class:`CompiledModel`); only the suffix's rf/co-dependent ops run per
candidate execution, with ``[S]`` operands of ``;`` compiled to row
masking.

Identity invariants the compiled kernels rely on:

* every relation bound in one environment is encoded over the same event
  universe (bit position = event id; the solver interns ids densely via
  :class:`~repro.core.relations.EventUniverse`), so binary kernel ops
  combine rows directly;
* ``env.universe`` is a *stable* frozenset per path combination — the
  identity and full relations that ``^*`` / ``?`` / ``~`` need are
  memoised on it (:func:`~repro.core.relations.identity_over` /
  :func:`~repro.core.relations.full_over`) instead of being rebuilt per
  call;
* compiled ops are pure: they read the environment and append to the
  check/flag accumulators, never mutating a bound relation in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple, Union

from ..core.errors import ModelError
from ..core.relations import EventUniverse, Relation, _mask_of, full_over
from .ast import (
    Binary,
    Bracket,
    Call,
    CatExpr,
    CatModel,
    CatStmt,
    Check,
    Complement,
    EmptySet,
    Include,
    Let,
    Name,
    Postfix,
    Show,
    Universe,
)
from .parser import parse

Value = Union[Relation, FrozenSet[int]]

#: Base bindings that change per candidate execution (rf/co and their
#: derivatives).  Everything else in the standard environment is fixed
#: once the path combination (events, po, rmw, deps) is fixed.
DYNAMIC_BASE_NAMES: Tuple[str, ...] = (
    "rf",
    "co",
    "fr",
    "com",
    "rfe",
    "rfi",
    "coe",
    "coi",
    "fre",
    "fri",
)


@dataclass
class CatEnv:
    """The evaluation environment for one execution.

    ``bindings`` maps names to values; ``universe`` is the full event-id
    set (needed by ``^*``, ``?`` and ``~``); ``po`` is kept separately for
    the ``fencerel`` builtin.  ``interned`` optionally carries the
    :class:`~repro.core.relations.EventUniverse` the bindings are encoded
    against (the solver provides it; hand-built environments may not).
    """

    bindings: Dict[str, Value]
    universe: FrozenSet[int]
    po: Relation
    interned: Optional[EventUniverse] = None

    def lookup(self, name: str) -> Value:
        if name in self.bindings:
            return self.bindings[name]
        raise ModelError(f"unbound name {name!r} in cat model")

    def child(self) -> "CatEnv":
        return CatEnv(dict(self.bindings), self.universe, self.po, self.interned)


@dataclass(frozen=True)
class CheckResult:
    name: str
    kind: str
    passed: bool
    flag: bool


@dataclass(frozen=True)
class ModelResult:
    """The verdict of a model on one candidate execution."""

    allowed: bool
    checks: Tuple[CheckResult, ...]
    flags: Tuple[str, ...]

    def failed_checks(self) -> Tuple[str, ...]:
        return tuple(c.name for c in self.checks if not c.passed and not c.flag)


def _as_relation(value: Value, universe: FrozenSet[int]) -> Relation:
    if isinstance(value, Relation):
        return value
    return Relation.identity(value)


def _as_set(value: Value) -> FrozenSet[int]:
    if isinstance(value, frozenset):
        return value
    raise ModelError("expected an event set, got a relation")


@dataclass(frozen=True)
class Chain(CatExpr):
    """A flattened ``|`` or ``;`` chain: ``operands[0] op operands[1] ...``.

    Only partial evaluation (:class:`CompiledModel`) builds chains; the
    parser never does, so :meth:`Model.evaluate` compiles the source
    AST's binary nodes exactly as written.
    """

    op: str
    operands: Tuple[CatExpr, ...]


def _free_names(expr: CatExpr) -> FrozenSet[str]:
    """The set of names an expression reads."""
    if isinstance(expr, Name):
        return frozenset({expr.ident})
    if isinstance(expr, (EmptySet, Universe)):
        return frozenset()
    if isinstance(expr, Bracket):
        return _free_names(expr.inner)
    if isinstance(expr, Binary):
        return _free_names(expr.left) | _free_names(expr.right)
    if isinstance(expr, (Postfix, Complement)):
        return _free_names(expr.inner)
    if isinstance(expr, (Call, Chain)):
        names: Set[str] = set()
        for arg in expr.args if isinstance(expr, Call) else expr.operands:
            names |= _free_names(arg)
        return frozenset(names)
    return frozenset()  # pragma: no cover - defensive


# --------------------------------------------------------------------- #
# expression/statement compilation: AST -> kernel-op closures
# --------------------------------------------------------------------- #
ExprKernel = Callable[[CatEnv], Value]
StmtKernel = Callable[[CatEnv, List[CheckResult], List[str]], None]

_EMPTY_REL = Relation.empty()


def _compile_expr(expr: CatExpr) -> ExprKernel:
    """Walk the AST once; return a closure of fused relation-kernel ops.

    All dispatch (node type, operator, builtin name) is resolved here, at
    compile time; evaluating the returned closure performs only kernel
    arithmetic plus the set-vs-relation coercions the Cat semantics need.
    Unknown names and builtins still fail at *evaluation* time with the
    same :class:`ModelError` the interpreter raised, so error behaviour
    is unchanged.
    """
    if isinstance(expr, Name):
        ident = expr.ident
        def k_name(env: CatEnv) -> Value:
            bindings = env.bindings
            if ident in bindings:
                return bindings[ident]
            raise ModelError(f"unbound name {ident!r} in cat model")
        return k_name
    if isinstance(expr, EmptySet):
        return lambda env: _EMPTY_REL
    if isinstance(expr, Universe):
        return lambda env: env.universe
    if isinstance(expr, Bracket):
        inner = _compile_expr(expr.inner)
        return lambda env: Relation.identity(_as_set(inner(env)))
    if isinstance(expr, Binary):
        return _compile_binary(expr)
    if isinstance(expr, Postfix):
        return _compile_postfix(expr)
    if isinstance(expr, Complement):
        inner = _compile_expr(expr.inner)
        def k_complement(env: CatEnv) -> Value:
            value = inner(env)
            if isinstance(value, frozenset):
                return env.universe - value
            return full_over(env.universe) - value
        return k_complement
    if isinstance(expr, Call):
        return _compile_call(expr)
    if isinstance(expr, Chain):
        return _compile_chain(expr)
    raise ModelError(f"cannot compile {expr!r}")  # pragma: no cover


def _compile_binary(expr: Binary) -> ExprKernel:
    left = _compile_expr(expr.left)
    right = _compile_expr(expr.right)
    op = expr.op
    if op == "*":
        return lambda env: Relation.cartesian(_as_set(left(env)), _as_set(right(env)))
    if op == ";":
        def k_seq(env: CatEnv) -> Value:
            uni = env.universe
            return _as_relation(left(env), uni).compose(_as_relation(right(env), uni))
        return k_seq
    if op not in ("|", "&", "\\"):  # pragma: no cover - parser guarantees
        raise ModelError(f"unknown binary operator {op!r}")

    def k_setop(env: CatEnv) -> Value:
        lv = left(env)
        rv = right(env)
        # set-theoretic ops: keep sets as sets when both sides are sets
        if isinstance(lv, frozenset) and isinstance(rv, frozenset):
            if op == "|":
                return lv | rv
            if op == "&":
                return lv & rv
            return lv - rv
        uni = env.universe
        lrel = _as_relation(lv, uni)
        rrel = _as_relation(rv, uni)
        if op == "|":
            return lrel | rrel
        if op == "&":
            return lrel & rrel
        return lrel - rrel

    return k_setop


def _compile_chain(expr: Chain) -> ExprKernel:
    """``|`` chains union all operands at once; ``;`` chains turn every
    ``[S]`` operand into row masking instead of a composition."""
    if expr.op == "|":
        union_parts = [_compile_expr(o) for o in expr.operands]

        def k_union(env: CatEnv) -> Value:
            # a union stays a set only if every operand is a set; else
            # the set operands join as one identity relation
            events: Optional[FrozenSet[int]] = None
            rels: List[Relation] = []
            for part in union_parts:
                value = part(env)
                if isinstance(value, frozenset):
                    events = value if events is None else events | value
                else:
                    rels.append(value)
            if not rels:
                return events  # type: ignore[return-value]
            if events is not None:
                rels.append(Relation.identity(events))
            return rels[0].union(*rels[1:])

        return k_union

    # (is_mask, kernel): a bracket operand's kernel yields its event set
    seq_parts = [
        (isinstance(o, Bracket), _compile_expr(o.inner if isinstance(o, Bracket) else o))
        for o in expr.operands
    ]

    def k_seq_chain(env: CatEnv) -> Value:
        rel: Optional[Relation] = None
        leading: Optional[FrozenSet[int]] = None  # brackets before any relation
        for is_mask, part in seq_parts:
            value = part(env)
            if rel is None:
                if is_mask:
                    events = _as_set(value)
                    leading = events if leading is None else leading & events
                    continue
                rel = _as_relation(value, env.universe)
                if leading is not None:
                    rel = rel.mask_domain(_mask_of(leading))
            elif is_mask:
                rel = rel.mask_range(_mask_of(_as_set(value)))
            else:
                rel = rel.compose(_as_relation(value, env.universe))
        return rel if rel is not None else Relation.identity(leading)  # type: ignore[arg-type]

    return k_seq_chain


def _compile_postfix(expr: Postfix) -> ExprKernel:
    inner = _compile_expr(expr.inner)
    op = expr.op
    if op == "^+":
        return lambda env: _as_relation(inner(env), env.universe).transitive_closure()
    if op == "^*":
        return lambda env: _as_relation(
            inner(env), env.universe
        ).reflexive_transitive_closure(env.universe)
    if op == "^-1":
        return lambda env: _as_relation(inner(env), env.universe).inverse()
    if op == "?":
        return lambda env: _as_relation(inner(env), env.universe).optional(env.universe)
    raise ModelError(f"unknown postfix operator {op!r}")  # pragma: no cover


def _compile_call(expr: Call) -> ExprKernel:
    args = [_compile_expr(a) for a in expr.args]
    func = expr.func
    if func == "domain":
        def k_domain(env: CatEnv) -> Value:
            (rel,) = [a(env) for a in args]
            return _as_relation(rel, env.universe).domain()
        return k_domain
    if func == "range":
        def k_range(env: CatEnv) -> Value:
            (rel,) = [a(env) for a in args]
            return _as_relation(rel, env.universe).codomain()
        return k_range
    if func == "toid":
        def k_toid(env: CatEnv) -> Value:
            (s,) = [a(env) for a in args]
            return Relation.identity(_as_set(s))
        return k_toid
    if func == "fencerel":
        def k_fencerel(env: CatEnv) -> Value:
            (s,) = [a(env) for a in args]
            ident = Relation.identity(_as_set(s))
            return env.po.compose(ident).compose(env.po)
        return k_fencerel

    def k_unknown(env: CatEnv) -> Value:
        raise ModelError(f"unknown builtin {func!r}")

    return k_unknown


def _compile_let(stmt: Let) -> StmtKernel:
    compiled = [(name, _compile_expr(expr)) for name, expr in stmt.bindings]
    if not stmt.recursive:
        def k_let(env: CatEnv, checks: List[CheckResult], flags: List[str]) -> None:
            bindings = env.bindings
            for name, fn in compiled:
                bindings[name] = fn(env)
        return k_let

    names = [name for name, _ in compiled]

    def k_let_rec(env: CatEnv, checks: List[CheckResult], flags: List[str]) -> None:
        """Fixed-point semantics for ``let rec``: start from empty, iterate."""
        bindings = env.bindings
        for name in names:
            bindings[name] = _EMPTY_REL
        changed = True
        iterations = 0
        while changed:
            iterations += 1
            if iterations > 1000:
                raise ModelError("let rec did not converge after 1000 iterations")
            changed = False
            for name, fn in compiled:
                new = fn(env)
                if new != bindings[name]:
                    bindings[name] = new
                    changed = True

    return k_let_rec


def _compile_check(stmt: Check) -> StmtKernel:
    fn = _compile_expr(stmt.expr)
    name, kind, negated, flag = stmt.name, stmt.kind, stmt.negated, stmt.flag
    if kind == "acyclic":
        def test(value: Value, env: CatEnv) -> bool:
            return _as_relation(value, env.universe).is_acyclic()
    elif kind == "irreflexive":
        def test(value: Value, env: CatEnv) -> bool:
            return _as_relation(value, env.universe).is_irreflexive()
    elif kind == "empty":
        def test(value: Value, env: CatEnv) -> bool:
            return value.is_empty() if isinstance(value, Relation) else not value
    else:  # pragma: no cover - parser guarantees
        raise ModelError(f"unknown check kind {kind!r}")

    def k_check(env: CatEnv, checks: List[CheckResult], flags: List[str]) -> None:
        holds = test(fn(env), env)
        if negated:
            holds = not holds
        checks.append(CheckResult(name, kind, holds, flag))
        # A `flag` check marks the execution when its condition HOLDS
        # (herd: `flag ~empty race as ub` fires when race is non-empty);
        # it never forbids the execution.
        if flag and holds:
            flags.append(name)

    return k_check


def _compile_stmt(stmt: CatStmt) -> Optional[StmtKernel]:
    if isinstance(stmt, Let):
        return _compile_let(stmt)
    if isinstance(stmt, Check):
        return _compile_check(stmt)
    if isinstance(stmt, (Show, Include)):
        # `show` is presentation-only; `include` is resolved by the
        # registry before parsing, so a leftover include is a no-op.
        return None
    raise ModelError(f"unknown statement {stmt!r}")  # pragma: no cover - defensive


# --------------------------------------------------------------------- #
# partial evaluation: hoist static subterms out of dynamic statements
# --------------------------------------------------------------------- #
_LEAVES = (Name, EmptySet, Universe)
_BUILTINS = frozenset({"domain", "range", "toid", "fencerel"})


def _flatten(expr: CatExpr) -> CatExpr:
    """Rewrite nested ``|`` and ``;`` nodes into :class:`Chain` nodes.

    Both operators are associative, so a chain's value does not depend
    on how the parser nested it; ``|`` is also commutative, which lets
    the hoister gather its static operands into one term.
    """
    if isinstance(expr, Binary):
        if expr.op not in ("|", ";"):
            return Binary(expr.op, _flatten(expr.left), _flatten(expr.right))
        operands: List[CatExpr] = []
        pending = [expr]
        while pending:
            node = pending.pop()
            if isinstance(node, Binary) and node.op == expr.op:
                pending += (node.right, node.left)
            else:
                operands.append(_flatten(node))
        return Chain(expr.op, tuple(operands))
    if isinstance(expr, Bracket):
        return Bracket(_flatten(expr.inner))
    if isinstance(expr, Postfix):
        return Postfix(expr.op, _flatten(expr.inner))
    if isinstance(expr, Complement):
        return Complement(_flatten(expr.inner))
    if isinstance(expr, Call):
        return Call(expr.func, tuple(_flatten(a) for a in expr.args))
    return expr


class _Hoister:
    """Replaces maximal static subterms with fresh, shared bindings.

    ``bindings`` lists the hoisted ``(name, term)`` pairs in creation
    order; equal terms share one binding.  Fresh names start with ``%``,
    which no Cat identifier can, so they never shadow a model name.
    """

    def __init__(self) -> None:
        self.bindings: List[Tuple[str, CatExpr]] = []
        self._names: Dict[CatExpr, str] = {}

    def rewrite(self, expr: CatExpr, blocked: FrozenSet[str]) -> CatExpr:
        """Rewrite one (flattened) expression of a dynamic statement.

        A subterm is static when it reads no ``blocked`` name and calls
        only known builtins; a static subterm other than a leaf becomes
        a reference to its hoisted binding.
        """
        if self._static(expr, blocked):
            return expr if isinstance(expr, _LEAVES) else self._hoist(expr)
        if isinstance(expr, Chain) and expr.op == "|":
            static: List[CatExpr] = []
            dynamic: List[CatExpr] = []
            for operand in expr.operands:
                (static if self._static(operand, blocked) else dynamic).append(operand)
            if len(static) > 1:
                static = [self._hoist(Chain("|", tuple(static)))]
            return Chain("|", tuple(self.rewrite(o, blocked) for o in static + dynamic))
        if isinstance(expr, Chain):
            out: List[CatExpr] = []
            for is_static, group in groupby(
                expr.operands, key=lambda o: self._static(o, blocked)
            ):
                run = tuple(group)
                if is_static and len(run) > 1 and not all(isinstance(o, Bracket) for o in run):
                    out.append(self._hoist(Chain(";", run)))
                    continue
                # every bracket stays a row mask: only its event set is hoisted
                out.extend(
                    Bracket(self.rewrite(o.inner, blocked))
                    if isinstance(o, Bracket)
                    else self.rewrite(o, blocked)
                    for o in run
                )
            return Chain(";", tuple(out))
        if isinstance(expr, Bracket):
            return Bracket(self.rewrite(expr.inner, blocked))
        if isinstance(expr, Binary):
            return Binary(
                expr.op,
                self.rewrite(expr.left, blocked),
                self.rewrite(expr.right, blocked),
            )
        if isinstance(expr, Postfix):
            return Postfix(expr.op, self.rewrite(expr.inner, blocked))
        if isinstance(expr, Complement):
            return Complement(self.rewrite(expr.inner, blocked))
        if isinstance(expr, Call):
            return Call(expr.func, tuple(self.rewrite(a, blocked) for a in expr.args))
        return expr  # pragma: no cover - leaves are always static

    def _hoist(self, expr: CatExpr) -> Name:
        name = self._names.get(expr)
        if name is None:
            name = self._names[expr] = f"%{len(self.bindings)}"
            self.bindings.append((name, expr))
        return Name(name)

    @staticmethod
    def _static(expr: CatExpr, blocked: FrozenSet[str]) -> bool:
        if _free_names(expr) & blocked:
            return False
        # an unknown builtin raises when evaluated: leave it in place
        pending = [expr]
        while pending:
            node = pending.pop()
            if isinstance(node, Call):
                if node.func not in _BUILTINS:
                    return False
                pending.extend(node.args)
            elif isinstance(node, Chain):
                pending.extend(node.operands)
            elif isinstance(node, Binary):
                pending += (node.left, node.right)
            elif isinstance(node, (Bracket, Postfix, Complement)):
                pending.append(node.inner)
        return True


def _rewrite_stmt(stmt: CatStmt, hoister: _Hoister, blocked: FrozenSet[str]) -> CatStmt:
    if isinstance(stmt, Let):
        return Let(
            tuple((n, hoister.rewrite(_flatten(e), blocked)) for n, e in stmt.bindings),
            stmt.recursive,
        )
    return Check(  # dynamic statements are lets and checks only
        stmt.kind,
        hoister.rewrite(_flatten(stmt.expr), blocked),
        stmt.name,
        stmt.negated,
        stmt.flag,
    )


class Model:
    """A parsed Cat model ready for evaluation."""

    def __init__(self, ast: CatModel, name: Optional[str] = None) -> None:
        self.ast = ast
        self.name = name or ast.name or "anonymous"
        self._compiled: Optional["CompiledModel"] = None
        #: per-statement kernel cache, keyed by statement identity, shared
        #: between :meth:`evaluate` and :class:`CompiledModel`
        self._stmt_kernels: Dict[int, Optional[StmtKernel]] = {}
        self._ops: Optional[List[StmtKernel]] = None

    # ------------------------------------------------------------------ #
    @staticmethod
    def from_source(source: str, name: Optional[str] = None) -> "Model":
        return Model(parse(source), name=name)

    # ------------------------------------------------------------------ #
    def compile(self) -> "CompiledModel":
        """Split into a static prefix and a dynamic suffix (cached)."""
        if self._compiled is None:
            self._compiled = CompiledModel(self)
        return self._compiled

    def ops_for(self, statements: List[CatStmt]) -> List[StmtKernel]:
        """Compile ``statements`` (cached per statement) to kernel ops."""
        ops: List[StmtKernel] = []
        for stmt in statements:
            key = id(stmt)
            if key not in self._stmt_kernels:
                self._stmt_kernels[key] = _compile_stmt(stmt)
            op = self._stmt_kernels[key]
            if op is not None:
                ops.append(op)
        return ops

    # ------------------------------------------------------------------ #
    def evaluate(self, env: CatEnv) -> ModelResult:
        """Run every statement's compiled kernel; collect check outcomes."""
        if self._ops is None:
            self._ops = self.ops_for(self.ast.statements)
        env = env.child()
        checks: List[CheckResult] = []
        flags: List[str] = []
        for op in self._ops:
            op(env, checks, flags)
        allowed = all(c.passed for c in checks if not c.flag)
        return ModelResult(allowed=allowed, checks=tuple(checks), flags=tuple(flags))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Model({self.name!r})"


@dataclass
class StaticPrefix:
    """The result of running a model's static statements once.

    ``env`` carries the static bindings (base env, every let-bound name
    the prefix produced and the hoisted subterms of dynamic statements);
    ``checks``/``flags`` are the outcomes of the static checks.  The prefix is immutable from the caller's point
    of view: :meth:`CompiledModel.run_dynamic` copies the bindings before
    the suffix executes.
    """

    env: CatEnv
    checks: Tuple[CheckResult, ...]
    flags: Tuple[str, ...]

    @property
    def allowed(self) -> bool:
        """False iff a static (non-flag) check already failed — in that
        case no candidate of the path combination can be allowed."""
        return all(c.passed for c in self.checks if not c.flag)


class CompiledModel:
    """A model split into a static prefix and a dynamic suffix of kernels.

    Classification walks the statements in order, tracking which names
    are *dynamic* (seeded with :data:`DYNAMIC_BASE_NAMES`): a ``let``
    whose right-hand side touches a dynamic name binds a dynamic name;
    checks over dynamic names go to the suffix.  Rebinding an existing
    name after a dynamic statement has been emitted is conservatively
    treated as dynamic, preserving statement order for shadowing models.
    ``static_statements`` / ``dynamic_statements`` are that split of the
    *source* statements.

    The suffix is then partially evaluated: each dynamic statement's
    ``|`` and ``;`` chains are flattened and every maximal subterm that
    reads only static names (other than a bare name) is replaced by a
    fresh binding, which the prefix computes once per path combination.
    A name counts as static in a statement only if it is not dynamic
    there, is not bound by the statement itself (so a ``let rec``'s own
    names stay dynamic), and is either bound by an earlier static
    statement or never ``let``-bound at all (so a base name the
    environment lacks raises its :class:`ModelError` in
    :meth:`run_static` rather than in the suffix).  :attr:`dynamic_names` is
    the set of base names the rewritten suffix reads, so callers build
    only those per candidate.

    Both halves are compiled once — at construction — into fused lists
    of row-level kernel ops (:data:`StmtKernel`); per-candidate work in
    :meth:`run_dynamic` is a dict copy plus bitmask arithmetic.
    """

    def __init__(self, model: Model) -> None:
        self.model = model
        self.name = model.name
        self.static_statements: List[CatStmt] = []
        self.dynamic_statements: List[CatStmt] = []
        dynamic: Set[str] = set(DYNAMIC_BASE_NAMES)
        bound: Set[str] = set()
        let_bound = {
            name
            for stmt in model.ast.statements
            if isinstance(stmt, Let)
            for name, _ in stmt.bindings
        }
        #: per dynamic statement: the names its hoisted subterms may not read
        blocked: List[FrozenSet[str]] = []
        suffix_started = False
        for stmt in model.ast.statements:
            if isinstance(stmt, Let):
                names = {name for name, _ in stmt.bindings}
                free: Set[str] = set()
                for _, expr in stmt.bindings:
                    free |= _free_names(expr)
                if stmt.recursive:
                    free -= names
                is_dynamic = (
                    bool(free & dynamic)
                    # rebinding a base dynamic name, or rebinding any
                    # name once the suffix has started, must stay in
                    # statement order with the dynamic statements
                    or bool(names & set(DYNAMIC_BASE_NAMES))
                    or (suffix_started and bool(names & bound))
                )
                if is_dynamic:
                    blocked.append(frozenset(dynamic | names | (let_bound - bound)))
                    dynamic |= names
                    suffix_started = True
                    self.dynamic_statements.append(stmt)
                else:
                    dynamic -= names
                    self.static_statements.append(stmt)
                bound |= names
            elif isinstance(stmt, Check):
                if _free_names(stmt.expr) & dynamic:
                    blocked.append(frozenset(dynamic | (let_bound - bound)))
                    suffix_started = True
                    self.dynamic_statements.append(stmt)
                else:
                    self.static_statements.append(stmt)
            else:  # Show / Include: presentation-only
                self.static_statements.append(stmt)
        hoister = _Hoister()
        self._suffix: Tuple[CatStmt, ...] = tuple(
            _rewrite_stmt(stmt, hoister, names)
            for stmt, names in zip(self.dynamic_statements, blocked)
        )
        self._hoisted: Tuple[Tuple[str, CatExpr], ...] = tuple(hoister.bindings)
        read: Set[str] = set()
        for stmt in self._suffix:
            exprs = [e for _, e in stmt.bindings] if isinstance(stmt, Let) else [stmt.expr]
            for expr in exprs:
                read |= _free_names(expr)
        #: the dynamic base names the rewritten suffix reads
        self.dynamic_names: FrozenSet[str] = frozenset(read).intersection(
            DYNAMIC_BASE_NAMES
        )
        self._static_ops: List[StmtKernel] = model.ops_for(self.static_statements)
        if self._hoisted:
            self._static_ops.append(_compile_let(Let(self._hoisted)))
        self._dynamic_ops: List[StmtKernel] = [
            op for op in map(_compile_stmt, self._suffix) if op is not None
        ]

    # ------------------------------------------------------------------ #
    def run_static(self, env: CatEnv) -> StaticPrefix:
        """Evaluate the static prefix over a (rf/co-free) environment."""
        env = env.child()
        checks: List[CheckResult] = []
        flags: List[str] = []
        for op in self._static_ops:
            op(env, checks, flags)
        return StaticPrefix(env=env, checks=tuple(checks), flags=tuple(flags))

    def run_dynamic(
        self, prefix: StaticPrefix, bindings: Dict[str, Value]
    ) -> ModelResult:
        """Evaluate the dynamic suffix for one candidate execution.

        ``bindings`` supplies the per-candidate base relations: at least
        :attr:`dynamic_names`, any of :data:`DYNAMIC_BASE_NAMES`; static
        check results are merged into the returned :class:`ModelResult`.
        """
        base = prefix.env
        env = CatEnv(dict(base.bindings), base.universe, base.po, base.interned)
        env.bindings.update(bindings)
        checks: List[CheckResult] = list(prefix.checks)
        flags: List[str] = list(prefix.flags)
        for op in self._dynamic_ops:
            op(env, checks, flags)
        allowed = all(c.passed for c in checks if not c.flag)
        return ModelResult(allowed=allowed, checks=tuple(checks), flags=tuple(flags))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompiledModel({self.name!r}, "
            f"static={len(self.static_statements)}, "
            f"dynamic={len(self.dynamic_statements)})"
        )
