"""Parser for C11 litmus tests in the paper's surface syntax (Fig. 1).

Accepted shape::

    C LB004                      // optional herd-style header
    { *x = 0; *y = 0; }          // fixed initial state
    #define relaxed memory_order_relaxed
    void P0(atomic_int* y, atomic_int* x) {
        int r0 = atomic_load_explicit(x, relaxed);
        atomic_thread_fence(relaxed);
        atomic_store_explicit(y, 1, relaxed);
    }
    ...
    exists (P0:r0=1 /\\ P1:r0=1)

Object-like ``#define`` macros are expanded textually.  ``~exists P`` is
normalised to ``forall ~P``.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from ..core.errors import ParseError
from ..core.events import MemoryOrder
from ..core.litmus import And, Condition, LocEq, Not, Or, Prop, RegEq
from .ast import (
    Assign,
    AtomicLoad,
    AtomicRMW,
    AtomicStore,
    BinExpr,
    CExpr,
    CLitmus,
    CStmt,
    CThread,
    Decl,
    ExprStmt,
    Fence,
    If,
    IntLit,
    PlainLoad,
    PlainStore,
    UnExpr,
    Var,
    While,
)

_TOKEN_RE = re.compile(
    r"""
    (?P<comment>//[^\n]*|/\*.*?\*/)
  | (?P<ws>\s+)
  | (?P<landand>/\\)
  | (?P<loror>\\/)
  | (?P<op2>==|!=|<=|>=|&&|\|\||<<|>>|->)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<number>0[xX][0-9a-fA-F]+|\d+)
  | (?P<op>[{}()\[\];,=*+\-/%&|^!~<>:.#])
    """,
    re.VERBOSE | re.DOTALL,
)

_TYPE_WIDTHS = {
    "int": 32,
    "atomic_int": 32,
    "unsigned": 32,
    "atomic_uint": 32,
    "char": 8,
    "atomic_char": 8,
    "int8_t": 8,
    "uint8_t": 8,
    "atomic_int8_t": 8,
    "int16_t": 16,
    "uint16_t": 16,
    "atomic_int16_t": 16,
    "short": 16,
    "int32_t": 32,
    "uint32_t": 32,
    "atomic_int32_t": 32,
    "int64_t": 64,
    "uint64_t": 64,
    "atomic_int64_t": 64,
    "long": 64,
    "atomic_long": 64,
    "atomic_llong": 64,
    "__int128": 128,
    "atomic_int128": 128,
}

_ATOMIC_TYPES = frozenset(t for t in _TYPE_WIDTHS if t.startswith("atomic"))

_RMW_FUNCS = {
    "atomic_fetch_add": "add",
    "atomic_fetch_sub": "sub",
    "atomic_fetch_or": "or",
    "atomic_fetch_and": "and",
    "atomic_fetch_xor": "xor",
    "atomic_exchange": "xchg",
}


class _Tok:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind: str, text: str, line: int) -> None:
        self.kind = kind
        self.text = text
        self.line = line

    def __repr__(self) -> str:  # pragma: no cover
        return f"_Tok({self.kind},{self.text!r})"


def _tokenize(source: str) -> List[_Tok]:
    tokens: List[_Tok] = []
    line = 1
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", line)
        kind = m.lastgroup or ""
        text = m.group()
        if kind in ("ws", "comment"):
            line += text.count("\n")
        elif kind == "landand":
            tokens.append(_Tok("op", "/\\", line))
        elif kind == "loror":
            tokens.append(_Tok("op", "\\/", line))
        elif kind == "op2":
            tokens.append(_Tok("op", text, line))
        else:
            tokens.append(_Tok(kind, text, line))
        pos = m.end()
    return tokens


def _expand_defines(tokens: List[_Tok]) -> List[_Tok]:
    """Strip ``#define NAME REPLACEMENT...`` lines, expanding uses."""
    macros: Dict[str, List[_Tok]] = {}
    out: List[_Tok] = []
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok.kind == "op" and tok.text == "#":
            if i + 1 < len(tokens) and tokens[i + 1].text == "define":
                name_tok = tokens[i + 2]
                j = i + 3
                body: List[_Tok] = []
                while j < len(tokens) and tokens[j].line == tok.line:
                    body.append(tokens[j])
                    j += 1
                macros[name_tok.text] = body
                i = j
                continue
            # other preprocessor lines (#include …): skip to next line
            j = i + 1
            while j < len(tokens) and tokens[j].line == tok.line:
                j += 1
            i = j
            continue
        if tok.kind == "ident" and tok.text in macros:
            out.extend(_Tok(t.kind, t.text, tok.line) for t in macros[tok.text])
        else:
            out.append(tok)
        i += 1
    return out


class _CParser:
    def __init__(self, tokens: List[_Tok]) -> None:
        self.tokens = tokens
        self.pos = 0

    # -------------------------------------------------------------- #
    def peek(self, ahead: int = 0) -> Optional[_Tok]:
        idx = self.pos + ahead
        return self.tokens[idx] if idx < len(self.tokens) else None

    def next(self) -> _Tok:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of litmus test")
        self.pos += 1
        return tok

    def at(self, kind: str, text: Optional[str] = None, ahead: int = 0) -> bool:
        tok = self.peek(ahead)
        return tok is not None and tok.kind == kind and (text is None or tok.text == text)

    def expect(self, kind: str, text: Optional[str] = None) -> _Tok:
        tok = self.peek()
        if tok is None or tok.kind != kind or (text is not None and tok.text != text):
            got = f"{tok.kind} {tok.text!r}" if tok else "EOF"
            raise ParseError(
                f"expected {text or kind!r}, got {got}", tok.line if tok else 0
            )
        return self.next()

    def accept(self, kind: str, text: Optional[str] = None) -> bool:
        if self.at(kind, text):
            self.next()
            return True
        return False

    # -------------------------------------------------------------- #
    def parse_litmus(self, default_name: str = "test") -> CLitmus:
        name = default_name
        # optional "C <name>" header
        if self.at("ident", "C") and not self.at("op", "{", 1):
            self.next()
            name_tok = self.next()
            name = name_tok.text
            # names may carry '+'/'.'-joined suffixes (mutants are
            # "<seed>+<operator>.<digest>", reductions "<base>+min.<digest>");
            # the name extends along the header line until the init block
            # opens ("C mp { ... }" on one line stays valid), so printed
            # hunt artifacts round-trip through the parser
            while (
                self.peek() is not None
                and self.peek().line == name_tok.line
                and not self.at("op", "{")
            ):
                name += self.next().text
        init, widths, const_locs = self.parse_init()
        threads: List[CThread] = []
        self._param_widths: Dict[str, int] = {}
        while not (self.at("ident", "exists") or self.at("ident", "forall") or self._at_negated_exists()):
            threads.append(self.parse_thread())
        # pointer-parameter types refine location widths (e.g.
        # ``atomic_int128* x`` makes x a 128-bit location)
        for loc, width in self._param_widths.items():
            if width != 32:
                widths.setdefault(loc, width)
        condition = self.parse_condition()
        return CLitmus(
            name=name,
            init=init,
            condition=condition,
            threads=tuple(threads),
            widths=widths,
            const_locations=tuple(const_locs),
        )

    def _at_negated_exists(self) -> bool:
        return self.at("op", "~") and self.at("ident", "exists", 1)

    def parse_init(self) -> Tuple[Dict[str, int], Dict[str, int], List[str]]:
        self.expect("op", "{")
        init: Dict[str, int] = {}
        widths: Dict[str, int] = {}
        const_locs: List[str] = []
        while not self.at("op", "}"):
            is_const = bool(self.accept("ident", "const"))
            # optional type name
            width = None
            if self.at("ident") and self.peek().text in _TYPE_WIDTHS:  # type: ignore[union-attr]
                width = _TYPE_WIDTHS[self.next().text]
            self.accept("op", "*")
            loc = self.expect("ident").text
            self.expect("op", "=")
            value = self.parse_int_literal()
            init[loc] = value
            if width is not None:
                widths[loc] = width
            if is_const:
                const_locs.append(loc)
            self.accept("op", ";") or self.accept("op", ",")
        self.expect("op", "}")
        return init, widths, const_locs

    def parse_int_literal(self) -> int:
        negative = self.accept("op", "-")
        tok = self.expect("number")
        value = int(tok.text, 0)
        return -value if negative else value

    # -------------------------------------------------------------- #
    def parse_thread(self) -> CThread:
        # optional return type
        if self.at("ident", "void"):
            self.next()
        name = self.expect("ident").text
        self.expect("op", "(")
        params: List[str] = []
        atomic_params: List[str] = []
        while not self.at("op", ")"):
            type_name = self.expect("ident").text
            while self.at("ident"):  # e.g. "unsigned int"
                type_name = self.next().text
            self.accept("op", "*")
            pname = self.expect("ident").text
            params.append(pname)
            if type_name in _ATOMIC_TYPES:
                atomic_params.append(pname)
            if type_name in _TYPE_WIDTHS:
                if not hasattr(self, "_param_widths"):
                    self._param_widths = {}
                self._param_widths[pname] = _TYPE_WIDTHS[type_name]
            self.accept("op", ",")
        self.expect("op", ")")
        body = self.parse_block()
        return CThread(
            name=name,
            params=tuple(params),
            body=tuple(body),
            atomic_params=tuple(atomic_params),
        )

    def parse_block(self) -> List[CStmt]:
        self.expect("op", "{")
        stmts: List[CStmt] = []
        while not self.at("op", "}"):
            stmts.append(self.parse_stmt())
        self.expect("op", "}")
        return stmts

    def parse_stmt(self) -> CStmt:
        tok = self.peek()
        assert tok is not None
        if tok.kind == "ident" and tok.text == "if":
            self.next()
            self.expect("op", "(")
            cond = self.parse_expr()
            self.expect("op", ")")
            then_body = tuple(self.parse_block_or_single())
            else_body: Tuple[CStmt, ...] = ()
            if self.accept("ident", "else"):
                else_body = tuple(self.parse_block_or_single())
            return If(cond, then_body, else_body)
        if tok.kind == "ident" and tok.text == "while":
            self.next()
            self.expect("op", "(")
            cond = self.parse_expr()
            self.expect("op", ")")
            body = tuple(self.parse_block_or_single())
            return While(cond, body)
        if tok.kind == "ident" and tok.text in _TYPE_WIDTHS:
            # declaration: `int r0 = expr;`
            self.next()
            var = self.expect("ident").text
            self.expect("op", "=")
            expr = self.parse_expr()
            self.expect("op", ";")
            return Decl(var, expr)
        if tok.kind == "op" and tok.text == "*":
            # `*x = expr;`
            self.next()
            loc = self.expect("ident").text
            self.expect("op", "=")
            expr = self.parse_expr()
            self.expect("op", ";")
            return PlainStore(loc, expr)
        if tok.kind == "ident":
            nxt = self.peek(1)
            if nxt is not None and nxt.kind == "op" and nxt.text == "=":
                self.next()
                self.next()
                expr = self.parse_expr()
                self.expect("op", ";")
                return Assign(tok.text, expr)
            # call statement
            stmt = self.parse_call_stmt()
            self.expect("op", ";")
            return stmt
        raise ParseError(f"cannot parse statement at {tok.text!r}", tok.line)

    def parse_block_or_single(self) -> List[CStmt]:
        if self.at("op", "{"):
            return self.parse_block()
        return [self.parse_stmt()]

    def parse_call_stmt(self) -> CStmt:
        name = self.expect("ident").text
        base, explicit = _split_explicit(name)
        if base == "atomic_store":
            self.expect("op", "(")
            loc = self._parse_loc_arg()
            self.expect("op", ",")
            expr = self.parse_expr()
            order = self._parse_order_arg(explicit, default=MemoryOrder.SC)
            self.expect("op", ")")
            return AtomicStore(loc, expr, order)
        if base == "atomic_thread_fence":
            self.expect("op", "(")
            order = MemoryOrder.parse(self.expect("ident").text)
            self.expect("op", ")")
            return Fence(order)
        if base == "atomic_init":
            self.expect("op", "(")
            loc = self._parse_loc_arg()
            self.expect("op", ",")
            expr = self.parse_expr()
            self.expect("op", ")")
            return AtomicStore(loc, expr, MemoryOrder.RLX)
        if base in _RMW_FUNCS or base == "atomic_load":
            # discarded-result call: rewind and parse as an expression
            self.pos -= 1
            expr = self.parse_expr()
            return ExprStmt(expr)
        raise ParseError(f"unknown call {name!r}")

    def _parse_loc_arg(self) -> str:
        self.accept("op", "&")
        return self.expect("ident").text

    def _parse_order_arg(self, explicit: bool, default: MemoryOrder) -> MemoryOrder:
        if explicit:
            self.expect("op", ",")
            return MemoryOrder.parse(self.expect("ident").text)
        return default

    # expressions ---------------------------------------------------- #
    def parse_expr(self) -> CExpr:
        return self.parse_binary(0)

    _LEVELS = [
        ("||",),
        ("&&",),
        ("|",),
        ("^",),
        ("&",),
        ("==", "!="),
        ("<", "<=", ">", ">="),
        ("<<", ">>"),
        ("+", "-"),
        ("*", "/", "%"),
    ]

    def parse_binary(self, level: int) -> CExpr:
        if level >= len(self._LEVELS):
            return self.parse_unary()
        ops = self._LEVELS[level]
        expr = self.parse_binary(level + 1)
        while self.at("op") and self.peek().text in ops:  # type: ignore[union-attr]
            op = self.next().text
            right = self.parse_binary(level + 1)
            expr = BinExpr(op, expr, right)
        return expr

    def parse_unary(self) -> CExpr:
        if self.at("op", "!"):
            self.next()
            return UnExpr("!", self.parse_unary())
        if self.at("op", "-"):
            self.next()
            return UnExpr("-", self.parse_unary())
        if self.at("op", "~"):
            self.next()
            return UnExpr("~", self.parse_unary())
        if self.at("op", "*"):
            self.next()
            loc = self.expect("ident").text
            return PlainLoad(loc)
        return self.parse_primary()

    def parse_primary(self) -> CExpr:
        tok = self.peek()
        assert tok is not None
        if tok.kind == "number":
            self.next()
            return IntLit(int(tok.text, 0))
        if tok.kind == "op" and tok.text == "(":
            self.next()
            # tolerate casts like `(int)` inside expressions
            if self.at("ident") and self.peek().text in _TYPE_WIDTHS and self.at("op", ")", 1):  # type: ignore[union-attr]
                self.next()
                self.next()
                return self.parse_unary()
            expr = self.parse_expr()
            self.expect("op", ")")
            return expr
        if tok.kind == "ident":
            base, explicit = _split_explicit(tok.text)
            if base == "atomic_load":
                self.next()
                self.expect("op", "(")
                loc = self._parse_loc_arg()
                order = self._parse_order_arg(explicit, default=MemoryOrder.SC)
                self.expect("op", ")")
                return AtomicLoad(loc, order)
            if base in _RMW_FUNCS:
                self.next()
                self.expect("op", "(")
                loc = self._parse_loc_arg()
                self.expect("op", ",")
                operand = self.parse_expr()
                order = self._parse_order_arg(explicit, default=MemoryOrder.SC)
                self.expect("op", ")")
                return AtomicRMW(_RMW_FUNCS[base], loc, operand, order)
            self.next()
            return Var(tok.text)
        raise ParseError(f"cannot parse expression at {tok.text!r}", tok.line)

    # condition ------------------------------------------------------ #
    def parse_condition(self) -> Condition:
        negated = self.accept("op", "~")
        kw = self.expect("ident").text
        if kw not in ("exists", "forall"):
            raise ParseError(f"expected exists/forall, got {kw!r}")
        # parentheses are conventional but optional — the printer emits
        # single-atom conditions bare (``exists P1:r0=0``, the shape
        # condition-weakening reductions produce), and parse_prop_atom
        # handles a parenthesised group anyway
        prop = self.parse_prop()
        if negated:
            if kw != "exists":
                raise ParseError("~forall is not supported")
            return Condition("forall", Not(prop))
        return Condition(kw, prop)

    def parse_prop(self) -> Prop:
        left = self.parse_prop_conj()
        while self.at("op", "\\/"):
            self.next()
            left = Or(left, self.parse_prop_conj())
        return left

    def parse_prop_conj(self) -> Prop:
        left = self.parse_prop_atom()
        while self.at("op", "/\\"):
            self.next()
            left = And(left, self.parse_prop_atom())
        return left

    def parse_prop_atom(self) -> Prop:
        if self.accept("op", "~"):
            return Not(self.parse_prop_atom())
        if self.accept("op", "("):
            prop = self.parse_prop()
            self.expect("op", ")")
            return prop
        if self.accept("op", "["):
            loc = self.expect("ident").text
            self.expect("op", "]")
            self.expect("op", "=")
            value = self.parse_int_literal()
            return LocEq(loc, value)
        tok = self.next()
        thread: Optional[str] = None
        name = tok.text
        if tok.kind == "number":
            # herd-style `0:r0=1`
            thread = f"P{tok.text}"
            self.expect("op", ":")
            name = self.expect("ident").text
        elif self.at("op", ":"):
            self.next()
            thread = tok.text
            name = self.expect("ident").text
        self.expect("op", "=")
        value = self.parse_int_literal()
        if thread is not None:
            return RegEq(thread, name, value)
        return LocEq(name, value)


def _split_explicit(name: str) -> Tuple[str, bool]:
    if name.endswith("_explicit"):
        return name[: -len("_explicit")], True
    return name, False


def parse_c_litmus(source: str, name: str = "test") -> CLitmus:
    """Parse a C litmus test from source text.

    Parsing reads nothing but its two arguments, so each distinct
    ``(source, name)`` is parsed once per process: a repeat (a suite read
    again under another model or compiler pair) answers with the first
    parse's instance, from a memo of at most :data:`PARSE_MEMO_ENTRIES`
    entries.  The result is shared, so it is read-only: derive a changed
    test with :func:`dataclasses.replace`, never by assignment.

    A :class:`ParseError` raised anywhere in the parse carries the
    offending source line as its snippet (``exc.render()`` shows
    ``file:line``, plus the line itself).  Errors are not memoised: a bad
    text is parsed, and raises, on every call.
    """
    return _parse(source, name)


#: how many distinct ``(source, name)`` pairs the parse memo keeps; past
#: it the least recently used go.  An entry is a corpus test's AST (about
#: 3.4 KB) and its source text (about 0.5 KB), so the memo holds at most
#: about 4 MB.
PARSE_MEMO_ENTRIES = 1024


@lru_cache(maxsize=PARSE_MEMO_ENTRIES)
def _parse(source: str, name: str) -> CLitmus:
    try:
        tokens = _expand_defines(_tokenize(source))
        parser = _CParser(tokens)
        litmus = parser.parse_litmus(default_name=name)
        if parser.peek() is not None:
            tok = parser.peek()
            raise ParseError(f"trailing input {tok.text!r}", tok.line)  # type: ignore[union-attr]
    except ParseError as exc:
        raise exc.attach_source(source, name)
    return litmus
