"""AST for the C11 litmus-test subset.

Litmus tests (paper Fig. 1) are small C programs: each thread is a
function receiving pointers to the shared locations, with a body built
from C11 atomic operations, plain accesses, fences, local-variable
arithmetic and simple control flow.  This is the same shape diy generates
and the paper compiles; it is not general C.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..core.events import MemoryOrder
from ..core.litmus import LitmusBase

# --------------------------------------------------------------------------- #
# expressions
# --------------------------------------------------------------------------- #
class CExpr:
    """Base class of C-level expressions."""


@dataclass(frozen=True)
class IntLit(CExpr):
    value: int


@dataclass(frozen=True)
class Var(CExpr):
    """A thread-local variable (register)."""

    name: str


@dataclass(frozen=True)
class BinExpr(CExpr):
    op: str
    left: CExpr
    right: CExpr


@dataclass(frozen=True)
class UnExpr(CExpr):
    op: str
    operand: CExpr


@dataclass(frozen=True)
class PlainLoad(CExpr):
    """``*x`` — a non-atomic load of a shared location."""

    loc: str
    width: int = 32


@dataclass(frozen=True)
class AtomicLoad(CExpr):
    """``atomic_load_explicit(x, mo)``"""

    loc: str
    order: MemoryOrder
    width: int = 32


#: RMW kinds and the function computing the stored value from (old, operand).
RMW_KINDS = ("add", "sub", "or", "and", "xor", "xchg")


@dataclass(frozen=True)
class AtomicRMW(CExpr):
    """``atomic_fetch_<op>_explicit(x, v, mo)`` / ``atomic_exchange_explicit``.

    Evaluates to the *old* value of the location.
    """

    kind: str
    loc: str
    operand: CExpr
    order: MemoryOrder
    width: int = 32

    def __post_init__(self) -> None:
        if self.kind not in RMW_KINDS:
            raise ValueError(f"unknown RMW kind {self.kind!r}")


# --------------------------------------------------------------------------- #
# statements
# --------------------------------------------------------------------------- #
class CStmt:
    """Base class of C-level statements."""


@dataclass(frozen=True)
class Decl(CStmt):
    """``int r0 = expr;`` — declares and initialises a local."""

    var: str
    expr: CExpr


@dataclass(frozen=True)
class Assign(CStmt):
    """``r0 = expr;``"""

    var: str
    expr: CExpr


@dataclass(frozen=True)
class PlainStore(CStmt):
    """``*x = expr;``"""

    loc: str
    expr: CExpr
    width: int = 32


@dataclass(frozen=True)
class AtomicStore(CStmt):
    """``atomic_store_explicit(x, expr, mo);``"""

    loc: str
    expr: CExpr
    order: MemoryOrder
    width: int = 32


@dataclass(frozen=True)
class Fence(CStmt):
    """``atomic_thread_fence(mo);``"""

    order: MemoryOrder


@dataclass(frozen=True)
class ExprStmt(CStmt):
    """An expression evaluated for effect (e.g. a discarded RMW)."""

    expr: CExpr


@dataclass(frozen=True)
class If(CStmt):
    cond: CExpr
    then_body: Tuple[CStmt, ...]
    else_body: Tuple[CStmt, ...] = ()


@dataclass(frozen=True)
class While(CStmt):
    """A loop, unrolled to the simulator's fixed unroll factor."""

    cond: CExpr
    body: Tuple[CStmt, ...]


# --------------------------------------------------------------------------- #
# threads and tests
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class CThread:
    """One thread of a litmus test.

    ``params`` lists the shared locations the thread receives (by pointer),
    in declaration order — the compiler uses this for its calling
    convention.  ``atomic_params`` records which are ``atomic_int``-typed.
    """

    name: str
    params: Tuple[str, ...]
    body: Tuple[CStmt, ...]
    atomic_params: Tuple[str, ...] = ()

    @property
    def tid(self) -> int:
        if self.name.startswith("P") and self.name[1:].isdigit():
            return int(self.name[1:])
        raise ValueError(f"thread name {self.name!r} is not of the form Pn")


@dataclass
class CLitmus(LitmusBase):
    """A complete C litmus test: init state, threads, exists-condition."""

    threads: Tuple[CThread, ...] = ()
    #: widths of shared locations in bits (default 32); 128 for the
    #: 128-bit atomic bug studies.
    widths: Dict[str, int] = field(default_factory=dict)
    #: locations declared const (read-only memory) — paper §IV-E.
    const_locations: Tuple[str, ...] = ()

    def digest(self) -> str:
        """A stable content digest of this test.

        Two tests with identical programs (init, threads, condition,
        widths, const qualifiers) share a digest even when their *names*
        differ — and two tests that happen to share a name (``LB001``
        from two different :class:`~repro.tools.diy.DiyConfig`\\ s) do
        not.  Campaign caches and the persistent campaign store key by
        this, so verdicts are shareable across runs, processes and
        sessions without name-collision unsoundness.
        """
        cached = self.__dict__.get("_digest")
        if cached is None:
            from .printer import digest_source  # deferred: printer imports this module

            payload = digest_source(self)
            cached = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
            self.__dict__["_digest"] = cached
        return cached

    def width_of(self, loc: str) -> int:
        return self.widths.get(loc, 32)

    def locals_read_in_condition(self) -> Dict[str, List[str]]:
        """Map thread name -> locals observed by the final condition."""
        out: Dict[str, List[str]] = {}
        for name in self.condition.observables():
            if ":" in name:
                thread, reg = name.split(":", 1)
                out.setdefault(thread, []).append(reg)
        return out
