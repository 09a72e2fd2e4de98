"""Optimisation passes over the IR.

The passes implement exactly the transformations the paper's bug studies
hinge on:

* **dead-local elimination** (§IV-B, Fig. 9): locals never used again are
  deleted.  A *plain* load with a dead destination disappears entirely; an
  atomic RMW keeps its memory effect but loses its destination
  (``dst=None``), which is what lets the back-end select the ST-form /
  zero-destination encodings of Fig. 10 and Fig. 1.
* **identical-branch merging** (§IV-D, the gcc ``-O1`` Armv7 quirk):
  ``if (c) *y=v; else *y=v;`` → ``*y=v``, deleting a control dependency.
* **if-conversion to select** (``-O2`` and above): a store diamond becomes
  a branch-free arithmetic select, which *introduces a data dependency* —
  masking the reordering the merged branch exposed (the paper's
  explanation of the 3480 vs 2352 positive-difference gap).
* constant folding, copy propagation and branch folding — the scaffolding
  that makes the above fire on diy-generated tests.

Passes are pure functions ``body -> body``; :func:`pipeline_for` assembles
the per-profile pass list.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..core.events import MemoryOrder
from . import bugs
from .ir import IRFunction, IRInstr, IROp, Operand
from .profiles import CompilerProfile

Pass = Callable[[List[IRInstr]], List[IRInstr]]

_FOLDABLE = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
    "<": lambda a, b: int(a < b),
    "<=": lambda a, b: int(a <= b),
    ">": lambda a, b: int(a > b),
    ">=": lambda a, b: int(a >= b),
}


# --------------------------------------------------------------------------- #
# scaffolding passes
# --------------------------------------------------------------------------- #
def _with_operands(
    instr: IRInstr, a: Optional[Operand], b: Optional[Operand]
) -> IRInstr:
    """``instr`` with operands ``a``/``b``; rebuilt only if one changed."""
    if a is instr.a and b is instr.b:
        return instr
    return replace(instr, a=a, b=b)


def const_fold(body: List[IRInstr]) -> List[IRInstr]:
    """Block-local constant propagation and folding."""
    out: List[IRInstr] = []
    consts: Dict[str, int] = {}

    def resolve(operand: Optional[Operand]) -> Optional[Operand]:
        if isinstance(operand, str) and operand in consts:
            return consts[operand]
        return operand

    for instr in body:
        if instr.op in (IROp.LABEL, IROp.BR, IROp.CBR):
            if instr.op is IROp.CBR:
                instr = _with_operands(instr, resolve(instr.a), resolve(instr.b))
            # control flow joins invalidate block-local knowledge
            out.append(instr)
            consts.clear()
            continue
        instr = _with_operands(instr, resolve(instr.a), resolve(instr.b))
        if instr.op is IROp.CONST and instr.dst is not None:
            consts[instr.dst] = int(instr.a)  # type: ignore[arg-type]
        elif (
            instr.op is IROp.BIN
            and isinstance(instr.a, int)
            and isinstance(instr.b, int)
            and instr.bin_op in _FOLDABLE
            and instr.dst is not None
        ):
            value = _FOLDABLE[instr.bin_op](instr.a, instr.b)
            consts[instr.dst] = value
            out.append(IRInstr(op=IROp.CONST, dst=instr.dst, a=value))
            continue
        elif instr.dst is not None:
            consts.pop(instr.dst, None)
        out.append(instr)
    return out


def copy_prop(body: List[IRInstr]) -> List[IRInstr]:
    """Forward copies ``x := y + 0`` block-locally."""
    out: List[IRInstr] = []
    copies: Dict[str, str] = {}

    def resolve(operand: Optional[Operand]) -> Optional[Operand]:
        if isinstance(operand, str):
            return copies.get(operand, operand)
        return operand

    for instr in body:
        if instr.op in (IROp.LABEL, IROp.BR):
            out.append(instr)
            copies.clear()
            continue
        instr = _with_operands(instr, resolve(instr.a), resolve(instr.b))
        if instr.dst is not None:
            # defining x kills copies of x and copies *through* x
            copies.pop(instr.dst, None)
            copies = {k: v for k, v in copies.items() if v != instr.dst}
        if (
            instr.op is IROp.BIN
            and instr.bin_op == "+"
            and instr.b == 0
            and isinstance(instr.a, str)
            and instr.dst is not None
        ):
            copies[instr.dst] = instr.a
        out.append(instr)
    return out


def branch_fold(body: List[IRInstr]) -> List[IRInstr]:
    """Resolve constant conditional branches; drop unreachable tails."""
    out: List[IRInstr] = []
    for instr in body:
        if instr.op is IROp.CBR and isinstance(instr.a, int) and isinstance(instr.b, int):
            taken = _FOLDABLE[_COND_TO_OP[instr.cond]](instr.a, instr.b)
            if taken:
                out.append(IRInstr(op=IROp.BR, label=instr.label))
            continue
        out.append(instr)
    # remove code between an unconditional BR/RET and the next label
    pruned: List[IRInstr] = []
    dead = False
    for instr in out:
        if instr.op is IROp.LABEL:
            dead = False
        if not dead:
            pruned.append(instr)
        if instr.op in (IROp.BR, IROp.RET):
            dead = True
    return pruned


_COND_TO_OP = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}


# --------------------------------------------------------------------------- #
# the paper's passes
# --------------------------------------------------------------------------- #
def dead_local_elim(observed: Tuple[str, ...] = ()) -> Pass:
    """Delete definitions of locals that are never used (paper §IV-B).

    The compiler cannot see the litmus final-state condition — a local is
    dead if the *program* never uses it, which is precisely why unmodified
    tests lose their observables (Fig. 9) and why l2c's augmentation
    (storing locals to ``out_*`` globals *inside the program*) restores
    them.  ``observed`` exists for callers that want to model a harness
    that takes locals' addresses; the production pipelines pass nothing.
    """

    def run(body: List[IRInstr]) -> List[IRInstr]:
        changed = True
        current = list(body)
        while changed:
            changed = False
            used: Set[str] = set(observed)
            for instr in current:
                used |= instr.uses()
            out: List[IRInstr] = []
            for instr in current:
                dst = instr.dst
                if dst is not None and dst not in used:
                    if instr.op in (IROp.CONST, IROp.BIN):
                        changed = True
                        continue  # pure computation: delete outright
                    if instr.op is IROp.LOAD and instr.order is MemoryOrder.NA:
                        # Fig. 9: an unused plain load disappears
                        changed = True
                        continue
                    if instr.op is IROp.RMW:
                        # keep the memory effect, drop the result — the
                        # Fig. 10 / Fig. 1 precondition
                        instr = replace(instr, dst=None)
                        changed = True
                    if instr.op is IROp.LOAD and instr.order.is_atomic:
                        # conservatively keep unused atomic loads (as
                        # production compilers do)
                        pass
                out.append(instr)
            current = out
        return current

    return run


def merge_identical_branches(body: List[IRInstr]) -> List[IRInstr]:
    """``if (c) S; else S;`` → ``S`` — drops the control dependency.

    Models the GCC ``-O1`` Armv7 behaviour of §IV-D.  Only fires on the
    diamond shape produced by our lowerer, with structurally identical
    single-store arms.
    """
    out: List[IRInstr] = []
    i = 0
    while i < len(body):
        instr = body[i]
        match = _match_store_diamond(body, i)
        if match is not None:
            then_store, else_store, end = match
            if then_store == else_store:
                out.append(then_store)
                i = end
                continue
        out.append(instr)
        i += 1
    return out


def if_convert_select(body: List[IRInstr]) -> List[IRInstr]:
    """Store diamond → branch-free select (``-O2`` and above).

    ``if (c) *y=a; else *y=b;`` becomes ``*y = c̄·b + c·a`` where ``c̄``/``c``
    are the 0/1 branch condition — replacing the control dependency with a
    *data* dependency, which masks the §IV-D reordering at ``-O2+``.
    """
    out: List[IRInstr] = []
    temp_counter = [0]

    def fresh() -> str:
        temp_counter[0] += 1
        return f"%sel{temp_counter[0]}"

    i = 0
    while i < len(body):
        match = _match_store_diamond(body, i)
        if match is not None:
            then_store, else_store, end = match
            cbr = body[i]
            if (
                then_store.loc == else_store.loc
                and then_store.order == else_store.order
            ):
                # cbr jumps to the ELSE arm when (a cond b) holds, so the
                # fall-through (then) arm runs when the condition FAILS
                cond = fresh()
                out.append(
                    IRInstr(op=IROp.BIN, dst=cond, a=cbr.a, b=cbr.b,
                            bin_op=_COND_TO_OP[cbr.cond])
                )
                take_else = fresh()
                take_then = fresh()
                out.append(IRInstr(op=IROp.BIN, dst=take_else, a=cond,
                                   b=else_store.a, bin_op="*"))
                inv = fresh()
                out.append(IRInstr(op=IROp.BIN, dst=inv, a=1, b=cond, bin_op="-"))
                out.append(IRInstr(op=IROp.BIN, dst=take_then, a=inv,
                                   b=then_store.a, bin_op="*"))
                value = fresh()
                out.append(IRInstr(op=IROp.BIN, dst=value, a=take_else,
                                   b=take_then, bin_op="+"))
                out.append(replace(then_store, a=value))
                i = match[2]
                continue
        out.append(body[i])
        i += 1
    return out


def _match_store_diamond(
    body: List[IRInstr], i: int
) -> Optional[Tuple[IRInstr, IRInstr, int]]:
    """Match the lowerer's diamond at index ``i``.

    Shape::

        CBR a cond b -> Lelse
        STORE loc := v1
        BR Lend
        LABEL Lelse
        STORE loc := v2
        LABEL Lend

    Returns ``(then_store, else_store, index_after_diamond)``.
    """
    try:
        cbr, s1, br, lelse, s2, lend = body[i : i + 6]
    except ValueError:
        return None
    if cbr.op is not IROp.CBR or s1.op is not IROp.STORE:
        return None
    if br.op is not IROp.BR or lelse.op is not IROp.LABEL:
        return None
    if s2.op is not IROp.STORE or lend.op is not IROp.LABEL:
        return None
    if cbr.label != lelse.label or br.label != lend.label:
        return None
    if s1.loc != s2.loc:
        return None
    return s1, s2, i + 6


# --------------------------------------------------------------------------- #
# pipelines
# --------------------------------------------------------------------------- #
def pipeline_for(profile: CompilerProfile, fn: IRFunction) -> List[Pass]:
    """The pass list a given profile runs on one function."""
    if profile.opt == "-O0":
        return []
    passes: List[Pass] = [const_fold, copy_prop, branch_fold]
    if profile.opt == "-Og":
        return passes
    passes.append(dead_local_elim())
    if (
        profile.opt_rank == 1
        and profile.compiler == "gcc"
        and profile.arch == "armv7"
        and profile.has_bug(bugs.ARMV7_O1_CTRL_DROP)
    ):
        passes.append(merge_identical_branches)
    if profile.opt_rank >= 2:
        passes.append(if_convert_select)
        passes.append(const_fold)
        passes.append(copy_prop)
        passes.append(dead_local_elim())
    return passes


def optimise(fn: IRFunction, profile: CompilerProfile) -> IRFunction:
    """Run the profile's pipeline over one function."""
    body = list(fn.body)
    for p in pipeline_for(profile, fn):
        body = p(body)
    return IRFunction(
        name=fn.name,
        params=fn.params,
        body=body,
        atomic_params=fn.atomic_params,
        observed_locals=fn.observed_locals,
    )
