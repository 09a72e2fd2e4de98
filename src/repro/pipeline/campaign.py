"""Campaign reports, cell specs and verdict records (paper Table IV).

The campaign *runner* lives in :mod:`repro.api.engine`; this module owns
the batch-side vocabulary every backend and mode shares:

* :class:`CampaignReport` / :class:`CampaignCell` — the tally in the
  paper's Table IV layout, plus :func:`merge_reports` for folding shard
  reports back into the single-run table;
* :class:`CellSpec` — one cell of any campaign mode as a frozen,
  picklable value: the work-list item, the store key and the identity
  half of its verdict record;
* :func:`shape_record` — the single status contract the serial, thread
  and process backends and the persistent store all speak, over the
  memoised :func:`result_half` of each cell's verdict.

No cache lives here.  A test's source simulation is cached once, by the
toolchain's ``simulate-source`` stage (:mod:`repro.toolchain`), and a
session memoises each cell's record half in ``Session.result_cache``.

The reproduction target is the *shape* of Table IV, whatever the suite
size: positives only on Armv8, Armv7, RISC-V and PowerPC (the Fig. 7
load-buffering family); none on x86-64 (TSO) or MIPS; extra positives
for GCC ``-O1`` on Armv7 (the deleted control dependency, masked at
``-O2+``); and every positive disappears under
``source_model="rc11+lb"`` (Claim 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..compiler.profiles import (
    GCC_OPT_LEVELS,
    LLVM_OPT_LEVELS,
    CompilerProfile,
    make_profile,
    parse_profile,
)
from ..core.errors import ReproError, SimulationTimeout
from ..lang.ast import CLitmus
from .store import STORE_SCHEMA, cell_key

#: Table IV's column order.
CAMPAIGN_OPTS = ("-O1", "-O2", "-O3", "-Ofast", "-Og")

#: Table IV's row order with display names.
ARCH_DISPLAY = (
    ("aarch64", "Armv8 AArch64 (64-bit)"),
    ("armv7", "Armv7-a (32-bit)"),
    ("riscv64", "RISC-V (64-bit)"),
    ("ppc64", "IBM PowerPC (64-bit)"),
    ("x86_64", "Intel x86-64 (64-bit)"),
    ("mips64", "MIPS (64-bit)"),
)

#: the verdict strings :meth:`CampaignCell.record` tallies.
KNOWN_VERDICTS = ("positive", "negative", "equal", "ub-masked")


@dataclass
class CampaignCell:
    """One (arch, opt, compiler) cell of Table IV."""

    positive: int = 0
    negative: int = 0
    equal: int = 0
    ub_masked: int = 0
    timeouts: int = 0
    errors: int = 0

    @property
    def total(self) -> int:
        return (self.positive + self.negative + self.equal + self.ub_masked
                + self.timeouts + self.errors)

    def record(self, verdict: str) -> None:
        if verdict == "positive":
            self.positive += 1
        elif verdict == "negative":
            self.negative += 1
        elif verdict == "equal":
            self.equal += 1
        elif verdict == "ub-masked":
            self.ub_masked += 1
        else:
            # an unknown verdict must never silently land in a Table IV
            # tally — a future verdict type has to be classified here
            raise ValueError(
                f"unknown verdict {verdict!r}; expected one of {KNOWN_VERDICTS}"
            )

    def add(self, other: "CampaignCell") -> None:
        self.positive += other.positive
        self.negative += other.negative
        self.equal += other.equal
        self.ub_masked += other.ub_masked
        self.timeouts += other.timeouts
        self.errors += other.errors


@dataclass
class CampaignReport:
    """The full campaign result: cells plus run metadata."""

    source_model: str
    cells: Dict[Tuple[str, str, str], CampaignCell] = field(default_factory=dict)
    tests_input: int = 0
    compiled_tests: int = 0
    elapsed_seconds: float = 0.0
    #: per-test positive records for drill-down: (test, arch, opt, compiler)
    positives: List[Tuple[str, str, str, str]] = field(default_factory=list)
    #: distinct source-side simulations actually run (== distinct tests
    #: when the caches start cold; never double-counts a test shared by
    #: several worker processes or shards)
    source_simulations: int = 0
    #: the source-simulation cache keys behind ``source_simulations`` —
    #: kept so merging shard reports can de-duplicate across shards
    source_sim_keys: FrozenSet[Tuple] = frozenset()
    #: cells answered from the session's cell memo without re-running
    cached_cells: int = 0
    #: cells replayed from the persistent store without re-running
    store_hits: int = 0
    #: worker threads used
    workers: int = 1
    #: worker processes used (0 = in-process execution)
    processes: int = 0
    #: the (k, n) cell shard this report covers (None = the whole campaign)
    shard: Optional[Tuple[int, int]] = None

    def cell(self, arch: str, opt: str, compiler: str) -> CampaignCell:
        key = (arch, opt, compiler)
        if key not in self.cells:
            self.cells[key] = CampaignCell()
        return self.cells[key]

    def total_positive(self, arch: Optional[str] = None) -> int:
        return sum(
            c.positive for (a, _, _), c in self.cells.items()
            if arch is None or a == arch
        )

    def total_negative(self, arch: Optional[str] = None) -> int:
        return sum(
            c.negative for (a, _, _), c in self.cells.items()
            if arch is None or a == arch
        )

    # ------------------------------------------------------------------ #
    def to_jsonable(self, include_timing: bool = True) -> Dict[str, object]:
        """A canonical JSON projection of the whole report.

        Deterministic (cells and keys sorted) so two reports of the same
        campaign serialise byte-for-byte identically under
        ``json.dumps(..., sort_keys=True)`` — the representation the
        event-stream parity guarantee is stated in.  ``include_timing``
        off zeroes the only wall-clock-dependent field.
        """
        return {
            "source_model": self.source_model,
            "tests_input": self.tests_input,
            "compiled_tests": self.compiled_tests,
            "elapsed_seconds": self.elapsed_seconds if include_timing else 0.0,
            "source_simulations": self.source_simulations,
            "source_sim_keys": sorted(
                "|".join(str(part) for part in key)
                for key in self.source_sim_keys
            ),
            "cached_cells": self.cached_cells,
            "store_hits": self.store_hits,
            "workers": self.workers,
            "processes": self.processes,
            "shard": list(self.shard) if self.shard else None,
            "positives": [list(p) for p in self.positives],
            "cells": {
                "|".join(key): {
                    "positive": cell.positive,
                    "negative": cell.negative,
                    "equal": cell.equal,
                    "ub_masked": cell.ub_masked,
                    "timeouts": cell.timeouts,
                    "errors": cell.errors,
                }
                for key, cell in sorted(self.cells.items())
            },
        }

    def table(self) -> str:
        """Render in the paper's Table IV layout (clang/gcc per cell)."""
        if self.processes:
            parallelism = (
                f"{self.processes} process{'es' if self.processes != 1 else ''}"
            )
        else:
            parallelism = f"{self.workers} worker{'s' if self.workers != 1 else ''}"
        lines = [
            f"Campaign under source model {self.source_model!r}: "
            f"{self.tests_input} C tests input, {self.compiled_tests} "
            f"compiled tests output ({self.elapsed_seconds:.1f}s, "
            f"{self.source_simulations} source simulations, "
            f"{parallelism})",
            "",
        ]
        diff_cells = {
            key: cell for key, cell in self.cells.items() if key[1] == "diff"
        }
        tv_cells = {
            key: cell for key, cell in self.cells.items() if key[1] != "diff"
        }
        if diff_cells:
            lines.append("Differential pairs (compiler vs compiler, §IV-D):")
            for (arch, _, pair), cell in sorted(diff_cells.items()):
                lines.append(
                    f"  {arch:10s} {pair}: "
                    f"+ve {cell.positive}, -ve {cell.negative}, "
                    f"equal {cell.equal}, ub-masked {cell.ub_masked}, "
                    f"timeouts {cell.timeouts}, errors {cell.errors}"
                )
            if not tv_cells:
                return "\n".join(lines)
            lines.append("")
        header = f"{'':28s}" + "".join(f"{opt:>14s}" for opt in CAMPAIGN_OPTS)
        lines.append(header)
        for arch, display in ARCH_DISPLAY:
            if not any(a == arch for (a, _, _) in tv_cells):
                continue
            lines.append(f"{display} clang/gcc")
            for sign, attr in (("+ve", "positive"), ("-ve", "negative")):
                row = f"  {sign:26s}"
                for opt in CAMPAIGN_OPTS:
                    clang = tv_cells.get((arch, opt, "llvm"))
                    gcc = tv_cells.get((arch, opt, "gcc"))
                    cv = getattr(clang, attr) if clang else "-"
                    gv = getattr(gcc, attr) if gcc else "-"
                    row += f"{str(cv)+'/'+str(gv):>14s}"
                lines.append(row)
        return "\n".join(lines)


def merge_reports(reports: Sequence[CampaignReport]) -> CampaignReport:
    """Deterministically fold shard reports into one campaign report.

    The k/n cell shards of one campaign partition its work list, so
    summing their cells reconstructs the single-run Table IV exactly.
    Source simulations are de-duplicated by cache key (two shards that
    each simulated the same test's source count it once, like the
    single-run cache would).  ``positives`` are sorted — shards finish in
    arbitrary order, and the merge must not depend on it.
    """
    if not reports:
        raise ValueError("merge_reports needs at least one report")
    models = {r.source_model for r in reports}
    if len(models) != 1:
        raise ValueError(f"cannot merge reports across source models {sorted(models)}")
    merged = CampaignReport(
        source_model=reports[0].source_model,
        workers=max(r.workers for r in reports),
        processes=max(r.processes for r in reports),
    )
    merged.tests_input = max(r.tests_input for r in reports)
    merged.compiled_tests = sum(r.compiled_tests for r in reports)
    merged.elapsed_seconds = sum(r.elapsed_seconds for r in reports)
    merged.cached_cells = sum(r.cached_cells for r in reports)
    merged.store_hits = sum(r.store_hits for r in reports)
    merged.source_sim_keys = frozenset().union(
        *(r.source_sim_keys for r in reports)
    )
    merged.source_simulations = len(merged.source_sim_keys)
    for report in reports:
        for key, cell in report.cells.items():
            merged.cell(*key).add(cell)
    merged.positives = sorted(p for r in reports for p in r.positives)
    return merged


def _campaign_cells(
    tests: Sequence[CLitmus],
    arches: Sequence[str],
    opts: Sequence[str],
    compilers: Sequence[str],
) -> List[Tuple[CLitmus, str, str, str]]:
    """The (test, arch, opt, compiler) work list, in Table IV order."""
    cells: List[Tuple[CLitmus, str, str, str]] = []
    for litmus in tests:
        for arch in arches:
            for compiler in compilers:
                levels = LLVM_OPT_LEVELS if compiler == "llvm" else GCC_OPT_LEVELS
                for opt in opts:
                    if opt not in levels:
                        continue  # clang has no -Og (Table IV dashes)
                    cells.append((litmus, arch, opt, compiler))
    return cells


# --------------------------------------------------------------------------- #
# cell evaluation → verdict records
# --------------------------------------------------------------------------- #
def _profile_name(compiler: str, opt: str, arch: str) -> str:
    """The profile name for record/store keys.

    Must never raise: an unbuildable profile (unknown arch, bad flag) is
    tallied as an error *cell*, not a campaign abort, so its record still
    needs a stable key.
    """
    try:
        return make_profile(compiler, opt, arch).name
    except ReproError:
        return f"{compiler}-{opt.lstrip('-')}-{arch}"


@dataclass(frozen=True)
class CellSpec:
    """One campaign cell: everything its verdict record depends on.

    A tv cell is (test × arch × opt × compiler).  A differential cell
    carries its two profile specs in ``pair``, with ``opt="diff"`` and
    ``compiler="<spec_a>|<spec_b>"`` — so shard merging, store replay and
    event folding tally both modes under one ``(arch, opt, compiler)``
    key.  The spec is a plain value: the serial, thread and process
    backends all evaluate the same object.
    """

    litmus: CLitmus
    arch: str
    opt: str
    compiler: str
    source_model: str
    augment: bool
    budget_candidates: int
    pair: Optional[Tuple[str, str]] = None

    @property
    def profile(self) -> str:
        """The profile label records and store keys carry (the pair
        label stands in for a differential cell, so both modes persist
        through the one store format)."""
        if self.pair:
            return self.compiler
        return _profile_name(self.compiler, self.opt, self.arch)

    def store_key(self) -> str:
        return cell_key(
            self.litmus.digest(), self.profile, self.source_model,
            self.augment, self.budget_candidates,
        )

    def profiles(self, epochs=None) -> Tuple[CompilerProfile, ...]:
        """The cell's compiler profile(s), resolved against ``epochs``
        (a session overlay; ``None`` resolves against the globals)."""
        if self.pair:
            return tuple(
                parse_profile(spec, epochs=epochs) for spec in self.pair
            )
        return (
            make_profile(self.compiler, self.opt, self.arch, epochs=epochs),
        )

    def base_record(self) -> Dict[str, object]:
        """The identity half of the cell's verdict record (see
        :mod:`.store`)."""
        record: Dict[str, object] = {
            "schema": STORE_SCHEMA,
            "digest": self.litmus.digest(),
            "test": self.litmus.name,
            "arch": self.arch,
            "opt": self.opt,
            "compiler": self.compiler,
            "profile": self.profile,
            "source_model": self.source_model,
            "augment": bool(self.augment),
            "budget_candidates": self.budget_candidates,
        }
        if self.pair:
            record.update(
                mode="differential", profile_a=self.pair[0],
                profile_b=self.pair[1],
            )
        return record


def result_half(spec: CellSpec, result) -> Dict[str, object]:
    """The result half of ``spec``'s verdict record: ``result.to_record()``
    without the identity fields :meth:`CellSpec.base_record` owns.

    This is the value ``Session.result_cache`` memoises.  The memo keys
    by content, so one entry answers every cell with the same test
    content, resolved profiles and models, whatever the test is named.
    Names, profile labels and the source model therefore always come
    from the cell itself (a differential cell's profile specs may also
    carry a version suffix the result's profile names drop).
    """
    base = spec.base_record()
    return {
        name: value for name, value in result.to_record().items()
        if name not in base
    }


def shape_record(
    spec: CellSpec, produce_half: Callable[[], Dict[str, object]]
) -> Dict[str, object]:
    """Run one cell producer and shape its outcome as the cell's record.

    ``produce_half`` returns the cell's :func:`result_half` (usually from
    the session's memo) or raises.  This is the single status contract
    shared by every execution backend *and* every campaign mode — serial,
    thread pool and process pool must emit byte-identical record shapes
    or the store would replay whichever backend wrote last, and a new
    status class added here reaches tv and differential records together.
    """
    base = spec.base_record()
    try:
        half = produce_half()
    except SimulationTimeout:
        return dict(base, status="timeout")
    except ReproError:
        return dict(base, status="error")
    return dict(base, status="ok", **half)
