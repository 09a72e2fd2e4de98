"""The ``telechat`` command-line interface, on the :mod:`repro.api` surface.

Mirrors the paper artefact's Makefile entry points:

* ``telechat examples`` — the "smoketest" (Claims 1/2/5): runs the LB
  family through test_tv for llvm-O3-AArch64 and prints the mcompare log;
* ``telechat test FILE`` — run one C litmus test under a profile; exits
  non-zero on a ``positive`` (bug-found) verdict so shell scripts and CI
  can gate on it;
* ``telechat campaign`` — the scaled Table IV campaign, with live
  per-cell progress on a tty (``--progress``/``--no-progress`` to force)
  and ``--json`` emitting the typed event stream as JSON lines;
  ``--differential A B`` runs the compiler-vs-compiler mode (§IV-D)
  over the given profile names instead of the tv sweep;
* ``telechat explain TEST`` — run the staged tool-chain on one test
  (a C litmus file, a paper figure name like ``fig7_lb``, or a diy
  shape name) and print every stage's artifact: the prepared source,
  the disassembly, the lifted litmus, both outcome sets (with the herd
  execution dot dump) and the mcompare verdict;
* ``telechat hunt --seeds ...`` — the mutation-guided bug hunt (§V):
  mutate the seeds round by round (positives first), minimise every
  positive, and print the minimal reproducers; exits 1 when the hunt
  found nothing;
* ``telechat reduce TEST`` — delta-debug one positive test to a
  1-minimal reproducer and print its C source;
* ``telechat lint [TARGET...]`` — static analysis
  (:mod:`repro.analysis`) over cat models and litmus tests; with no
  targets, sweeps the whole in-tree corpus (the CI gate); exits 1 on
  error-severity findings (``--strict``: on warnings too);
* ``telechat models`` / ``telechat shapes`` / ``telechat profiles`` —
  inventory listings (``--json`` for registry metadata).

Every command drives a :class:`repro.api.Session`; the CLI holds no
state of its own.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable, Iterator, List, Optional

from ..api import (
    CampaignEvent,
    CampaignPlan,
    CampaignStarted,
    CellFinished,
    FarmFinished,
    FarmPlan,
    FarmStarted,
    HuntProgress,
    PlanError,
    Session,
    SuiteFinished,
    TestReduced,
)
from ..cat.registry import MODELS
from ..compiler.profiles import ARCHES, EPOCHS, default_profiles
from ..core.errors import LintError, ParseError
from ..lang.parser import parse_c_litmus
from ..tools.diy import SHAPES, DiyConfig, build_test, small_config
from .store import CampaignStore


class _UsageError(Exception):
    """A bad combination of command-line options (exit 2).  A
    :class:`PlanError` (a plan the engine refuses) is reported the same
    way."""


def _open_store(args: argparse.Namespace) -> Optional[CampaignStore]:
    """The ``--store`` a command persists verdicts to, if any."""
    if getattr(args, "resume", False) and not args.store:
        raise _UsageError("--resume needs --store")
    return CampaignStore(args.store) if args.store else None


def _progress_line(
    event: CampaignEvent, done: int, total: Optional[int]
) -> str:
    """The stderr progress line of one event ("" for none).  ``total`` is
    the work-list size that cell lines count ``done`` against; ``None``
    (a farm or a hunt) leaves cells uncounted and the work list
    unannounced."""
    if isinstance(event, CellFinished):
        prefix = "  " if total is None else f"[{done}/{total}] "
        origin = " (store)" if event.from_store else ""
        return (
            f"{prefix}{event.test} {event.arch} {event.opt} "
            f"{event.compiler}: {event.verdict or event.status}{origin}"
        )
    if isinstance(event, CampaignStarted) and total is not None:
        return (
            f"campaign: {event.tests_input} tests, "
            f"{event.cells_total} cells ({event.pending} to run)"
        )
    if isinstance(event, FarmStarted):
        return (
            f"farm {event.root}: {len(event.suites)} suite(s), "
            f"{event.baselines} baseline cell(s), {event.tests_total} tests"
        )
    if isinstance(event, SuiteFinished):
        state = "blessed" if event.blessed else (
            f"{event.drift} drifting" if event.drift else "clean"
        )
        return (
            f"{event.suite} @ {event.profile} [{event.model}]: "
            f"{event.records} records, {state}"
        )
    if isinstance(event, HuntProgress):
        return (
            f"round {event.round_index}: {event.cells} cells, "
            f"{event.positives} positive tests so far, "
            f"{event.scheduled} mutants scheduled"
        )
    if isinstance(event, TestReduced):
        return (
            f"reduced {event.test}: {event.original_statements} -> "
            f"{event.reduced_statements} statements "
            f"({event.steps} steps, {event.checks} checks)"
        )
    return ""


def _echo(
    events: Iterable[CampaignEvent], args: argparse.Namespace,
    counted: bool = False,
) -> Iterator[CampaignEvent]:
    """Pass ``events`` on, printing each as a ``--json`` line and its
    progress line on stderr (``--progress``; by default when stderr is a
    tty and ``--json`` is off).  ``counted`` announces the work list and
    numbers each cell line against it, as ``telechat campaign`` does (a
    hunt's work list grows round by round)."""
    progress = args.progress
    if progress is None:
        progress = sys.stderr.isatty() and not args.json
    done = 0
    total: Optional[int] = None
    for event in events:
        if args.json:
            print(json.dumps(event.as_dict(), sort_keys=True))
        if isinstance(event, CellFinished):
            done += 1
        elif isinstance(event, CampaignStarted) and counted:
            total = event.cells_total
        line = _progress_line(event, done, total) if progress else ""
        if line:
            print(line, file=sys.stderr)
        yield event


def _cmd_examples(args: argparse.Namespace) -> int:
    """The artefact's ``make examples`` smoketest."""
    session = Session()
    profile = session.profile(("llvm", "-O3", "aarch64"))
    print(f"profile: {profile.name}\n")
    for fence in (None,):
        test = build_test(session.shape("LB"), "rlx", fence=fence, name="LB004")
        for model in ("rc11", "rc11+lb"):
            result = session.test(test, profile, source_model=model)
            print(f"== {test.name} under {model} ==")
            print(result.comparison.pretty())
            print(
                f"   target simulation: {result.target_seconds*1000:.1f} ms, "
                f"{result.compiled_loc} compiled instructions, "
                f"{result.s2l_stats.total_removed} removed by s2l"
            )
            print()
    return 0


def _cmd_test(args: argparse.Namespace) -> int:
    with open(args.file) as handle:
        source = handle.read()
    litmus = parse_c_litmus(source, name=args.file)
    session = Session()
    from ..herd.enumerate import Budget

    result = session.test(
        litmus,
        (args.compiler, args.opt, args.arch),
        source_model=args.cmem,
        budget=Budget(deadline_seconds=args.timeout),
    )
    print(result.comparison.pretty())
    # a found bug gates shell pipelines: 1 = positive difference
    return 1 if result.found_bug else 0


def _resolve_test_arg(session: Session, spec: str):
    """A test named on the command line: a C litmus file path, a paper
    figure name (``fig7_lb``), or a diy shape name (``LB``)."""
    import os

    from .. import papertests

    if os.path.exists(spec):
        with open(spec) as handle:
            return parse_c_litmus(handle.read(), name=spec)
    factory = getattr(papertests, spec, None)
    if callable(factory):
        return factory()
    try:
        shape = session.shape(spec)
    except KeyError:
        raise SystemExit(
            f"cannot resolve test {spec!r}: not a file, not a "
            f"repro.papertests name, not a diy shape"
        )
    # a real generation failure propagates — masking it as "cannot
    # resolve" would hide the actual error from the user
    return build_test(shape, "rlx", name=spec)


def _cmd_explain(args: argparse.Namespace) -> int:
    """Print each tool-chain stage's artifact for one test."""
    session = Session()
    litmus = _resolve_test_arg(session, args.test)
    from ..herd.enumerate import Budget

    trace = session.explain(
        litmus,
        (args.compiler, args.opt, args.arch),
        differential_with=args.diff,
        source_model=args.cmem,
        optimise=not args.no_optimise,
        budget=Budget(deadline_seconds=args.timeout),
    )
    print(trace.render())
    verdict = trace.result.verdict
    print(f"verdict: {verdict}")
    return 1 if verdict == "positive" else 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    if args.differential and len(args.differential) < 2:
        raise _UsageError(
            "--differential needs at least two profile names "
            "(e.g. --differential llvm-O1-AArch64 llvm-O3-AArch64)"
        )
    if args.differential and (args.arch or args.opt):
        # the sweep axes come from the profile names in differential
        # mode; silently ignoring explicit flags would misreport what ran
        raise _UsageError(
            "--differential takes its architectures and optimisation "
            "levels from the profile names; drop --arch/--opt"
        )
    config = small_config() if args.small else DiyConfig()
    differential = bool(args.differential)
    plan = CampaignPlan(
        config=config,
        arches=tuple(args.arch) if args.arch else tuple(ARCHES),
        opts=tuple(args.opt) if args.opt else ("-O1", "-O2", "-O3"),
        source_model=args.cmem,
        workers=args.workers,
        processes=args.processes,
        shard=args.shard,
        resume=args.resume,
        mode="differential" if differential else "tv",
        profiles=tuple(args.differential) if differential else None,
    )
    store = _open_store(args)
    with Session(store=store) as session:
        stream = session.campaign(plan)
        for _ in _echo(stream, args, counted=True):
            pass
        report = stream.report()
    if not args.json:
        print(report.table())
        if store is not None:
            print(
                f"\nstore {store.path}: {len(store)} verdicts "
                f"({report.store_hits} replayed, {store.appended} appended)"
            )
    return 0


def _cmd_farm_gen(args: argparse.Namespace) -> int:
    """Generate a farm corpus: suite files + the baseline matrix."""
    from .farm import DEFAULT_PROFILES, FarmError, generate_corpus

    try:
        manifest = generate_corpus(
            args.root,
            profiles=tuple(args.profiles) if args.profiles else DEFAULT_PROFILES,
            model=args.cmem,
        )
    except FarmError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    for name in sorted(manifest.suites):
        spec = manifest.suites[name]
        print(f"suite {name}: {spec.tests} tests -> {spec.file} ({spec.digest})")
    print(
        f"{len(manifest.baselines)} baseline cell(s) declared; run "
        f"'telechat farm bless --root {args.root}' to record them"
    )
    return 0


def _run_farm(args: argparse.Namespace, bless: bool) -> int:
    """The shared engine of ``farm run`` and ``farm bless``."""
    from .farm import FarmError

    drift = 0
    reports: List[str] = []
    with Session(store=_open_store(args)) as session:
        try:
            plan = FarmPlan(
                root=args.root,
                suites=tuple(args.suites) if args.suites else None,
                profiles=tuple(args.profiles) if args.profiles else None,
                source_model=args.cmem,
                workers=args.workers,
                processes=args.processes,
                bless=bless,
            )
            for event in _echo(session.farm(plan), args):
                if isinstance(event, SuiteFinished):
                    reports.append(event.report)
                elif isinstance(event, FarmFinished):
                    drift = event.drift
        except FarmError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    if not args.json:
        for report in reports:
            print(report)
    if bless:
        return 0
    # unblessed drift gates CI: any divergence from the baselines is a
    # regression until someone re-blesses it deliberately
    return 1 if drift else 0


def _cmd_farm_run(args: argparse.Namespace) -> int:
    return _run_farm(args, bless=False)


def _cmd_farm_bless(args: argparse.Namespace) -> int:
    return _run_farm(args, bless=True)


def _cmd_farm_diff(args: argparse.Namespace) -> int:
    """Offline drift diff between two baseline/store JSONL files."""
    from ..tools.mcompare import diff_baselines
    from ..tools.sources import SuiteFormatError
    from .farm import read_baseline

    try:
        blessed = read_baseline(args.blessed)
        current = read_baseline(args.current)
    except (OSError, SuiteFormatError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    diff = diff_baselines(
        blessed, current, label=f"{args.blessed} vs {args.current}"
    )
    print(diff.pretty())
    return 1 if diff.has_drift else 0


def _resolve_seeds(session: Session, specs: List[str]) -> list:
    """The hunt seed list: each spec is ``examples`` (the shipped
    bug-hiding seed set), ``paper`` (the figure tests), or anything
    ``telechat explain`` accepts (a file, a figure name, a shape)."""
    from ..hunt import example_seeds
    from ..tools.sources import PaperSource

    seeds = []
    for spec in specs:
        if spec == "examples":
            seeds.extend(example_seeds())
        elif spec == "paper":
            seeds.extend(PaperSource())
        else:
            seeds.append(_resolve_test_arg(session, spec))
    return seeds


def _cmd_hunt(args: argparse.Namespace) -> int:
    store = _open_store(args)
    session = Session(store=store)
    seeds = _resolve_seeds(session, args.seeds)
    plan = CampaignPlan(
        mode="hunt",
        tests=tuple(seeds),
        arches=tuple(args.arch) if args.arch else ("aarch64",),
        opts=tuple(args.opt) if args.opt else ("-O2",),
        source_model=args.cmem,
        workers=args.workers,
        processes=args.processes,
        resume=args.resume,
        mutations=tuple(args.operators) if args.operators else None,
        mutation_rounds=args.rounds,
        mutation_limit=args.limit,
        reduce=not args.no_reduce,
    )

    positives = []  # CellFinished events, first per digest
    seen_positive = set()
    reductions = []  # TestReduced events
    with session:
        for event in _echo(session.hunt(plan), args):
            if isinstance(event, CellFinished):
                if event.verdict == "positive" and event.digest not in seen_positive:
                    seen_positive.add(event.digest)
                    positives.append(event)
            elif isinstance(event, TestReduced):
                reductions.append(event)

    if not args.json:
        if not positives:
            print("hunt found no positives")
        for event in positives:
            record = event.record
            lineage = ""
            if record.get("operator"):
                lineage = (
                    f"  [{record['operator']} @ {record.get('site', '?')}, "
                    f"depth {record.get('depth', '?')}]"
                )
            print(
                f"positive: {event.test} ({event.arch} {event.opt} "
                f"{event.compiler}){lineage}"
            )
        for event in reductions:
            print(
                f"\nminimal reproducer for {event.test} "
                f"({event.original_statements} -> "
                f"{event.reduced_statements} statements):"
            )
            source = event.record.get("source")
            if source:
                print("  " + str(source).rstrip().replace("\n", "\n  "))
        if store is not None:
            print(
                f"\nstore {store.path}: {len(store)} verdicts "
                f"({store.appended} appended)"
            )
    # exit 0 when the hunt found something — the scripted analogue of
    # `telechat test`'s exit-1-on-positive, inverted: a hunt that comes
    # back empty-handed is the failure case
    return 0 if positives else 1


def _cmd_reduce(args: argparse.Namespace) -> int:
    from ..herd.enumerate import Budget
    from ..lang.printer import print_c_litmus

    session = Session()
    litmus = _resolve_test_arg(session, args.test)
    profile = (args.compiler, args.opt, args.arch)
    result = session.test(litmus, profile, source_model=args.cmem)
    if result.verdict != "positive":
        print(
            f"{litmus.name}: verdict {result.verdict} under "
            f"{session.profile(profile).name} — nothing to reduce "
            f"(the reducer keeps a positive verdict positive)",
            file=sys.stderr,
        )
        return 2
    reduction = session.reduce(
        litmus,
        profile,
        source_model=args.cmem,
        # one deadline for the whole reduction (measured from first use)
        budget=Budget(deadline_seconds=args.timeout),
    )
    print(
        f"{litmus.name}: {reduction.original_statements} -> "
        f"{reduction.reduced_statements} statements in "
        f"{len(reduction.steps)} steps ({reduction.checks} checks)"
    )
    for step in reduction.steps:
        print(f"  {step.action}: {step.detail}")
    print()
    print(print_c_litmus(reduction.reduced))
    return 0


def _lint_target(session: Session, spec: str):
    """One ``telechat lint`` target: a ``.cat`` or litmus file path, a
    model name, a paper-test name, or a diy shape name."""
    import os

    from .. import papertests
    from ..analysis import lint_c_source, lint_cat_source, lint_litmus_report

    if os.path.exists(spec):
        with open(spec) as handle:
            source = handle.read()
        if spec.endswith(".cat"):
            return lint_cat_source(source, spec)
        return lint_c_source(source, spec)
    try:
        key = session.models.resolve(spec)
    except Exception:
        key = None
    if key is not None:
        return lint_cat_source(session.models.get(key), key)
    factory = getattr(papertests, spec, None)
    if callable(factory):
        return lint_litmus_report(factory())
    try:
        shape = session.shape(spec)
    except KeyError:
        raise SystemExit(
            f"cannot resolve lint target {spec!r}: not a file, not a "
            f"model, not a repro.papertests name, not a diy shape"
        )
    return lint_litmus_report(build_test(shape, "rlx", name=spec))


def _lint_corpus(session: Session) -> list:
    """The default ``telechat lint`` sweep: every in-tree model, paper
    test and hunt seed (what the CI lint job gates on)."""
    from .. import papertests
    from ..analysis import lint_cat_source, lint_litmus_report
    from ..hunt.seeds import example_seeds

    reports = []
    for name in session.models.names():
        reports.append(lint_cat_source(session.models.get(name), name))
    for test in papertests.all_tests():
        reports.append(lint_litmus_report(test))
    for seed in example_seeds():
        reports.append(lint_litmus_report(seed))
    return reports


def _cmd_lint(args: argparse.Namespace) -> int:
    """Static analysis over models and tests (exit 1 on errors)."""
    session = Session()
    if args.targets:
        reports = [_lint_target(session, spec) for spec in args.targets]
    else:
        reports = _lint_corpus(session)
    errors = sum(len(r.errors) for r in reports)
    warnings = sum(len(r.warnings) for r in reports)
    if args.json:
        print(json.dumps([r.as_dict() for r in reports], indent=2))
    else:
        for report in reports:
            for d in report.diagnostics:
                print(d.render(report.target))
        print(
            f"{len(reports)} target(s) linted: {errors} error(s), "
            f"{warnings} warning(s)"
        )
    if errors or (args.strict and warnings):
        return 1
    return 0


def _print_inventory(args: argparse.Namespace, registry) -> int:
    if getattr(args, "json", False):
        print(json.dumps(registry.metadata(), indent=2, sort_keys=True))
    else:
        for name in registry.names():
            print(name)
    return 0


def _cmd_models(args: argparse.Namespace) -> int:
    return _print_inventory(args, MODELS)


def _cmd_shapes(args: argparse.Namespace) -> int:
    if args.json:
        return _print_inventory(args, SHAPES)
    for name in SHAPES.names():
        print(SHAPES.get(name).name)  # display names ("LB", "2+2W")
    return 0


def _cmd_profiles(args: argparse.Namespace) -> int:
    if args.json:
        payload = {
            "epochs": EPOCHS.metadata(),
            "profiles": [
                profile.name
                for arch in ARCHES
                for profile in default_profiles(arch)
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for arch in ARCHES:
            for profile in default_profiles(arch):
                print(profile.name)
    return 0


def _shard(value: str) -> tuple:
    """Parse ``K/N`` into a (k, n) shard spec."""
    try:
        k_text, n_text = value.split("/", 1)
        k, n = int(k_text), int(n_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"shard {value!r} is not of the form K/N"
        )
    if n < 1 or not 0 <= k < n:
        raise argparse.ArgumentTypeError(
            f"shard {value!r} needs 0 <= K < N"
        )
    return (k, n)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="telechat",
        description="Compiler testing with relaxed memory models "
                    "(CGO 2024 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("examples", help="run the artefact smoketest").set_defaults(
        func=_cmd_examples
    )

    test = sub.add_parser(
        "test",
        help="run test_tv on one C litmus file (exit 1 on a positive "
             "difference)",
    )
    test.add_argument("file")
    test.add_argument("--compiler", choices=("llvm", "gcc"), default="llvm")
    test.add_argument("--opt", default="-O3")
    test.add_argument("--arch", choices=ARCHES, default="aarch64")
    test.add_argument("--cmem", default="rc11", help="source model (CMEM)")
    test.add_argument("--timeout", type=float, default=120.0)
    test.set_defaults(func=_cmd_test)

    explain = sub.add_parser(
        "explain",
        help="run the staged tool-chain on one test and print every "
             "stage's artifact (prepared source, disassembly, lifted "
             "litmus, outcome sets with dot dumps, verdict)",
    )
    explain.add_argument(
        "test",
        help="a C litmus file, a paper figure name (fig7_lb), or a diy "
             "shape name (LB)",
    )
    explain.add_argument("--compiler", choices=("llvm", "gcc"),
                         default="llvm")
    explain.add_argument("--opt", default="-O3")
    explain.add_argument("--arch", choices=ARCHES, default="aarch64")
    explain.add_argument("--cmem", default="rc11", help="source model (CMEM)")
    explain.add_argument("--diff", metavar="PROFILE",
                         help="differential mode: compare against this "
                              "profile name (e.g. gcc-O2-AArch64) instead "
                              "of the source model")
    explain.add_argument("--no-optimise", action="store_true",
                         help="skip the s2l optimiser (paper Fig. 11 "
                              "configuration — slow)")
    explain.add_argument("--timeout", type=float, default=120.0)
    explain.set_defaults(func=_cmd_explain)

    hunt = sub.add_parser(
        "hunt",
        help="mutation-guided bug hunt: mutate seed tests round by round "
             "(positives first), minimise every positive to a 1-minimal "
             "reproducer (exit 1 when nothing was found)",
    )
    hunt.add_argument(
        "--seeds", nargs="+", required=True, metavar="SEED",
        help="seed tests: 'examples' (shipped bug-hiding seeds), 'paper' "
             "(the figure tests), or any C litmus file / figure name / "
             "diy shape",
    )
    hunt.add_argument("--arch", action="append", choices=ARCHES,
                      help="sweep architectures (default: aarch64)")
    hunt.add_argument("--opt", action="append",
                      help="sweep optimisation levels (default: -O2)")
    hunt.add_argument("--cmem", default="rc11", help="source model (CMEM)")
    hunt.add_argument("--operators", nargs="+", metavar="OP",
                      help="mutation operators to hunt with (default: the "
                           "order-weakening set; see repro.tools.mutate)")
    hunt.add_argument("--rounds", type=int, default=2,
                      help="mutation rounds beyond the seeds (default 2)")
    hunt.add_argument("--limit", type=int, default=64,
                      help="max new mutants per round (default 64)")
    hunt.add_argument("--no-reduce", action="store_true",
                      help="keep raw positives instead of minimising them")
    hunt.add_argument("--workers", type=int, default=1,
                      help="worker threads")
    hunt.add_argument("--processes", type=int, default=0,
                      help="worker processes (overrides --workers)")
    hunt.add_argument("--store", metavar="PATH",
                      help="persistent verdict store (reproducers are "
                           "stored with mode=hunt + lineage + C source)")
    hunt.add_argument("--resume", action="store_true",
                      help="replay verdicts already in --store")
    hunt.add_argument("--json", action="store_true",
                      help="emit the typed event stream as JSON lines")
    hunt.add_argument("--progress", dest="progress", action="store_true",
                      default=None,
                      help="per-cell/round progress on stderr (default: on "
                           "when stderr is a tty)")
    hunt.add_argument("--no-progress", dest="progress", action="store_false")
    hunt.set_defaults(func=_cmd_hunt)

    reduce_cmd = sub.add_parser(
        "reduce",
        help="delta-debug one positive test to a 1-minimal reproducer "
             "and print it",
    )
    reduce_cmd.add_argument(
        "test",
        help="a C litmus file, a paper figure name (fig1_exchange), or a "
             "diy shape name",
    )
    reduce_cmd.add_argument("--compiler", choices=("llvm", "gcc"),
                            default="llvm")
    reduce_cmd.add_argument("--opt", default="-O2")
    reduce_cmd.add_argument("--arch", choices=ARCHES, default="aarch64")
    reduce_cmd.add_argument("--cmem", default="rc11",
                            help="source model (CMEM)")
    reduce_cmd.add_argument("--timeout", type=float, default=120.0,
                            help="deadline for the whole reduction (s)")
    reduce_cmd.set_defaults(func=_cmd_reduce)

    campaign = sub.add_parser("campaign", help="run the Table IV campaign")
    campaign.add_argument("--small", action="store_true")
    campaign.add_argument("--arch", action="append", choices=ARCHES)
    campaign.add_argument("--opt", action="append")
    campaign.add_argument("--cmem", default="rc11")
    campaign.add_argument("--workers", type=int, default=1,
                          help="campaign worker threads")
    campaign.add_argument("--processes", type=int, default=0,
                          help="campaign worker processes (overrides --workers)")
    campaign.add_argument("--store", metavar="PATH",
                          help="persistent verdict store (JSONL, appended)")
    campaign.add_argument("--resume", action="store_true",
                          help="replay verdicts already in --store instead "
                               "of re-simulating")
    campaign.add_argument("--shard", type=_shard, metavar="K/N",
                          help="run only the K-th of N cell shards "
                               "(0-based); merge the shard reports with "
                               "repro.pipeline.merge_reports")
    campaign.add_argument("--differential", nargs="+", metavar="PROFILE",
                          help="differential mode (§IV-D): compare these "
                               "profile names (e.g. llvm-O1-AArch64 "
                               "llvm-O3-AArch64) pairwise instead of the "
                               "tv sweep; --cmem is the UB oracle")
    campaign.add_argument("--json", action="store_true",
                          help="emit the typed event stream as JSON lines "
                               "instead of the Table IV report")
    campaign.add_argument("--progress", dest="progress", action="store_true",
                          default=None,
                          help="per-cell progress on stderr (default: on "
                               "when stderr is a tty)")
    campaign.add_argument("--no-progress", dest="progress",
                          action="store_false")
    campaign.set_defaults(func=_cmd_campaign)

    farm = sub.add_parser(
        "farm",
        help="corpus-scale golden regression farm (gen/run/bless/diff)",
        description="Stream a checked-in litmus corpus through the "
        "toolchain and diff every verdict against blessed baselines. "
        "'gen' writes the suites and manifest, 'bless' records the "
        "baselines, 'run' fails (exit 1) on any unblessed drift, and "
        "'diff' compares two baseline files offline.",
    )
    farm_sub = farm.add_subparsers(dest="farm_command", required=True)

    farm_gen = farm_sub.add_parser(
        "gen", help="generate suite files + MANIFEST.json under --root"
    )
    farm_gen.add_argument("--root", required=True,
                          help="corpus root directory")
    farm_gen.add_argument("--profiles", nargs="+", metavar="PROFILE",
                          help="baseline profiles (default: "
                               "llvm-O2-AArch64 gcc-O1-ARM)")
    farm_gen.add_argument("--cmem", default="rc11",
                          help="source model baselines are blessed under")
    farm_gen.set_defaults(func=_cmd_farm_gen)

    for name, func, blurb in (
        ("run", _cmd_farm_run,
         "run the corpus and fail on drift vs the blessed baselines"),
        ("bless", _cmd_farm_bless,
         "run the corpus and record the results as the new baselines"),
    ):
        farm_cmd = farm_sub.add_parser(name, help=blurb)
        farm_cmd.add_argument("--root", required=True,
                              help="corpus root directory (with MANIFEST.json)")
        farm_cmd.add_argument("--suites", nargs="+", metavar="SUITE",
                              help="restrict to these suites")
        farm_cmd.add_argument("--profiles", nargs="+", metavar="PROFILE",
                              help="restrict to these profiles")
        if name == "run":
            farm_cmd.add_argument(
                "--cmem", default=None,
                help="override the blessed source model (a deliberate "
                     "perturbation — expect drift)")
        else:
            # blessing under an override would mislabel the baselines
            farm_cmd.set_defaults(cmem=None)
        farm_cmd.add_argument("--workers", type=int, default=1,
                              help="worker threads")
        farm_cmd.add_argument("--processes", type=int, default=0,
                              help="worker processes (overrides --workers)")
        farm_cmd.add_argument("--store", metavar="PATH",
                              help="persistent verdict store (JSONL, appended)")
        farm_cmd.add_argument("--json", action="store_true",
                              help="emit the typed event stream as JSON lines")
        farm_cmd.add_argument("--progress", dest="progress",
                              action="store_true", default=None,
                              help="per-cell progress on stderr (default: "
                                   "on when stderr is a tty)")
        farm_cmd.add_argument("--no-progress", dest="progress",
                              action="store_false")
        farm_cmd.set_defaults(func=func)

    farm_diff = farm_sub.add_parser(
        "diff", help="diff two baseline files offline (exit 1 on drift)"
    )
    farm_diff.add_argument("blessed", help="the blessed baseline JSONL")
    farm_diff.add_argument("current", help="the baseline/store JSONL to check")
    farm_diff.set_defaults(func=_cmd_farm_diff)

    lint = sub.add_parser(
        "lint",
        help="static analysis over cat models and litmus tests",
        description="Run catlint/litmuslint over the named targets "
        "(model names, .cat or litmus files, paper tests, diy shapes); "
        "with no targets, sweep every in-tree model, paper test and "
        "hunt seed. Exits 1 on error-severity findings.",
    )
    lint.add_argument("targets", nargs="*",
                      help="models, files, paper tests or shapes "
                      "(default: the whole in-tree corpus)")
    lint.add_argument("--json", action="store_true",
                      help="emit reports as JSON")
    lint.add_argument("--strict", action="store_true",
                      help="exit 1 on warnings too")
    lint.set_defaults(func=_cmd_lint)

    models = sub.add_parser("models", help="list memory models")
    models.add_argument("--json", action="store_true",
                        help="registry metadata (names, aliases, docs)")
    models.set_defaults(func=_cmd_models)

    shapes = sub.add_parser("shapes", help="list diy shapes")
    shapes.add_argument("--json", action="store_true",
                        help="registry metadata (names, aliases, docs)")
    shapes.set_defaults(func=_cmd_shapes)

    profiles = sub.add_parser("profiles",
                              help="list campaign compiler profiles")
    profiles.add_argument("--json", action="store_true",
                          help="epoch registry metadata + profile names")
    profiles.set_defaults(func=_cmd_profiles)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        # uniform file:line:col rendering for bad input files
        print(exc.render(), file=sys.stderr)
        return 2
    except (LintError, PlanError, _UsageError) as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
