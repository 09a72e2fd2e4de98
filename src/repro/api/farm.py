"""The farm engine: stream a blessed corpus and report drift.

:func:`iter_farm` is the running half of :mod:`repro.pipeline.farm` —
it loads a corpus manifest, re-verifies suite digests, runs every
selected (suite, profile, model) baseline cell through the ordinary
campaign engine (so caching, the store, linting and every execution
backend behave exactly as in :meth:`Session.campaign`), and diffs the
verdict records against the blessed baseline with
:func:`~repro.tools.mcompare.diff_baselines`.  The stream grammar is::

    FarmStarted (CellFinished* SuiteFinished)* FarmFinished

``CellFinished`` events pass through from the inner campaigns (their
``CampaignStarted``/``CampaignFinished`` bookends are folded away — the
farm's own bookends carry the corpus-level aggregates).

A session parses and lints each suite once (:func:`_suite_tests`): every
profile, source model and later pass of that session runs the same
parsed tests, for as long as the suite file keeps its verified digest.
It likewise reads each blessed baseline once (:func:`_baseline_index`),
for as long as the file keeps its sha256.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Iterator, List, Tuple

from ..lang.ast import CLitmus
from ..pipeline.farm import (
    BaselineSpec,
    FarmError,
    FarmManifest,
    SuiteSpec,
    file_digest,
    read_baseline,
    write_baseline,
)
from ..tools.mcompare import DELTA_KINDS, BaselineIndex, diff_baselines
from ..tools.sources import SuiteSource
from .engine import _lint_tests, iter_campaign
from .events import (
    CampaignEvent,
    CellFinished,
    FarmFinished,
    FarmStarted,
    SuiteFinished,
)
from .plan import CampaignPlan, FarmPlan


def _select(
    manifest: FarmManifest, plan: FarmPlan
) -> Tuple[Dict[str, SuiteSpec], Tuple[BaselineSpec, ...]]:
    """The verified suites and baseline cells this pass will run.

    Filter names that match nothing in the manifest are errors — a typo
    must not report a green, empty farm pass."""
    suite_names = sorted(manifest.suites)
    if plan.suites is not None:
        unknown = sorted(set(plan.suites) - set(suite_names))
        if unknown:
            raise FarmError(
                f"unknown suites {unknown}; manifest has: {suite_names}"
            )
        suite_names = [s for s in suite_names if s in plan.suites]
    profile_names = sorted({spec.profile for spec in manifest.baselines})
    if plan.profiles is not None:
        unknown = sorted(set(plan.profiles) - set(profile_names))
        if unknown:
            raise FarmError(
                f"unknown profiles {unknown}; manifest has: {profile_names}"
            )
    selected = tuple(
        spec
        for spec in sorted(
            manifest.baselines, key=lambda s: (s.suite, s.profile, s.model)
        )
        if spec.suite in suite_names
        and (plan.profiles is None or spec.profile in plan.profiles)
    )
    if not selected:
        raise FarmError(
            "the manifest has no baseline cells matching the plan filters"
        )
    verified = {name: manifest.verify_suite(name) for name in suite_names}
    return verified, selected


def _suite_tests(
    session, name: str, path: str, digest: str
) -> Tuple[CLitmus, ...]:
    """The parsed and linted tests of suite ``name``, whose file at
    ``path`` :meth:`FarmManifest.verify_suite` has just checked against
    ``digest``.

    The session keeps one entry per suite path, keyed by that digest: a
    regenerated suite (a new manifest digest) is parsed again and
    replaces the old entry.  Only tests that pass lint, and no two of
    which share a content digest, are kept, so a bad suite raises on
    every pass.  (Baseline rows are keyed by digest: two tests with one
    digest would collapse into one row, and one verdict would go
    unchecked.)  The tests are shared by every profile, model and pass
    of the session, so they are read-only.
    """
    key = os.path.abspath(path)
    cached = session._suites.get(key)
    if cached is not None and cached[0] == digest:
        return cached[1]
    tests = tuple(SuiteSource(path).iter_tests(shapes=session.shapes))
    _lint_tests(tests, session._linted)
    first: Dict[str, CLitmus] = {}
    for test in tests:
        twin = first.setdefault(test.digest(), test)
        if twin is not test:
            raise FarmError(
                f"suite {name!r} has two tests with content digest "
                f"{test.digest()}: {twin.name!r} and {test.name!r}; their "
                f"baseline rows would collapse into one"
            )
    session._suites[key] = (digest, tests)
    return tests


def _baseline_index(session, path: str) -> BaselineIndex:
    """The index of the blessed baseline at ``path``.

    The session keeps one entry per baseline path, keyed by the file's
    sha256, which is re-hashed on every pass: an edited, re-blessed or
    torn file is read again and replaces the old entry.
    """
    key = os.path.abspath(path)
    digest = file_digest(path)
    cached = session._baselines.get(key)
    if cached is not None and cached[0] == digest:
        return cached[1]
    index = BaselineIndex(read_baseline(path))
    session._baselines[key] = (digest, index)
    return index


def iter_farm(plan: FarmPlan, session) -> Iterator[CampaignEvent]:
    """Run one farm pass through ``session``, yielding typed events."""
    manifest = FarmManifest.load(plan.root)
    verified, selected = _select(manifest, plan)
    started = time.monotonic()
    yield FarmStarted(
        root=manifest.root,
        suites=tuple(sorted({spec.suite for spec in selected})),
        baselines=len(selected),
        tests_total=sum(
            verified[spec.suite].tests for spec in selected
        ),
        workers=plan.workers,
        processes=plan.processes,
        bless=plan.bless,
    )

    total_cells = 0
    total_drift = 0
    blessed_files = 0
    for spec in selected:
        profile = session.profile(spec.profile)
        model = (
            plan.source_model if plan.source_model is not None else spec.model
        )
        suite = verified[spec.suite]
        tests = _suite_tests(
            session, spec.suite, manifest.path(suite.file), suite.digest
        )
        campaign = CampaignPlan(
            tests=tests,
            lint=False,  # _suite_tests linted them when it parsed them
            arches=(profile.arch,),
            opts=(profile.opt,),
            compilers=(profile.compiler,),
            source_model=model,
            workers=plan.workers,
            processes=plan.processes,
        )
        records: List[Dict[str, object]] = []
        for event in iter_campaign(campaign, session):
            if isinstance(event, CellFinished):
                records.append(dict(event.record))
                yield event
        total_cells += len(records)

        baseline_path = manifest.path(spec.file)
        label = f"{spec.suite} @ {spec.profile} [{model}]"
        if plan.bless:
            write_baseline(records, baseline_path)
            # the file is rewritten: the next run indexes it afresh
            session._baselines.pop(os.path.abspath(baseline_path), None)
            blessed_files += 1
            drift_counts: Dict[str, int] = {}
            drift = 0
            report = f"{label}: blessed {len(records)} records"
        else:
            if not os.path.exists(baseline_path):
                raise FarmError(
                    f"baseline not blessed: {baseline_path}; run "
                    f"'telechat farm bless' first"
                )
            diff = diff_baselines(
                _baseline_index(session, baseline_path), records, label=label
            )
            drift_counts = {
                kind: diff.count(kind)
                for kind in DELTA_KINDS
                if diff.count(kind)
            }
            drift = len(diff.deltas)
            total_drift += drift
            report = diff.pretty()
        yield SuiteFinished(
            suite=spec.suite,
            profile=spec.profile,
            model=model,
            tests=suite.tests,
            records=len(records),
            drift=drift,
            drift_counts=drift_counts,
            report=report,
            blessed=plan.bless,
        )

    yield FarmFinished(
        baselines=len(selected),
        cells=total_cells,
        drift=total_drift,
        blessed=blessed_files,
        elapsed_seconds=time.monotonic() - started,
    )


__all__ = ["iter_farm"]
