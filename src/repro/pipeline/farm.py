"""``repro.farm`` — the corpus-scale golden regression farm.

The paper's claims live on *whole-corpus* behaviour: thousands of litmus
tests per shape family, per profile, per model.  A handful of pinned
figure tests cannot see a verdict flip in the long tail.  This module is
the persistent half of the farm:

* **suites** — versioned JSONL corpora written by
  :func:`~repro.tools.sources.write_suite`, one per diy shape family,
  with a checked-in content digest per file (a suite that drifts on disk
  is an error, not a silent re-baseline);
* **baselines** — one compact JSONL of verdict summaries per
  (suite, profile, model), in the exact
  :class:`~repro.pipeline.store.CampaignStore` record format minus the
  run-volatile fields, sorted by ``(digest, profile, test)`` and dumped
  with sorted keys — so *blessing* the same corpus on any execution backend
  produces byte-identical files;
* **MANIFEST.json** — the farm's root index tying the two together.

The streaming half (running a corpus through the cached toolchain and
diffing the records against the blessed baseline) lives in
:mod:`repro.api.farm`; drift classification is
:func:`repro.tools.mcompare.diff_baselines`.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..core.errors import ReproError
from ..tools.diy import DiyConfig
from ..tools.mcompare import VOLATILE_FIELDS, baseline_view
from ..tools.sources import DiySource, iter_jsonl, write_suite

#: bump when the manifest layout changes incompatibly.
FARM_SCHEMA = 1

#: the farm's index file, relative to the corpus root.
MANIFEST_NAME = "MANIFEST.json"

#: where suites and baselines live, relative to the corpus root.
SUITE_DIR = "suites"
BASELINE_DIR = "baselines"


class FarmError(ReproError):
    """A farm corpus problem: missing manifest, drifted suite digest,
    unknown suite/profile filter — anything that makes a farm run
    meaningless rather than merely drifted."""


def file_digest(path: Union[str, "os.PathLike[str]"]) -> str:
    """The content digest of one corpus file (``sha256:<hex>``)."""
    digest = hashlib.sha256()
    with open(os.fspath(path), "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return "sha256:" + digest.hexdigest()


# --------------------------------------------------------------------- #
# the default mini-corpus: three shape families, ~220 tests
# --------------------------------------------------------------------- #
def _family_config(shapes: Tuple[str, ...]) -> DiyConfig:
    """One farm family: the default fence/dep axes crossed with three
    uniform orders and two write variants — large enough to exercise the
    long tail, small enough to check in."""
    return DiyConfig(
        shapes=shapes,
        orders=("rlx", "ar", "sc"),
        variants=("load-store", "xchg-write"),
    )


#: the checked-in shape families (≥3 families, ≥200 tests total).
DEFAULT_SUITES: Dict[str, DiyConfig] = {
    "lb": _family_config(("LB", "LB3")),
    "mp": _family_config(("MP", "S")),
    "sb": _family_config(("SB", "2+2W", "SB3")),
}

#: the default baseline matrix: one AArch64 LLVM profile plus the Armv7
#: GCC -O1 profile whose deleted ctrl2 dependency the paper's §IV-D
#: positives hinge on.
DEFAULT_PROFILES = ("llvm-O2-AArch64", "gcc-O1-ARM")

#: the default source model baselines are blessed under.
DEFAULT_MODEL = "rc11"


# --------------------------------------------------------------------- #
# manifest
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class SuiteSpec:
    """One versioned suite: its file, test count and content digest."""

    name: str
    file: str  # relative to the corpus root
    tests: int
    digest: str

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "file": self.file,
            "tests": self.tests,
            "digest": self.digest,
        }


@dataclass(frozen=True)
class BaselineSpec:
    """One blessed cell of the farm matrix: (suite, profile, model)."""

    suite: str
    profile: str
    model: str
    file: str  # relative to the corpus root

    def as_dict(self) -> Dict[str, object]:
        return {
            "suite": self.suite,
            "profile": self.profile,
            "model": self.model,
            "file": self.file,
        }


def baseline_filename(suite: str, profile: str, model: str) -> str:
    """The canonical baseline path (relative to the corpus root)."""
    return f"{BASELINE_DIR}/{suite}--{profile}--{model}.jsonl"


@dataclass
class FarmManifest:
    """The farm's root index: suites, baselines, and where they live."""

    root: str
    suites: Dict[str, SuiteSpec] = field(default_factory=dict)
    baselines: Tuple[BaselineSpec, ...] = ()

    # ------------------------------------------------------------------ #
    def path(self, relative: str) -> str:
        return os.path.join(self.root, relative)

    @property
    def manifest_path(self) -> str:
        return self.path(MANIFEST_NAME)

    def save(self) -> str:
        """Write MANIFEST.json deterministically (sorted keys, sorted
        suites and baselines) and return its path."""
        payload = {
            "schema": FARM_SCHEMA,
            "suites": [
                self.suites[name].as_dict() for name in sorted(self.suites)
            ],
            "baselines": [
                spec.as_dict()
                for spec in sorted(
                    self.baselines,
                    key=lambda s: (s.suite, s.profile, s.model),
                )
            ],
        }
        os.makedirs(self.root, exist_ok=True)
        with open(self.manifest_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return self.manifest_path

    @classmethod
    def load(cls, root: Union[str, "os.PathLike[str]"]) -> "FarmManifest":
        root = os.fspath(root)
        manifest_path = os.path.join(root, MANIFEST_NAME)
        if not os.path.exists(manifest_path):
            raise FarmError(
                f"no farm manifest at {manifest_path}; run "
                f"'telechat farm gen' to create a corpus"
            )
        with open(manifest_path, "r", encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except json.JSONDecodeError as exc:
                raise FarmError(
                    f"{manifest_path}:{exc.lineno}: invalid JSON ({exc.msg})"
                ) from None
        if payload.get("schema") != FARM_SCHEMA:
            raise FarmError(
                f"{manifest_path}: schema {payload.get('schema')!r}, "
                f"expected {FARM_SCHEMA}"
            )
        suites = {
            str(entry["name"]): SuiteSpec(
                name=str(entry["name"]),
                file=str(entry["file"]),
                tests=int(entry["tests"]),
                digest=str(entry["digest"]),
            )
            for entry in payload.get("suites", ())
        }
        baselines = tuple(
            BaselineSpec(
                suite=str(entry["suite"]),
                profile=str(entry["profile"]),
                model=str(entry["model"]),
                file=str(entry["file"]),
            )
            for entry in payload.get("baselines", ())
        )
        return cls(root=root, suites=suites, baselines=baselines)

    # ------------------------------------------------------------------ #
    def verify_suite(self, name: str) -> SuiteSpec:
        """The named suite, with its on-disk digest re-checked.

        A drifted suite file is a *corpus* error, never baseline drift:
        the blessed verdicts would be compared against tests they were
        not recorded for."""
        if name not in self.suites:
            known = ", ".join(sorted(self.suites)) or "(none)"
            raise FarmError(f"unknown suite {name!r}; manifest has: {known}")
        spec = self.suites[name]
        path = self.path(spec.file)
        if not os.path.exists(path):
            raise FarmError(f"suite file missing: {path}")
        actual = file_digest(path)
        if actual != spec.digest:
            raise FarmError(
                f"suite {name!r} has drifted on disk: {path} digests "
                f"{actual}, manifest says {spec.digest} — regenerate the "
                f"corpus or restore the file"
            )
        return spec


# --------------------------------------------------------------------- #
# baselines: the blessed verdict summaries
# --------------------------------------------------------------------- #
def baseline_record(record: Dict[str, object]) -> Dict[str, object]:
    """The blessed form of one verdict record.

    Exactly the store record minus :data:`VOLATILE_FIELDS` — wall-clock
    and cache-luck fields that legitimately differ between byte-identical
    runs.  Everything else (including ``schema``) stays, so a baseline
    file loads through :class:`~repro.pipeline.store.CampaignStore`.
    """
    return baseline_view(record)


def write_baseline(
    records: Iterable[Dict[str, object]],
    path: Union[str, "os.PathLike[str]"],
) -> int:
    """Bless verdict records to a baseline file, deterministically.

    Records are normalised (:func:`baseline_record`), sorted by
    ``(digest, profile, test)`` and dumped with sorted keys — completion
    order and backend never leak into the bytes, which is what makes
    cross-backend byte-identical blessing testable.  Returns the record
    count.
    """
    fspath = os.fspath(path)
    parent = os.path.dirname(fspath)
    if parent:
        os.makedirs(parent, exist_ok=True)
    blessed = sorted(
        (baseline_record(record) for record in records),
        key=lambda r: (
            str(r.get("digest", "")),
            str(r.get("profile", "")),
            str(r.get("test", "")),
        ),
    )
    with open(fspath, "w", encoding="utf-8") as handle:
        for record in blessed:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return len(blessed)


def read_baseline(
    path: Union[str, "os.PathLike[str]"]
) -> List[Dict[str, object]]:
    """Load a blessed baseline (file+line errors via
    :func:`~repro.tools.sources.iter_jsonl`; a torn final line is
    tolerated exactly like a torn store line)."""
    return [record for _, record in iter_jsonl(path)]


# --------------------------------------------------------------------- #
# corpus generation
# --------------------------------------------------------------------- #
def generate_suite(
    manifest: FarmManifest,
    name: str,
    config: DiyConfig,
    shapes=None,
) -> SuiteSpec:
    """Generate one suite file and record it in the manifest (in
    memory — call :meth:`FarmManifest.save` once per batch)."""
    relative = f"{SUITE_DIR}/{name}.jsonl"
    path = manifest.path(relative)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    count = write_suite(DiySource(config, shapes=shapes), path)
    spec = SuiteSpec(
        name=name, file=relative, tests=count, digest=file_digest(path)
    )
    manifest.suites[name] = spec
    return spec


def generate_corpus(
    root: Union[str, "os.PathLike[str]"],
    suites: Optional[Dict[str, DiyConfig]] = None,
    profiles: Tuple[str, ...] = DEFAULT_PROFILES,
    model: str = DEFAULT_MODEL,
    shapes=None,
) -> FarmManifest:
    """Generate a full corpus: suite files plus the baseline matrix
    (suite × profile, all under ``model``) — baselines start *unblessed*
    (no files); ``telechat farm bless`` records them."""
    if suites is None:
        suites = DEFAULT_SUITES
    manifest = FarmManifest(root=os.fspath(root))
    for name in sorted(suites):
        generate_suite(manifest, name, suites[name], shapes=shapes)
    manifest.baselines = tuple(
        BaselineSpec(
            suite=suite,
            profile=profile,
            model=model,
            file=baseline_filename(suite, profile, model),
        )
        for suite in sorted(suites)
        for profile in profiles
    )
    manifest.save()
    return manifest


__all__ = [
    "BASELINE_DIR",
    "BaselineSpec",
    "DEFAULT_MODEL",
    "DEFAULT_PROFILES",
    "DEFAULT_SUITES",
    "FARM_SCHEMA",
    "FarmError",
    "FarmManifest",
    "MANIFEST_NAME",
    "SUITE_DIR",
    "SuiteSpec",
    "VOLATILE_FIELDS",
    "baseline_filename",
    "baseline_record",
    "file_digest",
    "generate_corpus",
    "generate_suite",
    "read_baseline",
    "write_baseline",
]
