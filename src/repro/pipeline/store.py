"""The persistent campaign store: a content-addressed verdict log.

Campaigns at the paper's Table IV scale outlive a process — and a
session.  This module gives the campaign engine (:mod:`repro.api.engine`)
an on-disk memory: an append-only JSONL log of verdict records keyed by
the *content* of the cell that produced them::

    (CLitmus.digest(), profile name, source model, augment, budget)

Content addressing (not test names) makes cross-run sharing sound: two
different tests that both happen to be called ``LB001`` get distinct
keys, while the same test re-generated under a new name replays its
stored verdict.  The log is append-only with last-write-wins replay, so
concurrent shards can share one file per shard and a crashed campaign
resumes from whatever it managed to append.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Dict, Iterator, List, Optional, Union

#: bump when the record layout changes incompatibly; loaders skip records
#: from other schemas instead of mis-replaying them.
STORE_SCHEMA = 1

#: the record fields that form a cell's identity.
KEY_FIELDS = ("digest", "profile", "source_model", "augment", "budget_candidates")


def cell_key(
    digest: str,
    profile_name: str,
    source_model: str,
    augment: bool,
    budget_candidates: int,
) -> str:
    """The store key of one campaign cell (a stable, printable string)."""
    return "|".join(
        (digest, profile_name, source_model, str(int(bool(augment))),
         str(budget_candidates))
    )


def record_key(record: Dict[str, object]) -> str:
    """The store key a verdict record belongs under."""
    return cell_key(
        str(record["digest"]),
        str(record["profile"]),
        str(record["source_model"]),
        bool(record["augment"]),
        int(record["budget_candidates"]),  # type: ignore[arg-type]
    )


class CampaignStore:
    """An append-only JSONL store of campaign verdict records.

    One record per line; loading replays the log with last-write-wins,
    so re-recording a cell simply supersedes the old verdict.  A torn
    final line (crashed writer) is ignored rather than poisoning the
    whole store.  Appends are thread-safe; cross-process writers should
    use one store file per shard and merge reports, not share a file.
    """

    def __init__(self, path: Union[str, "os.PathLike[str]"]) -> None:
        self.path = os.fspath(path)
        self._lock = threading.Lock()
        self._records: Dict[str, Dict[str, object]] = {}
        self.loaded = 0
        self.skipped = 0
        self.appended = 0
        if os.path.exists(self.path):
            self._load()

    def _load(self) -> None:
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    # a torn trailing line from a crashed writer
                    self.skipped += 1
                    continue
                if not isinstance(record, dict) or record.get("schema") != STORE_SCHEMA:
                    self.skipped += 1
                    continue
                if any(field not in record for field in KEY_FIELDS):
                    self.skipped += 1
                    continue
                self._records[record_key(record)] = record
                self.loaded += 1

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def get(self, key: str) -> Optional[Dict[str, object]]:
        return self._records.get(key)

    def keys(self) -> Iterator[str]:
        return iter(self._records)

    def records(self) -> List[Dict[str, object]]:
        return list(self._records.values())

    def put(self, record: Dict[str, object]) -> str:
        """Append one verdict record and return its key.

        A file that does not end in a newline (a torn final line from a
        crashed writer) gets one first, so the record starts its own
        line instead of being glued onto the fragment and lost with it
        on the next load."""
        record = dict(record, schema=STORE_SCHEMA)
        key = record_key(record)
        line = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        with self._lock:
            with open(self.path, "a+b") as handle:
                if handle.seek(0, os.SEEK_END):
                    handle.seek(-1, os.SEEK_END)
                    if handle.read(1) != b"\n":
                        line = b"\n" + line
                handle.write(line)
            self._records[key] = record
            self.appended += 1
        return key
