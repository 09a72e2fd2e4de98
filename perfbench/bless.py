"""Write the expected verdicts the benchmark checks every run against.

Runs the checked-in corpus (unpermuted) under every sweep model and the
differential profiles, and writes ``expected/verdicts.json`` and the
blessed differential baseline.  Run it only when a change is meant to
alter verdicts, and review the diff of the files it writes:

    PYTHONPATH=src python3 perfbench/bless.py
"""

from __future__ import annotations

import json
import os
import sys

from workload import (
    DIFF_BASELINE, EXPECTED, HERE, SWEEP_MODELS, diff_view, differential_pass,
    farm_pass,
)


def main() -> int:
    from repro.api import Session
    from repro.pipeline.farm import write_baseline

    corpus = os.path.join(HERE, os.pardir, "tests", "corpus")
    os.makedirs(EXPECTED, exist_ok=True)
    session = Session()
    verdicts: dict = {}
    for model, record in farm_pass(session, corpus, 0, SWEEP_MODELS, None).records:
        verdicts.setdefault(model, {}).setdefault(record["profile"], {})[
            record["digest"]] = record["verdict"]
    with open(os.path.join(EXPECTED, "verdicts.json"), "w", encoding="utf-8") as handle:
        json.dump(verdicts, handle, indent=1, sort_keys=True)
        handle.write("\n")
    # an empty baseline first: the pass diffs against it, then we bless
    open(os.path.join(EXPECTED, DIFF_BASELINE), "w").close()
    diff = differential_pass(Session(), corpus)
    write_baseline([diff_view(r) for _, r in diff.records],
                   os.path.join(EXPECTED, DIFF_BASELINE))
    return 0


if __name__ == "__main__":
    sys.exit(main())
