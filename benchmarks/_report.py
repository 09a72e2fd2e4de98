"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper and prints a
paper-vs-measured comparison block; ``pytest benchmarks/ --benchmark-only -s``
shows the full report.  Absolute numbers differ from the paper (our
substrate is a simulator, not a ThunderX2); the *shape* — who wins, what
vanishes, where the crossovers fall — is the reproduction target.
"""

from __future__ import annotations


def banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def row(label: str, paper: str, measured: str) -> None:
    print(f"  {label:44s} paper: {paper:18s} measured: {measured}")
