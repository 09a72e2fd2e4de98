"""The baseline-checker registry (paper Table I), on the shared protocol.

Each baseline is a callable taking a C litmus test (plus
technique-specific keyword arguments) and returning its own result type.
Registering them makes the comparison harness pluggable: ``mcompare``
sweeps and the CLI can enumerate baselines by name instead of importing
each module.
"""

from __future__ import annotations

from typing import Callable, List

from ..core.registry import Registry
from .c4 import c4_test
from .cmmtest import cmmtest_check
from .validc import validc_check

BASELINES: Registry[Callable] = Registry("baseline")
BASELINES.register(
    "c4", c4_test,
    doc="concurrent C compiler checker: IR-level simulation diffing",
)
BASELINES.register(
    "cmmtest", cmmtest_check, aliases=("cmm-test",),
    doc="trace matching over compiled executions",
)
BASELINES.register(
    "validc", validc_check, aliases=("valid-c",),
    doc="syntactic validation of atomics lowering",
)


def get_baseline(name: str) -> Callable:
    return BASELINES.get(name)


def list_baselines() -> List[str]:
    return BASELINES.names()
