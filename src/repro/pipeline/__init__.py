"""The Telechat pipeline: test_tv driver, campaign runner, store, CLI."""

from .campaign import (
    ARCH_DISPLAY,
    CAMPAIGN_OPTS,
    CampaignCell,
    CampaignReport,
    merge_reports,
)
from .farm import (
    DEFAULT_PROFILES,
    DEFAULT_SUITES,
    BaselineSpec,
    FarmError,
    FarmManifest,
    SuiteSpec,
    baseline_record,
    file_digest,
    generate_corpus,
    read_baseline,
    write_baseline,
)
from .store import CampaignStore, cell_key, record_key
from .telechat import (
    DifferentialResult,
    TelechatResult,
    comparison_from_record,
    outcomes_from_jsonable,
    outcomes_to_jsonable,
    run_differential,
    run_test_tv,
)

__all__ = [
    "ARCH_DISPLAY",
    "CAMPAIGN_OPTS",
    "BaselineSpec",
    "CampaignCell",
    "CampaignReport",
    "CampaignStore",
    "DEFAULT_PROFILES",
    "DEFAULT_SUITES",
    "FarmError",
    "FarmManifest",
    "SuiteSpec",
    "baseline_record",
    "file_digest",
    "generate_corpus",
    "read_baseline",
    "write_baseline",
    "cell_key",
    "comparison_from_record",
    "merge_reports",
    "outcomes_from_jsonable",
    "outcomes_to_jsonable",
    "record_key",
    "run_differential",
    "run_test_tv",
    "DifferentialResult",
    "TelechatResult",
]
