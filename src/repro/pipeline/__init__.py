"""The Telechat pipeline: campaign report, farm corpus, store, CLI.

The Fig. 5 test_tv chain itself is :meth:`repro.toolchain.Toolchain.run_tv`
(or :meth:`repro.api.Session.test`); its result types live in
:mod:`repro.toolchain.results`.
"""

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
    "merge_reports",
    "record_key",
]
