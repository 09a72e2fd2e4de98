"""``repro.api`` — the supported way to drive the system.

* :class:`Session` — owns per-session registries (models, shapes, ISAs,
  compiler epochs, stages, mutations — as overlays over the shipped
  globals), caches, budgets and an optional persistent store;
* :class:`CampaignPlan` — the frozen, validated campaign description
  (tv, differential and hunt modes);
* the typed event stream — :meth:`Session.campaign` yields
  :class:`CampaignStarted`, :class:`CellFinished`, :class:`ShardMerged`
  and :class:`CampaignFinished`; :func:`fold_events` folds any complete
  stream back into the batch :class:`~repro.pipeline.campaign.CampaignReport`.

For one test, :meth:`Session.test` runs the Fig. 5 chain; the bare
calls behind it are :meth:`repro.toolchain.Toolchain.run_tv` and
:meth:`~repro.toolchain.Toolchain.run_differential`.
"""

from .engine import (
    CampaignStream,
    fold_events,
    iter_campaign,
    iter_sharded,
)
from .events import (
    CampaignEvent,
    CampaignFinished,
    CampaignStarted,
    CellFinished,
    FarmFinished,
    FarmStarted,
    HuntProgress,
    ShardMerged,
    SuiteFinished,
    TestReduced,
)
from .farm import iter_farm
from .plan import CampaignPlan, FarmPlan, PlanError
from .session import Session

__all__ = [
    "CampaignEvent",
    "CampaignFinished",
    "CampaignPlan",
    "CampaignStarted",
    "CampaignStream",
    "CellFinished",
    "FarmFinished",
    "FarmPlan",
    "FarmStarted",
    "HuntProgress",
    "PlanError",
    "Session",
    "ShardMerged",
    "SuiteFinished",
    "TestReduced",
    "fold_events",
    "iter_campaign",
    "iter_farm",
    "iter_sharded",
]
