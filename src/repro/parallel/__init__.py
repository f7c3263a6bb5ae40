"""Parallel campaign execution: the paper's cluster runs on a worker pool.

Public surface:

* :class:`ParallelConfig` — pool size, chunk size, start method;
* :class:`CampaignSpec` / :class:`QuerySpec` — picklable recipes workers use
  to rebuild the campaign and query;
* :class:`ParallelExecutionStrategy` — the pool backend, for
  ``SymbolicCampaign.run`` sweeps and ``TaskRunner.run`` capped tasks alike;
* :func:`run_campaign_parallel` — the one-call parallel equivalent of
  ``SymbolicCampaign.run``.
"""

from .runner import (ParallelConfig, ParallelExecutionStrategy,
                     run_campaign_parallel)
from .spec import CacheSpec, CampaignSpec, QuerySpec

__all__ = [
    "CacheSpec", "CampaignSpec", "ParallelConfig",
    "ParallelExecutionStrategy", "QuerySpec", "run_campaign_parallel",
]
