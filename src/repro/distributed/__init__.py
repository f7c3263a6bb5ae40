"""Distributed campaign execution: the paper's cluster runs, for real.

This package is the one multi-process backend: it distributes a sweep
through a :mod:`repro.net` broker to standalone ``repro worker`` processes —
spawned locally on a private Unix-socket broker (``repro analyze --workers
N``), or attached to a ``repro broker`` server over ``tcp://HOST:PORT`` from
any host.  A killed campaign resumes from its results store (``repro
analyze --results PATH --resume``, see :mod:`repro.results.recording`).

Public surface:

* :class:`DistributedConfig` / :class:`DistributedExecutionStrategy` /
  :func:`run_campaign_distributed` — the coordinator, plugging into the
  ``ExecutionStrategy`` seam for :class:`~repro.core.campaign.
  SymbolicCampaign` sweeps and :class:`~repro.core.tasks.TaskRunner`
  capped search tasks alike;
* :class:`WorkerConfig` / :func:`run_worker` — the standalone worker loop
  behind ``repro worker --queue tcp://HOST:PORT``;
* :class:`Backoff` — capped exponential backoff shared by the idle polling
  loops.

The broker client, the campaign manifest and the claimed-task handle live
in :mod:`repro.net`.
"""

from .backoff import Backoff
from .strategy import (DistributedConfig, DistributedExecutionStrategy,
                       run_campaign_distributed)
from .worker import WorkerConfig, run_worker

__all__ = [
    "Backoff", "DistributedConfig", "DistributedExecutionStrategy",
    "WorkerConfig", "run_campaign_distributed", "run_worker",
]
