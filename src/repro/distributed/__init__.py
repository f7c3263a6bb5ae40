"""Distributed campaign execution: the paper's cluster runs, for real.

This package is the one multi-process backend: it distributes a sweep
through a durable broker to standalone ``repro worker`` processes — spawned
locally on a private queue directory (``repro analyze --workers N``),
attached to a shared queue directory, or over TCP via :mod:`repro.net` for
hosts that share nothing but a port.  A killed
campaign resumes from its results store (``repro analyze --results PATH
--resume``, see :mod:`repro.results.recording`) under any backend.

Public surface:

* :class:`FilesystemBroker` / :class:`Broker` / :class:`CampaignManifest` /
  :func:`open_broker` — the durable task queue, the contract every backend
  implements (the socket broker lives in :mod:`repro.net`), and the queue
  locator resolver (directory path or ``tcp://host:port``);
* :class:`DistributedConfig` / :class:`DistributedExecutionStrategy` /
  :func:`run_campaign_distributed` — the coordinator, plugging into the
  ``ExecutionStrategy`` seam for :class:`~repro.core.campaign.
  SymbolicCampaign` sweeps and :class:`~repro.core.tasks.TaskRunner`
  capped search tasks alike;
* :class:`WorkerConfig` / :func:`run_worker` — the standalone worker loop
  behind ``repro worker --queue DIR|tcp://…``;
* :class:`Backoff` — capped exponential backoff shared by the idle polling
  loops.
"""

from .backoff import Backoff
from .broker import (Broker, CampaignManifest, ClaimedTask, FilesystemBroker,
                     open_broker)
from .strategy import (DistributedConfig, DistributedExecutionStrategy,
                       run_campaign_distributed)
from .worker import WorkerConfig, run_worker

__all__ = [
    "Backoff", "Broker", "CampaignManifest", "ClaimedTask",
    "DistributedConfig", "DistributedExecutionStrategy", "FilesystemBroker",
    "WorkerConfig", "open_broker", "run_campaign_distributed", "run_worker",
]
