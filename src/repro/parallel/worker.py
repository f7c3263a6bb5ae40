"""Worker-side entry points of the parallel campaign runner.

Each pool worker is initialised once with the campaign and query specs and
keeps the rebuilt objects — plus a per-process
:class:`~repro.core.search.SearchResultCache` shared across every task the
worker processes — in module globals.  The work function is module-level so
it is picklable under every multiprocessing start method; pool and broker
workers both call it.

A work unit is one task: its submission index, its injections and its caps
(``None`` for a sweep).  Workers echo the index back with the task outcome —
plus a snapshot of their cache statistics, tagged with the process name so
the parent can aggregate the final per-worker counters — and the parent
merges out-of-order completions into a deterministic, submission-ordered
report.
"""

from __future__ import annotations

import multiprocessing
from typing import Dict, Optional, Tuple

from .. import obs as _obs
from ..core.campaign import (SymbolicCampaign, TaskCaps, TaskOutcome,
                             run_task)
from ..core.queries import SearchQuery
from ..core.search import CacheStatistics, SearchResultCache
from ..errors.injector import Injection
from ..obs import TelemetrySnapshot
from .spec import CampaignSpec, QuerySpec

#: A worker's counters at the end of one work unit: (process name,
#: cumulative cache statistics, telemetry snapshot or None).  Cache counters
#: are monotonic, so the parent keeps the latest snapshot per process and
#: sums them when the pool drains; the telemetry snapshot is merged into
#: the coordinator hub the same way (events drained, metrics latest-wins).
CacheSnapshot = Tuple[str, CacheStatistics, Optional[TelemetrySnapshot]]

#: Per-process worker context, populated by :func:`initialize_worker`.
_WORKER: Dict[str, object] = {}


def initialize_worker(campaign_spec: CampaignSpec,
                      query_spec: QuerySpec) -> None:
    """Pool initializer: rebuild the campaign, query and cache once."""
    # Always replace the inherited hub: under fork a child would otherwise
    # share the coordinator's open sink file.  Worker events buffer locally
    # and ship with each work unit's snapshot instead.
    _obs.activate_worker(campaign_spec.telemetry)
    _WORKER["campaign"] = campaign_spec.build()
    _WORKER["query"] = query_spec.build()
    _WORKER["cache"] = SearchResultCache()


def _context() -> Tuple[SymbolicCampaign, SearchQuery, SearchResultCache]:
    try:
        return (_WORKER["campaign"], _WORKER["query"], _WORKER["cache"])
    except KeyError:  # pragma: no cover - indicates a mis-built pool
        raise RuntimeError("worker used before initialize_worker ran") from None


def _cache_snapshot(cache: SearchResultCache) -> CacheSnapshot:
    stats = cache.statistics
    return (multiprocessing.current_process().name,
            CacheStatistics(hits=stats.hits, misses=stats.misses,
                            stores=stats.stores, evictions=stats.evictions),
            _obs.get().snapshot())


#: One work unit: (submission index, the task's injections, its caps).
WorkUnit = Tuple[int, Tuple[Injection, ...], Optional[TaskCaps]]


def run_work_unit(unit: WorkUnit) -> Tuple[int, TaskOutcome, CacheSnapshot]:
    """Run one task through :func:`~repro.core.campaign.run_task`.

    Returns (submission index, task outcome, cache snapshot).  The outcome
    is the result list plus two scalars; the task's injections stay on the
    coordinator.
    """
    index, injections, caps = unit
    campaign, query, cache = _context()
    with _obs.get().span("worker.chunk", chunk=index,
                         injections=len(injections)):
        outcome = run_task(campaign, injections, query, cache, caps)
    return index, outcome, _cache_snapshot(cache)
