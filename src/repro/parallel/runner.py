"""Parallel campaign execution (paper Section 6.1, "Running Time").

The paper runs its symbolic fault-injection campaigns as independent search
tasks distributed over a cluster.  This module reproduces that execution
model on a single host with a :mod:`multiprocessing` worker pool:

* the injection sweep is split into chunks (:func:`~repro.core.campaign.
  chunk_injections`), each chunk an uncapped task; a paper-style
  :class:`~repro.core.tasks.TaskRunner` campaign ships its capped tasks
  the same way, with the caps inside each work unit;
* a pool of workers — each initialised once with the campaign and query
  specs — executes tasks as they become free (dynamic load balancing via
  ``imap_unordered``);
* results are merged back in submission order, so a parallel run produces a
  :class:`~repro.core.campaign.CampaignResult` with exactly the same
  results, in the same order, as the serial sweep.

Determinism: each injection experiment is a pure function of the campaign
configuration and the injection, so sharding cannot change any individual
result; the submission-ordered merge makes the aggregate identical too.
Only wall-clock fields (`elapsed_seconds`, per-search timings) and searches
bounded by a *wall-clock* budget may differ between runs — the same caveat
the paper's 30-minute per-task cap carries on a loaded cluster.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Tuple

from .. import obs as _obs
from ..core.campaign import (CampaignResult, ExecutionStrategy,
                             ProgressCallback, SearchTask,
                             SerialExecutionStrategy, SymbolicCampaign,
                             TaskCaps, TaskOutcome)
from ..core.queries import SearchQuery
from ..core.search import CacheStatistics, SearchResultCache
from ..core.tasks import default_chunk_size
from ..errors.injector import Injection
from .spec import CampaignSpec, QuerySpec
from .worker import initialize_worker, run_work_unit


@dataclass
class ParallelConfig:
    """Tunable parameters of the worker-pool runner.

    Attributes:
        workers: size of the process pool; ``workers <= 1`` falls back to the
            serial in-process path (no pool is created).
        chunk_size: injections per unit of work; ``None`` picks a heuristic
            of a few chunks per worker (small enough to balance load, large
            enough to amortise dispatch overhead).
        start_method: multiprocessing start method (``"fork"``, ``"spawn"``,
            ``"forkserver"``); ``None`` uses the platform default.
    """

    workers: int = 2
    chunk_size: Optional[int] = None
    start_method: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")

    def resolve_chunk_size(self, total: int) -> int:
        if self.chunk_size is not None:
            return self.chunk_size
        return default_chunk_size(total, self.workers)

    def context(self):
        return multiprocessing.get_context(self.start_method)


def _merge_cache_statistics(worker_stats: Dict[str, "CacheStatistics"],
                            ) -> CacheStatistics:
    """Sum the final per-worker cache counters into one aggregate."""
    total = CacheStatistics()
    for stats in worker_stats.values():
        total.accumulate(stats)
    return total


def _check_query_consistency(query: Optional[SearchQuery],
                             query_spec: QuerySpec) -> SearchQuery:
    """Guard against the spec and the in-process query drifting apart.

    Workers rebuild the query from *query_spec*; if the caller also holds a
    live query it must describe the same predicate, otherwise the parallel
    run would silently answer a different question than the serial one.
    """
    built = query_spec.build()
    if query is not None and query.description != built.description:
        raise ValueError(
            f"query spec builds {built.description!r} but the campaign was "
            f"asked to search for {query.description!r}; pass a matching "
            f"QuerySpec so workers search for the same predicate")
    return built


class ParallelExecutionStrategy(ExecutionStrategy):
    """Shard a campaign's tasks — a chunked sweep or capped search tasks —
    across a worker pool.

    Plugs into :meth:`SymbolicCampaign.run` and :meth:`TaskRunner.run
    <repro.core.tasks.TaskRunner.run>`; the query given to either must match
    *query_spec* (workers rebuild the predicate from the spec, since live
    queries do not pickle).
    """

    name = "parallel"

    def __init__(self, query_spec: QuerySpec,
                 config: Optional[ParallelConfig] = None) -> None:
        self.query_spec = query_spec
        self.config = config or ParallelConfig()
        #: SearchResultCache counters of the last run: aggregated across
        #: workers for pooled runs, from the run-wide cache for the
        #: in-process fallback.  None until a run completes.
        self.cache_statistics: Optional[CacheStatistics] = None

    def sweep_chunk_size(self, total: int) -> int:
        if self.config.workers <= 1:
            return 1  # the in-process fallback streams like the serial sweep
        return self.config.resolve_chunk_size(total)

    def run_tasks(self, campaign: SymbolicCampaign,
                  tasks: Sequence[SearchTask], query: SearchQuery,
                  caps: Optional[TaskCaps] = None,
                  ) -> Iterator[Tuple[int, TaskOutcome]]:
        _check_query_consistency(query, self.query_spec)
        self.cache_statistics = None  # no stale counters if this run fails
        if self.config.workers <= 1 or len(tasks) <= 1:
            cache = SearchResultCache()
            yield from SerialExecutionStrategy(result_cache=cache).run_tasks(
                campaign, tasks, query, caps)
            self.cache_statistics = cache.statistics
            return

        units = [(index, task.injections, caps)
                 for index, task in enumerate(tasks)]
        worker_stats: Dict[str, CacheStatistics] = {}
        with self.config.context().Pool(
                processes=min(self.config.workers, len(tasks)),
                initializer=initialize_worker,
                initargs=(CampaignSpec.from_campaign(campaign),
                          self.query_spec)) as pool:
            for index, outcome, snapshot in pool.imap_unordered(
                    run_work_unit, units):
                worker_name, stats, telemetry = snapshot
                worker_stats[worker_name] = stats  # counters are monotonic
                _obs.get().absorb(telemetry)
                yield index, outcome
        self.cache_statistics = _merge_cache_statistics(worker_stats)


def run_campaign_parallel(campaign: SymbolicCampaign,
                          query_spec: QuerySpec,
                          injections: Optional[Sequence[Injection]] = None,
                          config: Optional[ParallelConfig] = None,
                          progress: Optional[ProgressCallback] = None,
                          ) -> CampaignResult:
    """Run a symbolic campaign on a worker pool.

    Produces a :class:`CampaignResult` equal (in results and ordering) to
    ``campaign.run(query, injections=...)`` with the query built from
    *query_spec*; see the module docstring for the determinism guarantees.
    """
    query = query_spec.build()
    strategy = ParallelExecutionStrategy(query_spec, config)
    return campaign.run(query, injections=injections, progress=progress,
                        strategy=strategy)
