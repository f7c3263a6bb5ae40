"""The distributed campaign backend (coordinator side).

:class:`DistributedExecutionStrategy` plugs into the same
:class:`~repro.core.campaign.ExecutionStrategy` seam as the serial and pool
backends, but executes tasks through a broker: a sweep is chunked exactly
like the pool's, each task — an uncapped chunk, or a paper-style search
task with its error/wall-clock caps — is enqueued as a durable queue entry,
standalone ``repro worker`` processes (spawned locally by default, or
attached externally to the same queue) claim and execute them, and the
coordinator merges results back in submission order — so a distributed
:class:`~repro.core.campaign.CampaignResult` or
:class:`~repro.core.tasks.TaskCampaignReport` is identical (solutions,
outcomes, ordering) to the serial one, with only wall-clock fields
differing.

The queue locator decides the transport: a directory path uses the durable
:class:`~repro.distributed.broker.FilesystemBroker`; ``tcp://host:port``
connects to a ``repro broker`` server, so coordinator and workers need not
share any filesystem.

Fault tolerance: worker death is handled twice over — expired leases return
the dead worker's claims to the queue (any surviving worker re-runs them),
and the coordinator respawns locally-spawned workers up to a restart
budget.  Every task is a pure function of the manifest, so re-execution is
invisible in the results.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .. import obs as _obs
from ..core.campaign import (CampaignResult, ExecutionStrategy,
                             ProgressCallback, SearchTask, SymbolicCampaign,
                             TaskCaps, TaskOutcome)
from ..core.queries import SearchQuery
from ..core.search import CacheStatistics
from ..core.tasks import default_chunk_size
from ..errors.injector import Injection
from ..parallel.runner import _check_query_consistency, _merge_cache_statistics
from ..parallel.spec import CacheSpec, CampaignSpec, QuerySpec
from .backoff import Backoff
from .broker import (CampaignManifest, FilesystemBroker, enqueue_campaign,
                     open_broker)


def note_worker_snapshot(worker_stats: Dict[str, CacheStatistics],
                         worker_name: str, stats: CacheStatistics) -> None:
    """Keep the *latest* cumulative snapshot per worker.

    Cache counters are monotonic per process, but unlike the pool (whose
    ``imap_unordered`` yields in completion order) broker results are
    fetched in index order — a requeued low-index chunk can deliver a
    worker's newest snapshot before an older one attached to a higher
    index.  Last-write-wins would then undercount, so keep the snapshot
    with the largest counter total instead.
    """
    previous = worker_stats.get(worker_name)
    if previous is None or (stats.lookups + stats.stores + stats.evictions
                            >= previous.lookups + previous.stores
                            + previous.evictions):
        worker_stats[worker_name] = stats


@dataclass
class DistributedConfig:
    """Tunable parameters of the distributed backend.

    Attributes:
        workers: standalone worker processes to spawn locally; ``0`` means
            none — external workers pointed at *queue_dir* do all the work.
        chunk_size: injections per task; ``None`` picks the pool's heuristic.
        queue_dir: queue locator — a broker directory, or ``tcp://host:port``
            for a running ``repro broker`` server.  ``None`` uses a private
            temporary directory (removed after the run).  Required when
            ``workers=0``, since external workers must be able to find the
            queue.
        lease_seconds: how long a claimed task may go without a lease
            renewal before it is considered orphaned and requeued.
        poll_interval: coordinator/worker base polling period; idle
            polling decays exponentially from here (see
            :class:`~repro.distributed.backoff.Backoff`).
        wall_clock_timeout: overall safety bound on the run (None = none).
        max_worker_restarts: how many times dead local workers are replaced
            before the coordinator gives up.
        cache: worker search-result cache recipe (e.g. a shared cache).
    """

    workers: int = 2
    chunk_size: Optional[int] = None
    queue_dir: Optional[str] = None
    lease_seconds: float = 60.0
    poll_interval: float = 0.05
    wall_clock_timeout: Optional[float] = None
    max_worker_restarts: Optional[int] = None
    cache: Optional[CacheSpec] = None

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.workers == 0 and self.queue_dir is None:
            raise ValueError("workers=0 (external workers) requires an "
                             "explicit queue_dir they can attach to")
        if self.lease_seconds <= 0:
            raise ValueError(
                f"lease_seconds must be positive, got {self.lease_seconds}")

    def resolve_chunk_size(self, total: int) -> int:
        if self.chunk_size is not None:
            return self.chunk_size
        return default_chunk_size(total, max(1, self.workers))

    def restart_budget(self) -> int:
        if self.max_worker_restarts is not None:
            return self.max_worker_restarts
        return max(2, self.workers * 3)


class _LocalWorkerPool:
    """Locally spawned ``repro worker`` subprocesses, with respawn-on-death."""

    def __init__(self, queue: str, log_dir: str,
                 config: DistributedConfig) -> None:
        self.queue = queue
        self.config = config
        self.log_dir = log_dir
        os.makedirs(self.log_dir, exist_ok=True)
        self._procs: List[subprocess.Popen] = []
        self._logs: Dict[int, str] = {}
        self._spawned = 0
        self.restarts = 0

    def _spawn_one(self) -> None:
        log_path = os.path.join(self.log_dir, f"worker-{self._spawned:03d}.log")
        command = [
            sys.executable, "-m", "repro", "worker",
            "--queue", self.queue,
            "--poll-interval", str(self.config.poll_interval),
            "--lease-seconds", str(self.config.lease_seconds),
            # Orphan guard: if the coordinator dies, workers drain what they
            # can and stop once nothing has been claimable for a while.
            "--max-idle", str(max(60.0, self.config.lease_seconds * 3)),
        ]
        with open(log_path, "ab") as log:
            process = subprocess.Popen(command, stdout=log, stderr=log)
        self._logs[process.pid] = log_path
        self._procs.append(process)
        self._spawned += 1

    def spawn(self, count: int) -> None:
        for _ in range(count):
            self._spawn_one()

    def reap_and_respawn(self) -> None:
        """Drop exited workers; replace them while the restart budget lasts."""
        alive = []
        died = 0
        for process in self._procs:
            if process.poll() is None:
                alive.append(process)
            else:
                died += 1
        self._procs = alive
        for _ in range(died):
            if self.restarts >= self.config.restart_budget():
                break
            self._spawn_one()
            self.restarts += 1

    def alive_count(self) -> int:
        return sum(1 for process in self._procs if process.poll() is None)

    def shutdown(self, timeout: float = 10.0, stop_now: bool = False) -> None:
        """Let the workers exit; SIGTERM any still running after *timeout*.

        With *stop_now* — every result is merged — the SIGTERM goes out at
        once: no work is left, and a worker that attached after the queue
        drained would otherwise wait out its ``--max-idle`` for the next
        campaign.  SIGTERM is the worker's graceful stop: it finishes a unit
        in flight and releases any claim it has not started.
        """
        if stop_now:
            for process in self._procs:
                if process.poll() is None:
                    process.terminate()
        deadline = time.monotonic() + timeout
        for process in self._procs:
            remaining = max(0.1, deadline - time.monotonic())
            try:
                process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                process.terminate()
                try:
                    process.wait(timeout=5.0)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    process.kill()
                    process.wait()

    def log_tails(self, max_bytes: int = 2000) -> str:
        tails = []
        for pid, path in self._logs.items():
            try:
                with open(path, "rb") as handle:
                    handle.seek(0, os.SEEK_END)
                    handle.seek(max(0, handle.tell() - max_bytes))
                    text = handle.read().decode("utf-8", "replace").strip()
            except OSError:
                continue
            if text:
                tails.append(f"--- worker pid {pid} ({path}):\n{text}")
        return "\n".join(tails) or "(worker logs empty)"


class DistributedExecutionStrategy(ExecutionStrategy):
    """Execute a campaign's tasks through a broker (see module docstring).

    Owns the queue's lifecycle for one run: resolve the locator (private
    temporary directory, shared directory, or ``tcp://`` URL), reset and
    publish the campaign, spawn/respawn local workers, fetch results in
    index order with idle backoff, requeue expired leases, and reject
    stragglers from a previous campaign that reused the queue.
    """

    name = "distributed"

    def __init__(self, query_spec: QuerySpec,
                 config: Optional[DistributedConfig] = None) -> None:
        self.query_spec = query_spec
        self.config = config or DistributedConfig()
        #: Aggregated per-worker SearchResultCache counters of the last run.
        self.cache_statistics: Optional[CacheStatistics] = None
        #: Tasks that were requeued after a lease expired (for diagnostics).
        self.requeued_tasks: List[int] = []

    def sweep_chunk_size(self, total: int) -> int:
        return self.config.resolve_chunk_size(total)

    def run_tasks(self, campaign: SymbolicCampaign,
                  tasks: Sequence[SearchTask], query: SearchQuery,
                  caps: Optional[TaskCaps] = None,
                  ) -> Iterator[Tuple[int, TaskOutcome]]:
        _check_query_consistency(query, self.query_spec)
        self.cache_statistics = None
        self.requeued_tasks = []
        worker_stats: Dict[str, CacheStatistics] = {}
        if tasks:
            config = self.config
            owns_queue_dir = config.queue_dir is None
            is_remote = (config.queue_dir is not None
                         and config.queue_dir.startswith("tcp://"))
            queue = config.queue_dir or tempfile.mkdtemp(prefix="repro-queue-")
            # Local workers need somewhere for their logs even when the
            # queue itself is a TCP URL with no directory behind it.
            log_dir = (tempfile.mkdtemp(prefix="repro-worker-logs-")
                       if is_remote else os.path.join(queue, "workers"))
            payloads = [(task.injections, caps) for task in tasks]
            try:
                yield from self._drive(queue, log_dir, campaign, payloads,
                                       worker_stats)
            finally:
                if owns_queue_dir:
                    shutil.rmtree(queue, ignore_errors=True)
                if is_remote:
                    shutil.rmtree(log_dir, ignore_errors=True)
        self.cache_statistics = _merge_cache_statistics(worker_stats)

    def _drive(self, queue: str, log_dir: str, campaign: SymbolicCampaign,
               payloads: List[object],
               worker_stats: Dict[str, CacheStatistics],
               ) -> Iterator[Tuple[int, TaskOutcome]]:
        config = self.config
        broker = open_broker(queue, lease_seconds=config.lease_seconds)
        # A queue serves one campaign at a time: purge whatever a previous
        # run left behind, and tag this run so stragglers of the old
        # campaign (workers still finishing an old claim) cannot be
        # mistaken for this campaign's results.
        campaign_id = os.urandom(8).hex()
        broker.reset()
        # Manifest and full task set are durable before any worker starts, so
        # workers never observe a half-published campaign.
        with _obs.get().span("broker.publish", campaign=campaign_id,
                             tasks=len(payloads)):
            enqueue_campaign(
                broker,
                CampaignManifest(
                    campaign_spec=CampaignSpec.from_campaign(campaign),
                    query_spec=self.query_spec,
                    cache_spec=config.cache,
                    campaign_id=campaign_id),
                list(enumerate(payloads)))

        pool: Optional[_LocalWorkerPool] = None
        if config.workers > 0:
            pool = _LocalWorkerPool(queue, log_dir, config)
            pool.spawn(min(config.workers, len(payloads)))

        merged: Set[int] = set()
        deadline = (None if config.wall_clock_timeout is None
                    else time.monotonic() + config.wall_clock_timeout)
        idle = Backoff(config.poll_interval, metric="coordinator.idle")
        try:
            while len(merged) < len(payloads):
                fresh = broker.fetch_new_results(seen=merged)
                for index, payload in fresh:
                    result_campaign_id, result_index, outcome, snapshot = \
                        payload
                    if result_campaign_id != campaign_id:
                        # A straggler from a previous campaign completed an
                        # old claim after our reset: drop its result and
                        # re-enqueue our task (the straggler's complete()
                        # may have consumed our claim for this index).
                        broker.discard_result(index)
                        if index < len(payloads):
                            broker.put_task(index, payloads[index])
                        continue
                    assert result_index == index
                    merged.add(index)
                    worker_name, stats, telemetry = snapshot
                    note_worker_snapshot(worker_stats, worker_name, stats)
                    _obs.get().absorb(telemetry)
                    yield index, outcome
                if fresh:
                    idle.reset()
                    continue  # drain eagerly before sleeping again
                requeued = broker.requeue_expired()
                if requeued:
                    self.requeued_tasks.extend(requeued)
                    hub = _obs.get()
                    if hub.enabled:
                        hub.event("broker.requeue", tasks=requeued)
                        if not isinstance(broker, FilesystemBroker):
                            # The filesystem broker counts its own requeues
                            # in-process; a remote (TCP) broker's happen
                            # server-side, so account for them here.
                            hub.count("broker.requeued", len(requeued))
                if pool is not None:
                    pool.reap_and_respawn()
                    if (pool.alive_count() == 0 and len(merged) < len(payloads)
                            # Not a failure if the last worker finished the
                            # queue and exited between our fetch and now.
                            and broker.results_count() < len(payloads)):
                        raise RuntimeError(
                            f"all distributed workers exited with "
                            f"{len(payloads) - len(merged)} of "
                            f"{len(payloads)} tasks unfinished (restart "
                            f"budget {config.restart_budget()} spent); "
                            f"worker logs:\n{pool.log_tails()}")
                if deadline is not None and time.monotonic() > deadline:
                    raise TimeoutError(
                        f"distributed campaign exceeded its "
                        f"{config.wall_clock_timeout}s wall-clock budget with "
                        f"{len(payloads) - len(merged)} tasks outstanding")
                idle.sleep()
        finally:
            if pool is not None:
                pool.shutdown(stop_now=len(merged) == len(payloads))


def run_campaign_distributed(campaign: SymbolicCampaign,
                             query_spec: QuerySpec,
                             injections: Optional[Sequence[Injection]] = None,
                             config: Optional[DistributedConfig] = None,
                             progress: Optional[ProgressCallback] = None,
                             ) -> CampaignResult:
    """Run a symbolic campaign on the distributed backend.

    The one-call equivalent of ``campaign.run(query, strategy=
    DistributedExecutionStrategy(...))``, mirroring
    :func:`~repro.parallel.runner.run_campaign_parallel`.
    """
    query = query_spec.build()
    strategy = DistributedExecutionStrategy(query_spec, config)
    return campaign.run(query, injections=injections, progress=progress,
                        strategy=strategy)
