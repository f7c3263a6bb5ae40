"""The standalone campaign worker (``repro worker --queue tcp://HOST:PORT``).

A worker loads the campaign manifest from the broker and rebuilds the
campaign, query and a per-process
:class:`~repro.core.search.SearchResultCache` once (:func:`initialize_worker`),
then claims and executes work units until the queue is drained.  A unit is
one task — its submission index, its injections and its caps (``None`` for a
sweep chunk) — run through :func:`run_work_unit`.  While a unit runs the
worker renews the lease on its claim so the coordinator can tell a slow
worker from a dead one.  The worker answers with the task outcome and a
snapshot of its cache and telemetry counters, keyed by the worker's name,
and the coordinator merges out-of-order completions into a deterministic,
submission-ordered report.

Workers are stateless and interchangeable: any number can be pointed at the
same ``tcp://`` broker from any machine, started before or after the
coordinator.  Exit conditions: a queue this worker saw live is drained
(normal — a queue *already* drained at attach time is a previous
campaign's leftover, and the worker waits for the next reset instead),
nothing has been claimable for ``max_idle_seconds``
(stale queue guard), or a stop was requested (e.g. ``SIGTERM``) — in which
case the worker finishes the unit it is executing, publishes its result,
releases any still-unstarted claim, and exits cleanly instead of stranding
a lease until expiry.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Tuple

from .. import obs as _obs
from ..core.campaign import (SymbolicCampaign, TaskCaps, TaskOutcome,
                             run_task)
from ..core.queries import SearchQuery
from ..core.search import CacheStatistics, SearchResultCache
from ..errors.injector import Injection
from ..net import ClaimedTask, SocketBroker
from ..obs import TelemetrySnapshot
from ..parallel.spec import CampaignSpec, QuerySpec
from .backoff import Backoff

#: A worker's counters at the end of one work unit: (worker name,
#: cumulative cache statistics, telemetry snapshot or None).  Cache counters
#: are monotonic, so the coordinator keeps the latest snapshot per worker
#: and sums them when the queue drains; the telemetry snapshot is merged
#: into the coordinator hub the same way (events drained, metrics
#: latest-wins).
CacheSnapshot = Tuple[str, CacheStatistics, Optional[TelemetrySnapshot]]

#: One work unit: (submission index, the task's injections, its caps).
WorkUnit = Tuple[int, Tuple[Injection, ...], Optional[TaskCaps]]

#: Per-process worker context, populated by :func:`initialize_worker`.
_WORKER: Dict[str, object] = {}


def initialize_worker(campaign_spec: CampaignSpec, query_spec: QuerySpec,
                      name: str) -> None:
    """Rebuild the campaign, query and cache once per manifest.

    *name* identifies this worker both as the key of its cache snapshots
    and as the component of its telemetry.
    """
    # Always replace the hub: worker events buffer locally and ship with
    # each work unit's snapshot.
    _obs.activate_worker(campaign_spec.telemetry, component=name)
    _WORKER["name"] = name
    _WORKER["campaign"] = campaign_spec.build()
    _WORKER["query"] = query_spec.build()
    _WORKER["cache"] = SearchResultCache()


def run_work_unit(unit: WorkUnit) -> Tuple[int, TaskOutcome, CacheSnapshot]:
    """Run one task through :func:`~repro.core.campaign.run_task`.

    Returns (submission index, task outcome, cache snapshot).  The outcome
    is the result list plus two scalars; the task's injections stay on the
    coordinator.  The snapshot is taken after the unit's span closes, so
    the span ships with the unit it times.
    """
    index, injections, caps = unit
    try:
        campaign: SymbolicCampaign = _WORKER["campaign"]
        query: SearchQuery = _WORKER["query"]
        cache: SearchResultCache = _WORKER["cache"]
    except KeyError:  # pragma: no cover - a unit ran before its manifest
        raise RuntimeError("worker used before initialize_worker ran") from None
    with _obs.get().span("worker.unit", index=index,
                         injections=len(injections)):
        outcome = run_task(campaign, injections, query, cache, caps)
    stats = cache.statistics
    return index, outcome, (
        _WORKER["name"],
        CacheStatistics(hits=stats.hits, misses=stats.misses,
                        stores=stats.stores, evictions=stats.evictions),
        _obs.get().snapshot())


@dataclass
class WorkerConfig:
    """Tunables of one standalone worker."""

    #: ``tcp://host:port`` of the broker holding the campaign.
    queue_dir: str
    poll_interval: float = 0.1
    #: Give up when nothing was claimable for this long (None = wait forever).
    max_idle_seconds: Optional[float] = None
    #: Wait at most this long for the coordinator's manifest to appear.
    manifest_timeout: Optional[float] = 120.0
    lease_seconds: float = 60.0

    def __post_init__(self) -> None:
        if self.poll_interval <= 0:
            raise ValueError(
                f"poll_interval must be positive, got {self.poll_interval}")


@contextlib.contextmanager
def _lease_renewal(broker: SocketBroker, claim: ClaimedTask,
                   lease_seconds: float) -> Iterator[None]:
    """Refresh the claim's lease from a background thread while it runs.

    A single symbolic search can outlast the lease (there is no
    per-injection wall-clock cap by default), and the executing thread
    cannot renew mid-search — so a daemon thread renews the claim every
    third of the lease, keeping slow-but-alive workers distinguishable from
    dead ones and avoiding duplicate chunk execution.
    """
    stop = threading.Event()

    def renew_loop() -> None:
        while not stop.wait(lease_seconds / 3.0):
            broker.renew_lease(claim)

    thread = threading.Thread(target=renew_loop, daemon=True,
                              name="lease-renewal")
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join()


def _await_manifest(broker: SocketBroker, config: WorkerConfig,
                    stopping: Callable[[], bool]):
    """Wait for a campaign manifest, honouring stop requests and backoff.

    Returns None when a stop was requested first; raises
    :class:`TimeoutError` when ``manifest_timeout`` elapses without one.
    """
    deadline = (None if config.manifest_timeout is None
                else time.monotonic() + config.manifest_timeout)
    wait = Backoff(config.poll_interval, metric="worker.manifest_wait")
    while not stopping():
        try:
            return broker.load_manifest(timeout=0)
        except TimeoutError:
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"no campaign manifest appeared at {config.queue_dir!r}"
                ) from None
            wait.sleep()
    return None


def _crash_cleanup(broker: SocketBroker, claim: ClaimedTask,
                   exc: BaseException) -> None:
    """Crash-path cleanup: hand the claim back, log a structured event.

    Without this, only a SIGTERM releases claims — an unhandled exception
    would strand the lease until expiry and leave no trace of why.
    """
    released = False
    try:
        broker.release(claim)
        released = True
    except Exception:
        pass  # the broker may be the thing that just failed
    record = {
        "event": "worker.crash",
        "task": claim.index,
        "error": type(exc).__name__,
        "message": str(exc),
        "claim_released": released,
        "pid": os.getpid(),
    }
    _obs.get().event("worker.crash", index=claim.index,
                     error=type(exc).__name__, message=str(exc),
                     released=released)
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


def run_worker(config: WorkerConfig,
               on_task: Optional[Callable[[int, int], None]] = None,
               should_stop: Optional[Callable[[], bool]] = None) -> int:
    """Drain tasks from the queue; return the number of work units executed.

    *on_task* is called as ``on_task(index, size)`` after each completed
    unit (the CLI uses it for progress reporting).  *should_stop* is polled
    between units — and once more between claiming and executing — so a
    signal handler can request a graceful exit: the current unit always
    finishes and publishes, an unstarted claim is released back to the
    queue, and no lease is left to expire.
    """
    with SocketBroker(config.queue_dir,
                      lease_seconds=config.lease_seconds) as broker:
        return _drain(broker, config, on_task,
                      should_stop or (lambda: False))


def _drain(broker: SocketBroker, config: WorkerConfig,
           on_task: Optional[Callable[[int, int], None]],
           stopping: Callable[[], bool]) -> int:
    """The claim loop of :func:`run_worker` over its open broker."""
    # One name per process keys this worker's cache snapshots and
    # telemetry apart from every other worker's.
    name = f"repro-worker-{os.getpid()}"
    # The CLI may have attached its own --telemetry sink before calling us;
    # worker initialisation replaces the hub (see activate_worker), so the
    # sink is captured here and re-attached after every (re)initialisation.
    own_sink = getattr(_obs.get(), "sink", None)
    manifest = _await_manifest(broker, config, stopping)
    if manifest is None:
        return 0  # stopped while waiting for a campaign to appear

    def initialize(manifest) -> None:
        initialize_worker(manifest.campaign_spec, manifest.query_spec, name)
        if own_sink is not None:
            _obs.attach_sink(own_sink, component=name)

    initialize(manifest)

    def result_is_ours(payload: object) -> bool:
        return payload and payload[0] == manifest.campaign_id

    executed = 0
    idle_since = time.monotonic()
    idle = Backoff(config.poll_interval, metric="worker.idle")
    # Only a drain this worker saw happen is an exit signal.  A queue that
    # is *already* drained at attach time is a previous campaign's leftover
    # state (brokers serve one campaign at a time, and the next coordinator
    # resets before enqueueing): exiting on it would strand the upcoming
    # campaign without workers, so wait for the reset instead — bounded by
    # ``max_idle_seconds`` like any other idle wait.
    saw_live_queue = False
    while not stopping():
        claim_started = time.monotonic()
        claim = broker.claim_next(result_valid=result_is_ours)
        hub = _obs.get()
        if hub.enabled:
            if claim is not None:
                hub.timed_event("broker.claim",
                                time.monotonic() - claim_started,
                                index=claim.index)
            else:
                hub.count("broker.claim.empty")
        if claim is None:
            if broker.is_drained():
                if saw_live_queue:
                    break
            else:
                saw_live_queue = True
            # Recovery is decentralised: idle workers also return orphaned
            # claims to the queue, so the run finishes even if the
            # coordinator (the other requeuer) is gone.
            broker.requeue_expired()
            if (config.max_idle_seconds is not None
                    and time.monotonic() - idle_since > config.max_idle_seconds):
                break
            idle.sleep()
            continue
        idle.reset()
        idle_since = time.monotonic()
        saw_live_queue = True
        if stopping():
            # The stop request raced our claim and nothing ran yet: hand
            # the task straight back instead of stranding it under a lease.
            broker.release(claim)
            break
        # Revalidate the manifest before executing: a coordinator may have
        # reset this queue and published a new campaign while we idled
        # (e.g. the previous coordinator was killed).  Executing the
        # claim under the stale context would produce results the new
        # coordinator rejects, re-enqueueing the task forever.
        try:
            current = broker.load_manifest(timeout=0,
                                           poll_interval=config.poll_interval)
        except TimeoutError:
            break  # the queue was dissolved under us
        if current.campaign_id != manifest.campaign_id:
            manifest = current
            initialize(manifest)
        try:
            with _lease_renewal(broker, claim, config.lease_seconds):
                index, outcome, snapshot = run_work_unit(
                    (claim.index, *claim.payload))
            # Results are tagged with the manifest's campaign id so a
            # coordinator reusing this broker can reject stragglers from a
            # previous campaign.
            with _obs.get().span("broker.complete", index=claim.index):
                broker.complete(claim, (manifest.campaign_id, index,
                                        outcome, snapshot))
        except BaseException as exc:
            _crash_cleanup(broker, claim, exc)
            raise
        executed += 1
        if on_task is not None:
            on_task(index, len(outcome[0]))
    return executed
