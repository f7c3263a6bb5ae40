"""Durable task brokering for distributed campaigns.

The broker is the only shared medium between the campaign coordinator and
its workers — the paper's cluster scheduler reduced to a contract of five
operations (publish manifest, enqueue task, claim task, complete task,
requeue expired claims).  :class:`FilesystemBroker` implements it on a
plain directory, so "a cluster" can be any set of processes (or machines,
over a shared filesystem) pointed at the same path; a socket- or
redis-backed broker only has to implement the same :class:`Broker`
interface to slot in.

Durability and atomicity on the filesystem:

* every file is written to a temporary name and published with
  ``os.replace`` — readers never observe partial pickles;
* a task is claimed by atomically renaming it from ``tasks/pending/`` into
  ``tasks/claimed/`` — exactly one worker can win the rename, which is the
  whole mutual-exclusion story;
* a claim is a lease: the worker refreshes the claimed file's mtime while
  it works, and the coordinator renames claims whose mtime has gone stale
  back into ``tasks/pending/`` — so a dead worker's tasks are re-run, while
  re-execution is harmless because every task is a pure function of the
  manifest (duplicate completions write byte-identical results).
"""

from __future__ import annotations

import os
import pickle
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Set, Tuple

from .. import obs as _obs
from ..parallel.spec import CampaignSpec, QuerySpec

_TASK_PREFIX = "task-"
_TASK_SUFFIX = ".pkl"


@dataclass
class CampaignManifest:
    """Everything a standalone worker needs to execute the campaign's tasks.

    *campaign_id* is a per-run nonce: workers echo it in every result, so a
    coordinator reusing a queue directory can tell this campaign's results
    from a previous campaign's stragglers.  Per-task caps are not part of
    the manifest: they travel inside each task's payload.
    """

    campaign_spec: CampaignSpec
    query_spec: QuerySpec
    campaign_id: str = ""


@dataclass
class ClaimedTask:
    """A task this worker owns until it completes or its lease expires."""

    index: int
    payload: object
    claim_path: str


class Broker:
    """The coordinator/worker contract (see the module docstring).

    Lifecycle: the coordinator :meth:`reset`\\ s the queue, then
    :meth:`publish_manifest`\\ s the campaign identity and
    :meth:`put_task`\\ s its tasks, finally sealing the queue with
    :meth:`close_queue`.  Workers :meth:`load_manifest`, then loop
    :meth:`claim_next` -> work (``renew_lease`` while busy) ->
    :meth:`complete`; the coordinator drains with
    :meth:`fetch_new_results` and :meth:`requeue_expired` until
    :meth:`is_drained`.

    Payloads are opaque pickles: a task is its injections — sequences of
    :class:`~repro.faults.spec.FaultSpec` (including composite
    :class:`~repro.faults.spec.BurstFaultSpec`\\ s) — plus its caps, and
    must round-trip byte-faithfully — a broker may move bytes, never
    re-encode them.

    Every implementation must satisfy ``tests/test_broker_conformance.py``,
    the executable form of this contract; the suite runs against the
    filesystem and socket brokers and is the drop-in gate for any future
    backend (redis, …).
    """

    def publish_manifest(self, manifest: CampaignManifest) -> None:
        raise NotImplementedError

    def load_manifest(self, timeout: Optional[float] = None,
                      poll_interval: float = 0.1) -> CampaignManifest:
        raise NotImplementedError

    def reset(self) -> None:
        """Purge every artifact of a previous campaign from the queue."""
        raise NotImplementedError

    def put_task(self, index: int, payload: object) -> None:
        raise NotImplementedError

    def close_queue(self, total_tasks: int) -> None:
        raise NotImplementedError

    def total_tasks(self) -> Optional[int]:
        raise NotImplementedError

    def claim_next(self, result_valid: Optional[Callable[[object], bool]]
                   = None) -> Optional[ClaimedTask]:
        raise NotImplementedError

    def renew_lease(self, claim: ClaimedTask) -> None:
        raise NotImplementedError

    def release(self, claim: ClaimedTask) -> None:
        """Return a live claim to the pending queue without completing it.

        The graceful half of lease recovery: a worker shutting down (e.g.
        on SIGTERM) releases its claim so another worker picks the task up
        immediately instead of after lease expiry.  Releasing an
        already-expired or completed claim is a harmless no-op.
        """
        raise NotImplementedError

    def complete(self, claim: ClaimedTask, result_payload: object) -> None:
        raise NotImplementedError

    def fetch_new_results(self, seen: Set[int]) -> List[Tuple[int, object]]:
        raise NotImplementedError

    def discard_result(self, index: int) -> None:
        raise NotImplementedError

    def requeue_expired(self) -> List[int]:
        raise NotImplementedError

    def pending_count(self) -> int:
        raise NotImplementedError

    def claimed_count(self) -> int:
        raise NotImplementedError

    def results_count(self) -> int:
        raise NotImplementedError

    def is_drained(self) -> bool:
        """True once every enqueued task has a result."""
        total = self.total_tasks()
        return total is not None and self.results_count() >= total


class FilesystemBroker(Broker):
    """A :class:`Broker` on a shared directory (see the module docstring)."""

    def __init__(self, root: str, lease_seconds: float = 60.0) -> None:
        if lease_seconds <= 0:
            raise ValueError(f"lease_seconds must be positive, got {lease_seconds}")
        self.root = os.path.abspath(root)
        self.lease_seconds = lease_seconds
        self.pending_dir = os.path.join(self.root, "tasks", "pending")
        self.claimed_dir = os.path.join(self.root, "tasks", "claimed")
        self.results_dir = os.path.join(self.root, "results")
        self.manifest_path = os.path.join(self.root, "manifest.pkl")
        self.closed_path = os.path.join(self.root, "closed.pkl")
        for directory in (self.pending_dir, self.claimed_dir, self.results_dir):
            os.makedirs(directory, exist_ok=True)

    # ------------------------------------------------------------ file helpers

    def _write_atomic(self, path: str, payload: object) -> None:
        directory = os.path.dirname(path)
        descriptor, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(descriptor, "wb") as handle:
                pickle.dump(payload, handle, protocol=4)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.remove(tmp_path)
            raise

    @staticmethod
    def _read(path: str) -> object:
        with open(path, "rb") as handle:
            return pickle.load(handle)

    @staticmethod
    def _task_filename(index: int) -> str:
        return f"{_TASK_PREFIX}{index:08d}{_TASK_SUFFIX}"

    @staticmethod
    def _task_index(filename: str) -> Optional[int]:
        if not (filename.startswith(_TASK_PREFIX)
                and filename.endswith(_TASK_SUFFIX)):
            return None
        digits = filename[len(_TASK_PREFIX):-len(_TASK_SUFFIX)]
        return int(digits) if digits.isdigit() else None

    def _task_files(self, directory: str) -> List[Tuple[int, str]]:
        try:
            names = os.listdir(directory)
        except FileNotFoundError:  # pragma: no cover - deleted queue dir
            return []
        tasks = []
        for name in names:
            index = self._task_index(name)
            if index is not None:
                tasks.append((index, os.path.join(directory, name)))
        return sorted(tasks)

    # -------------------------------------------------------- coordinator side

    def publish_manifest(self, manifest: CampaignManifest) -> None:
        self._write_atomic(self.manifest_path, manifest)

    def reset(self) -> None:
        """Purge every artifact of a previous campaign from the queue.

        A queue directory serves one campaign at a time; the coordinator
        resets it before enqueueing so stale tasks and results from an
        earlier run cannot leak into this run's merge.
        """
        for path in (self.manifest_path, self.closed_path):
            try:
                os.remove(path)
            except FileNotFoundError:
                pass
        for directory in (self.pending_dir, self.claimed_dir,
                          self.results_dir):
            for _, path in self._task_files(directory):
                try:
                    os.remove(path)
                except FileNotFoundError:
                    pass

    def put_task(self, index: int, payload: object) -> None:
        self._write_atomic(os.path.join(self.pending_dir,
                                        self._task_filename(index)), payload)

    def close_queue(self, total_tasks: int) -> None:
        """Declare the task set complete (workers may drain and exit)."""
        self._write_atomic(self.closed_path, {"total_tasks": total_tasks})

    def total_tasks(self) -> Optional[int]:
        if not os.path.exists(self.closed_path):
            return None
        return self._read(self.closed_path)["total_tasks"]

    def fetch_new_results(self, seen: Set[int]) -> List[Tuple[int, object]]:
        """Load results that appeared since *seen* (which is not mutated)."""
        fresh = []
        for index, path in self._task_files(self.results_dir):
            if index not in seen:
                fresh.append((index, self._read(path)))
        return fresh

    def discard_result(self, index: int) -> None:
        """Drop a result file (e.g. one a stale worker wrote for a previous
        campaign) so the task can be re-run."""
        try:
            os.remove(os.path.join(self.results_dir,
                                   self._task_filename(index)))
        except FileNotFoundError:
            pass

    def requeue_expired(self) -> List[int]:
        """Return expired claims to the pending queue (dead-worker recovery)."""
        now = time.time()
        requeued = []
        for index, path in self._task_files(self.claimed_dir):
            try:
                age = now - os.stat(path).st_mtime
            except FileNotFoundError:
                continue  # completed or re-claimed concurrently
            if age <= self.lease_seconds:
                continue
            try:
                os.rename(path, os.path.join(self.pending_dir,
                                             self._task_filename(index)))
            except FileNotFoundError:
                continue
            requeued.append(index)
        if requeued:
            hub = _obs.get()
            if hub.enabled:
                hub.count("broker.requeued", len(requeued))
        return requeued

    # ------------------------------------------------------------- worker side

    def load_manifest(self, timeout: Optional[float] = None,
                      poll_interval: float = 0.1) -> CampaignManifest:
        deadline = None if timeout is None else time.monotonic() + timeout
        while not os.path.exists(self.manifest_path):
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"no campaign manifest appeared in {self.root!r}")
            time.sleep(poll_interval)
        return self._read(self.manifest_path)

    def claim_next(self, result_valid: Optional[Callable[[object], bool]]
                   = None) -> Optional[ClaimedTask]:
        """Atomically claim one pending task, or None if none are claimable.

        *result_valid* decides whether an existing result file really
        settles its task (workers pass a campaign-id check, so a stale
        result left by a previous campaign in a reused queue directory
        cannot swallow a live task).  Without it, any result counts.
        Results are only inspected for indexes that still have a pending
        twin — the rare requeue-race leftover — never for the common case,
        so claiming stays O(pending) rather than O(all results).
        """
        for index, pending_path in self._task_files(self.pending_dir):
            claim_path = os.path.join(self.claimed_dir,
                                      self._task_filename(index))
            result_path = os.path.join(self.results_dir,
                                       self._task_filename(index))
            if os.path.exists(result_path):
                settled = True
                if result_valid is not None:
                    try:
                        settled = bool(result_valid(self._read(result_path)))
                    except FileNotFoundError:
                        settled = False  # discarded concurrently
                if settled:
                    # A slow twin already delivered this task's result
                    # (requeue race); drop the stale queue entry instead of
                    # re-running it.
                    try:
                        os.remove(pending_path)
                    except FileNotFoundError:
                        pass
                    continue
            try:
                # The rename preserves the pending file's mtime, which may be
                # older than the lease (tasks can queue for a while); start
                # the lease clock *before* moving the file into claimed/ so
                # a concurrent requeue scan can never see a freshly claimed
                # task as already expired.
                os.utime(pending_path)
                os.rename(pending_path, claim_path)
            except FileNotFoundError:
                continue  # another worker won the rename
            try:
                payload = self._read(claim_path)
            except FileNotFoundError:
                continue  # extreme stall: the claim expired and was requeued
            except Exception:
                # A torn or corrupt task payload (publishes are atomic, so
                # only external interference produces one): quarantine it
                # under a name the task scan ignores, so the claim loop
                # keeps making progress on intact tasks.
                try:
                    os.rename(claim_path, claim_path + ".corrupt")
                except FileNotFoundError:  # pragma: no cover - racing twin
                    pass
                continue
            hub = _obs.get()
            if hub.enabled:
                hub.count("broker.claims")
            return ClaimedTask(index=index, payload=payload,
                               claim_path=claim_path)
        return None

    def renew_lease(self, claim: ClaimedTask) -> None:
        try:
            os.utime(claim.claim_path)
            hub = _obs.get()
            if hub.enabled:
                hub.count("broker.lease_renewals")
        except FileNotFoundError:
            pass  # lease expired and was requeued; completion is still safe

    def release(self, claim: ClaimedTask) -> None:
        try:
            os.rename(claim.claim_path,
                      os.path.join(self.pending_dir,
                                   self._task_filename(claim.index)))
        except FileNotFoundError:
            pass  # already expired/requeued or completed: nothing to return

    def complete(self, claim: ClaimedTask, result_payload: object) -> None:
        self._write_atomic(os.path.join(self.results_dir,
                                        self._task_filename(claim.index)),
                           result_payload)
        try:
            os.remove(claim.claim_path)
        except FileNotFoundError:
            pass
        hub = _obs.get()
        if hub.enabled:
            hub.count("broker.completes")

    # ----------------------------------------------------------------- queries

    def pending_count(self) -> int:
        return len(self._task_files(self.pending_dir))

    def claimed_count(self) -> int:
        return len(self._task_files(self.claimed_dir))

    def results_count(self) -> int:
        return len(self._task_files(self.results_dir))


#: Queue-locator schemes :func:`open_broker` understands.
KNOWN_QUEUE_SCHEMES: Tuple[str, ...] = ("tcp",)


def validate_queue_locator(queue: str) -> str:
    """Validate a ``--queue`` locator, raising ``ValueError`` with a
    one-line message on an unknown scheme or a malformed ``tcp://`` URL.

    A locator with a ``scheme://`` prefix must use a known scheme — a typo
    like ``tpc://host:1`` or an unsupported ``redis://…`` must fail up
    front, not be silently treated as a *directory name* for the
    filesystem broker.  Plain paths pass through untouched.
    """
    if "://" in queue:
        scheme = queue.split("://", 1)[0]
        if scheme not in KNOWN_QUEUE_SCHEMES:
            raise ValueError(
                f"unknown queue scheme {scheme!r} in {queue!r}; expected a "
                f"broker directory path or tcp://HOST:PORT")
        from ..net.client import parse_queue_url  # deferred: net imports us
        parse_queue_url(queue)
    return queue


def open_broker(queue: str, lease_seconds: float = 60.0) -> Broker:
    """Open the broker a queue locator names.

    ``tcp://host:port`` connects a :class:`~repro.net.SocketBroker` to a
    ``repro broker`` server; anything else is a shared queue directory for
    :class:`FilesystemBroker`.  Every consumer of ``--queue`` (coordinator,
    worker, CLI) resolves the locator through this one function, so a new
    backend scheme is a one-line addition here (plus its entry in
    :data:`KNOWN_QUEUE_SCHEMES`).  Raises ``ValueError`` on an unknown
    scheme or malformed URL (see :func:`validate_queue_locator`).
    """
    validate_queue_locator(queue)
    if queue.startswith("tcp://"):
        from ..net import SocketBroker  # deferred: repro.net imports us
        return SocketBroker(queue, lease_seconds=lease_seconds)
    return FilesystemBroker(queue, lease_seconds=lease_seconds)


def enqueue_campaign(broker: Broker, manifest: CampaignManifest,
                     payloads: Sequence[Tuple[int, object]]) -> None:
    """Publish a campaign: manifest first, tasks second, then close.

    The ordering matters for workers that race the coordinator: they block
    on the manifest, never observe tasks without one, and treat the queue as
    open-ended until the closing record states the total task count.
    """
    broker.publish_manifest(manifest)
    for index, payload in payloads:
        broker.put_task(index, payload)
    broker.close_queue(len(payloads))
