"""The broker client, and the campaign records it carries.

:class:`SocketBroker` speaks the framed protocol of :mod:`repro.net.framing`
to a :class:`~repro.net.server.BrokerServer`; it is the one broker the
coordinator, the standalone worker loop and the whole-task strategy use —
whether the server is a ``repro broker`` on another host (``tcp://``) or
the private server a ``--workers N`` coordinator starts for itself
(``unix://``).

Connection handling is deliberately simple: one persistent connection,
re-opened transparently when a call fails mid-flight.  Every operation is
safe to retry — the worst case is a ``claim`` whose response is lost on the
wire, which strands a server-side lease that expires and requeues like any
dead worker's claim.  Task and result payloads travel as pickle blobs the
server never interprets; corrupt payloads are detected on this side and the
offending task is settled away so the claim loop keeps making progress.
"""

from __future__ import annotations

import pickle
import socket
import time
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, List, Optional, Sequence, Set,
                    Tuple, Union)

from .. import obs as _obs
from .framing import (ProtocolError, TruncatedFrame, recv_message,
                      send_message)

if TYPE_CHECKING:  # annotations only: repro.net imports no campaign code
    from ..parallel.spec import CampaignSpec, QuerySpec


@dataclass
class CampaignManifest:
    """Everything a standalone worker needs to execute the campaign's tasks.

    *campaign_id* is a per-run nonce: workers echo it in every result, so a
    coordinator reusing a broker can tell this campaign's results from a
    previous campaign's stragglers.  Per-task caps are not part of the
    manifest: they travel inside each task's payload.
    """

    campaign_spec: CampaignSpec
    query_spec: QuerySpec
    campaign_id: str = ""


@dataclass
class ClaimedTask:
    """A task this worker owns until it completes or its lease expires.

    *token* is the server's name for the claim: renewals, releases and
    completions quote it, so a claim that expired and was handed to another
    worker cannot be renewed or released by its former owner.
    """

    index: int
    payload: object
    token: str


class BrokerConnectionError(ConnectionError):
    """The broker server could not be reached (after retries)."""


class BrokerOperationError(RuntimeError):
    """The broker server rejected or failed an operation."""


def parse_queue_url(url: str) -> Union[Tuple[str, int], str]:
    """Parse a queue URL into the socket address it names.

    ``tcp://host:port`` gives ``(host, port)``; ``unix:///abs/path`` — the
    private broker a ``--workers N`` coordinator starts for its own local
    workers — gives the socket path.  Anything else raises ``ValueError``
    with a one-line message naming the expected form — an unknown scheme, a
    directory path, a missing or out-of-range port — so every ``--queue``
    consumer fails up front.
    """
    if url.startswith("unix://") and url[len("unix://"):].startswith("/"):
        return url[len("unix://"):]
    if not url.startswith("tcp://"):
        what = (f"unknown queue scheme {url.split('://', 1)[0]!r} in {url!r}"
                if "://" in url else f"not a broker URL: {url!r}")
        raise ValueError(f"{what}; expected tcp://HOST:PORT of a running "
                         f"'repro broker'")
    rest = url[len("tcp://"):].rstrip("/")
    host, separator, port_text = rest.rpartition(":")
    if not separator or not host or not port_text.isdigit():
        raise ValueError(f"expected tcp://HOST:PORT, got {url!r}")
    port = int(port_text)
    if not 0 < port < 65536:
        raise ValueError(f"port out of range in {url!r} (expected 1-65535)")
    return host, port


class SocketBroker:
    """The coordinator/worker contract over one TCP connection.

    Lifecycle: the coordinator :meth:`reset`\\ s the queue, then publishes
    the campaign with :func:`enqueue_campaign` (:meth:`publish_manifest`,
    :meth:`put_task` per task, :meth:`close_queue`).  Workers
    :meth:`load_manifest`, then loop :meth:`claim_next` -> work
    (:meth:`renew_lease` while busy) -> :meth:`complete`; the coordinator
    drains with :meth:`fetch_new_results` and :meth:`requeue_expired` until
    :meth:`is_drained`.

    Payloads are opaque pickles: a task is its injections — sequences of
    :class:`~repro.faults.spec.FaultSpec` (including composite
    :class:`~repro.faults.spec.BurstFaultSpec`\\ s) — plus its caps, and
    must round-trip byte-faithfully: the broker moves bytes and never
    re-encodes them.  ``tests/test_broker_conformance.py`` is the
    executable form of this contract.
    """

    def __init__(self, url: str, lease_seconds: float = 60.0,
                 timeout: float = 60.0, connect_retries: int = 4) -> None:
        if lease_seconds <= 0:
            raise ValueError(f"lease_seconds must be positive, got {lease_seconds}")
        self.url = url
        self.address = parse_queue_url(url)
        self.lease_seconds = lease_seconds
        self.timeout = timeout
        self.connect_retries = connect_retries
        self._sock: Optional[socket.socket] = None

    # ------------------------------------------------------------- transport

    def _connect(self) -> socket.socket:
        if self._sock is None:
            if isinstance(self.address, str):
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(self.timeout)
                try:
                    sock.connect(self.address)
                except OSError:
                    sock.close()
                    raise
            else:
                sock = socket.create_connection(self.address,
                                                timeout=self.timeout)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
        return self._sock

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
            self._sock = None

    def __enter__(self) -> "SocketBroker":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _call(self, header: dict, blobs: Sequence[bytes] = (),
              ) -> Tuple[dict, List[bytes]]:
        """One request/response round-trip, reconnecting on failure.

        Retries use a short linear backoff so a worker that races the
        broker's startup (or rides out its restart) attaches as soon as the
        port listens instead of dying on the first refused connection.
        """
        hub = _obs.get()
        started = time.monotonic() if hub.enabled else 0.0
        last_error: Optional[Exception] = None
        for attempt in range(self.connect_retries + 1):
            if attempt:
                time.sleep(min(2.0, 0.1 * (2 ** (attempt - 1))))
            try:
                sock = self._connect()
                send_message(sock, header, blobs)
                message = recv_message(sock)
            except ProtocolError as exc:
                # ProtocolError must precede OSError here (it is one): a
                # torn frame is plausibly transient — broker restart,
                # network blip — and falls through to the retry, but any
                # other framing failure is a deterministically malformed
                # response that no amount of retrying can fix.
                self.close()
                if not isinstance(exc, TruncatedFrame):
                    raise BrokerOperationError(
                        f"broker at {self.url} sent an invalid response to "
                        f"{header.get('op')!r}: {exc}") from exc
                last_error = exc
                continue
            except OSError as exc:
                self.close()
                last_error = exc
                continue
            assert message is not None
            response, response_blobs = message
            if "error" in response:
                raise BrokerOperationError(
                    f"broker rejected {header.get('op')!r}: {response['error']}")
            if hub.enabled:
                op = header.get("op")
                hub.count(f"net.ops.{op}")
                hub.observe(f"net.{op}.seconds",
                            time.monotonic() - started)
            return response, response_blobs
        raise BrokerConnectionError(
            f"broker at {self.url} unreachable: {last_error}") from last_error

    @staticmethod
    def _dumps(payload: object) -> bytes:
        return pickle.dumps(payload, protocol=4)

    # -------------------------------------------------------- coordinator side

    def publish_manifest(self, manifest: CampaignManifest) -> None:
        self._call({"op": "publish_manifest"}, [self._dumps(manifest)])

    def reset(self) -> None:
        """Purge every artifact of a previous campaign from the queue."""
        self._call({"op": "reset"})

    def put_task(self, index: int, payload: object) -> None:
        self._call({"op": "put_task", "index": index},
                   [self._dumps(payload)])

    def close_queue(self, total_tasks: int) -> None:
        self._call({"op": "close_queue", "total": total_tasks})

    def total_tasks(self) -> Optional[int]:
        response, _ = self._call({"op": "stats"})
        return response["total"]

    def fetch_new_results(self, seen: Set[int]) -> List[Tuple[int, object]]:
        response, blobs = self._call({"op": "results", "seen": sorted(seen)})
        return [(index, pickle.loads(blob))
                for index, blob in zip(response["indexes"], blobs)]

    def discard_result(self, index: int) -> None:
        self._call({"op": "discard_result", "index": index})

    def requeue_expired(self) -> List[int]:
        response, _ = self._call({"op": "requeue_expired"})
        return response["indexes"]

    # ------------------------------------------------------------- worker side

    def load_manifest(self, timeout: Optional[float] = None,
                      poll_interval: float = 0.1) -> CampaignManifest:
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            response, blobs = self._call({"op": "manifest"})
            if response["present"]:
                return pickle.loads(blobs[0])
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"no campaign manifest published at {self.url}")
            time.sleep(poll_interval)

    def claim_next(self, result_valid: Optional[Callable[[object], bool]]
                   = None) -> Optional[ClaimedTask]:
        while True:
            response, blobs = self._call(
                {"op": "claim", "validate": result_valid is not None,
                 "lease": self.lease_seconds})
            status = response["status"]
            if status == "empty":
                return None
            index, token = response["index"], response["token"]
            try:
                payload = pickle.loads(blobs[0])
            except Exception:
                # A torn/corrupt task payload: settle it away (quarantine)
                # so the claim loop keeps making progress on intact tasks.
                self._call({"op": "settle", "index": index, "token": token})
                continue
            if status == "conflict":
                # The index already has a result; the caller's validator
                # decides whether it settles the task.
                settled = True
                try:
                    settled = bool(result_valid(pickle.loads(blobs[1])))
                except Exception:
                    settled = False  # unreadable result cannot settle a task
                if settled:
                    self._call({"op": "settle", "index": index,
                                "token": token})
                    continue
            return ClaimedTask(index=index, payload=payload, token=token)

    def renew_lease(self, claim: ClaimedTask) -> None:
        """Push the claim's lease deadline out by ``lease_seconds``.

        Renewing a claim that already expired is a harmless no-op: the
        server only honours the current holder's token.
        """
        self._call({"op": "renew", "index": claim.index,
                    "token": claim.token, "lease": self.lease_seconds})

    def release(self, claim: ClaimedTask) -> None:
        """Return a live claim to the pending queue without completing it.

        The graceful half of lease recovery: a worker shutting down (e.g.
        on SIGTERM) releases its claim so another worker picks the task up
        at once instead of after lease expiry.  Releasing an expired or
        completed claim is a harmless no-op.
        """
        self._call({"op": "release", "index": claim.index,
                    "token": claim.token})

    def complete(self, claim: ClaimedTask, result_payload: object) -> None:
        self._call({"op": "complete", "index": claim.index,
                    "token": claim.token},
                   [self._dumps(result_payload)])

    # ----------------------------------------------------------------- queries

    def telemetry(self) -> dict:
        """The broker's live telemetry status (queue depths, ops, leases)."""
        response, _ = self._call({"op": "telemetry"})
        return response

    def _stats(self) -> dict:
        response, _ = self._call({"op": "stats"})
        return response

    def pending_count(self) -> int:
        return self._stats()["pending"]

    def claimed_count(self) -> int:
        return self._stats()["claimed"]

    def results_count(self) -> int:
        return self._stats()["results"]

    def is_drained(self) -> bool:
        """True once every enqueued task has a result."""
        stats = self._stats()
        return stats["total"] is not None and stats["results"] >= stats["total"]


def enqueue_campaign(broker: SocketBroker, manifest: CampaignManifest,
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
