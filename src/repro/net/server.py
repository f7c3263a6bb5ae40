"""The TCP broker server (``repro broker --listen HOST:PORT``).

The server holds one campaign's manifest, pending tasks, claims and results
in memory and exposes the :class:`~repro.net.client.SocketBroker`
operations over the framed protocol of :mod:`repro.net.framing`.  Payloads
are stored and returned as opaque byte strings — the server never unpickles
anything, so it can run standalone on a host that shares nothing with the
coordinator but a port, or inside a coordinator that spawns its own local
workers.

Access control is the transport's.  A TCP listener accepts any peer that
can reach its port, and clients unpickle what the broker hands them, so
``repro broker --listen`` belongs on a trusted network only.  The private
broker of a ``--workers N`` coordinator (:func:`private_server`) listens on
a Unix socket instead, inside a directory only its owner can enter: other
users on a shared host can neither connect to it nor stand in for it.

Semantics:

* a claim hands out the lowest pending index exactly once and starts a
  lease; leases are renewed by token and expire on the server's monotonic
  clock, returning the task to the pending queue;
* completion is idempotent — duplicate completions of a requeued task
  overwrite the result with byte-identical payloads and drop any live claim;
* a pending task whose index already has a result is *settled* (dropped)
  unless the claiming worker wants to validate the result itself, in which
  case the server answers ``conflict`` with both payloads and lets the
  worker either settle the claim or keep it.

Connections are served by one thread each, bounded by an idle timeout;
protocol errors close the connection without touching queue state, so a
half-written frame from a dying worker can never corrupt the campaign.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import socket
import socketserver
import stat
import tempfile
import threading
import time
from typing import Dict, Iterator, List, Optional, Tuple, Union

from .framing import MAX_BLOBS, ProtocolError, recv_message, send_message

_TOKEN_LOCK = threading.Lock()
_TOKEN_COUNTER = [0]


def _new_token() -> str:
    with _TOKEN_LOCK:
        _TOKEN_COUNTER[0] += 1
        return f"claim-{_TOKEN_COUNTER[0]:08d}"


class _Claim:
    """A leased task held server-side: its payload, owner token, deadline."""

    __slots__ = ("payload", "token", "deadline")

    def __init__(self, payload: bytes, token: str, deadline: float) -> None:
        self.payload = payload
        self.token = token
        self.deadline = deadline


class _BrokerState:
    """One campaign's queue state; every method runs under the single lock."""

    def __init__(self, lease_seconds: float) -> None:
        self.lock = threading.Lock()
        self.default_lease = lease_seconds
        self.manifest: Optional[bytes] = None
        self.pending: Dict[int, bytes] = {}
        self.claimed: Dict[int, _Claim] = {}
        self.results: Dict[int, bytes] = {}
        self.total: Optional[int] = None

    # Callers hold self.lock for everything below.

    def requeue_expired(self, now: float) -> List[int]:
        expired = [index for index, claim in self.claimed.items()
                   if now > claim.deadline]
        for index in expired:
            self.pending[index] = self.claimed.pop(index).payload
        return sorted(expired)

    def claim(self, validate: bool, lease: float,
              now: float) -> Tuple[dict, List[bytes]]:
        self.requeue_expired(now)
        for index in sorted(self.pending):
            result = self.results.get(index)
            if result is not None and not validate:
                # A slow twin already delivered this task's result (requeue
                # race); drop the stale queue entry instead of re-running it.
                del self.pending[index]
                continue
            claim = _Claim(self.pending.pop(index), _new_token(), now + lease)
            self.claimed[index] = claim
            if result is not None:
                return ({"status": "conflict", "index": index,
                         "token": claim.token}, [claim.payload, result])
            return ({"status": "task", "index": index,
                     "token": claim.token}, [claim.payload])
        return ({"status": "empty"}, [])

    def drop_claim(self, index: int, token: str,
                   requeue: bool) -> bool:
        claim = self.claimed.get(index)
        if claim is None or claim.token != token:
            return False  # expired and requeued (or re-claimed): no-op
        del self.claimed[index]
        if requeue:
            self.pending[index] = claim.payload
        return True


class _Handler(socketserver.BaseRequestHandler):
    """One connection: a loop of (request message, response message)."""

    def handle(self) -> None:  # pragma: no cover - exercised over TCP
        server: BrokerServer = self.server.broker  # type: ignore[attr-defined]
        self.request.settimeout(server.connection_timeout)
        try:
            while True:
                message = recv_message(self.request, allow_eof=True)
                if message is None:
                    return  # orderly disconnect
                header, blobs = message
                try:
                    response, out_blobs = server.dispatch(header, blobs)
                except ProtocolError:
                    raise
                except Exception as exc:  # surface op failures to the client
                    response, out_blobs = {"error": f"{type(exc).__name__}: "
                                                    f"{exc}"}, []
                send_message(self.request, response, out_blobs)
        except (ProtocolError, socket.timeout, OSError):
            return  # drop the connection; queue state is untouched


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class _UnixServer(socketserver.ThreadingUnixStreamServer):
    daemon_threads = True


class BrokerServer:
    """A broker for one campaign queue, on TCP or (with *path*) a Unix socket.

    Start it programmatically (``start()``/``stop()``, used by tests and by
    coordinators that own their broker) or serve it in the foreground from
    the CLI via :meth:`serve_forever`.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 lease_seconds: float = 60.0,
                 connection_timeout: float = 600.0,
                 path: Optional[str] = None) -> None:
        if lease_seconds <= 0:
            raise ValueError(f"lease_seconds must be positive, got {lease_seconds}")
        self.connection_timeout = connection_timeout
        self.state = _BrokerState(lease_seconds)
        self._server = (_Server((host, port), _Handler) if path is None
                        else _UnixServer(path, _Handler))
        self._server.broker = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self._started_monotonic = time.monotonic()
        #: Per-operation request counts, guarded by the state lock.
        self._op_counts: Dict[str, int] = {}

    # ------------------------------------------------------------- lifecycle

    @property
    def address(self) -> Union[Tuple[str, int], str]:
        """``(host, port)`` of a TCP server, the socket path of a Unix one."""
        address = self._server.server_address
        return address if isinstance(address, str) else tuple(address[:2])

    @property
    def url(self) -> str:
        address = self.address
        if isinstance(address, str):
            return f"unix://{address}"
        return f"tcp://{address[0]}:{address[1]}"

    def start(self) -> "BrokerServer":
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name="broker-server", daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._server.serve_forever()

    def request_stop(self) -> None:
        """Flag the serving loop to exit; returns immediately.

        ``socketserver.shutdown()`` blocks until the loop drains — which
        would deadlock a signal handler running on the serving thread — so
        the blocking call is handed to a helper thread.
        """
        threading.Thread(target=self._server.shutdown, daemon=True).start()

    def close(self) -> None:
        """Release the listening socket (after the serving loop exited)."""
        self._server.server_close()

    def stop(self) -> None:
        self._server.shutdown()
        self.close()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None

    def __enter__(self) -> "BrokerServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # --------------------------------------------------------------- dispatch

    def dispatch(self, header: dict, blobs: List[bytes],
                 ) -> Tuple[dict, List[bytes]]:
        """Execute one operation against the queue state."""
        op = header.get("op")
        state = self.state
        now = time.monotonic()
        with state.lock:
            self._op_counts[op] = self._op_counts.get(op, 0) + 1
            if op == "ping":
                return {"ok": True}, []
            if op == "telemetry":
                return self._telemetry_status(now), []
            if op == "publish_manifest":
                state.manifest = blobs[0]
                return {"ok": True}, []
            if op == "manifest":
                if state.manifest is None:
                    return {"present": False}, []
                return {"present": True}, [state.manifest]
            if op == "put_task":
                state.pending[int(header["index"])] = blobs[0]
                return {"ok": True}, []
            if op == "close_queue":
                state.total = int(header["total"])
                return {"ok": True}, []
            if op == "stats":
                return {"pending": len(state.pending),
                        "claimed": len(state.claimed),
                        "results": len(state.results),
                        "total": state.total}, []
            if op == "claim":
                lease = float(header.get("lease") or state.default_lease)
                return state.claim(bool(header.get("validate")), lease, now)
            if op == "renew":
                claim = state.claimed.get(int(header["index"]))
                held = claim is not None and claim.token == header["token"]
                if held:
                    lease = float(header.get("lease") or state.default_lease)
                    claim.deadline = now + lease
                return {"held": held}, []
            if op == "settle":
                state.drop_claim(int(header["index"]), header["token"],
                                 requeue=False)
                return {"ok": True}, []
            if op == "release":
                released = state.drop_claim(int(header["index"]),
                                            header["token"], requeue=True)
                return {"released": released}, []
            if op == "complete":
                index = int(header["index"])
                state.results[index] = blobs[0]
                # Completion always clears the live claim for the index,
                # whichever twin holds it.
                state.claimed.pop(index, None)
                return {"ok": True}, []
            if op == "results":
                # Batched to the framing blob cap: a fast fleet can finish
                # more tasks between coordinator polls than one message may
                # carry, so the client drains the remainder on its next
                # fetch (the coordinator refetches immediately while fresh
                # results keep arriving).
                seen = set(header.get("seen", ()))
                fresh = sorted(index for index in state.results
                               if index not in seen)[:MAX_BLOBS]
                return ({"indexes": fresh},
                        [state.results[index] for index in fresh])
            if op == "discard_result":
                state.results.pop(int(header["index"]), None)
                return {"ok": True}, []
            if op == "requeue_expired":
                return {"indexes": state.requeue_expired(now)}, []
            if op == "reset":
                state.manifest = None
                state.pending.clear()
                state.claimed.clear()
                state.results.clear()
                state.total = None
                return {"ok": True}, []
        raise ProtocolError(f"unknown operation {op!r}")

    def _telemetry_status(self, now: float) -> dict:
        """Queue-depth gauges + op counts + live leases (lock held)."""
        state = self.state
        leases = [{"index": index, "expires_in": claim.deadline - now}
                  for index, claim in sorted(state.claimed.items())]
        return {"pending": len(state.pending),
                "claimed": len(state.claimed),
                "results": len(state.results),
                "total": state.total,
                "manifest": state.manifest is not None,
                "uptime_seconds": now - self._started_monotonic,
                "ops": dict(self._op_counts),
                "leases": leases}

    def stats_snapshot(self) -> dict:
        """The telemetry status, for in-process callers (heartbeats)."""
        now = time.monotonic()
        with self.state.lock:
            return self._telemetry_status(now)


#: Name prefix of a private broker directory; the coordinator's pid follows.
PRIVATE_PREFIX = "repro-broker-"


def sweep_stale_private_dirs(parent: Optional[str] = None) -> List[str]:
    """Remove private broker directories whose coordinator is gone.

    A coordinator killed before its ``finally`` runs (SIGKILL) leaves its
    ``repro-broker-<pid>-*`` directory behind.  An entry of *parent* (the
    temporary directory by default) is removed only if it is a real
    directory, not a symlink, owned by this user, and its pid names no
    live process.  Returns the removed paths.
    """
    parent = tempfile.gettempdir() if parent is None else parent
    removed = []
    try:
        names = os.listdir(parent)
    except OSError:
        return removed
    for name in names:
        pid_text, separator, _ = name[len(PRIVATE_PREFIX):].partition("-")
        if (not name.startswith(PRIVATE_PREFIX) or not separator
                or not pid_text.isdigit()):
            continue
        path = os.path.join(parent, name)
        try:
            info = os.lstat(path)
        except OSError:
            continue
        if not stat.S_ISDIR(info.st_mode) or info.st_uid != os.getuid():
            continue
        try:
            os.kill(int(pid_text), 0)
        except ProcessLookupError:
            shutil.rmtree(path, ignore_errors=True)
            removed.append(path)
        except (OSError, OverflowError):
            pass  # alive under another user, or not a pid at all
    return removed


@contextlib.contextmanager
def private_server(lease_seconds: float = 60.0) -> Iterator[BrokerServer]:
    """A running broker only its owner can reach, removed on exit.

    It listens on a Unix socket in a fresh ``mkdtemp`` directory (mode
    0700): no other user of the host can connect to it, nor bind a socket
    in its place after it stops, so only the owner's own processes ever
    exchange pickles with it.  The directory name carries the
    coordinator's pid, and each start first sweeps the directories of
    coordinators that died without removing theirs.
    """
    sweep_stale_private_dirs()
    directory = tempfile.mkdtemp(prefix=f"{PRIVATE_PREFIX}{os.getpid()}-")
    try:
        with BrokerServer(lease_seconds=lease_seconds,
                          path=os.path.join(directory, "broker.sock")) as server:
            yield server
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def parse_listen_address(text: str) -> Tuple[str, int]:
    """Parse a ``HOST:PORT`` listen spec (HOST optional, defaults loopback)."""
    host, separator, port_text = text.rpartition(":")
    if not separator or not port_text.isdigit():
        raise ValueError(f"expected HOST:PORT, got {text!r}")
    return host or "127.0.0.1", int(port_text)
