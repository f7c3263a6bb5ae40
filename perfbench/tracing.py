"""Per-layer spans, recorded from the benchmark's own files.

:class:`Tracer` wraps one public function of each layer of ``repro``: the
wrapper records a span (name, start, end, parent span, injection id) around
every call made while it is installed.  Spans stay in memory and are written
out when the run ends; :func:`summarise` turns them into calls,
total time and self time (duration minus the time of child spans) per span
name.  Nothing inside ``repro`` is edited: uninstalling restores every
original.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Tuple

#: ``SocketBroker`` methods of the broker contract (one or more round trips).
BROKER_OPS = ("publish_manifest", "reset", "put_task", "close_queue",
              "total_tasks", "fetch_new_results", "discard_result",
              "requeue_expired", "load_manifest", "claim_next", "renew_lease",
              "release", "complete", "pending_count", "claimed_count",
              "results_count", "is_drained")


class _CountingSocket:
    """Stands in for a socket and counts the bytes that cross it."""

    def __init__(self, sock, tracer: "Tracer") -> None:
        self._sock = sock
        self._tracer = tracer

    def sendall(self, data) -> None:
        self._sock.sendall(data)
        self._tracer.net_bytes += len(data)

    def recv(self, size: int) -> bytes:
        data = self._sock.recv(size)
        self._tracer.net_bytes += len(data)
        return data


def _targets():
    """(owner, attribute, span name, options) for every wrapped function."""
    import repro.core.campaign as campaign
    import repro.core.search as search
    import repro.net.client as client
    import repro.programs as programs
    from repro.constraints.constraint_map import ConstraintMap
    from repro.machine.decode import DecodedProgram
    from repro.machine.executor import Executor
    from repro.machine.state import Fingerprint, MachineState
    from repro.results.store import SqliteResultStore

    targets = [
        (programs, "load_workload", "lang.build", {}),
        (DecodedProgram, "__init__", "decode.build", {}),
        (campaign.SymbolicCampaign, "plan_injections", "faults.plan", {}),
        (campaign.SymbolicCampaign, "run_injection", "injection",
         {"injection": True}),
        (campaign, "prepare_injected_state", "prefix", {}),
        (search.BoundedModelChecker, "search", "search", {}),
        (Executor, "step", "step", {}),
        # The name the search module calls: err-free tails only.
        (search, "run_concrete", "concrete_tail", {}),
        (ConstraintMap, "satisfiable", "constraints", {}),
        (MachineState, "fingerprint", "dedup.fingerprint", {}),
        (Fingerprint, "__eq__", "dedup.eq", {}),
        (SqliteResultStore, "append", "results.append", {}),
        (SqliteResultStore, "flush", "results.flush", {}),
        (client, "send_message", "net.send", {"socket": True}),
        (client, "recv_message", "net.recv", {"socket": True}),
    ]
    targets += [(client.SocketBroker, op, "broker." + op, {})
                for op in BROKER_OPS]
    return targets


class Tracer:
    """Records spans around calls into each layer while installed.

    Spans are kept column-wise (name id, start, end, parent index,
    injection id), in arrays, so a run of millions of calls stays small.
    ``net_bytes`` counts the bytes that cross the broker's sockets.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.columns = Columns()
        self.net_bytes = 0
        self._ids: Dict[str, int] = {}
        self._stack: List[int] = []
        self._injection = -1
        self._injections = 0
        self._originals: List[Tuple[object, str, object]] = []
        self._thread = threading.get_ident()

    def _wrap(self, fn: Callable, name: str, injection: bool = False,
              socket: bool = False) -> Callable:
        name_id = self._ids.setdefault(name, len(self._ids))
        if name_id == len(self.names):
            self.names.append(name)
        columns, stack, clock = self.columns, self._stack, time.perf_counter
        name_ids, starts, ends = columns.names, columns.starts, columns.ends
        parents, injections = columns.parents, columns.injections
        get_ident, thread = threading.get_ident, self._thread

        def traced(*args, **kwargs):
            if get_ident() != thread:
                # Lease renewal runs beside the searches; its spans would
                # interleave with the main thread's stack.
                return fn(*args, **kwargs)
            if socket:
                # The first argument is the socket the frame crosses.
                args = (_CountingSocket(args[0], self),) + args[1:]
            index = len(starts)
            parents.append(stack[-1] if stack else -1)
            stack.append(index)
            if injection:
                self._injection = self._injections
                self._injections += 1
            name_ids.append(name_id)
            injections.append(self._injection)
            ends.append(0.0)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
                if injection:
                    self._injection = -1

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        for owner, attribute, name, options in _targets():
            original = owner.__dict__[attribute]
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name, **options))

    def uninstall(self) -> None:
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    def write(self, path: str, meta: dict) -> None:
        """Write the spans: a JSON header line, then one span a line as
        ``name id,start us,end us,parent index,injection id`` with times in
        microseconds from the first span's start."""
        columns = self.columns
        origin = min(columns.starts, default=0.0)
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"meta": meta, "names": self.names,
                                  "net_bytes": self.net_bytes}) + "\n")
            for name_id, start, end, parent, injection in zip(
                    columns.names, columns.starts, columns.ends,
                    columns.parents, columns.injections):
                out.write(f"{name_id},{round((start - origin) * 1e6)},"
                          f"{round((end - origin) * 1e6)},{parent},"
                          f"{injection}\n")


class Columns:
    """Spans, column-wise."""

    def __init__(self) -> None:
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.injections = array("i")


def load_spans(path: str) -> Tuple[dict, List[str], Columns]:
    """Read a spans file back: (header, span names, spans in seconds)."""
    columns = Columns()
    with open(path, encoding="utf-8") as handle:
        header = json.loads(handle.readline())
        for line in handle:
            name_id, start, end, parent, injection = line.split(",")
            columns.names.append(int(name_id))
            columns.starts.append(int(start) * 1e-6)
            columns.ends.append(int(end) * 1e-6)
            columns.parents.append(int(parent))
            columns.injections.append(int(injection))
    return header, header["names"], columns


def summarise(names: List[str], columns: Columns
              ) -> Tuple[Dict[str, List[float]], Counter]:
    """Per span name ``[calls, total s, self s]``, and the number of spans of
    each ``(name, parent name)`` pair."""
    durations = array("d", (end - start for start, end
                            in zip(columns.starts, columns.ends)))
    child = array("d", bytes(8 * len(durations)))
    for parent, duration in zip(columns.parents, durations):
        if parent >= 0:
            child[parent] += duration
    table: Dict[str, List[float]] = {}
    nesting: Counter = Counter()
    name_ids = columns.names
    for index, (name_id, parent) in enumerate(zip(name_ids,
                                                  columns.parents)):
        row = table.setdefault(names[name_id], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += durations[index]
        row[2] += durations[index] - child[index]
        nesting[names[name_id],
                names[name_ids[parent]] if parent >= 0 else None] += 1
    return table, nesting
