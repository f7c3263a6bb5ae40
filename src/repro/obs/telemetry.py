"""Process-local telemetry hub: spans, counters, gauges, histograms.

The hub is a process-global singleton reached through :func:`get`.  By
default it is a :class:`NullTelemetry` whose every operation is a no-op —
instrumented hot paths guard on ``hub.enabled`` so the disabled cost is one
attribute load and a branch.  ``repro analyze --telemetry PATH`` (and the
worker/broker equivalents) swap in a real :class:`Telemetry` hub.

Spans use the monotonic clock and nest through a thread-local stack, so a
``span("search.solve")`` opened inside ``span("worker.unit")`` parents
correctly.  Cross-process parenting rides :class:`TraceContext`, a tiny
picklable carrier embedded in ``CampaignSpec``: the worker
activates a fresh hub under the coordinator's trace and span ids, and ships
its metrics back as a :class:`TelemetrySnapshot` which the coordinator
merges with :meth:`Telemetry.absorb`.

Everything here is stdlib-only and import-light: instrumented modules in
``core``/``machine``/``distributed`` import this package, so it must not
import them back.
"""

from __future__ import annotations

import bisect
import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "Histogram",
    "NullTelemetry",
    "Telemetry",
    "TelemetrySnapshot",
    "TraceContext",
    "activate_worker",
    "attach_sink",
    "configure",
    "finalize",
    "get",
    "set_hub",
]

#: Histogram bucket upper bounds in seconds; a +inf bucket is implicit.
_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0)

#: Cap on events buffered by a sink-less hub (workers buffer until their
#: snapshot ships the events to the coordinator).  Beyond the cap events
#: are dropped and counted, never grown without bound.
_MAX_PENDING_EVENTS = 4096


class Histogram:
    """Fixed-bucket histogram of seconds, mergeable across processes."""

    __slots__ = ("counts", "total", "count", "minimum", "maximum")

    def __init__(self) -> None:
        self.counts = [0] * (len(_BUCKETS) + 1)
        self.total = 0.0
        self.count = 0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(_BUCKETS, value)] += 1
        self.total += value
        self.count += 1
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def merge(self, other: "Histogram") -> None:
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.total += other.total
        self.count += other.count
        for bound in (other.minimum, other.maximum):
            if bound is None:
                continue
            if self.minimum is None or bound < self.minimum:
                self.minimum = bound
            if self.maximum is None or bound > self.maximum:
                self.maximum = bound

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "buckets": list(_BUCKETS),
            "counts": list(self.counts),
            "total": self.total,
            "count": self.count,
            "min": self.minimum,
            "max": self.maximum,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Histogram":
        hist = cls()
        counts = list(payload.get("counts", ()))
        # Tolerate a bucket-layout drift between versions: fold any extra
        # counts into the overflow bucket rather than dropping samples.
        for i, n in enumerate(counts):
            hist.counts[min(i, len(hist.counts) - 1)] += int(n)
        hist.total = float(payload.get("total", 0.0))
        hist.count = int(payload.get("count", 0))
        hist.minimum = payload.get("min")
        hist.maximum = payload.get("max")
        return hist


@dataclass(frozen=True)
class TraceContext:
    """Picklable cross-process span parentage carrier."""

    trace_id: str
    parent_span_id: Optional[str] = None


@dataclass
class TelemetrySnapshot:
    """A worker hub's state, shipped back alongside campaign results.

    Counters and histograms are cumulative (latest ``seq`` wins per
    component on the coordinator); ``events`` are drained — each event
    appears in exactly one snapshot.
    """

    component: str
    seq: int
    trace_id: Optional[str] = None
    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    events: List[Dict[str, Any]] = field(default_factory=list)
    dropped_events: int = 0


class _NullSpan:
    """Reusable no-op context manager for the disabled hub."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTelemetry:
    """The disabled hub: every operation is a cheap no-op."""

    enabled = False
    sink = None
    trace_id: Optional[str] = None

    def span(self, name: str, **fields: Any) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, value: float = 1) -> None:
        return None

    def gauge(self, name: str, value: float) -> None:
        return None

    def observe(self, name: str, value: float) -> None:
        return None

    def event(self, name: str, **fields: Any) -> None:
        return None

    def timed_event(self, name: str, seconds: float, **fields: Any) -> None:
        return None

    def context(self) -> Optional[TraceContext]:
        return None

    def snapshot(self, drain: bool = True) -> Optional[TelemetrySnapshot]:
        return None

    def absorb(self, snapshot: Optional[TelemetrySnapshot]) -> None:
        return None

    def adopt_trace(self, trace_id: str) -> None:
        return None


class _Span:
    """An open span; records a duration histogram sample and an event."""

    __slots__ = ("hub", "name", "fields", "span_id", "parent_id", "_start")

    def __init__(self, hub: "Telemetry", name: str,
                 fields: Dict[str, Any]) -> None:
        self.hub = hub
        self.name = name
        self.fields = fields

    def __enter__(self) -> "_Span":
        stack = self.hub._span_stack()
        self.parent_id = stack[-1] if stack else self.hub.parent_span_id
        self.span_id = self.hub._new_span_id()
        stack.append(self.span_id)
        self._start = time.monotonic()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        duration = time.monotonic() - self._start
        stack = self.hub._span_stack()
        if stack and stack[-1] == self.span_id:
            stack.pop()
        self.hub.observe(self.name, duration)
        event = {
            "type": "span",
            "name": self.name,
            "trace": self.hub.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "component": self.hub.component,
            "ts": time.time(),
            "duration": duration,
        }
        if exc_type is not None:
            event["error"] = exc_type.__name__
        if self.fields:
            event.update(self.fields)
        self.hub._record(event)


class Telemetry:
    """The enabled hub: thread-safe spans, counters, gauges, histograms."""

    enabled = True

    def __init__(self, trace_id: Optional[str] = None,
                 component: Optional[str] = None,
                 parent_span_id: Optional[str] = None,
                 sink: Optional[Any] = None) -> None:
        self.trace_id = trace_id or os.urandom(8).hex()
        self.component = component or self._default_component()
        self.parent_span_id = parent_span_id
        self.sink = sink
        self._lock = threading.Lock()
        self._local = threading.local()
        self._span_ids = itertools.count(1)
        self._snapshot_seq = itertools.count(1)
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}
        self._pending: List[Dict[str, Any]] = []
        self._dropped_events = 0
        #: When True, events go to the sink AND the pending buffer: a
        #: standalone worker with its own ``--telemetry`` sink still ships
        #: its spans upstream so the coordinator's trace stays complete.
        self.tee_pending = False
        #: Latest snapshot per absorbed worker component.
        self._workers: Dict[str, TelemetrySnapshot] = {}

    @staticmethod
    def _default_component() -> str:
        try:
            import multiprocessing

            return multiprocessing.current_process().name
        except Exception:
            return f"pid-{os.getpid()}"

    # -- span plumbing ---------------------------------------------------

    def _span_stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _new_span_id(self) -> str:
        return f"{os.getpid():x}.{next(self._span_ids)}"

    def current_span_id(self) -> Optional[str]:
        stack = self._span_stack()
        return stack[-1] if stack else self.parent_span_id

    def span(self, name: str, **fields: Any) -> _Span:
        return _Span(self, name, fields)

    # -- metrics ---------------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram()
            hist.observe(value)

    # -- events ----------------------------------------------------------

    def event(self, name: str, **fields: Any) -> None:
        record = {
            "type": "event",
            "name": name,
            "trace": self.trace_id,
            "parent": self.current_span_id(),
            "component": self.component,
            "ts": time.time(),
        }
        if fields:
            record.update(fields)
        self._record(record)

    def timed_event(self, name: str, seconds: float, **fields: Any) -> None:
        """A span-shaped event for a duration measured out-of-band."""
        self.observe(name, seconds)
        record = {
            "type": "span",
            "name": name,
            "trace": self.trace_id,
            "span": self._new_span_id(),
            "parent": self.current_span_id(),
            "component": self.component,
            "ts": time.time(),
            "duration": seconds,
        }
        if fields:
            record.update(fields)
        self._record(record)

    def _record(self, event: Dict[str, Any]) -> None:
        sink = self.sink
        if sink is not None:
            sink.write(event)
            if not self.tee_pending:
                return
        with self._lock:
            if len(self._pending) >= _MAX_PENDING_EVENTS:
                self._dropped_events += 1
            else:
                self._pending.append(event)

    def set_sink(self, sink: Any) -> None:
        """Attach a sink, flushing any events buffered while sink-less."""
        with self._lock:
            pending, self._pending = self._pending, []
        for event in pending:
            sink.write(event)
        self.sink = sink

    # -- cross-process ---------------------------------------------------

    def context(self) -> TraceContext:
        return TraceContext(trace_id=self.trace_id,
                            parent_span_id=self.current_span_id())

    def adopt_trace(self, trace_id: str) -> None:
        self.trace_id = trace_id

    def snapshot(self, drain: bool = True) -> TelemetrySnapshot:
        """Cumulative metrics plus drained events, for shipping upstream."""
        with self._lock:
            events: List[Dict[str, Any]] = []
            if drain:
                events, self._pending = self._pending, []
            return TelemetrySnapshot(
                component=self.component,
                seq=next(self._snapshot_seq),
                trace_id=self.trace_id,
                counters=dict(self.counters),
                gauges=dict(self.gauges),
                histograms={name: hist.to_dict()
                            for name, hist in self.histograms.items()},
                events=events,
                dropped_events=self._dropped_events,
            )

    def absorb(self, snapshot: Optional[TelemetrySnapshot]) -> None:
        """Merge a worker snapshot: keep latest-seq metrics, sink events."""
        if snapshot is None:
            return
        events = snapshot.events
        with self._lock:
            previous = self._workers.get(snapshot.component)
            if previous is None or snapshot.seq >= previous.seq:
                self._workers[snapshot.component] = TelemetrySnapshot(
                    component=snapshot.component,
                    seq=snapshot.seq,
                    trace_id=snapshot.trace_id,
                    counters=dict(snapshot.counters),
                    gauges=dict(snapshot.gauges),
                    histograms={name: dict(payload) for name, payload
                                in snapshot.histograms.items()},
                    dropped_events=snapshot.dropped_events,
                )
        # Worker events keep their original span/component identity, so
        # sinking them here yields a single parented trace file.
        for event in events:
            self._record(event)

    def merged_counters(self) -> Dict[str, float]:
        with self._lock:
            merged = dict(self.counters)
            for snap in self._workers.values():
                for name, value in snap.counters.items():
                    merged[name] = merged.get(name, 0) + value
        return merged

    def merged_histograms(self) -> Dict[str, Histogram]:
        with self._lock:
            merged: Dict[str, Histogram] = {}
            for name, hist in self.histograms.items():
                copy = Histogram()
                copy.merge(hist)
                merged[name] = copy
            for snap in self._workers.values():
                for name, payload in snap.histograms.items():
                    merged.setdefault(name, Histogram()).merge(
                        Histogram.from_dict(payload))
        return merged

    def metrics_event(self) -> Dict[str, Any]:
        """The campaign-final metrics record appended to the event log."""
        merged_hists = self.merged_histograms()
        with self._lock:
            dropped = self._dropped_events + sum(
                snap.dropped_events for snap in self._workers.values())
            workers = {name: dict(snap.counters)
                       for name, snap in self._workers.items()}
            gauges = dict(self.gauges)
        return {
            "type": "metrics",
            "trace": self.trace_id,
            "component": self.component,
            "ts": time.time(),
            "counters": self.merged_counters(),
            "gauges": gauges,
            "histograms": {name: hist.to_dict()
                           for name, hist in merged_hists.items()},
            "workers": workers,
            "dropped_events": dropped,
        }


# -- the process-global hub ---------------------------------------------

_hub: Any = NullTelemetry()


def get() -> Any:
    """The process-global telemetry hub (NullTelemetry when disabled)."""
    return _hub


def set_hub(hub: Any) -> Any:
    global _hub
    _hub = hub
    return hub


def configure(sink: Optional[Any] = None, component: Optional[str] = None,
              trace_id: Optional[str] = None) -> Telemetry:
    """Enable telemetry in this process, replacing the global hub."""
    return set_hub(Telemetry(trace_id=trace_id, component=component,
                             sink=sink))


def activate_worker(context: Optional[TraceContext],
                    component: Optional[str] = None) -> Any:
    """Install the worker-side hub for a (possibly absent) trace context.

    Always *replaces* the global hub, so that a worker that switches to a
    new campaign manifest starts from that campaign's trace context.
    Workers get a fresh sink-less hub named *component* (events buffer
    until the next result snapshot ships them to the coordinator) or the
    null hub when telemetry is off.
    """
    if context is None:
        return set_hub(NullTelemetry())
    return set_hub(Telemetry(trace_id=context.trace_id,
                             parent_span_id=context.parent_span_id,
                             component=component))


def attach_sink(sink: Any, component: Optional[str] = None) -> Telemetry:
    """Attach a sink to the current hub, enabling it if necessary.

    Used by the standalone ``repro worker`` CLI whose ``--telemetry``
    sink must survive the hub replacement done by worker activation.
    Events are teed: they land in the worker's own sink *and* keep
    buffering for the result-borne snapshot, so the coordinator's merged
    trace stays complete even when workers also record locally.
    """
    hub = get()
    if not isinstance(hub, Telemetry):
        hub = set_hub(Telemetry(component=component))
    hub.set_sink(sink)
    hub.tee_pending = True
    return hub


def finalize() -> None:
    """Emit the final metrics record, close the sink, disable the hub."""
    global _hub
    hub = _hub
    if isinstance(hub, Telemetry) and hub.sink is not None:
        hub.sink.write(hub.metrics_event())
        try:
            hub.sink.close()
        except Exception:
            pass
    _hub = NullTelemetry()
