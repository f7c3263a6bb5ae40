"""Tests for the repro.obs telemetry fabric (hub, sinks, rendering)."""

import json
import pickle

import pytest

from repro import obs
from repro.obs import (Histogram, JsonlEventSink, NullTelemetry, Telemetry,
                       TraceContext, read_events, render_broker,
                       render_metrics)
from repro.obs.report import format_telemetry_report
from repro.obs.top import format_broker_status


@pytest.fixture(autouse=True)
def restore_hub():
    """Every test leaves the process-global hub disabled again."""
    yield
    obs.set_hub(NullTelemetry())


class ListSink:
    """An in-memory sink capturing every record."""

    def __init__(self):
        self.records = []
        self.closed = False

    def write(self, event):
        self.records.append(event)

    def close(self):
        self.closed = True


class TestNullHub:
    def test_default_hub_is_disabled(self):
        hub = obs.get()
        assert isinstance(hub, NullTelemetry)
        assert hub.enabled is False

    def test_all_operations_are_noops(self):
        hub = NullTelemetry()
        with hub.span("anything", key=1):
            pass
        hub.count("c")
        hub.gauge("g", 3)
        hub.observe("h", 0.1)
        hub.event("e", detail="x")
        hub.timed_event("t", 0.5)
        hub.adopt_trace("abc")
        assert hub.context() is None
        assert hub.snapshot() is None
        hub.absorb(None)

    def test_span_is_a_shared_singleton(self):
        hub = NullTelemetry()
        assert hub.span("a") is hub.span("b")


class TestTelemetryMetrics:
    def test_counters_accumulate(self):
        hub = Telemetry()
        hub.count("requests")
        hub.count("requests", 4)
        assert hub.counters["requests"] == 5

    def test_gauges_keep_the_last_value(self):
        hub = Telemetry()
        hub.gauge("depth", 3)
        hub.gauge("depth", 1)
        assert hub.gauges["depth"] == 1

    def test_observe_builds_a_histogram(self):
        hub = Telemetry()
        hub.observe("latency", 0.002)
        hub.observe("latency", 0.2)
        hist = hub.histograms["latency"]
        assert hist.count == 2
        assert hist.total == pytest.approx(0.202)
        assert hist.mean == pytest.approx(0.101)
        assert hist.minimum == pytest.approx(0.002)
        assert hist.maximum == pytest.approx(0.2)


class TestSpans:
    def test_span_records_event_and_duration(self):
        sink = ListSink()
        hub = Telemetry(trace_id="t1", component="test", sink=sink)
        with hub.span("work", item=7):
            pass
        [event] = sink.records
        assert event["type"] == "span"
        assert event["name"] == "work"
        assert event["trace"] == "t1"
        assert event["component"] == "test"
        assert event["item"] == 7
        assert event["duration"] >= 0
        assert hub.histograms["work"].count == 1

    def test_nested_spans_parent_correctly(self):
        sink = ListSink()
        hub = Telemetry(sink=sink)
        with hub.span("outer") as outer:
            with hub.span("inner") as inner:
                pass
        inner_event, outer_event = sink.records
        assert inner_event["name"] == "inner"
        assert inner_event["parent"] == outer.span_id
        assert outer_event["parent"] is None
        assert inner.span_id != outer.span_id

    def test_cross_process_parent_seeds_the_root_span(self):
        sink = ListSink()
        hub = Telemetry(trace_id="t", parent_span_id="1234.9", sink=sink)
        with hub.span("child"):
            pass
        assert sink.records[0]["parent"] == "1234.9"

    def test_exception_marks_the_span(self):
        sink = ListSink()
        hub = Telemetry(sink=sink)
        with pytest.raises(ValueError):
            with hub.span("failing"):
                raise ValueError("boom")
        assert sink.records[0]["error"] == "ValueError"

    def test_timed_event_is_span_shaped(self):
        sink = ListSink()
        hub = Telemetry(sink=sink)
        hub.timed_event("wait", 0.25, index=3)
        [event] = sink.records
        assert event["type"] == "span"
        assert event["duration"] == 0.25
        assert event["index"] == 3
        assert hub.histograms["wait"].count == 1

    def test_context_carries_the_current_span(self):
        hub = Telemetry(trace_id="tr")
        with hub.span("running") as span:
            context = hub.context()
        assert context.trace_id == "tr"
        assert context.parent_span_id == span.span_id


class TestSnapshotAbsorb:
    def test_absorb_merges_worker_counters(self):
        coordinator = Telemetry(component="coordinator")
        coordinator.count("search.runs", 2)
        worker = Telemetry(component="w1")
        worker.count("search.runs", 3)
        worker.observe("search.seconds", 0.1)
        coordinator.absorb(worker.snapshot())
        assert coordinator.merged_counters()["search.runs"] == 5
        assert coordinator.merged_histograms()["search.seconds"].count == 1

    def test_snapshots_are_cumulative_latest_seq_wins(self):
        coordinator = Telemetry()
        worker = Telemetry(component="w1")
        worker.count("steps", 2)
        first = worker.snapshot()
        worker.count("steps", 3)
        second = worker.snapshot()
        coordinator.absorb(first)
        coordinator.absorb(second)
        assert coordinator.merged_counters()["steps"] == 5
        # Replaying out of order must not regress to the older snapshot.
        coordinator.absorb(first)
        assert coordinator.merged_counters()["steps"] == 5

    def test_absorb_order_independent_across_components(self):
        def merged(order):
            coordinator = Telemetry(component="c")
            for snap in order:
                coordinator.absorb(snap)
            return coordinator.merged_counters()

        w1 = Telemetry(component="w1")
        w1.count("steps", 1)
        w2 = Telemetry(component="w2")
        w2.count("steps", 10)
        a, b = w1.snapshot(), w2.snapshot()
        assert merged([a, b]) == merged([b, a]) == {"steps": 11}

    def test_events_ship_exactly_once(self):
        worker = Telemetry(component="w1")  # sink-less: events buffer
        worker.event("worker.crash", index=4)
        first = worker.snapshot()
        assert [e["name"] for e in first.events] == ["worker.crash"]
        assert worker.snapshot().events == []

        sink = ListSink()
        coordinator = Telemetry(component="coordinator", sink=sink)
        coordinator.absorb(first)
        [event] = sink.records
        assert event["name"] == "worker.crash"
        assert event["component"] == "w1"  # original identity preserved

    def test_pending_events_are_capped_not_unbounded(self):
        from repro.obs import telemetry as telemetry_module

        worker = Telemetry(component="w1")
        for i in range(telemetry_module._MAX_PENDING_EVENTS + 5):
            worker.event("e", i=i)
        snap = worker.snapshot()
        assert len(snap.events) == telemetry_module._MAX_PENDING_EVENTS
        assert snap.dropped_events == 5

    def test_metrics_event_reports_per_worker_counters(self):
        coordinator = Telemetry(component="coordinator")
        worker = Telemetry(component="w1")
        worker.count("search.runs", 4)
        coordinator.absorb(worker.snapshot())
        record = coordinator.metrics_event()
        assert record["type"] == "metrics"
        assert record["counters"]["search.runs"] == 4
        assert record["workers"]["w1"]["search.runs"] == 4


class TestHistogramSerialization:
    def test_round_trip(self):
        hist = Histogram()
        hist.observe(0.0003)
        hist.observe(2.0)
        copy = Histogram.from_dict(hist.to_dict())
        assert copy.counts == hist.counts
        assert copy.total == hist.total
        assert copy.count == hist.count
        assert copy.minimum == hist.minimum
        assert copy.maximum == hist.maximum

    def test_extra_buckets_fold_into_overflow(self):
        payload = Histogram().to_dict()
        payload["counts"] = payload["counts"] + [7]
        hist = Histogram.from_dict(payload)
        assert hist.counts[-1] == 7

    def test_merge(self):
        a, b = Histogram(), Histogram()
        a.observe(0.01)
        b.observe(1.5)
        a.merge(b)
        assert a.count == 2
        assert a.minimum == pytest.approx(0.01)
        assert a.maximum == pytest.approx(1.5)


class TestTraceContext:
    def test_pickle_round_trip(self):
        context = TraceContext(trace_id="abc", parent_span_id="1f.2")
        assert pickle.loads(pickle.dumps(context)) == context

    def test_frozen(self):
        with pytest.raises(Exception):
            TraceContext(trace_id="abc").trace_id = "other"


class TestJsonlSink:
    def test_write_read_round_trip(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        sink = JsonlEventSink(path)
        sink.write({"type": "event", "name": "a", "n": 1})
        sink.write({"type": "event", "name": "b"})
        sink.close()
        events = read_events(path)
        assert [e["name"] for e in events] == ["a", "b"]

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        sink = JsonlEventSink(path)
        sink.write({"name": "intact"})
        sink.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"name": "torn')  # no newline: a killed writer
        assert [e["name"] for e in read_events(path)] == ["intact"]

    def test_mid_file_corruption_raises(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("not json at all\n")
            handle.write('{"name": "later"}\n')
        with pytest.raises(ValueError):
            read_events(path)

    def test_values_are_json_safe_via_default_str(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        sink = JsonlEventSink(path)
        sink.write({"name": "odd", "value": object()})
        sink.close()
        [event] = read_events(path)
        assert isinstance(event["value"], str)


class TestPrometheusRendering:
    def test_counters_gauges_histograms(self):
        hist = Histogram()
        hist.observe(0.0002)
        hist.observe(10.0)
        text = render_metrics({"search.runs": 3}, {"queue.depth": 2},
                              {"search.solve": hist})
        assert "# TYPE repro_search_runs_total counter" in text
        assert "repro_search_runs_total 3" in text
        assert "repro_queue_depth 2" in text
        assert 'repro_search_solve_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_search_solve_seconds_count 2" in text

    def test_bucket_counts_are_cumulative(self):
        hist = Histogram()
        hist.observe(0.0002)
        hist.observe(0.0007)
        text = render_metrics({}, {}, {"s": hist})
        assert 'repro_s_seconds_bucket{le="0.0005"} 1' in text
        assert 'repro_s_seconds_bucket{le="0.001"} 2' in text

    def test_render_broker_omits_none_total(self):
        status = {"pending": 1, "claimed": 0, "results": 0, "total": None,
                  "uptime_seconds": 3.5, "ops": {"claim": 2}}
        text = render_broker(status)
        assert "repro_broker_total" not in text
        assert "repro_broker_pending 1" in text
        assert 'repro_broker_ops_total{op="claim"} 2' in text


class TestConfigureFinalize:
    def test_configure_installs_enabled_hub(self):
        hub = obs.configure(component="test")
        assert obs.get() is hub
        assert hub.enabled

    def test_finalize_writes_metrics_and_disables(self):
        sink = ListSink()
        hub = obs.configure(sink=sink, component="test")
        hub.count("c", 2)
        obs.finalize()
        assert sink.records[-1]["type"] == "metrics"
        assert sink.records[-1]["counters"]["c"] == 2
        assert sink.closed
        assert isinstance(obs.get(), NullTelemetry)

    def test_activate_worker_without_context_disables(self):
        obs.configure(component="coordinator")
        obs.activate_worker(None)
        assert isinstance(obs.get(), NullTelemetry)

    def test_activate_worker_adopts_the_trace(self):
        hub = obs.activate_worker(TraceContext("tr9", "a.1"),
                                  component="w")
        assert hub.trace_id == "tr9"
        assert hub.parent_span_id == "a.1"

    def test_attach_sink_survives_reactivation(self):
        sink = ListSink()
        obs.configure(sink=sink, component="worker-cli")
        obs.activate_worker(TraceContext("tr"))  # hub replaced, sink-less
        obs.attach_sink(sink)
        obs.get().event("after")
        assert [r.get("name") for r in sink.records] == ["after"]


class TestReportFormatting:
    def test_telemetry_report_sections(self):
        sink_events = [
            {"type": "span", "name": "search.solve", "duration": 0.01,
             "component": "w1", "trace": "t", "span": "1.1", "parent": None,
             "ts": 0.0},
            {"type": "span", "name": "search.solve", "duration": 0.03,
             "component": "w1", "trace": "t", "span": "1.2", "parent": None,
             "ts": 0.0},
            {"type": "metrics", "trace": "t", "component": "coordinator",
             "ts": 0.0, "counters": {"search.runs": 2,
                                     "net.ops.renew": 1},
             "gauges": {}, "histograms": {},
             "workers": {"w1": {"search.runs": 2, "executor.steps": 10}},
             "dropped_events": 0},
        ]
        text = format_telemetry_report(sink_events)
        assert "search.solve" in text
        assert "search.runs" in text
        assert "w1" in text

    def test_broker_status_frame(self):
        status = {"pending": 2, "claimed": 1, "results": 3, "total": 6,
                  "manifest": True, "uptime_seconds": 12.0,
                  "ops": {"claim": 4, "complete": 3},
                  "leases": [{"index": 0, "expires_in": 42.0}]}
        frame = format_broker_status(status)
        assert "3/6" in frame
        assert "task     0" in frame

    def test_broker_status_without_manifest(self):
        frame = format_broker_status({"pending": 0, "claimed": 0,
                                      "results": 0, "total": None,
                                      "manifest": False,
                                      "uptime_seconds": 0.0, "ops": {},
                                      "leases": []})
        assert "no manifest" in frame
        assert "0/?" in frame
