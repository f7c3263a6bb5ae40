"""End-to-end telemetry: cross-process propagation, span parenting, and
result neutrality under every campaign backend.

The load-bearing guarantee is that ``--telemetry`` observes a campaign
without perturbing it: the result projection (labels, activation,
solutions) must be identical with the hub enabled and disabled, in-process
and on broker workers alike.
"""

import pickle
import re

import pytest

from repro import obs
from repro.core import (SerialExecutionStrategy, SymbolicCampaign,
                        TaskRunner, decompose_by_code_section)
from repro.cli import main
from repro.distributed import (DistributedConfig,
                               DistributedExecutionStrategy, WorkerConfig,
                               run_worker)
from repro.machine import ExecutionConfig
from repro.net import CampaignManifest, SocketBroker, enqueue_campaign
from repro.obs import (JsonlEventSink, NullTelemetry, TraceContext,
                       read_events)
from repro.parallel import CampaignSpec, QuerySpec
from repro.programs import factorial_workload
from repro.results import RecordingStrategy, SqliteResultStore

INJECTIONS = 6


@pytest.fixture(autouse=True)
def restore_hub():
    """Every test leaves the process-global hub disabled again."""
    yield
    obs.set_hub(NullTelemetry())


def make_campaign(workload):
    return SymbolicCampaign(
        workload.program,
        input_values=workload.default_input,
        memory=workload.data_segment,
        detectors=workload.detectors,
        execution_config=ExecutionConfig(
            max_steps=workload.recommended_max_steps),
        max_solutions_per_injection=10,
        max_states_per_injection=10_000)


def result_keys(results):
    """The order-sensitive, timing-free projection used for equivalence."""
    return [(r.injection.label(), r.activated, r.completed,
             [s.state.output_values() for s in r.solutions],
             [s.state.status.value for s in r.solutions])
            for r in results]


def run_campaign(strategy=None, telemetry_path=None):
    """One factorial campaign, optionally traced to *telemetry_path*."""
    workload = factorial_workload()
    campaign = make_campaign(workload)
    injections = campaign.enumerate_injections()[:INJECTIONS]
    query = QuerySpec.predefined(
        "err-output", golden_output=workload.golden_output()).build()
    if telemetry_path is not None:
        obs.configure(sink=JsonlEventSink(telemetry_path),
                      component="coordinator")
    try:
        result = campaign.run(query, injections=injections,
                              strategy=strategy)
    finally:
        obs.finalize()
    return result


def spans_of(events, name):
    return [e for e in events if e["type"] == "span" and e["name"] == name]


class TestPropagation:
    def test_campaign_spec_carries_trace_through_pickle(self):
        obs.configure(component="coordinator", trace_id="tr-prop")
        spec = CampaignSpec.from_campaign(
            make_campaign(factorial_workload()))
        revived = pickle.loads(pickle.dumps(spec))
        assert revived.telemetry == TraceContext(trace_id="tr-prop")

    def test_manifest_carries_trace_through_pickle(self):
        obs.configure(component="coordinator", trace_id="tr-manifest")
        manifest = CampaignManifest(
            campaign_spec=CampaignSpec.from_campaign(
                make_campaign(factorial_workload())),
            query_spec=QuerySpec.predefined("err-output", golden_output=()))
        revived = pickle.loads(pickle.dumps(manifest))
        assert revived.campaign_spec.telemetry.trace_id == "tr-manifest"

    def test_disabled_hub_leaves_specs_unannotated(self):
        spec = CampaignSpec.from_campaign(
            make_campaign(factorial_workload()))
        assert spec.telemetry is None


class TestSerialBackend:
    def test_results_unchanged_and_spans_parented(self, tmp_path):
        baseline = run_campaign()
        path = str(tmp_path / "tele.jsonl")
        traced = run_campaign(telemetry_path=path)
        assert result_keys(baseline.results) == result_keys(traced.results)

        events = read_events(path)
        [root] = spans_of(events, "campaign.run")
        solves = spans_of(events, "search.solve")
        assert len(solves) == INJECTIONS
        assert all(s["parent"] == root["span"] for s in solves)
        assert {e["trace"] for e in events} == {root["trace"]}
        [metrics] = [e for e in events if e["type"] == "metrics"]
        assert metrics["counters"]["search.runs"] == INJECTIONS


class TestLocalWorkersBackend:
    """Broker workers spawned on a private broker (``--workers N``)."""

    def strategy(self):
        return DistributedExecutionStrategy(
            QuerySpec.predefined(
                "err-output",
                golden_output=factorial_workload().golden_output()),
            DistributedConfig(workers=2, chunk_size=2))

    def test_results_unchanged_and_worker_spans_absorbed(self, tmp_path):
        baseline = run_campaign(strategy=self.strategy())
        path = str(tmp_path / "tele.jsonl")
        traced = run_campaign(strategy=self.strategy(), telemetry_path=path)
        assert result_keys(baseline.results) == result_keys(traced.results)

        events = read_events(path)
        [root] = spans_of(events, "campaign.run")
        # Every unit's span ships back, the last one of each worker
        # included, and parents under the coordinator's publish span.
        units = spans_of(events, "worker.unit")
        assert len(units) == INJECTIONS // 2
        assert all(u["component"] != "coordinator" for u in units)
        [publish] = spans_of(events, "broker.publish")
        assert publish["parent"] == root["span"]
        assert all(u["parent"] == publish["span"] for u in units)
        unit_ids = {u["span"] for u in units}
        assert all(s["parent"] in unit_ids
                   for s in spans_of(events, "search.solve"))
        assert {e["trace"] for e in events} == {root["trace"]}
        [metrics] = [e for e in events if e["type"] == "metrics"]
        assert metrics["counters"]["search.runs"] == INJECTIONS
        assert metrics["workers"], "per-worker counters must be reported"

    def test_capped_tasks_trace_through_the_campaign_spec(self, tmp_path):
        """Capped tasks carry no trace of their own: broker workers parent
        their spans from the campaign spec, as they do for a sweep."""
        workload = factorial_workload()
        campaign = make_campaign(workload)
        tasks = decompose_by_code_section(
            campaign.enumerate_injections()[:INJECTIONS], num_tasks=3)
        path = str(tmp_path / "tele.jsonl")
        obs.configure(sink=JsonlEventSink(path), component="coordinator",
                      trace_id="tr-tasks")
        try:
            report = TaskRunner(campaign, max_errors_per_task=1).run(
                tasks, self.strategy().query_spec.build(),
                strategy=self.strategy())
        finally:
            obs.finalize()
        events = read_events(path)
        units = spans_of(events, "worker.unit")
        assert len(units) == len(tasks)
        assert all(u["component"] != "coordinator" for u in units)
        unit_ids = {u["span"] for u in units}
        solves = spans_of(events, "search.solve")
        assert len(solves) == sum(len(t.results) for t in report.task_results)
        assert all(s["parent"] in unit_ids for s in solves)
        assert {e["trace"] for e in events} == {"tr-tasks"}


class TestDistributedBackends:
    def strategy(self, queue_dir):
        return DistributedExecutionStrategy(
            QuerySpec.predefined(
                "err-output",
                golden_output=factorial_workload().golden_output()),
            DistributedConfig(workers=2, queue_dir=queue_dir))

    def check(self, tmp_path, queue_a, queue_b):
        baseline = run_campaign(strategy=self.strategy(queue_a))
        path = str(tmp_path / "tele.jsonl")
        traced = run_campaign(strategy=self.strategy(queue_b),
                              telemetry_path=path)
        assert result_keys(baseline.results) == result_keys(traced.results)

        events = read_events(path)
        [root] = spans_of(events, "campaign.run")
        assert spans_of(events, "broker.publish")
        units = spans_of(events, "worker.unit")
        assert units and all(u["component"] != "coordinator" for u in units)
        assert {e["trace"] for e in events} == {root["trace"]}
        [metrics] = [e for e in events if e["type"] == "metrics"]
        assert metrics["counters"]["search.runs"] == INJECTIONS
        assert metrics["counters"].get("net.ops.claim", 0) >= len(units)

    def test_private_queue(self, tmp_path):
        self.check(tmp_path, None, None)

    def test_tcp_queue(self, tmp_path, server):
        self.check(tmp_path, server.url, server.url)

    def test_report_counts_lease_renewals_over_tcp(self, tmp_path, server,
                                                   capsys):
        """Workers renew their claims every third of the lease, and the
        lease-health section of the report must count those renewals."""
        path = str(tmp_path / "tele.jsonl")
        assert main(["analyze", "--workload", "tcas", "--max-steps", "3000",
                     "--query", "err-output", "--max-injections", "8",
                     "--workers", "1", "--queue", server.url,
                     "--lease-seconds", "0.6", "--telemetry", path]) == 0
        capsys.readouterr()
        assert main(["report", "--telemetry", path]) == 0
        renewals = re.search(r"^lease renewals: (\d+)$",
                             capsys.readouterr().out, re.MULTILINE)
        assert renewals is not None and int(renewals.group(1)) > 0


class TestWorkerCrash:
    def test_crash_releases_claim_and_logs_event(self, tmp_path, server,
                                                 capsys):
        workload = factorial_workload()
        queue = server.url
        broker = SocketBroker(queue)
        enqueue_campaign(
            broker,
            CampaignManifest(
                campaign_spec=CampaignSpec.from_campaign(
                    make_campaign(workload)),
                query_spec=QuerySpec.predefined(
                    "err-output", golden_output=workload.golden_output()),
                campaign_id="crash-test"),
            [(0, (("not-an-injection",), None))])

        sink_path = str(tmp_path / "worker.jsonl")
        obs.configure(sink=JsonlEventSink(sink_path), component="w-crash")
        with pytest.raises(Exception):
            run_worker(WorkerConfig(queue_dir=queue, poll_interval=0.01,
                                    max_idle_seconds=5.0))
        obs.finalize()

        # The claim went back to the queue instead of stranding a lease.
        reclaim = SocketBroker(queue).claim_next()
        assert reclaim is not None and reclaim.index == 0

        [crash] = [e for e in read_events(sink_path)
                   if e.get("name") == "worker.crash"]
        assert crash["index"] == 0
        assert crash["released"] is True
        assert crash["error"]
        assert '"event": "worker.crash"' in capsys.readouterr().err


class TestResumeTrace:
    def run_recorded(self, store_path, resume=False):
        workload = factorial_workload()
        campaign = make_campaign(workload)
        injections = campaign.enumerate_injections()[:4]
        query = QuerySpec.predefined(
            "err-output", golden_output=workload.golden_output()).build()
        with SqliteResultStore(store_path) as store:
            strategy = RecordingStrategy(SerialExecutionStrategy(), store,
                                         resume=resume)
            result = campaign.run(query, injections=injections,
                                  strategy=strategy)
            keys = result_keys(result.results)
            meta = store.campaign(strategy.campaign_id).meta
        return keys, strategy, meta

    def test_resume_adopts_the_original_trace(self, tmp_path):
        store_path = str(tmp_path / "results.sqlite")
        hub = obs.configure(component="coordinator")
        first, _, meta = self.run_recorded(store_path)
        original_trace = hub.trace_id
        assert meta["trace"] == original_trace
        obs.set_hub(NullTelemetry())

        resumed_hub = obs.configure(component="coordinator")
        assert resumed_hub.trace_id != original_trace
        second, strategy, _ = self.run_recorded(store_path, resume=True)
        assert resumed_hub.trace_id == original_trace
        assert strategy.resumed == 4
        assert first == second

    def test_disabled_telemetry_stores_no_trace(self, tmp_path):
        _, _, meta = self.run_recorded(str(tmp_path / "results.sqlite"))
        assert "trace" not in meta
        assert "identity" in meta
