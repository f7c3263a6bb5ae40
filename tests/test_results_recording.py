"""Streaming ingestion, resume from the store, the store-backed campaign
result and `repro report`.

The acceptance property behind the streaming mode — "coordinator memory
stays flat as the sweep grows" — is asserted here *directly* with
tracemalloc over fabricated fat results: retained sweeps peak linearly in
the sweep size, streamed sweeps peak at a handful of in-flight results
plus one store batch, no matter how many injections pass through.
"""

import gc
import tracemalloc

import pytest

from repro.constraints import Location
from repro.core import (ExecutionStrategy, SerialExecutionStrategy,
                        SymbolicCampaign, any_outcome, output_contains_err)
from repro.core.campaign import InjectionResult
from repro.detectors import DetectorSet
from repro.errors import Injection
from repro.faults import BurstFault
from repro.machine import ExecutionConfig
from repro.programs import factorial_campaign, factorial_workload
from repro.results import (OutcomeAggregates, RecordingStrategy,
                           SqliteResultStore, StoredCampaignResult,
                           StoredResultsView, format_report)
from repro.results import store as store_module


@pytest.fixture()
def campaign():
    workload = factorial_workload()
    return SymbolicCampaign(
        workload.program, input_values=workload.default_input,
        memory=workload.data_segment, detectors=workload.detectors,
        execution_config=ExecutionConfig(
            max_steps=workload.recommended_max_steps),
        max_states_per_injection=20_000), workload.golden_output()


def without_elapsed(text):
    return [line for line in text.splitlines() if "elapsed seconds" not in line]


class TestStreamingEquivalence:
    def test_stored_result_is_byte_identical_to_in_memory(self, campaign):
        campaign, golden = campaign
        query = output_contains_err()
        plain = campaign.run(query)
        store = SqliteResultStore(":memory:")
        recording = RecordingStrategy(SerialExecutionStrategy(), store,
                                      golden_output=golden)
        stored = campaign.run(query, strategy=recording)
        assert isinstance(stored, StoredCampaignResult)
        assert isinstance(stored.results, StoredResultsView)
        assert without_elapsed(stored.describe()) \
            == without_elapsed(plain.describe())
        assert [r.injection.label() for r in stored.results] \
            == [r.injection.label() for r in plain.results]
        assert stored.results[0].injection.label() \
            == plain.results[0].injection.label()
        assert stored.results[-1].injection.label() \
            == plain.results[-1].injection.label()
        assert stored.all_completed == plain.all_completed

    def test_store_aggregates_equal_in_memory_aggregates(self, campaign):
        """`repro report` reads these aggregates; they must equal a full
        in-memory fold of the same sweep."""
        campaign, golden = campaign
        query = output_contains_err()
        plain = campaign.run(query)
        store = SqliteResultStore(":memory:")
        recording = RecordingStrategy(SerialExecutionStrategy(), store,
                                      golden_output=golden)
        campaign.run(query, strategy=recording)
        direct = OutcomeAggregates.from_campaign_result(plain, golden)
        assert recording.aggregates.as_dict() == direct.as_dict()
        assert store.aggregates(recording.campaign_id).as_dict() \
            == direct.as_dict()

    def test_streaming_returns_no_retained_results(self, campaign):
        campaign, golden = campaign
        query = output_contains_err()
        injections = campaign.plan_injections()
        store = SqliteResultStore(":memory:")
        recording = RecordingStrategy(SerialExecutionStrategy(), store,
                                      golden_output=golden)
        returned = recording.run(campaign, injections, query)
        assert returned == []  # nothing retained by the coordinator
        result = recording.make_campaign_result(query, returned)
        assert isinstance(result, StoredCampaignResult)
        assert len(result.results) == len(injections)
        record = store.campaign(recording.campaign_id)
        assert record.finished and record.elapsed_seconds is not None

    def test_previously_installed_sink_still_sees_every_result(self, campaign):
        campaign, golden = campaign
        query = output_contains_err()
        injections = campaign.plan_injections()
        inner = SerialExecutionStrategy()
        seen = []
        inner.result_sink = lambda injection, result: seen.append(injection)
        recording = RecordingStrategy(inner, SqliteResultStore(":memory:"),
                                      golden_output=golden)
        recording.run(campaign, injections, query)
        assert [i.label() for i in seen] == [i.label() for i in injections]
        assert inner.result_sink is not None  # restored, not clobbered


def result_keys(results):
    """The order-sensitive, timing-free projection used for equivalence."""
    return [(r.injection.label(), r.activated, r.completed,
             [s.state.output_values() for s in r.solutions],
             [s.state.status.value for s in r.solutions])
            for r in results]


class Killed(RuntimeError):
    pass


class DyingStrategy(SerialExecutionStrategy):
    """Dies after *limit* results, like a mid-sweep SIGKILL would;
    *after_result* runs after each emitted result."""

    def __init__(self, limit, after_result=None):
        super().__init__()
        self.limit = limit
        self.after_result = after_result

    def run(self, campaign, injections, query, progress=None):
        for done, injection in enumerate(injections):
            if done == self.limit:
                raise Killed
            self.emit_result(injection,
                             campaign.run_injection(injection, query))
            if self.after_result is not None:
                self.after_result(done + 1)
        return []


class CountingStrategy(SerialExecutionStrategy):
    """A serial strategy that records the labels it actually runs."""

    def __init__(self):
        super().__init__()
        self.executed = []

    def run(self, campaign, injections, query, progress=None):
        self.executed += [injection.label() for injection in injections]
        return super().run(campaign, injections, query, progress)


def refused_pair(change):
    """A recorded campaign and a resumed one that differs by *change*."""
    model = "burst" if change == "burst-k" else "register"
    recorded, query = factorial_campaign(fault_model=model)
    resumed, resumed_query = factorial_campaign(fault_model=model)
    if change == "query":
        resumed_query = any_outcome()
    elif change == "detectors":
        resumed.detectors = DetectorSet.parse("det(1, $(2), >=, (0))")
    elif change == "search-caps":
        resumed.max_states_per_injection = 123
    else:
        resumed, _ = factorial_campaign(fault_model=BurstFault(k=3))
    return recorded, query, resumed, resumed_query


class TestResume:
    SWEEP = 8

    def sweep(self, campaign):
        campaign, golden = campaign
        return (campaign, golden, campaign.plan_injections()[:self.SWEEP],
                output_contains_err())

    def record(self, store, campaign, injections, query, golden,
               inner=None, resume=False):
        recording = RecordingStrategy(inner or SerialExecutionStrategy(),
                                      store, golden_output=golden,
                                      resume=resume)
        result = campaign.run(query, injections=injections,
                              strategy=recording)
        return result, recording

    def assert_uninterrupted(self, result, campaign, injections, query):
        plain = campaign.run(query, injections=injections)
        assert without_elapsed(result.describe()) \
            == without_elapsed(plain.describe())
        assert result_keys(result.results) == result_keys(plain.results)

    def test_fresh_run_stores_every_result(self, campaign):
        campaign, golden, injections, query = self.sweep(campaign)
        store = SqliteResultStore(":memory:")
        result, recording = self.record(store, campaign, injections, query,
                                        golden)
        assert recording.resumed == 0
        assert [r.injection.label() for r in
                store.iter_results(recording.campaign_id)] \
            == [injection.label() for injection in injections]
        self.assert_uninterrupted(result, campaign, injections, query)

    def test_resume_skips_stored_and_runs_the_rest_in_order(self, campaign):
        campaign, golden, injections, query = self.sweep(campaign)
        store = SqliteResultStore(":memory:")
        # A partial sweep, as if the campaign was killed after 3 results.
        _, first = self.record(store, campaign, injections[:3], query,
                               golden)
        counting = CountingStrategy()
        result, resumed = self.record(store, campaign, injections, query,
                                      golden, inner=counting, resume=True)
        assert resumed.resumed == 3
        assert resumed.campaign_id == first.campaign_id
        assert counting.executed == [i.label() for i in injections[3:]]
        assert len(store.campaigns()) == 1
        self.assert_uninterrupted(result, campaign, injections, query)

    def test_death_after_three_results_then_resume_is_identical(
            self, campaign, tmp_path):
        campaign, golden, injections, query = self.sweep(campaign)
        path = str(tmp_path / "results.sqlite")
        with pytest.raises(Killed):
            self.record(SqliteResultStore(path, batch_size=1), campaign,
                        injections, query, golden,
                        inner=DyingStrategy(limit=3))
        store = SqliteResultStore(path)
        assert store.count(1) == 3
        counting = CountingStrategy()
        result, resumed = self.record(store, campaign, injections, query,
                                      golden, inner=counting, resume=True)
        assert resumed.resumed == 3
        assert counting.executed == [i.label() for i in injections[3:]]
        self.assert_uninterrupted(result, campaign, injections, query)

    def test_death_after_a_timed_flush_reruns_only_the_unflushed(
            self, campaign, tmp_path, store_clock):
        """Results 1-4 reach the store through the timed flush (the clock
        jumps a flush interval after result 3); results 5 and 6 are still
        buffered when the coordinator dies, so resume re-runs exactly
        them and the two never started."""
        campaign, golden, injections, query = self.sweep(campaign)
        def after_result(done):
            if done == 3:
                store_clock.now += store_module.FLUSH_INTERVAL_SECONDS

        path = str(tmp_path / "results.sqlite")
        with pytest.raises(Killed):
            self.record(SqliteResultStore(path), campaign, injections, query,
                        golden, inner=DyingStrategy(6, after_result))
        store = SqliteResultStore(path)
        assert store.count(1) == 4
        counting = CountingStrategy()
        result, resumed = self.record(store, campaign, injections, query,
                                      golden, inner=counting, resume=True)
        assert resumed.resumed == 4
        assert counting.executed == [i.label() for i in injections[4:]]
        assert len(counting.executed) == self.SWEEP - 4
        self.assert_uninterrupted(result, campaign, injections, query)

    def test_resuming_a_finished_campaign_reruns_nothing(self, campaign):
        campaign, golden, injections, query = self.sweep(campaign)
        store = SqliteResultStore(":memory:")
        self.record(store, campaign, injections, query, golden)
        counting = CountingStrategy()
        result, resumed = self.record(store, campaign, injections, query,
                                      golden, inner=counting, resume=True)
        assert counting.executed == []
        assert resumed.resumed == self.SWEEP
        assert store.campaign(resumed.campaign_id).finished
        self.assert_uninterrupted(result, campaign, injections, query)

    def test_resume_reruns_positions_that_hold_other_injections(
            self, campaign):
        """Only a stored row with the same injection at the same position
        is kept; rows past the end of a shorter sweep are dropped."""
        campaign, golden, injections, query = self.sweep(campaign)
        store = SqliteResultStore(":memory:")
        self.record(store, campaign, injections[:4], query, golden)
        sweep = injections[:2] + [injections[5]]
        counting = CountingStrategy()
        result, resumed = self.record(store, campaign, sweep, query, golden,
                                      inner=counting, resume=True)
        assert resumed.resumed == 2
        assert counting.executed == [injections[5].label()]
        self.assert_uninterrupted(result, campaign, sweep, query)

    @pytest.mark.parametrize("fresh", ["missing", "empty"])
    def test_a_missing_or_empty_store_starts_fresh(self, campaign, tmp_path,
                                                   fresh):
        campaign, golden, injections, query = self.sweep(campaign)
        path = str(tmp_path / "results.sqlite")
        if fresh == "empty":
            SqliteResultStore(path).close()
        counting = CountingStrategy()
        result, resumed = self.record(SqliteResultStore(path), campaign,
                                      injections, query, golden,
                                      inner=counting, resume=True)
        assert resumed.resumed == 0
        assert counting.executed == [i.label() for i in injections]
        self.assert_uninterrupted(result, campaign, injections, query)

    def test_resume_continues_the_newest_matching_campaign(self, campaign):
        campaign, golden, injections, query = self.sweep(campaign)
        store = SqliteResultStore(":memory:")
        self.record(store, campaign, injections, query, golden)
        _, newest = self.record(store, campaign, injections[:2], query,
                                golden)
        _, resumed = self.record(store, campaign, injections, query, golden,
                                 resume=True)
        assert resumed.campaign_id == newest.campaign_id == 2
        assert resumed.resumed == 2

    def test_a_fresh_run_begins_a_new_campaign(self, campaign):
        campaign, golden, injections, query = self.sweep(campaign)
        store = SqliteResultStore(":memory:")
        self.record(store, campaign, injections, query, golden)
        _, fresh = self.record(store, campaign, injections[:2], query,
                               golden)
        assert fresh.resumed == 0
        assert [store.count(record.campaign_id)
                for record in store.campaigns()] == [self.SWEEP, 2]

    @pytest.mark.parametrize("change", ["query", "detectors", "search-caps",
                                        "burst-k"])
    def test_resume_refuses_a_different_campaign(self, change):
        """Everything that changes what a search returns is part of the
        identity: results searched under one configuration must never
        merge with fresh results searched under another."""
        recorded, query, resumed, resumed_query = refused_pair(change)
        store = SqliteResultStore(":memory:")
        self.record(store, recorded, recorded.plan_injections()[:2], query,
                    None)
        with pytest.raises(ValueError, match="different campaign"):
            self.record(store, resumed, resumed.plan_injections()[:2],
                        resumed_query, None, resume=True)
        assert len(store.campaigns()) == 1


class FatResultStrategy(ExecutionStrategy):
    """Emits one fabricated result per injection, each carrying a payload
    of a known size — so coordinator retention shows up in tracemalloc as
    an unmistakable linear term."""

    name = "fat"

    def __init__(self, payload_bytes):
        self.payload_bytes = payload_bytes

    def run(self, campaign, injections, query, progress=None):
        retained = []
        for injection in injections:
            result = InjectionResult(injection=injection, activated=True)
            result.payload = bytes(self.payload_bytes)
            if self.retain_results:
                retained.append(result)
            self.emit_result(injection, result)
        return retained


class TestStreamingMemory:
    PAYLOAD = 128 * 1024
    SWEEP = 64

    def injections(self):
        return [Injection(breakpoint_pc=pc, target=Location.register(1))
                for pc in range(self.SWEEP)]

    def peak_of(self, run):
        gc.collect()
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_streamed_peak_is_flat_retained_peak_is_linear(self, tmp_path,
                                                           campaign):
        campaign, _ = campaign
        query = output_contains_err()

        def retained_run():
            strategy = FatResultStrategy(self.PAYLOAD)
            results = strategy.run(campaign, self.injections(), query)
            assert len(results) == self.SWEEP

        def streamed_run():
            store = SqliteResultStore(str(tmp_path / "stream.sqlite"),
                                      batch_size=4)
            recording = RecordingStrategy(FatResultStrategy(self.PAYLOAD),
                                          store)
            assert recording.run(campaign, self.injections(), query) == []
            assert store.count(recording.campaign_id) == self.SWEEP
            store.close()

        retained_peak = self.peak_of(retained_run)
        streamed_peak = self.peak_of(streamed_run)
        # Retained holds all SWEEP payloads at once; streaming holds the
        # in-flight result, its pickle and at most one store batch.
        assert retained_peak > self.SWEEP * self.PAYLOAD
        assert streamed_peak < retained_peak / 3


class TestReport:
    def test_report_sections_from_a_real_sweep(self, campaign):
        campaign, golden = campaign
        store = SqliteResultStore(":memory:")
        recording = RecordingStrategy(
            SerialExecutionStrategy(), store, golden_output=golden,
            meta={"workload": "factorial", "fault_model": "register"})
        campaign.run(output_contains_err(), strategy=recording)
        report = format_report(store)
        assert "campaign 1" in report
        assert "workload=factorial" in report
        assert "outcome distribution (all campaigns):" in report
        assert "per-fault-model coverage:" in report
        assert "latent-error rates:" in report
        single = format_report(store, campaign_id=recording.campaign_id)
        assert "injections run" in single
        assert "solution outcome kinds" in single
        with pytest.raises(KeyError):
            format_report(store, campaign_id=999)
