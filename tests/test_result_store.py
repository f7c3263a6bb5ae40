"""Store-conformance suite: the executable form of the store contract.

One parametrized suite, run against :class:`~repro.results.SqliteResultStore`
on a private ``":memory:"`` database and on a file: batch/flush visibility,
the timed flush, submission ordering, crash-mid-batch durability, re-append
idempotence (also with fewer solutions), pruning to a resumed sweep,
aggregate-vs-full-scan equality and concurrent-writer safety.
"""

import threading

import pytest

from repro.core import SymbolicCampaign, output_contains_err
from repro.machine import ExecutionConfig
from repro.programs import factorial_workload
from repro.results import OutcomeAggregates, SqliteResultStore, classify_result
from repro.results import store as store_module


@pytest.fixture(scope="module")
def swept():
    """One real factorial sweep shared by the whole module: genuine
    injections, activations, solutions and outcome classifications."""
    workload = factorial_workload()
    campaign = SymbolicCampaign(
        workload.program, input_values=workload.default_input,
        memory=workload.data_segment, detectors=workload.detectors,
        execution_config=ExecutionConfig(
            max_steps=workload.recommended_max_steps),
        max_states_per_injection=20_000)
    golden = workload.golden_output()
    result = campaign.run(output_contains_err())
    assert result.total_solutions > 0  # the suite needs real outcomes
    return result, golden


def outcomes_for(swept):
    result, golden = swept
    return [(r, classify_result(r, golden)) for r in result.results]


class MemoryHarness:
    """A private ``":memory:"`` database: one connection, no file."""

    name = "memory"
    durable = False

    def __init__(self, tmp_path):
        self._stores = []

    def make(self, batch_size=256):
        store = SqliteResultStore(":memory:", batch_size=batch_size)
        self._stores.append(store)
        return store

    def reopen(self, store):
        pytest.skip("a :memory: database does not survive its connection")

    def close(self):
        for store in self._stores:
            store.close()


class FileHarness:
    name = "file"
    durable = True

    def __init__(self, tmp_path):
        self.path = str(tmp_path / "warehouse.sqlite")
        self._stores = []

    def make(self, batch_size=256):
        store = SqliteResultStore(self.path, batch_size=batch_size)
        self._stores.append(store)
        return store

    def thread_writer(self, store, batch_size):
        # sqlite connections are thread-bound: each writer thread opens
        # (and must close) its own connection onto the shared file —
        # sqlite itself serialises the concurrent writers.
        return SqliteResultStore(self.path, batch_size=batch_size)

    def release_thread_writer(self, handle):
        handle.close()

    def reopen(self, store):
        # Abandon the handle without close(): the unflushed buffer dies
        # with the "crashed" coordinator, flushed rows survive on disk.
        return self.make()

    def close(self):
        for store in self._stores:
            try:
                store.close()
            except Exception:
                pass


@pytest.fixture(params=["memory", "file"])
def harness(request, tmp_path):
    built = (MemoryHarness if request.param == "memory"
             else FileHarness)(tmp_path)
    try:
        yield built
    finally:
        built.close()


class TestBatching:
    def test_rejects_bad_batch_size(self, harness):
        with pytest.raises(ValueError, match="batch_size"):
            harness.make(batch_size=0)

    def test_unflushed_rows_are_invisible(self, harness, swept):
        store = harness.make(batch_size=10)
        rows = outcomes_for(swept)[:3]
        campaign_id = store.begin_campaign({"workload": "factorial"})
        for seq, (result, outcomes) in enumerate(rows):
            store.append(campaign_id, seq, result, outcomes)
        assert store.count(campaign_id) == 0
        store.flush()
        assert store.count(campaign_id) == 3

    def test_full_batch_autoflushes(self, harness, swept):
        store = harness.make(batch_size=2)
        rows = outcomes_for(swept)[:3]
        campaign_id = store.begin_campaign({})
        for seq, (result, outcomes) in enumerate(rows):
            store.append(campaign_id, seq, result, outcomes)
        # 2 of 3 auto-flushed when the batch filled; the odd row buffers.
        assert store.count(campaign_id) == 2
        store.finish_campaign(campaign_id, elapsed_seconds=1.0)
        assert store.count(campaign_id) == 3

    def test_iteration_is_submission_ordered(self, harness, swept):
        """Results stream back by seq even when appended out of order
        (completion order under the distributed backend is arrival order)."""
        store = harness.make()
        rows = outcomes_for(swept)[:4]
        campaign_id = store.begin_campaign({})
        for seq in (2, 0, 3, 1):
            result, outcomes = rows[seq]
            store.append(campaign_id, seq, result, outcomes)
        store.flush()
        expected = [result.injection.label() for result, _ in rows]
        streamed = [r.injection.label()
                    for r in store.iter_results(campaign_id)]
        assert streamed == expected
        for seq, (result, _) in enumerate(rows):
            assert (store.get(campaign_id, seq).injection.label()
                    == result.injection.label())

    def test_reappend_same_seq_is_idempotent(self, harness, swept):
        """A requeued task's twin re-executes byte-identically; replaying
        its append must not double-count."""
        store = harness.make()
        result, outcomes = outcomes_for(swept)[0]
        campaign_id = store.begin_campaign({})
        store.append(campaign_id, 0, result, outcomes)
        store.append(campaign_id, 0, result, outcomes)
        store.flush()
        assert store.count(campaign_id) == 1
        aggregates = store.aggregates(campaign_id)
        assert aggregates.injections_run == 1
        assert aggregates.total_solutions == len(result.solutions)

    @pytest.mark.parametrize("flush_between", [True, False],
                             ids=["across-flushes", "within-a-batch"])
    def test_reappend_with_fewer_solutions_leaves_no_stale_outcomes(
            self, harness, swept, flush_between):
        """A resumed run re-executes a position whose stored row belongs to
        another injection; the old row's extra outcome rows must go."""
        _, golden = swept
        rows = sorted(outcomes_for(swept),
                      key=lambda row: len(row[0].solutions))
        (few, few_outcomes), (many, many_outcomes) = rows[0], rows[-1]
        assert len(few.solutions) < len(many.solutions)
        store = harness.make()
        campaign_id = store.begin_campaign({})
        store.append(campaign_id, 0, many, many_outcomes)
        if flush_between:
            store.flush()
        store.append(campaign_id, 0, few, few_outcomes)
        store.flush()
        assert_equals_refold(store, campaign_id, golden)
        assert store.get(campaign_id, 0).injection.label() \
            == few.injection.label()

    def test_a_stale_buffer_flushes_after_the_interval(
            self, harness, swept, store_clock):
        """Rows never wait much longer than the flush interval for their
        batch, so a killed coordinator loses about a second of work."""
        half = store_module.FLUSH_INTERVAL_SECONDS / 2
        store = harness.make(batch_size=256)
        rows = outcomes_for(swept)[:4]
        campaign_id = store.begin_campaign({})
        store.append(campaign_id, 0, *rows[0])
        store_clock.now += half
        store.append(campaign_id, 1, *rows[1])
        assert store.count(campaign_id) == 0
        store_clock.now += half
        store.append(campaign_id, 2, *rows[2])
        assert store.count(campaign_id) == 3
        # The interval restarts with the next row buffered after a flush.
        store_clock.now += half
        store.append(campaign_id, 3, *rows[3])
        assert store.count(campaign_id) == 3


def assert_equals_refold(store, campaign_id, golden):
    """Every columnar query equals a re-fold of the stored results."""
    refold = OutcomeAggregates()
    by_point = {}
    for stored in store.iter_results(campaign_id):
        outcomes = classify_result(stored, golden)
        refold.fold(stored, outcomes)
        if stored.activated:
            injection = stored.injection
            point = (injection.breakpoint_pc, repr(injection.target))
            kinds, completed = by_point.get(point, (set(), True))
            by_point[point] = (kinds | {o.kind for o in outcomes},
                               completed and stored.completed)
    assert store.aggregates(campaign_id).as_dict() == refold.as_dict()
    assert store.outcome_distribution(campaign_id) == {
        kind: count for kind, count in refold.outcome_counts.items()
        if count}
    assert {point: (set(kinds), completed) for point, (kinds, completed)
            in store.outcome_kinds_by_point(campaign_id).items()} \
        == by_point


class TestPrune:
    def test_prune_keeps_only_the_rows_of_the_sweep(self, harness, swept):
        """Resume keeps a stored row only where the sweep has the same
        injection at the same position; the rest are deleted."""
        _, golden = swept
        rows = outcomes_for(swept)[:5]
        store = harness.make()
        campaign_id = store.begin_campaign({})
        for seq, (result, outcomes) in enumerate(rows[:4]):
            store.append(campaign_id, seq, result, outcomes)
        labels = [result.injection.label() for result, _ in rows]
        # Position 2 now holds another injection; position 3 is past the
        # end of the shorter sweep; position 4 was never stored.
        sweep = labels[:2] + [labels[4]]
        assert store.prune(campaign_id, sweep) == {0, 1}
        assert store.count(campaign_id) == 2
        assert_equals_refold(store, campaign_id, golden)
        assert store.prune(campaign_id, labels) == {0, 1}


class TestDurability:
    def test_crash_mid_batch_loses_only_the_unflushed_tail(self, harness,
                                                           swept):
        if not harness.durable:
            pytest.skip("durability is a property of persistent backends")
        store = harness.make(batch_size=2)
        rows = outcomes_for(swept)[:5]
        campaign_id = store.begin_campaign({"workload": "factorial"})
        for seq, (result, outcomes) in enumerate(rows):
            store.append(campaign_id, seq, result, outcomes)
        # 4 rows flushed by two full batches; the 5th sits in the buffer
        # when the coordinator "crashes" (the handle is abandoned).
        reopened = harness.reopen(store)
        assert reopened.count(campaign_id) == 4
        record = reopened.campaign(campaign_id)
        assert not record.finished
        assert "(unfinished)" in record.describe()
        # A resumed run re-appends the lost tail and finishes the campaign.
        result, outcomes = rows[4]
        reopened.append(campaign_id, 4, result, outcomes)
        reopened.finish_campaign(campaign_id, elapsed_seconds=2.5)
        assert reopened.count(campaign_id) == 5
        assert reopened.campaign(campaign_id).finished

    def test_campaign_row_is_durable_before_any_flush(self, harness):
        if not harness.durable:
            pytest.skip("durability is a property of persistent backends")
        store = harness.make()
        campaign_id = store.begin_campaign({"workload": "factorial"})
        reopened = harness.reopen(store)
        assert [r.campaign_id for r in reopened.campaigns()] == [campaign_id]


class TestAggregates:
    def fill(self, store, swept, meta=None):
        result, golden = swept
        campaign_id = store.begin_campaign(meta or {})
        for seq, (injection_result, outcomes) in enumerate(outcomes_for(swept)):
            store.append(campaign_id, seq, injection_result, outcomes)
        store.finish_campaign(campaign_id, elapsed_seconds=result.elapsed_seconds)
        return campaign_id

    def test_columnar_aggregates_equal_full_scan_refold(self, harness, swept):
        """The store's SQL/columnar aggregates must equal re-classifying
        every stored result from scratch — the anti-drift invariant."""
        result, golden = swept
        store = harness.make(batch_size=3)
        campaign_id = self.fill(store, swept)
        refold = OutcomeAggregates()
        for stored in store.iter_results(campaign_id):
            refold.fold(stored, classify_result(stored, golden))
        assert store.aggregates(campaign_id).as_dict() == refold.as_dict()

    def test_aggregates_match_the_in_memory_campaign(self, harness, swept):
        result, golden = swept
        store = harness.make()
        campaign_id = self.fill(store, swept)
        direct = OutcomeAggregates.from_campaign_result(result, golden)
        assert store.aggregates(campaign_id).as_dict() == direct.as_dict()
        assert (store.aggregates(campaign_id).describe()
                in result.describe())

    def test_outcome_distribution_counts_classified_solutions(self, harness,
                                                              swept):
        result, golden = swept
        store = harness.make()
        campaign_id = self.fill(store, swept)
        expected = {}
        for _, outcomes in outcomes_for(swept):
            for outcome in outcomes:
                expected[outcome.kind] = expected.get(outcome.kind, 0) + 1
        assert store.outcome_distribution(campaign_id) == expected

    def test_outcome_kinds_by_point_equals_full_scan_refold(self, harness,
                                                            swept):
        """The parity report's per-point join must equal re-folding the
        stored rows by hand: activated rows only, kinds unioned and
        completedness ANDed across rows sharing one (pc, target) point."""
        store = harness.make(batch_size=3)
        campaign_id = self.fill(store, swept)
        refold = {}
        for injection_result, outcomes in outcomes_for(swept):
            if not injection_result.activated:
                continue
            injection = injection_result.injection
            point = (injection.breakpoint_pc, repr(injection.target))
            kinds, completed = refold.get(point, (set(), True))
            refold[point] = (kinds | {o.kind for o in outcomes},
                             completed and injection_result.completed)
        folded = {point: (set(kinds), completed) for point, (kinds, completed)
                  in store.outcome_kinds_by_point(campaign_id).items()}
        assert folded == refold
        assert refold  # the sweep must actually exercise the join

    def test_campaign_metadata_round_trips(self, harness, swept):
        store = harness.make()
        meta = {"workload": "factorial", "query": "err-output",
                "fault_model": "register", "backend": "serial", "workers": 2}
        campaign_id = self.fill(store, swept, meta=meta)
        record = store.campaign(campaign_id)
        assert record.meta == meta
        assert record.finished
        assert record.elapsed_seconds is not None
        assert "workload=factorial" in record.describe()

    def test_missing_lookups_raise(self, harness, swept):
        store = harness.make()
        campaign_id = store.begin_campaign({})
        with pytest.raises(KeyError):
            store.campaign(campaign_id + 999)
        with pytest.raises(IndexError):
            store.get(campaign_id, 0)


class TestConcurrentWriters:
    def test_interleaved_writers_lose_nothing(self, harness, swept):
        """Two coordinators appending to the same warehouse — two
        connections onto one file — must both land every row."""
        if not harness.durable:
            pytest.skip("a :memory: database is private to its connection")
        rows = outcomes_for(swept)
        store = harness.make(batch_size=2)
        campaign_id = store.begin_campaign({})

        def write(seqs):
            handle = harness.thread_writer(store, batch_size=2)
            try:
                for seq in seqs:
                    result, outcomes = rows[seq % len(rows)]
                    handle.append(campaign_id, seq, result, outcomes)
                handle.flush()
            finally:
                harness.release_thread_writer(handle)

        total = 20
        threads = [
            threading.Thread(target=write, args=(range(0, total, 2),)),
            threading.Thread(target=write, args=(range(1, total, 2),)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert store.count(campaign_id) == total
        assert store.aggregates(campaign_id).injections_run == total
        assert len(list(store.iter_results(campaign_id))) == total
