"""Tests for the distributed campaign backend (repro.distributed)."""

import dataclasses
import os
import signal
import sqlite3
import subprocess
import sys
import time

import pytest

from repro import obs
from repro.core import (SearchTask, SerialExecutionStrategy,
                        SymbolicCampaign, TaskCaps, run_task)
from repro.distributed import (CampaignManifest, DistributedConfig,
                               DistributedExecutionStrategy, FilesystemBroker,
                               WorkerConfig, run_campaign_distributed,
                               run_worker)
from repro.distributed.broker import enqueue_campaign
from repro.distributed.worker import initialize_worker, run_work_unit
from repro.machine import ExecutionConfig
from repro.obs import NullTelemetry, TraceContext
from repro.parallel import CampaignSpec, QuerySpec
from repro.programs import factorial_workload

WORKERS = 2


def make_campaign(workload, **kwargs):
    defaults = dict(max_solutions_per_injection=10,
                    max_states_per_injection=10_000)
    defaults.update(kwargs)
    return SymbolicCampaign(
        workload.program,
        input_values=workload.default_input,
        memory=workload.data_segment,
        detectors=workload.detectors,
        execution_config=ExecutionConfig(max_steps=workload.recommended_max_steps),
        **defaults)


def result_keys(results):
    """The order-sensitive, timing-free projection used for equivalence."""
    return [(r.injection.label(), r.activated, r.completed,
             [s.state.output_values() for s in r.solutions],
             [s.state.status.value for s in r.solutions])
            for r in results]


def factorial_fixture(max_injections=8):
    workload = factorial_workload()
    campaign = make_campaign(workload)
    injections = campaign.enumerate_injections()[:max_injections]
    query_spec = QuerySpec.predefined("err-output",
                                      golden_output=workload.golden_output())
    return campaign, injections, query_spec


class TestFilesystemBroker:
    def make_broker(self, tmp_path, lease_seconds=60.0):
        return FilesystemBroker(str(tmp_path / "queue"),
                                lease_seconds=lease_seconds)

    def test_rejects_bad_lease(self, tmp_path):
        with pytest.raises(ValueError, match="lease_seconds"):
            self.make_broker(tmp_path, lease_seconds=0)

    def test_claim_is_exclusive_and_ordered(self, tmp_path):
        broker = self.make_broker(tmp_path)
        broker.put_task(1, "payload-1")
        broker.put_task(0, "payload-0")
        first = broker.claim_next()
        second = broker.claim_next()
        assert (first.index, first.payload) == (0, "payload-0")
        assert (second.index, second.payload) == (1, "payload-1")
        assert broker.claim_next() is None
        assert broker.pending_count() == 0
        assert broker.claimed_count() == 2

    def test_complete_publishes_result_and_releases_claim(self, tmp_path):
        broker = self.make_broker(tmp_path)
        broker.put_task(0, "work")
        claim = broker.claim_next()
        broker.complete(claim, {"answer": 42})
        assert broker.claimed_count() == 0
        assert broker.fetch_new_results(seen=set()) == [(0, {"answer": 42})]
        assert broker.fetch_new_results(seen={0}) == []

    def test_expired_lease_is_requeued_and_reclaimable(self, tmp_path):
        broker = self.make_broker(tmp_path, lease_seconds=0.05)
        broker.put_task(0, "work")
        claim = broker.claim_next()
        assert broker.requeue_expired() == []  # lease still fresh
        time.sleep(0.1)
        assert broker.requeue_expired() == [0]
        reclaimed = broker.claim_next()
        assert reclaimed.index == 0
        # Completing through the *stale* claim is still safe (same payload).
        broker.complete(claim, "result")
        broker.complete(reclaimed, "result")
        assert broker.results_count() == 1

    def test_renew_lease_prevents_requeue(self, tmp_path):
        broker = self.make_broker(tmp_path, lease_seconds=0.2)
        broker.put_task(0, "work")
        claim = broker.claim_next()
        for _ in range(3):
            time.sleep(0.1)
            broker.renew_lease(claim)
        assert broker.requeue_expired() == []

    def test_claim_skips_tasks_that_already_have_results(self, tmp_path):
        broker = self.make_broker(tmp_path)
        broker.put_task(0, "work")
        claim = broker.claim_next()
        broker.complete(claim, "result")
        broker.put_task(0, "work")  # requeue race leftover
        assert broker.claim_next() is None
        assert broker.pending_count() == 0  # the stale entry was dropped

    def test_queue_close_and_drain_accounting(self, tmp_path):
        broker = self.make_broker(tmp_path)
        assert broker.total_tasks() is None
        broker.put_task(0, "a")
        broker.close_queue(1)
        assert broker.total_tasks() == 1
        assert not broker.is_drained()
        claim = broker.claim_next()
        broker.complete(claim, "r")
        assert broker.is_drained()

    def test_manifest_wait_times_out(self, tmp_path):
        broker = self.make_broker(tmp_path)
        with pytest.raises(TimeoutError):
            broker.load_manifest(timeout=0.1, poll_interval=0.02)

    def test_lease_clock_starts_at_claim_not_enqueue(self, tmp_path):
        """A task that queued longer than the lease must not be considered
        expired the instant it is claimed (the rename preserves mtime)."""
        broker = self.make_broker(tmp_path, lease_seconds=0.05)
        broker.put_task(0, "work")
        time.sleep(0.1)  # the task outlives the lease while still pending
        claim = broker.claim_next()
        assert claim is not None
        assert broker.requeue_expired() == []  # lease is fresh, not stale

    def test_claim_ignores_results_the_validator_rejects(self, tmp_path):
        """A stale result from a previous campaign must not swallow a live
        task when a validator (the worker's campaign-id check) rejects it."""
        broker = self.make_broker(tmp_path)
        broker.put_task(0, "work")
        claim = broker.claim_next()
        broker.complete(claim, ("old-campaign", 0, [], None))
        broker.put_task(0, "work")  # the new campaign's task, same index
        assert broker.claim_next(
            result_valid=lambda payload: payload[0] == "new-campaign"
        ) is not None
        broker.reset()
        assert broker.pending_count() == broker.results_count() == 0

    def test_reset_purges_a_previous_campaign(self, tmp_path):
        broker = self.make_broker(tmp_path)
        broker.put_task(0, "stale-task")
        claim = broker.claim_next()
        broker.put_task(1, "stale-pending")
        broker.complete(claim, "stale-result")
        broker.close_queue(2)
        broker.reset()
        assert broker.pending_count() == 0
        assert broker.claimed_count() == 0
        assert broker.results_count() == 0
        assert broker.total_tasks() is None


class TestWorkerLoop:
    def test_worker_drains_queue_to_serial_equivalent_results(self, tmp_path):
        campaign, injections, query_spec = factorial_fixture()
        queue_dir = str(tmp_path / "queue")
        broker = FilesystemBroker(queue_dir)
        chunks = [tuple(injections[i:i + 2])
                  for i in range(0, len(injections), 2)]
        enqueue_campaign(
            broker,
            CampaignManifest(
                campaign_spec=CampaignSpec.from_campaign(campaign),
                query_spec=query_spec),
            # A task payload is (injections, caps); a sweep chunk is uncapped.
            [(index, (chunk, None)) for index, chunk in enumerate(chunks)])
        executed = run_worker(WorkerConfig(queue_dir=queue_dir,
                                           poll_interval=0.01,
                                           max_idle_seconds=5.0))
        assert executed == len(chunks)
        assert broker.is_drained()
        payloads = dict(broker.fetch_new_results(seen=set()))
        # Result payloads are (campaign_id, index, (results, elapsed,
        # completed), cache snapshot).
        distributed = [result for index in sorted(payloads)
                       for result in payloads[index][2][0]]
        serial = SerialExecutionStrategy().run(campaign, injections,
                                               query_spec.build())
        assert result_keys(distributed) == result_keys(serial)
        # Every snapshot is keyed by the one name this worker process has.
        assert {payload[3][0] for payload in payloads.values()} \
            == {f"repro-worker-{os.getpid()}"}


class TestWorkUnit:
    @pytest.fixture(autouse=True)
    def restore_hub(self):
        yield
        obs.set_hub(NullTelemetry())

    def test_work_unit_ships_back_results_not_injections(self):
        """A worker replies with the task outcome — the result list plus two
        scalars — and never echoes the task it was sent."""
        campaign, injections, query_spec = factorial_fixture(max_injections=3)
        chunk = tuple(injections)
        initialize_worker(CampaignSpec.from_campaign(campaign), query_spec,
                          "w-unit")
        index, outcome, _snapshot = run_work_unit(
            (7, chunk, TaskCaps(max_errors=1)))
        assert index == 7
        results, elapsed, completed = outcome
        assert isinstance(elapsed, float) and isinstance(completed, bool)
        assert [r.injection for r in results] == list(chunk[:len(results)])
        assert not any(isinstance(part, SearchTask) for part in outcome)
        serial, _, serial_completed = run_task(
            campaign, chunk, query_spec.build(), caps=TaskCaps(max_errors=1))
        assert result_keys(results) == result_keys(serial)
        assert completed == serial_completed

    def test_worker_name_keys_cache_snapshot_and_telemetry(self):
        """The name a worker is initialised with is both the key of its
        cache snapshots and the component of its telemetry, so the
        coordinator keeps each worker's counters apart."""
        campaign, injections, query_spec = factorial_fixture(max_injections=2)
        spec = dataclasses.replace(CampaignSpec.from_campaign(campaign),
                                   telemetry=TraceContext(trace_id="tr-w"))
        initialize_worker(spec, query_spec, "w-7")
        _, _, (name, stats, telemetry) = run_work_unit(
            (0, tuple(injections), None))
        assert name == "w-7" and telemetry.component == "w-7"
        assert stats.lookups == len(injections)


class TestWorkerManifestSwitch:
    def test_surviving_worker_picks_up_a_new_campaign(self, tmp_path):
        """A worker that outlives its campaign (killed coordinator) must
        rebuild its context when a new campaign takes over the queue,
        instead of executing the new tasks under the stale manifest."""
        import threading

        campaign, injections, query_spec = factorial_fixture(max_injections=6)
        queue_dir = str(tmp_path / "queue")
        broker = FilesystemBroker(queue_dir)
        spec = CampaignSpec.from_campaign(campaign)
        # Campaign A: published but never closed (its coordinator "died").
        broker.publish_manifest(CampaignManifest(
            campaign_spec=spec, query_spec=query_spec, campaign_id="A"))
        broker.put_task(0, (tuple(injections[:2]), None))

        worker = threading.Thread(
            target=run_worker,
            args=(WorkerConfig(queue_dir=queue_dir, poll_interval=0.01,
                               max_idle_seconds=30.0),),
            daemon=True)
        worker.start()
        deadline = time.monotonic() + 60
        while broker.results_count() < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert broker.results_count() == 1

        # Campaign B takes over the same queue directory.
        broker.reset()
        broker.publish_manifest(CampaignManifest(
            campaign_spec=spec, query_spec=query_spec, campaign_id="B"))
        broker.put_task(0, (tuple(injections[2:4]), None))
        broker.close_queue(1)
        worker.join(timeout=60)
        assert not worker.is_alive()
        [(_, payload)] = broker.fetch_new_results(seen=set())
        campaign_id, _, (results, _, _), _ = payload
        assert campaign_id == "B"
        serial = SerialExecutionStrategy().run(campaign, injections[2:4],
                                               query_spec.build())
        assert result_keys(results) == result_keys(serial)


class TestDistributedStrategy:
    def test_invalid_configs_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="workers"):
            DistributedConfig(workers=-1)
        with pytest.raises(ValueError, match="chunk_size"):
            DistributedConfig(chunk_size=0)
        with pytest.raises(ValueError, match="queue_dir"):
            DistributedConfig(workers=0)  # external mode needs a queue
        with pytest.raises(ValueError, match="lease_seconds"):
            DistributedConfig(lease_seconds=0)

    def test_empty_sweep(self):
        campaign, _, query_spec = factorial_fixture()
        strategy = DistributedExecutionStrategy(query_spec)
        results = strategy.run(campaign, [], query_spec.build())
        assert results == []
        assert strategy.cache_statistics is not None

    def test_mismatched_query_is_rejected(self):
        campaign, injections, query_spec = factorial_fixture()
        strategy = DistributedExecutionStrategy(query_spec)
        other = QuerySpec.predefined("crash").build()
        with pytest.raises(ValueError, match="predicate"):
            strategy.run(campaign, injections, other)

    def test_distributed_matches_serial(self):
        campaign, injections, query_spec = factorial_fixture()
        query = query_spec.build()
        serial = campaign.run(query, injections=injections)
        distributed = run_campaign_distributed(
            campaign, query_spec, injections=injections,
            config=DistributedConfig(workers=WORKERS, chunk_size=2,
                                     poll_interval=0.01,
                                     wall_clock_timeout=300.0))
        assert result_keys(distributed.results) == result_keys(serial.results)
        assert (distributed.injections_run, distributed.total_solutions) \
            == (serial.injections_run, serial.total_solutions)

    def test_snapshot_merge_keeps_the_latest_per_worker(self):
        """Index-ordered result fetches can deliver a worker's newest
        cumulative snapshot before an older one; the merge must keep the
        largest counters, not the last written."""
        from repro.core import CacheStatistics
        from repro.distributed.strategy import note_worker_snapshot
        stats = {}
        newest = CacheStatistics(hits=5, misses=7, stores=7)
        older = CacheStatistics(hits=2, misses=3, stores=3)
        note_worker_snapshot(stats, "w0", newest)  # requeued chunk 0, newest
        note_worker_snapshot(stats, "w0", older)   # higher index, older
        assert stats["w0"] is newest
        note_worker_snapshot(stats, "w1", older)
        assert stats["w1"] is older

    def test_progress_and_cache_statistics_reported(self):
        campaign, injections, query_spec = factorial_fixture(max_injections=6)
        seen = []

        def progress(done, total, last):
            seen.append((done, total))

        strategy = DistributedExecutionStrategy(
            query_spec, DistributedConfig(workers=WORKERS, chunk_size=2,
                                          poll_interval=0.01,
                                          wall_clock_timeout=300.0))
        results = campaign.run(query_spec.build(), injections=injections,
                               progress=progress, strategy=strategy)
        assert results.injections_run == len(injections)
        assert seen and seen[-1][0] == len(injections)
        assert all(total == len(injections) for _, total in seen)
        assert [done for done, _ in seen] == sorted(done for done, _ in seen)
        stats = strategy.cache_statistics
        assert stats is not None and stats.lookups == len(injections)

    def test_reusing_a_queue_directory_does_not_leak_stale_results(
            self, tmp_path):
        """Back-to-back campaigns over the same --queue DIR must each get
        their own results (regression: stale result files used to be merged
        into the next campaign's CampaignResult)."""
        queue_dir = str(tmp_path / "queue")
        campaign, injections, query_spec = factorial_fixture(max_injections=6)
        config = DistributedConfig(workers=1, chunk_size=2, queue_dir=queue_dir,
                                   poll_interval=0.01,
                                   wall_clock_timeout=300.0)
        first = run_campaign_distributed(campaign, query_spec,
                                         injections=injections, config=config)
        # Second campaign: different sweep over the same queue directory.
        second = run_campaign_distributed(campaign, query_spec,
                                          injections=injections[2:],
                                          config=config)
        serial = campaign.run(query_spec.build(), injections=injections[2:])
        assert result_keys(second.results) == result_keys(serial.results)
        assert first.injections_run == 6 and second.injections_run == 4

    def test_external_worker_attaches_to_explicit_queue(self, tmp_path):
        campaign, injections, query_spec = factorial_fixture(max_injections=4)
        queue_dir = str(tmp_path / "queue")
        worker = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", "--queue", queue_dir,
             "--poll-interval", "0.02", "--max-idle", "60",
             "--manifest-timeout", "120"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        try:
            distributed = run_campaign_distributed(
                campaign, query_spec, injections=injections,
                config=DistributedConfig(workers=0, queue_dir=queue_dir,
                                         chunk_size=2, poll_interval=0.02,
                                         wall_clock_timeout=300.0))
            serial = campaign.run(query_spec.build(), injections=injections)
            assert result_keys(distributed.results) \
                == result_keys(serial.results)
            output, _ = worker.communicate(timeout=120)
            assert b"worker drained" in output
            assert worker.returncode == 0
        finally:
            if worker.poll() is None:
                worker.kill()
                worker.wait()


def stored_rows(path):
    """Injection rows a running coordinator has flushed to *path* so far."""
    if not os.path.exists(path):
        return 0
    connection = sqlite3.connect(path, timeout=30)
    try:
        return connection.execute(
            "SELECT COUNT(*) FROM injections").fetchone()[0]
    except sqlite3.OperationalError:  # schema not created yet
        return 0
    finally:
        connection.close()


class TestCliKillAndResume:
    def run_cli(self, *arguments, **popen_kwargs):
        # About two seconds of tcas memory faults: long enough that the
        # store's timed flush lands rows before the sweep ends.
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "analyze", "--workload", "tcas",
             "--fault-model", "memory", "--query", "err-output",
             "--max-steps", "3000", "--max-injections", "600", *arguments],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, **popen_kwargs)

    @staticmethod
    def normalize(output):
        return [line for line in output.decode().splitlines()
                if not line.startswith(("elapsed seconds", "workers",
                                        "backend"))
                and "elapsed seconds" not in line]

    def test_sigkill_mid_campaign_then_resume_matches_clean_run(self, tmp_path):
        store_path = str(tmp_path / "results.sqlite")
        victim = self.run_cli("--results", store_path)
        try:
            # Let it flush at least one result, then kill it hard.
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if victim.poll() is not None:
                    break  # finished before the kill: resume still must work
                if stored_rows(store_path) >= 1:
                    break
                time.sleep(0.02)
            if victim.poll() is None:
                victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=60)
        finally:
            if victim.poll() is None:  # pragma: no cover - cleanup guard
                victim.kill()
                victim.wait()

        assert stored_rows(store_path) >= 1
        resumed = self.run_cli("--results", store_path, "--resume")
        resumed_output, _ = resumed.communicate(timeout=600)
        assert resumed.returncode == 0
        clean = self.run_cli()
        clean_output, _ = clean.communicate(timeout=600)
        assert clean.returncode == 0
        assert self.normalize(resumed_output) == self.normalize(clean_output)
