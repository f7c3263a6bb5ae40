"""Tests for the distributed campaign backend (repro.distributed)."""

import contextlib
import dataclasses
import os
import signal
import sqlite3
import subprocess
import sys
import tempfile
import time

import pytest

from repro import obs
from repro.core import (SearchTask, SerialExecutionStrategy,
                        SymbolicCampaign, TaskCaps, run_task)
from repro.distributed import (DistributedConfig,
                               DistributedExecutionStrategy, WorkerConfig,
                               run_campaign_distributed, run_worker)
from repro.distributed.worker import initialize_worker, run_work_unit
from repro.machine import ExecutionConfig
from repro.net import (BrokerConnectionError, CampaignManifest, SocketBroker,
                       enqueue_campaign)
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


class TestWorkerLoop:
    def test_worker_drains_queue_to_serial_equivalent_results(self, server):
        campaign, injections, query_spec = factorial_fixture()
        queue_dir = server.url
        broker = SocketBroker(queue_dir)
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
    def test_surviving_worker_picks_up_a_new_campaign(self, server):
        """A worker that outlives its campaign (killed coordinator) must
        rebuild its context when a new campaign takes over the queue,
        instead of executing the new tasks under the stale manifest."""
        import threading

        campaign, injections, query_spec = factorial_fixture(max_injections=6)
        queue_dir = server.url
        broker = SocketBroker(queue_dir)
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

        # Campaign B takes over the same queue.
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
        with pytest.raises(ValueError, match="poll_interval"):
            DistributedConfig(poll_interval=0)
        with pytest.raises(ValueError, match="poll_interval"):
            DistributedConfig(poll_interval=-0.5)
        with pytest.raises(ValueError, match="wall_clock_timeout"):
            DistributedConfig(wall_clock_timeout=0)
        with pytest.raises(ValueError, match="wall_clock_timeout"):
            DistributedConfig(wall_clock_timeout=-1.0)
        DistributedConfig(wall_clock_timeout=None)  # no bound is fine

    def test_coordinator_fails_before_spawning_workers(self, monkeypatch):
        """The coordinator's own set-up (its idle backoff) must fail before
        any worker process exists: a failure after the spawn but outside
        the supervised block used to leave workers running unsupervised."""
        import repro.distributed.strategy as strategy_module
        spawned = []
        monkeypatch.setattr(strategy_module._LocalWorkerPool, "_spawn_one",
                            lambda pool: spawned.append(pool))

        def broken_backoff(*args, **kwargs):
            raise ValueError("backoff set-up failed")

        monkeypatch.setattr(strategy_module, "Backoff", broken_backoff)
        campaign, injections, query_spec = factorial_fixture(max_injections=2)
        with pytest.raises(ValueError, match="backoff set-up failed"):
            run_campaign_distributed(
                campaign, query_spec, injections=injections,
                config=DistributedConfig(workers=2, poll_interval=0.01))
        assert spawned == []

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

    def test_reusing_a_queue_does_not_leak_stale_results(self, server):
        """Back-to-back campaigns over the same --queue must each get
        their own results (regression: stale results used to be merged
        into the next campaign's CampaignResult)."""
        queue_dir = server.url
        campaign, injections, query_spec = factorial_fixture(max_injections=6)
        config = DistributedConfig(workers=1, chunk_size=2, queue_dir=queue_dir,
                                   poll_interval=0.01,
                                   wall_clock_timeout=300.0)
        first = run_campaign_distributed(campaign, query_spec,
                                         injections=injections, config=config)
        # Second campaign: different sweep over the same queue.
        second = run_campaign_distributed(campaign, query_spec,
                                          injections=injections[2:],
                                          config=config)
        serial = campaign.run(query_spec.build(), injections=injections[2:])
        assert result_keys(second.results) == result_keys(serial.results)
        assert first.injections_run == 6 and second.injections_run == 4

    def test_external_worker_attaches_to_explicit_queue(self, server):
        campaign, injections, query_spec = factorial_fixture(max_injections=4)
        queue_dir = server.url
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


class TestPrivateBroker:
    """``--workers N`` without a queue runs on a private ``BrokerServer``
    that the coordinator owns for exactly one run, with worker logs in a
    temporary directory that goes away with it."""

    @pytest.fixture
    def recorded(self, monkeypatch):
        """Every private server and worker pool a run creates."""
        import repro.distributed.strategy as strategy_module
        seen = {"servers": [], "pools": []}
        real_private_server = strategy_module.private_server

        @contextlib.contextmanager
        def recording_server(*args, **kwargs):
            with real_private_server(*args, **kwargs) as server:
                seen["servers"].append(server)
                yield server

        class RecordingPool(strategy_module._LocalWorkerPool):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                seen["pools"].append(self)

        monkeypatch.setattr(strategy_module, "private_server",
                            recording_server)
        monkeypatch.setattr(strategy_module, "_LocalWorkerPool", RecordingPool)
        return seen

    @staticmethod
    def run_small(config, max_injections=2):
        campaign, injections, query_spec = factorial_fixture(
            max_injections=max_injections)
        return run_campaign_distributed(campaign, query_spec,
                                        injections=injections, config=config)

    @staticmethod
    def assert_stopped(server):
        with pytest.raises(BrokerConnectionError):
            SocketBroker(server.url, connect_retries=0).telemetry()
        assert not os.path.exists(os.path.dirname(server.address))

    def test_private_broker_is_stopped_after_the_run(self, recorded):
        result = self.run_small(DistributedConfig(
            workers=1, poll_interval=0.01, wall_clock_timeout=300.0))
        assert result.injections_run == 2
        [server] = recorded["servers"]
        assert server.url.startswith("unix://")
        self.assert_stopped(server)

    def test_private_broker_takes_the_configured_lease(self, recorded):
        self.run_small(DistributedConfig(
            workers=1, lease_seconds=7.5, poll_interval=0.01,
            wall_clock_timeout=300.0))
        [server] = recorded["servers"]
        assert server.state.default_lease == 7.5

    def test_explicit_queue_starts_no_private_broker(self, recorded, server):
        result = self.run_small(DistributedConfig(
            workers=1, queue_dir=server.url, poll_interval=0.01,
            wall_clock_timeout=300.0))
        assert result.injections_run == 2
        assert recorded["servers"] == []
        [pool] = recorded["pools"]
        assert pool.queue == server.url

    def test_worker_logs_are_removed_after_the_run(self, recorded):
        self.run_small(DistributedConfig(
            workers=2, chunk_size=1, poll_interval=0.01,
            wall_clock_timeout=300.0))
        [pool] = recorded["pools"]
        assert pool.queue == recorded["servers"][0].url
        assert not os.path.exists(pool.log_dir)

    def test_worker_logs_live_in_the_private_broker_directory(
            self, recorded, monkeypatch, tmp_path):
        """A SIGKILLed coordinator leaves one directory behind, not two: a
        ``--workers 2`` run makes no ``repro-worker-logs-*`` directory in
        the temporary directory, only the broker's, with the logs in it."""
        import repro.distributed.strategy as strategy_module
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        listings = []
        real_spawn = strategy_module._LocalWorkerPool.spawn

        def listing_spawn(pool, count):
            listings.append(sorted(os.listdir(tmp_path)))
            real_spawn(pool, count)

        monkeypatch.setattr(strategy_module._LocalWorkerPool, "spawn",
                            listing_spawn)
        self.run_small(DistributedConfig(
            workers=2, chunk_size=1, poll_interval=0.01,
            wall_clock_timeout=300.0))
        [server] = recorded["servers"]
        [pool] = recorded["pools"]
        broker_dir = os.path.dirname(server.address)
        assert listings == [[os.path.basename(broker_dir)]]
        assert os.path.dirname(pool.log_dir) == broker_dir
        assert os.listdir(tmp_path) == []

    def test_abandoned_run_stops_its_workers_and_broker(self, recorded):
        """A caller that stops consuming results mid-campaign still gets
        its workers reaped, its logs removed and its broker stopped."""
        campaign, injections, query_spec = factorial_fixture(max_injections=4)
        strategy = DistributedExecutionStrategy(
            query_spec, DistributedConfig(workers=1, chunk_size=1,
                                          poll_interval=0.01,
                                          wall_clock_timeout=300.0))
        tasks = [SearchTask(identifier=index, injections=(injection,))
                 for index, injection in enumerate(injections)]
        outcomes = strategy.run_tasks(campaign, tasks, query_spec.build())
        next(outcomes)
        outcomes.close()
        [server] = recorded["servers"]
        [pool] = recorded["pools"]
        assert pool.alive_count() == 0
        assert not os.path.exists(pool.log_dir)
        self.assert_stopped(server)


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
