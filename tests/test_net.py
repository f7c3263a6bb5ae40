"""Tests for the network campaign fabric (repro.net) and its CLI surface."""

import os
import pickle
import signal
import socket
import stat
import subprocess
import sys
import threading
import time

import pytest

from repro.core import SymbolicCampaign, TaskRunner, decompose_by_chunk
from repro.distributed import (DistributedConfig,
                               DistributedExecutionStrategy, WorkerConfig,
                               run_campaign_distributed, run_worker)
from repro.distributed.backoff import Backoff
from repro.machine import ExecutionConfig
from repro.net import (BrokerConnectionError, CampaignManifest,
                       ProtocolError, SocketBroker, enqueue_campaign,
                       parse_listen_address, parse_queue_url, private_server,
                       recv_message, send_message)
from repro.net.server import sweep_stale_private_dirs
from repro.parallel import CampaignSpec, QuerySpec
from repro.programs import factorial_workload


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


def task_result_keys(task_results):
    return [(tr.task.identifier, tr.completed, tr.errors_found,
             result_keys(tr.results)) for tr in task_results]


def factorial_fixture(max_injections=8):
    workload = factorial_workload()
    campaign = make_campaign(workload)
    injections = campaign.enumerate_injections()[:max_injections]
    query_spec = QuerySpec.predefined("err-output",
                                      golden_output=workload.golden_output())
    return campaign, injections, query_spec


class TestFraming:
    def roundtrip(self, header, blobs):
        left, right = socket.socketpair()
        try:
            send_message(left, header, blobs)
            return recv_message(right)
        finally:
            left.close()
            right.close()

    def test_header_and_blobs_roundtrip(self):
        header, blobs = self.roundtrip({"op": "x", "index": 3},
                                       [b"alpha", b"", b"\x00\xff" * 100])
        assert header == {"op": "x", "index": 3}
        assert blobs == [b"alpha", b"", b"\x00\xff" * 100]

    def test_clean_eof_is_none(self):
        left, right = socket.socketpair()
        left.close()
        try:
            assert recv_message(right, allow_eof=True) is None
        finally:
            right.close()

    def test_truncated_frame_raises_protocol_error(self):
        left, right = socket.socketpair()
        try:
            left.sendall(b"\x00\x00\x00\x10{\"op\"")  # promises 16, sends 6
            left.close()
            with pytest.raises(ProtocolError, match="mid-frame"):
                recv_message(right)
        finally:
            right.close()

    def test_oversized_frame_rejected_without_reading_it(self):
        left, right = socket.socketpair()
        try:
            left.sendall(b"\xff\xff\xff\xff")
            with pytest.raises(ProtocolError, match="cap"):
                recv_message(right)
        finally:
            left.close()
            right.close()

    def test_non_json_header_raises(self):
        left, right = socket.socketpair()
        try:
            left.sendall(b"\x00\x00\x00\x04\x80\x04]}")  # pickle, not JSON
            with pytest.raises(ProtocolError, match="header"):
                recv_message(right)
        finally:
            left.close()
            right.close()


class TestAddressParsing:
    def test_queue_url(self):
        assert parse_queue_url("tcp://10.0.0.7:9001") == ("10.0.0.7", 9001)
        assert parse_queue_url("tcp://localhost:80/") == ("localhost", 80)
        assert parse_queue_url("unix:///run/b.sock") == "/run/b.sock"
        for bad in ("tcp://nohost", "tcp://host:port", "dir/queue",
                    "unix://relative.sock"):
            with pytest.raises(ValueError):
                parse_queue_url(bad)

    def test_listen_address(self):
        assert parse_listen_address("0.0.0.0:7461") == ("0.0.0.0", 7461)
        assert parse_listen_address(":7461") == ("127.0.0.1", 7461)
        with pytest.raises(ValueError):
            parse_listen_address("7461")

    def test_anything_but_a_tcp_url_is_a_one_line_error(self, tmp_path):
        """A queue is a broker URL: a directory path or an unknown scheme
        is refused up front with one line naming the expected form."""
        for bad in (str(tmp_path / "queue"), "redis://host:6379"):
            with pytest.raises(ValueError, match="tcp://HOST:PORT") as info:
                SocketBroker(bad)
            assert "\n" not in str(info.value)


    @pytest.mark.parametrize("bad", [
        "relative/queue", "/shared/queue", "file:///shared/queue", "tcp://",
        "tcp://:9001", "tcp://host:0"])
    def test_every_malformed_queue_url_is_one_line_naming_the_form(self, bad):
        with pytest.raises(ValueError, match="tcp://HOST:PORT|port out of "
                                             "range") as info:
            parse_queue_url(bad)
        assert "\n" not in str(info.value)
        assert repr(bad) in str(info.value)


class TestPrivateServer:
    """The private broker of ``--workers N`` hands pickles to whoever
    connects, so it must be reachable by its owner's processes only."""

    def test_listens_in_a_directory_only_its_owner_can_enter(self):
        with private_server(lease_seconds=7.5) as server:
            assert server.url.startswith("unix://")
            assert server.state.default_lease == 7.5
            directory = os.path.dirname(parse_queue_url(server.url))
            info = os.stat(directory)
            assert stat.S_IMODE(info.st_mode) == 0o700
            assert info.st_uid == os.getuid()
            with SocketBroker(server.url) as broker:
                broker.put_task(0, "work")
                assert broker.claim_next().payload == "work"
        assert not os.path.exists(directory)

    @pytest.mark.skipif(not hasattr(os, "fork") or os.geteuid() != 0,
                        reason="acting as another user needs root")
    def test_another_user_cannot_complete_a_task(self):
        nobody = 65534
        with private_server() as server, SocketBroker(server.url) as owner:
            owner.put_task(0, "work")
            claim = owner.claim_next()
            child = os.fork()
            if child == 0:  # pragma: no cover - runs in the forked child
                code = 1  # the forged completion got through
                try:
                    os.setgroups([])
                    os.setgid(nobody)
                    os.setuid(nobody)
                    SocketBroker(server.url, connect_retries=0).complete(
                        claim, "forged")
                except BrokerConnectionError as exc:
                    code = 0 if isinstance(exc.__cause__,
                                           PermissionError) else 2
                except BaseException:
                    code = 3
                os._exit(code)
            _, status = os.waitpid(child, 0)
            assert os.waitstatus_to_exitcode(status) == 0
            assert owner.results_count() == 0
            assert owner.claimed_count() == 1

    def test_directory_name_carries_the_coordinator_pid(self):
        with private_server() as server:
            name = os.path.basename(
                os.path.dirname(parse_queue_url(server.url)))
            assert name.startswith(f"repro-broker-{os.getpid()}-")

    def test_sweep_removes_only_dead_coordinators_directories(self, tmp_path):
        child = subprocess.Popen([sys.executable, "-c", ""])
        child.wait()  # reaped: its pid names no live process
        dead = tmp_path / f"repro-broker-{child.pid}-a"
        live = tmp_path / f"repro-broker-{os.getpid()}-b"
        old_style = tmp_path / "repro-broker-abc123"
        for directory in (dead, live, old_style):
            directory.mkdir()
            (directory / "broker.sock").write_bytes(b"")
        target = tmp_path / "elsewhere"
        target.mkdir()
        link = tmp_path / f"repro-broker-{child.pid}-c"
        link.symlink_to(target, target_is_directory=True)
        plain = tmp_path / f"repro-broker-{child.pid}-d"
        plain.write_bytes(b"")
        assert sweep_stale_private_dirs(str(tmp_path)) == [str(dead)]
        assert not dead.exists()
        for kept in (live, old_style, target, link, plain):
            assert kept.exists()

    @pytest.mark.skipif(os.geteuid() != 0,
                        reason="giving a directory away needs root")
    def test_sweep_keeps_another_users_directory(self, tmp_path):
        child = subprocess.Popen([sys.executable, "-c", ""])
        child.wait()
        theirs = tmp_path / f"repro-broker-{child.pid}-a"
        theirs.mkdir()
        os.chown(theirs, 65534, 65534)
        assert sweep_stale_private_dirs(str(tmp_path)) == []
        assert theirs.exists()


class TestServerRobustness:
    def test_garbage_connection_does_not_corrupt_state(self, server):
        broker = SocketBroker(server.url)
        broker.put_task(0, "survivor")
        # A dying peer tears a frame mid-write: the server must drop that
        # connection and keep serving intact clients from intact state.
        raw = socket.create_connection(server.address, timeout=5)
        raw.sendall(b"\x00\x00\xff\xff{\"op\"")  # truncated header
        raw.close()
        raw = socket.create_connection(server.address, timeout=5)
        raw.sendall(b"\xff\xff\xff\xff")  # absurd length prefix
        raw.close()
        assert broker.pending_count() == 1
        claim = broker.claim_next()
        assert claim.payload == "survivor"
        broker.close()

    def test_unknown_operation_closes_connection_but_client_recovers(
            self, server):
        broker = SocketBroker(server.url)
        with pytest.raises(ConnectionError):
            broker._call({"op": "no-such-op"})
        assert broker.pending_count() == 0  # reconnects transparently
        broker.close()

    def test_client_reconnects_after_connection_loss(self, server):
        broker = SocketBroker(server.url)
        broker.put_task(0, "before")
        # Sever the live connection underneath the client.
        broker._sock.shutdown(socket.SHUT_RDWR)
        broker.put_task(1, "after")
        assert broker.pending_count() == 2
        broker.close()

    def test_operation_error_reports_the_op(self, server):
        broker = SocketBroker(server.url)
        # complete without blobs → server-side failure surfaced by name.
        with pytest.raises(RuntimeError, match="complete"):
            broker._call({"op": "complete", "index": 0})
        broker.close()

    def test_more_results_than_one_message_carries_drain_in_batches(
            self, server):
        """Regression: a fast fleet can finish more tasks between
        coordinator polls than the framing blob cap allows in one response;
        the fetch must batch, not crash."""
        from repro.net.framing import MAX_BLOBS
        broker = SocketBroker(server.url)
        total = MAX_BLOBS + 6
        for index in range(total):
            broker._call({"op": "complete", "index": index},
                         [pickle.dumps(("r", index))])
        seen = {}
        fetches = 0
        while len(seen) < total:
            fresh = broker.fetch_new_results(seen=set(seen))
            assert fresh, "fetch stalled before draining every result"
            seen.update(fresh)
            fetches += 1
        assert fetches == 2
        assert seen == {index: ("r", index) for index in range(total)}
        broker.close()


class TestBackoff:
    def test_validation(self):
        with pytest.raises(ValueError, match="initial"):
            Backoff(0)
        with pytest.raises(ValueError, match="factor"):
            Backoff(0.1, factor=0.5)

    def test_growth_is_capped_and_reset_restarts(self):
        backoff = Backoff(0.001, cap=0.004)
        waited = [backoff.sleep() for _ in range(4)]
        assert waited == [0.001, 0.002, 0.004, 0.004]
        backoff.reset()
        assert backoff.peek() == 0.001

    def test_default_cap_never_exceeds_a_second(self):
        assert Backoff(0.05).cap <= 1.0
        assert Backoff(5.0).cap == 5.0  # never below the base interval


class TestWorkerReattach:
    def test_worker_attaching_to_a_drained_queue_waits_for_the_next_campaign(
            self, server):
        """Regression: back-to-back campaigns over one long-lived broker.
        A worker attaching between campaigns sees the previous campaign's
        drained state; exiting on it would strand the next campaign with no
        workers, so the worker must wait for the reset instead."""
        campaign, injections, query_spec = factorial_fixture(max_injections=4)
        broker = SocketBroker(server.url)
        chunks = [tuple(injections[:2]), tuple(injections[2:])]
        enqueue_campaign(
            broker,
            CampaignManifest(
                campaign_spec=CampaignSpec.from_campaign(campaign),
                query_spec=query_spec, campaign_id="first"),
            [(index, (chunk, None)) for index, chunk in enumerate(chunks)])
        assert run_worker(WorkerConfig(queue_dir=server.url,
                                       poll_interval=0.01,
                                       max_idle_seconds=30.0)) == 2
        assert broker.is_drained()

        # A late worker attaches now — after the drain, before the next
        # campaign — and must idle rather than exit…
        late_worker = threading.Thread(
            target=lambda: run_worker(
                WorkerConfig(queue_dir=server.url, poll_interval=0.01,
                             max_idle_seconds=60.0)),
            daemon=True)
        late_worker.start()
        time.sleep(0.3)
        assert late_worker.is_alive()

        # …so that the next campaign on the same queue gets executed.
        distributed = run_campaign_distributed(
            campaign, query_spec, injections=injections,
            config=DistributedConfig(workers=0, chunk_size=2,
                                     queue_dir=server.url,
                                     poll_interval=0.01,
                                     wall_clock_timeout=300.0))
        serial = campaign.run(query_spec.build(), injections=injections)
        assert result_keys(distributed.results) == result_keys(serial.results)
        late_worker.join(timeout=60)
        assert not late_worker.is_alive()
        broker.close()


class TestGracefulStop:
    def enqueue(self, broker, chunks, close=True):
        campaign, injections, query_spec = factorial_fixture()
        split = [(tuple(injections[i:i + 2]), None)
                 for i in range(0, len(injections), 2)][:chunks]
        manifest = CampaignManifest(
            campaign_spec=CampaignSpec.from_campaign(campaign),
            query_spec=query_spec)
        if close:
            enqueue_campaign(broker, manifest, list(enumerate(split)))
        else:
            # Leave the queue open-ended: the worker keeps waiting for more
            # tasks, so only the signal can end it.
            broker.publish_manifest(manifest)
            for index, payload in enumerate(split):
                broker.put_task(index, payload)
        return split

    def test_stop_between_claim_and_execution_releases_the_task(
            self, server):
        queue = server.url
        broker = SocketBroker(queue)
        self.enqueue(broker, chunks=2)
        # should_stop: False through the manifest wait and loop start, True
        # right after the claim — the worker must hand the task back
        # instead of stranding a lease.
        answers = iter([False, False, True])
        executed = run_worker(
            WorkerConfig(queue_dir=queue, poll_interval=0.01),
            should_stop=lambda: next(answers, True))
        assert executed == 0
        assert broker.claimed_count() == 0
        assert broker.pending_count() == 2  # nothing lost, nothing leased

    def test_stop_during_execution_finishes_and_publishes_the_unit(
            self, server):
        queue = server.url
        broker = SocketBroker(queue)
        self.enqueue(broker, chunks=2)
        # False through manifest wait, loop start and post-claim; True once
        # execution finished.
        answers = iter([False, False, False])
        executed = run_worker(
            WorkerConfig(queue_dir=queue, poll_interval=0.01),
            should_stop=lambda: next(answers, True))
        assert executed == 1
        assert broker.results_count() == 1
        assert broker.claimed_count() == 0
        assert broker.pending_count() == 1

    def test_stop_during_manifest_wait_exits_cleanly(self, server):
        """A worker waiting for a campaign to appear must honour a stop
        request instead of blocking out its full manifest timeout."""
        started = time.monotonic()
        executed = run_worker(
            WorkerConfig(queue_dir=server.url,
                         poll_interval=0.01, manifest_timeout=60.0),
            should_stop=lambda: time.monotonic() - started > 0.1)
        assert executed == 0
        assert time.monotonic() - started < 30.0

    def test_manifest_timeout_still_raises(self, server):
        with pytest.raises(TimeoutError, match="manifest"):
            run_worker(WorkerConfig(queue_dir=server.url,
                                    poll_interval=0.01,
                                    manifest_timeout=0.1))

    def test_cli_worker_exits_cleanly_on_sigterm(self, server):
        queue = server.url
        broker = SocketBroker(queue)
        # Queue left open: without the signal the worker would idle forever.
        self.enqueue(broker, chunks=3, close=False)
        worker = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", "--queue", queue,
             "--poll-interval", "0.02"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        try:
            deadline = time.monotonic() + 120
            while (broker.results_count() < 1
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            assert broker.results_count() >= 1
            worker.send_signal(signal.SIGTERM)
            output, _ = worker.communicate(timeout=120)
        finally:
            if worker.poll() is None:
                worker.kill()
                worker.wait()
        assert worker.returncode == 0
        assert b"stopped on SIGTERM" in output
        # Whatever it was executing was finished and published; whatever it
        # had merely claimed was released — no lease is left to expire.
        assert broker.claimed_count() == 0


class TestCliBroker:
    def test_broker_serves_until_sigterm(self):
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "broker",
             "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        try:
            line = process.stdout.readline().decode()
            assert line.startswith("broker listening on tcp://")
            url = line.split()[-1]
            broker = SocketBroker(url)
            broker.put_task(0, "over-the-wire")
            assert broker.pending_count() == 1
            broker.close()
            process.send_signal(signal.SIGTERM)
            output, _ = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        assert process.returncode == 0
        assert b"broker stopped" in output

    def test_bad_listen_spec_is_rejected(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "broker", "--listen", "nope"],
            capture_output=True, timeout=60)
        assert result.returncode != 0
        assert b"HOST:PORT" in result.stderr

    def test_worker_reports_an_unreachable_broker_cleanly(self):
        """No broker listening: the worker must exit with a one-line
        message, not a traceback (parity with the manifest-timeout
        message)."""
        result = subprocess.run(
            [sys.executable, "-m", "repro", "worker",
             "--queue", "tcp://127.0.0.1:1"],  # port 1: nothing listens
            capture_output=True, timeout=120)
        assert result.returncode != 0
        assert b"worker gave up" in result.stderr
        assert b"Traceback" not in result.stderr


class TestDistributedCampaignOverTcp:
    def test_chunk_campaign_matches_serial(self, server):
        campaign, injections, query_spec = factorial_fixture()
        serial = campaign.run(query_spec.build(), injections=injections)
        distributed = run_campaign_distributed(
            campaign, query_spec, injections=injections,
            config=DistributedConfig(workers=2, chunk_size=2,
                                     queue_dir=server.url,
                                     poll_interval=0.01,
                                     wall_clock_timeout=300.0))
        assert result_keys(distributed.results) == result_keys(serial.results)
        assert (distributed.injections_run, distributed.total_solutions) \
            == (serial.injections_run, serial.total_solutions)

    def test_campaign_survives_a_sigkilled_external_worker(self, server):
        """Acceptance: a worker SIGKILLed mid-campaign loses its lease, the
        task requeues, and the survivor finishes with identical results."""
        campaign, injections, query_spec = factorial_fixture()
        serial = campaign.run(query_spec.build(), injections=injections)
        workers = [
            subprocess.Popen(
                [sys.executable, "-m", "repro", "worker",
                 "--queue", server.url, "--poll-interval", "0.02",
                 "--lease-seconds", "1.5", "--max-idle", "120"],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            for _ in range(2)]
        watcher_done = threading.Event()

        def kill_one_worker_after_first_result():
            probe = SocketBroker(server.url)
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline and not watcher_done.is_set():
                if probe.results_count() >= 1:
                    workers[0].send_signal(signal.SIGKILL)
                    break
                time.sleep(0.02)
            probe.close()

        watcher = threading.Thread(target=kill_one_worker_after_first_result)
        watcher.start()
        try:
            distributed = run_campaign_distributed(
                campaign, query_spec, injections=injections,
                config=DistributedConfig(workers=0, chunk_size=1,
                                         queue_dir=server.url,
                                         lease_seconds=1.5,
                                         poll_interval=0.02,
                                         wall_clock_timeout=300.0))
        finally:
            watcher_done.set()
            watcher.join(timeout=30)
            for worker in workers:
                if worker.poll() is None:
                    worker.terminate()
            for worker in workers:
                try:
                    worker.wait(timeout=60)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    worker.kill()
                    worker.wait()
        assert result_keys(distributed.results) == result_keys(serial.results)


class TestDistributedTasks:
    """Capped search tasks through the broker backend's one strategy."""

    @staticmethod
    def strategy(query_spec, queue_dir, workers=2):
        return DistributedExecutionStrategy(
            query_spec, DistributedConfig(workers=workers,
                                          queue_dir=queue_dir,
                                          poll_interval=0.01,
                                          wall_clock_timeout=300.0))

    def test_empty_task_list(self):
        campaign, _, query_spec = factorial_fixture()
        strategy = DistributedExecutionStrategy(query_spec)
        report = TaskRunner(campaign).run([], query_spec.build(),
                                          strategy=strategy)
        assert report.task_results == []
        assert strategy.cache_statistics is not None

    def test_whole_tasks_match_serial_tasks(self, server):
        campaign, injections, query_spec = factorial_fixture()
        runner = TaskRunner(campaign, max_errors_per_task=10)
        tasks = decompose_by_chunk(injections, 3)
        serial = runner.run(tasks, query_spec.build())
        distributed = runner.run(tasks, query_spec.build(),
                                 strategy=self.strategy(query_spec,
                                                        server.url))
        assert task_result_keys(distributed.task_results) \
            == task_result_keys(serial.task_results)
        assert distributed.total_tasks == serial.total_tasks
        assert distributed.total_errors_found == serial.total_errors_found

    def test_per_task_caps_travel_with_each_work_unit(self):
        """Workers must honour the coordinator runner's per-task error cap
        (paper Section 6.1: at most 10 errors per task) — capped task
        results are identical to the serial capped run."""
        campaign, injections, query_spec = factorial_fixture()
        runner = TaskRunner(campaign, max_errors_per_task=1)
        tasks = decompose_by_chunk(injections, 4)
        serial = runner.run(tasks, query_spec.build())
        # The cap must actually bite for this test to mean anything.
        assert any(len(tr.results) < len(tr.task.injections)
                   for tr in serial.task_results)
        distributed = runner.run(
            tasks, query_spec.build(),
            strategy=self.strategy(query_spec, None, workers=1))
        assert task_result_keys(distributed.task_results) \
            == task_result_keys(serial.task_results)

    def test_progress_counts_every_task_once(self, server):
        campaign, injections, query_spec = factorial_fixture(max_injections=6)
        runner = TaskRunner(campaign)
        tasks = decompose_by_chunk(injections, 2)
        seen = []
        runner.run(tasks, query_spec.build(),
                   strategy=self.strategy(query_spec, server.url),
                   progress=lambda done, total, result:
                   seen.append((done, total)))
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_a_worker_that_attaches_after_the_drain_is_stopped_at_once(
            self, server, monkeypatch):
        """A local worker that first sees the queue already drained waits
        for the next campaign; once every result is merged the coordinator
        must stop it through SIGTERM instead of waiting out its timeout."""
        from repro.distributed.strategy import _LocalWorkerPool

        original = _LocalWorkerPool.shutdown
        timings = []

        def late_worker_then_shutdown(pool, *args, **kwargs):
            pool.spawn(1)
            time.sleep(2.0)  # long enough to attach to the drained queue
            started = time.monotonic()
            original(pool, *args, **kwargs)
            timings.append(time.monotonic() - started)
            assert all(process.poll() is not None
                       for process in pool._procs)

        monkeypatch.setattr(_LocalWorkerPool, "shutdown",
                            late_worker_then_shutdown)
        campaign, injections, query_spec = factorial_fixture(max_injections=4)
        report = TaskRunner(campaign).run(
            decompose_by_chunk(injections, 2), query_spec.build(),
            strategy=self.strategy(query_spec, server.url))
        assert report.total_tasks == 2
        assert len(timings) == 1 and timings[0] < 5.0
