"""Broker-conformance suite: the executable form of the broker contract.

Every test runs :class:`~repro.net.SocketBroker` clients against a
:class:`~repro.net.BrokerServer` on both transports a campaign uses: TCP
(``repro broker --listen``, the shared broker of a multi-host run) and the
Unix socket of :func:`~repro.net.private_server` (the private broker of
``repro analyze --workers N``).  It covers claim ordering and exclusivity,
lease expiry/renewal/requeue, double-complete idempotence, graceful
release, stale-result validation, truncated-payload quarantine, and queue
lifecycle accounting.
"""

import pickle
import time

import pytest

from repro.net import (BrokerServer, CampaignManifest, SocketBroker,
                       private_server)
from repro.parallel import QuerySpec


class SocketHarness:
    """Clients of one server, and a way to corrupt a task."""

    def __init__(self, url):
        self.url = url
        self.clients = []

    def make(self, lease_seconds=60.0):
        client = SocketBroker(self.url, lease_seconds=lease_seconds)
        self.clients.append(client)
        return client

    def corrupt_pending(self, index):
        """Publish a torn pickle blob for the index (the server stores
        payload bytes opaquely, so a truncated blob is representable)."""
        client = self.clients[0]
        blob = pickle.dumps(("payload", index), protocol=4)
        client._call({"op": "put_task", "index": index}, [blob[:-4]])

    def close(self):
        for client in self.clients:
            client.close()


@pytest.fixture(params=["tcp", "unix"])
def harness(request):
    serving = BrokerServer() if request.param == "tcp" else private_server()
    with serving as server:
        built = SocketHarness(server.url)
        try:
            yield built
        finally:
            built.close()


@pytest.fixture
def broker(harness):
    return harness.make()


def manifest(campaign_id="test"):
    return CampaignManifest(campaign_spec=None,
                            query_spec=QuerySpec.predefined("crash"),
                            campaign_id=campaign_id)


class TestClaimSemantics:
    def test_rejects_bad_lease(self, harness):
        with pytest.raises(ValueError, match="lease_seconds"):
            harness.make(lease_seconds=0)

    def test_claim_is_exclusive_and_index_ordered(self, broker):
        broker.put_task(1, "payload-1")
        broker.put_task(0, "payload-0")
        first = broker.claim_next()
        second = broker.claim_next()
        assert (first.index, first.payload) == (0, "payload-0")
        assert (second.index, second.payload) == (1, "payload-1")
        assert broker.claim_next() is None
        assert broker.pending_count() == 0
        assert broker.claimed_count() == 2

    def test_two_clients_never_claim_the_same_task(self, harness):
        one, two = harness.make(), harness.make()
        for index in range(4):
            one.put_task(index, f"payload-{index}")
        claims = [client.claim_next() for client in (one, two, one, two)]
        assert sorted(claim.index for claim in claims) == [0, 1, 2, 3]
        assert one.claim_next() is None and two.claim_next() is None

    def test_claim_skips_tasks_that_already_have_results(self, broker):
        broker.put_task(0, "work")
        broker.complete(broker.claim_next(), "result")
        broker.put_task(0, "work")  # requeue-race leftover
        assert broker.claim_next() is None
        assert broker.pending_count() == 0  # the stale entry was dropped

    def test_validator_decides_whether_a_result_settles_its_task(self, broker):
        broker.put_task(0, "work")
        broker.complete(broker.claim_next(), ("old-campaign", "body"))
        broker.put_task(0, "work")  # the new campaign's task, same index
        # A validator that rejects the stale result keeps the task live…
        claim = broker.claim_next(
            result_valid=lambda payload: payload[0] == "new-campaign")
        assert claim is not None and claim.index == 0
        broker.release(claim)
        # …and one that accepts it settles the task away.
        assert broker.claim_next(
            result_valid=lambda payload: payload[0] == "old-campaign") is None
        assert broker.pending_count() == 0

    def test_truncated_task_payload_is_quarantined(self, harness):
        """A torn payload must not wedge the claim loop: the corrupt task
        is dropped and claiming proceeds to the next intact one."""
        broker = harness.make()
        broker.put_task(0, "doomed")
        broker.put_task(1, "good")
        harness.corrupt_pending(0)
        claim = broker.claim_next()
        assert claim is not None and claim.index == 1
        assert claim.payload == "good"
        assert broker.claim_next() is None


class TestLeases:
    def test_expired_lease_requeues_and_double_complete_is_idempotent(
            self, harness):
        broker = harness.make(lease_seconds=0.05)
        broker.put_task(0, "work")
        stale = broker.claim_next()
        assert broker.requeue_expired() == []  # lease still fresh
        time.sleep(0.1)
        assert broker.requeue_expired() == [0]
        fresh = broker.claim_next()
        assert fresh is not None and fresh.index == 0
        # Both twins complete; re-execution writes byte-identical payloads.
        broker.complete(stale, "result")
        broker.complete(fresh, "result")
        assert broker.results_count() == 1
        assert broker.claimed_count() == 0
        assert broker.fetch_new_results(seen=set()) == [(0, "result")]

    def test_renew_keeps_the_lease_alive(self, harness):
        broker = harness.make(lease_seconds=0.2)
        broker.put_task(0, "work")
        claim = broker.claim_next()
        for _ in range(3):
            time.sleep(0.1)
            broker.renew_lease(claim)
        assert broker.requeue_expired() == []

    def test_lease_clock_starts_at_claim_not_enqueue(self, harness):
        """A task that queued longer than the lease must not be considered
        expired the instant it is claimed."""
        broker = harness.make(lease_seconds=0.05)
        broker.put_task(0, "work")
        time.sleep(0.1)  # the task outlives the lease while still pending
        claim = broker.claim_next()
        assert claim is not None
        assert broker.requeue_expired() == []  # lease is fresh, not stale

    def test_renew_after_expiry_is_a_harmless_noop(self, harness):
        broker = harness.make(lease_seconds=0.05)
        broker.put_task(0, "work")
        claim = broker.claim_next()
        time.sleep(0.1)
        assert broker.requeue_expired() == [0]
        broker.renew_lease(claim)  # must not resurrect the lost claim
        reclaimed = broker.claim_next()
        assert reclaimed is not None and reclaimed.index == 0

    def test_release_returns_the_task_immediately(self, broker):
        broker.put_task(0, "work")
        claim = broker.claim_next()
        assert broker.pending_count() == 0
        broker.release(claim)
        assert broker.pending_count() == 1
        assert broker.claimed_count() == 0
        reclaimed = broker.claim_next()
        assert (reclaimed.index, reclaimed.payload) == (0, "work")

    def test_release_after_completion_is_a_noop(self, broker):
        broker.put_task(0, "work")
        claim = broker.claim_next()
        broker.complete(claim, "result")
        broker.release(claim)
        assert broker.pending_count() == 0
        assert broker.results_count() == 1


class TestQueueLifecycle:
    def test_close_total_and_drain_accounting(self, broker):
        assert broker.total_tasks() is None
        broker.put_task(0, "a")
        broker.close_queue(1)
        assert broker.total_tasks() == 1
        assert not broker.is_drained()
        broker.complete(broker.claim_next(), "r")
        assert broker.is_drained()

    def test_fetch_results_is_incremental_and_discard_forgets(self, broker):
        broker.put_task(0, "a")
        broker.put_task(1, "b")
        broker.complete(broker.claim_next(), "r0")
        assert broker.fetch_new_results(seen=set()) == [(0, "r0")]
        broker.complete(broker.claim_next(), "r1")
        assert broker.fetch_new_results(seen={0}) == [(1, "r1")]
        broker.discard_result(0)
        assert broker.fetch_new_results(seen=set()) == [(1, "r1")]

    def test_manifest_roundtrip(self, broker):
        broker.publish_manifest(manifest("campaign-42"))
        loaded = broker.load_manifest(timeout=5.0, poll_interval=0.01)
        assert loaded.campaign_id == "campaign-42"
        assert loaded.query_spec == QuerySpec.predefined("crash")

    def test_manifest_wait_times_out(self, broker):
        with pytest.raises(TimeoutError):
            broker.load_manifest(timeout=0.1, poll_interval=0.02)

    def test_reset_purges_a_previous_campaign(self, broker):
        broker.publish_manifest(manifest())
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
        with pytest.raises(TimeoutError):
            broker.load_manifest(timeout=0)
