"""Failure injection: the protocol's safety under partial failures.

The sync protocol's crash-safety argument is structural: a target records
a version in knowledge only at the instant it stores the item, so any
prefix of a batch can be lost — or the whole session interrupted — without
violating at-most-once or losing eventual delivery; undelivered items are
simply still unknown and will be offered again at the next encounter.
These tests inject exactly those failures.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtn import EpidemicPolicy
from repro.replication import (
    AddressFilter,
    Replica,
    ReplicaId,
    SyncContext,
    SyncEndpoint,
    SyncSession,
)
from repro.replication.persistence import checkpoint_lines, replica_from_lines
from repro.replication.sync import apply_batch, build_batch, build_request


def host(name, policy_factory=EpidemicPolicy):
    replica = Replica(ReplicaId(name), AddressFilter(name))
    policy = policy_factory()
    policy.bind(replica, lambda: frozenset({name}))
    return replica, SyncEndpoint(replica, policy)


def interrupted_sync(source, target, deliver_first_n, now=0.0):
    """Run a sync but lose everything after the first ``deliver_first_n``
    batch entries (a dropped connection mid-transfer)."""
    target_context = SyncContext(target.replica_id, source.replica_id, now)
    source_context = SyncContext(source.replica_id, target.replica_id, now)
    request = build_request(target, target_context)
    batch, stats = build_batch(source, request, source_context)
    surviving = batch[:deliver_first_n]
    apply_batch(target, surviving, stats)
    return len(batch), len(surviving)


class TestInterruptedSync:
    def test_partial_batch_is_not_lost_forever(self):
        sender, sender_ep = host("alice")
        receiver, receiver_ep = host("bob")
        for i in range(10):
            sender.create_item(f"m{i}", {"destination": "bob"})

        total, survived = interrupted_sync(sender_ep, receiver_ep, 4)
        assert total == 10 and survived == 4
        assert receiver.in_filter_count == 4

        # The next (complete) sync delivers exactly the missing six.
        stats = SyncSession(source=sender_ep, target=receiver_ep).run()
        assert stats.sent_total == 6
        assert receiver.in_filter_count == 10

    def test_repeated_interruptions_make_progress(self):
        sender, sender_ep = host("alice")
        receiver, receiver_ep = host("bob")
        for i in range(10):
            sender.create_item(f"m{i}", {"destination": "bob"})
        # Every encounter dies after 3 items; convergence still happens.
        for _ in range(5):
            interrupted_sync(sender_ep, receiver_ep, 3)
        assert receiver.in_filter_count == 10

    def test_zero_delivered_changes_nothing(self):
        sender, sender_ep = host("alice")
        receiver, receiver_ep = host("bob")
        sender.create_item("m", {"destination": "bob"})
        knowledge_before = receiver.knowledge.copy()
        interrupted_sync(sender_ep, receiver_ep, 0)
        assert receiver.knowledge == knowledge_before
        assert receiver.in_filter_count == 0


class TestCrashRestart:
    def test_crash_between_syncs_preserves_exactly_once(self):
        """Receiver crashes after a sync, restarts from its checkpoint,
        and the sender cannot double-deliver."""
        sender, sender_ep = host("alice")
        receiver, receiver_ep = host("bob")
        sender.create_item("m0", {"destination": "bob"})
        SyncSession(source=sender_ep, target=receiver_ep).run()
        checkpoint = list(checkpoint_lines(receiver))

        # Crash: the in-memory replica is gone; restore from the checkpoint.
        restored, _ = replica_from_lines(checkpoint)
        restored_ep = SyncEndpoint(restored, EpidemicPolicy().bind(restored))
        stats = SyncSession(source=sender_ep, target=restored_ep).run()
        assert stats.sent_total == 0
        assert restored.in_filter_count == 1

    def test_crash_losing_recent_state_only_redelivers(self):
        """A stale checkpoint (taken before the last sync) means the
        restart re-receives the newest items — once, not twice."""
        sender, sender_ep = host("alice")
        receiver, receiver_ep = host("bob")
        sender.create_item("m0", {"destination": "bob"})
        SyncSession(source=sender_ep, target=receiver_ep).run()
        stale_checkpoint = list(checkpoint_lines(receiver))

        sender.create_item("m1", {"destination": "bob"})
        # m1 delivered, then crash
        SyncSession(source=sender_ep, target=receiver_ep).run()

        restored, _ = replica_from_lines(stale_checkpoint)
        restored_ep = SyncEndpoint(restored, EpidemicPolicy().bind(restored))
        stats = SyncSession(source=sender_ep, target=restored_ep).run()
        assert stats.sent_total == 1  # only m1 again
        assert restored.in_filter_count == 2


@given(
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=20),
    st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=30, deadline=None)
def test_random_truncation_never_violates_safety(truncations, seed):
    """Arbitrary interruption points over a random 4-node flooding
    schedule: no duplicate delivery (apply_remote would raise) and every
    stored item stays covered by knowledge."""
    rng = random.Random(seed)
    replicas, endpoints = [], []
    for i in range(4):
        replica, endpoint = host(f"n{i}")
        replicas.append(replica)
        endpoints.append(endpoint)
    replicas[0].create_item("x", {"destination": "n3"})
    replicas[1].create_item("y", {"destination": "n2"})

    for cut in truncations:
        a, b = rng.sample(range(4), 2)
        interrupted_sync(endpoints[a], endpoints[b], cut, now=0.0)
        for replica in replicas:
            for item in replica.stored_items():
                assert replica.knowledge.contains(item.version)
