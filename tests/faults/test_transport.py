"""FaultyTransport semantics, including the K-prefix acceptance criterion:
a sync truncated after K batch entries commits knowledge for exactly the
delivered prefix."""

import random
from dataclasses import replace

from repro.dtn import (
    COPIES_ATTRIBUTE,
    DEFAULT_COPIES,
    EpidemicPolicy,
    FirstContactPolicy,
    SprayAndWaitPolicy,
)
from repro.faults import FaultConfig, FaultyTransport
from repro.replication import (
    AddressFilter,
    Replica,
    ReplicaId,
    SyncEndpoint,
    SyncSession,
)


def host(name, policy_factory=EpidemicPolicy):
    replica = Replica(ReplicaId(name), AddressFilter(name))
    policy = policy_factory()
    policy.bind(replica, lambda: frozenset({name}))
    return replica, SyncEndpoint(replica, policy)


TRUNCATE = FaultConfig(truncation_probability=1.0)


class Keeping(random.Random):
    """An rng under which a firing cut keeps exactly ``k`` entries."""

    def __init__(self, k):
        super().__init__(1)
        self.k = k

    def randint(self, a, b):
        assert a <= self.k <= b
        return self.k


class FakeEntry:
    def __init__(self, tag):
        self.tag = tag


class TestDeliverMechanics:
    def test_perfect_channel_when_no_models(self):
        batch = [FakeEntry(i) for i in range(5)]
        outcome = FaultyTransport(FaultConfig(), random.Random(1)).deliver(batch)
        assert outcome.delivered == batch
        assert outcome.sent == 5
        assert not outcome.truncated
        assert outcome.lost == 0 and outcome.duplicated == 0

    def test_truncation_keeps_prefix_in_order(self):
        batch = [FakeEntry(i) for i in range(6)]
        transport = FaultyTransport(
            TRUNCATE, Keeping(2)
        )
        outcome = transport.deliver(batch)
        assert outcome.truncated
        assert outcome.lost == 4
        assert [entry.tag for entry in outcome.delivered] == [0, 1]

    def test_duplication_inserts_copy_immediately_after(self):
        batch = [FakeEntry(i) for i in range(3)]
        transport = FaultyTransport(
            FaultConfig(duplication_probability=1.0), random.Random(1)
        )
        outcome = transport.deliver(batch)
        assert outcome.duplicated == 3
        assert [entry.tag for entry in outcome.delivered] == [0, 0, 1, 1, 2, 2]

    def test_duplication_applies_to_delivered_prefix_only(self):
        batch = [FakeEntry(i) for i in range(4)]
        transport = FaultyTransport(
            replace(TRUNCATE, duplication_probability=1.0), Keeping(2)
        )
        outcome = transport.deliver(batch)
        assert [entry.tag for entry in outcome.delivered] == [0, 0, 1, 1]
        assert outcome.lost == 2 and outcome.duplicated == 2


class TestPrefixCommit:
    """The acceptance criterion: exactly the delivered K-prefix is known."""

    def test_truncated_sync_commits_exactly_the_prefix(self):
        k = 3
        sender, sender_ep = host("alice")
        receiver, receiver_ep = host("bob")
        items = [
            sender.create_item(f"m{i}", {"destination": "bob"}) for i in range(8)
        ]
        transport = FaultyTransport(
            TRUNCATE, Keeping(k)
        )
        stats = SyncSession(
            source=sender_ep,
            target=receiver_ep,
            transport=transport,
        ).run()

        assert stats.interrupted
        assert stats.sent_total == 8
        assert stats.received_total == k
        assert stats.lost_in_transit == 8 - k
        # The batch is priority-sorted but all items here share a priority
        # class, so store (creation) order is preserved: the delivered
        # prefix is exactly the first k created items.
        for item in items[:k]:
            assert receiver.knowledge.contains(item.version)
            assert receiver.holds(item.item_id)
        for item in items[k:]:
            assert not receiver.knowledge.contains(item.version)
            assert not receiver.holds(item.item_id)

    def test_next_sync_resumes_with_only_the_suffix(self):
        k = 3
        sender, sender_ep = host("alice")
        receiver, receiver_ep = host("bob")
        for i in range(8):
            sender.create_item(f"m{i}", {"destination": "bob"})
        transport = FaultyTransport(
            TRUNCATE, Keeping(k)
        )
        SyncSession(
            source=sender_ep,
            target=receiver_ep,
            transport=transport,
        ).run()

        # Fault-free follow-up: exactly the lost suffix moves, nothing else.
        stats = SyncSession(source=sender_ep, target=receiver_ep).run()
        assert stats.sent_total == 8 - k
        assert receiver.in_filter_count == 8

    def test_duplicated_delivery_is_tolerated_and_counted(self):
        sender, sender_ep = host("alice")
        receiver, receiver_ep = host("bob")
        for i in range(4):
            sender.create_item(f"m{i}", {"destination": "bob"})
        transport = FaultyTransport(
            FaultConfig(duplication_probability=1.0), random.Random(1)
        )
        stats = SyncSession(
            source=sender_ep,
            target=receiver_ep,
            transport=transport,
        ).run()
        assert stats.received_total == 4
        assert stats.redundant_received == 4
        assert receiver.in_filter_count == 4
        # Each message delivered to the app exactly once despite duplicates.
        assert len(stats.delivered_items) == 4

    def test_seeded_truncation_works_end_to_end(self):
        sender, sender_ep = host("alice")
        receiver, receiver_ep = host("bob")
        for i in range(6):
            sender.create_item(f"m{i}", {"destination": "bob"})
        transport = FaultyTransport(TRUNCATE, random.Random(1))
        stats = SyncSession(
            source=sender_ep,
            target=receiver_ep,
            transport=transport,
        ).run()
        assert stats.interrupted
        assert stats.received_total < 6
        assert stats.received_total + stats.lost_in_transit == 6


class RecordingEpidemic(EpidemicPolicy):
    """Epidemic plus a log of what on_items_sent reported."""

    def __init__(self):
        super().__init__()
        self.sent_batches = []

    def on_items_sent(self, items, context):
        self.sent_batches.append(list(items))
        super().on_items_sent(items, context)


class TestDeliveryConfirmedHook:
    """on_items_sent fires with exactly the entries the channel carried."""

    def test_hook_sees_only_the_delivered_prefix(self):
        k = 3
        sender, sender_ep = host("alice", RecordingEpidemic)
        receiver, receiver_ep = host("bob")
        for i in range(8):
            sender.create_item(f"m{i}", {"destination": "bob"})
        transport = FaultyTransport(
            TRUNCATE, Keeping(k)
        )
        SyncSession(
            source=sender_ep,
            target=receiver_ep,
            transport=transport,
        ).run()
        assert len(sender_ep.policy.sent_batches) == 1
        assert [item.payload for item in sender_ep.policy.sent_batches[0]] == [
            "m0",
            "m1",
            "m2",
        ]

    def test_hook_sees_each_duplicated_entry_once(self):
        sender, sender_ep = host("alice", RecordingEpidemic)
        receiver, receiver_ep = host("bob")
        for i in range(4):
            sender.create_item(f"m{i}", {"destination": "bob"})
        transport = FaultyTransport(
            FaultConfig(duplication_probability=1.0), random.Random(1)
        )
        SyncSession(
            source=sender_ep,
            target=receiver_ep,
            transport=transport,
        ).run()
        (batch,) = sender_ep.policy.sent_batches
        assert len(batch) == 4

    def test_perfect_channel_hook_matches_full_batch(self):
        sender, sender_ep = host("alice", RecordingEpidemic)
        receiver, receiver_ep = host("bob")
        for i in range(5):
            sender.create_item(f"m{i}", {"destination": "bob"})
        SyncSession(source=sender_ep, target=receiver_ep).run()
        (batch,) = sender_ep.policy.sent_batches
        assert len(batch) == 5


class TestFirstContactUnderFaults:
    """Truncation must never destroy First Contact's only copy."""

    def test_lost_entries_keep_their_only_copy(self):
        k = 2
        carrier, carrier_ep = host("alice", FirstContactPolicy)
        relay, relay_ep = host("bob", FirstContactPolicy)
        items = [
            carrier.create_item(f"m{i}", {"destination": "dst"}) for i in range(5)
        ]
        transport = FaultyTransport(
            TRUNCATE, Keeping(k)
        )
        stats = SyncSession(
            source=carrier_ep,
            target=relay_ep,
            transport=transport,
        ).run()
        assert stats.interrupted
        # Delivered prefix: handed off (relay holds, carrier expunged).
        for item in items[:k]:
            assert relay.holds(item.item_id)
            assert not carrier.holds(item.item_id)
        # Lost suffix: the single copy survives at the carrier.
        for item in items[k:]:
            assert carrier.holds(item.item_id)
            assert not relay.holds(item.item_id)

    def test_lost_entries_are_reoffered_next_encounter(self):
        k = 2
        carrier, carrier_ep = host("alice", FirstContactPolicy)
        relay, relay_ep = host("bob", FirstContactPolicy)
        items = [
            carrier.create_item(f"m{i}", {"destination": "dst"}) for i in range(5)
        ]
        transport = FaultyTransport(
            TRUNCATE, Keeping(k)
        )
        SyncSession(
            source=carrier_ep,
            target=relay_ep,
            transport=transport,
        ).run()
        # fault-free retry
        stats = SyncSession(source=carrier_ep, target=relay_ep).run()
        assert stats.sent_total == 5 - k
        # Every message now has exactly one live copy, all at the relay.
        for item in items:
            assert relay.holds(item.item_id)
            assert not carrier.holds(item.item_id)


class TestSprayBudgetUnderFaults:
    """Copy budget is spent only on entries a replica actually received."""

    @staticmethod
    def copies_at(replica, item_id):
        item = replica.get_item(item_id)
        if item is None or item.deleted:
            return 0
        copies = item.local(COPIES_ATTRIBUTE)
        return DEFAULT_COPIES if copies is None else int(copies)

    def test_truncation_conserves_total_budget(self):
        k = 2
        sender, sender_ep = host("alice", SprayAndWaitPolicy)
        receiver, receiver_ep = host("bob", SprayAndWaitPolicy)
        items = [
            sender.create_item(f"m{i}", {"destination": "dst"}) for i in range(5)
        ]
        transport = FaultyTransport(
            TRUNCATE, Keeping(k)
        )
        SyncSession(
            source=sender_ep,
            target=receiver_ep,
            transport=transport,
        ).run()
        for item in items:
            total = self.copies_at(sender, item.item_id) + self.copies_at(
                receiver, item.item_id
            )
            assert total == DEFAULT_COPIES
        # Lost entries specifically: full budget still at the sender.
        for item in items[k:]:
            assert self.copies_at(sender, item.item_id) == DEFAULT_COPIES

    def test_duplication_halves_budget_once(self):
        sender, sender_ep = host("alice", SprayAndWaitPolicy)
        receiver, receiver_ep = host("bob", SprayAndWaitPolicy)
        item = sender.create_item("m", {"destination": "dst"})
        transport = FaultyTransport(
            FaultConfig(duplication_probability=1.0), random.Random(1)
        )
        SyncSession(
            source=sender_ep,
            target=receiver_ep,
            transport=transport,
        ).run()
        assert self.copies_at(sender, item.item_id) == DEFAULT_COPIES // 2
        assert self.copies_at(receiver, item.item_id) == DEFAULT_COPIES // 2
