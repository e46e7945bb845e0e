"""Unit tests for the pairwise sync protocol and its policy hook points."""

from typing import Optional

import pytest

from repro.replication import (
    AddressFilter,
    AllFilter,
    EncounterSession,
    Filter,
    Item,
    Priority,
    PriorityClass,
    Replica,
    ReplicaId,
    RoutingPolicy,
    SessionConfig,
    SyncContext,
    SyncEndpoint,
    SyncSession,
)
from repro.replication.sync import build_batch, build_request


def replica(name, filter_=None):
    return Replica(ReplicaId(name), filter_ or AddressFilter(name))


class SendEverything(RoutingPolicy):
    name = "flood-test"

    def to_send(self, item, target_filter, context) -> Optional[Priority]:
        return Priority(PriorityClass.NORMAL)


class SendNothing(RoutingPolicy):
    name = "null-test"

    def to_send(self, item, target_filter, context) -> Optional[Priority]:
        return None


class RecordingPolicy(RoutingPolicy):
    """Captures every hook invocation for assertion."""

    name = "recording"

    def __init__(self):
        self.generated = 0
        self.processed = []
        self.encounters = 0
        self.sent_batches = []

    def generate_req(self, context):
        self.generated += 1
        return {"marker": self.generated}

    def process_req(self, routing_state, context):
        self.processed.append(routing_state)

    def to_send(self, item, target_filter, context):
        return Priority(PriorityClass.NORMAL)

    def on_encounter_start(self, context):
        self.encounters += 1

    def on_items_sent(self, items, context):
        self.sent_batches.append(list(items))


class TestBasicSync:
    def test_matching_item_is_delivered(self):
        alice, bob = replica("alice"), replica("bob")
        bob.create_item("hi", {"destination": "alice"})
        stats = SyncSession(
            source=SyncEndpoint(bob),
            target=SyncEndpoint(alice),
        ).run()
        assert stats.sent_total == 1
        assert stats.sent_matching == 1
        assert alice.in_filter_count == 1
        assert stats.delivered_items[0].payload == "hi"

    def test_non_matching_item_not_sent_by_default(self):
        alice, bob = replica("alice"), replica("bob")
        bob.create_item("hi", {"destination": "carol"})
        stats = SyncSession(
            source=SyncEndpoint(bob),
            target=SyncEndpoint(alice),
        ).run()
        assert stats.sent_total == 0
        assert alice.relay_count == 0

    def test_known_items_are_never_resent(self):
        alice, bob = replica("alice"), replica("bob")
        bob.create_item("hi", {"destination": "alice"})
        SyncSession(source=SyncEndpoint(bob), target=SyncEndpoint(alice)).run()
        repeat = SyncSession(
            source=SyncEndpoint(bob),
            target=SyncEndpoint(alice),
        ).run()
        assert repeat.sent_total == 0

    def test_sync_is_directional(self):
        alice, bob = replica("alice"), replica("bob")
        alice.create_item("to bob", {"destination": "bob"})
        stats = SyncSession(
            source=SyncEndpoint(bob),
            target=SyncEndpoint(alice),
        ).run()
        assert stats.sent_total == 0
        assert not bob.in_filter_count

    def test_stats_identify_source_and_target(self):
        alice, bob = replica("alice"), replica("bob")
        stats = SyncSession(
            source=SyncEndpoint(bob),
            target=SyncEndpoint(alice),
        ).run()
        assert stats.source == ReplicaId("bob")
        assert stats.target == ReplicaId("alice")


class TestPolicyHooks:
    def test_policy_forwards_out_of_filter_items(self):
        alice, bob = replica("alice"), replica("bob")
        bob.create_item("hi", {"destination": "carol"})
        stats = SyncSession(
            source=SyncEndpoint(bob, SendEverything()),
            target=SyncEndpoint(alice),
        ).run()
        assert stats.sent_relayed == 1
        assert alice.relay_count == 1

    def test_relayed_item_later_delivered_to_destination(self):
        alice, bob, carol = replica("alice"), replica("bob"), replica("carol")
        bob.create_item("hi", {"destination": "carol"})
        SyncSession(
            source=SyncEndpoint(bob, SendEverything()),
            target=SyncEndpoint(alice),
        ).run()
        stats = SyncSession(
            source=SyncEndpoint(alice, SendNothing()),
            target=SyncEndpoint(carol),
        ).run()
        assert stats.sent_matching == 1
        assert carol.in_filter_count == 1

    def test_request_flow_reaches_both_policies(self):
        alice, bob = replica("alice"), replica("bob")
        target_policy = RecordingPolicy()
        source_policy = RecordingPolicy()
        SyncSession(
            source=SyncEndpoint(bob, source_policy),
            target=SyncEndpoint(alice, target_policy),
        ).run()
        assert target_policy.generated == 1
        assert source_policy.processed == [{"marker": 1}]

    def test_on_items_sent_sees_final_batch(self):
        alice, bob = replica("alice"), replica("bob")
        bob.create_item("a", {"destination": "alice"})
        bob.create_item("b", {"destination": "carol"})
        policy = RecordingPolicy()
        SyncSession(
            source=SyncEndpoint(bob, policy),
            target=SyncEndpoint(alice),
        ).run()
        assert len(policy.sent_batches) == 1
        assert len(policy.sent_batches[0]) == 2

    def test_local_attributes_stripped_from_wire_by_default(self):
        alice, bob = replica("alice"), replica("bob")
        item = bob.create_item("hi", {"destination": "alice"})
        bob.adjust_local(item.with_local(secret=42))
        SyncSession(source=SyncEndpoint(bob), target=SyncEndpoint(alice)).run()
        received = alice.get_item(item.item_id)
        assert received.local("secret") is None


class TestPriorityOrdering:
    def test_filter_matches_sent_first(self):
        class LowPriority(RoutingPolicy):
            name = "low"

            def to_send(self, item, target_filter, context):
                return Priority(PriorityClass.LOW)

        alice, bob = replica("alice"), replica("bob")
        bob.create_item("relay", {"destination": "carol"})
        bob.create_item("direct", {"destination": "alice"})
        context = SyncContext(ReplicaId("bob"), ReplicaId("alice"), 0.0)
        request = build_request(
            SyncEndpoint(alice), SyncContext(ReplicaId("alice"), ReplicaId("bob"), 0.0)
        )
        batch, _ = build_batch(SyncEndpoint(bob, LowPriority()), request, context)
        assert [entry.item.payload for entry in batch] == ["direct", "relay"]

    def test_cost_breaks_ties_ascending(self):
        class CostByPayload(RoutingPolicy):
            name = "costed"

            def to_send(self, item, target_filter, context):
                return Priority(PriorityClass.NORMAL, float(item.payload))

        alice, bob = replica("alice"), replica("bob")
        bob.create_item(3.0, {"destination": "x"})
        bob.create_item(1.0, {"destination": "x"})
        bob.create_item(2.0, {"destination": "x"})
        context = SyncContext(ReplicaId("bob"), ReplicaId("alice"), 0.0)
        request = build_request(
            SyncEndpoint(alice), SyncContext(ReplicaId("alice"), ReplicaId("bob"), 0.0)
        )
        batch, _ = build_batch(SyncEndpoint(bob, CostByPayload()), request, context)
        assert [entry.item.payload for entry in batch] == [1.0, 2.0, 3.0]


class TestBandwidthCap:
    def test_max_items_truncates_batch(self):
        alice, bob = replica("alice"), replica("bob")
        for i in range(5):
            bob.create_item(f"m{i}", {"destination": "alice"})
        stats = SyncSession(
            source=SyncEndpoint(bob),
            target=SyncEndpoint(alice),
            config=SessionConfig(max_items=2),
        ).run()
        assert stats.sent_total == 2
        assert stats.truncated == 3
        assert alice.in_filter_count == 2

    def test_truncation_respects_priority(self):
        class Ranked(RoutingPolicy):
            name = "ranked"

            def to_send(self, item, target_filter, context):
                return Priority(PriorityClass.NORMAL, float(item.payload))

        alice, bob = replica("alice"), replica("bob")
        bob.create_item(9.0, {"destination": "x"})
        bob.create_item(1.0, {"destination": "x"})
        stats = SyncSession(
            source=SyncEndpoint(bob, Ranked()),
            target=SyncEndpoint(alice),
            config=SessionConfig(max_items=1),
        ).run()
        assert stats.sent_total == 1
        relayed = list(alice.stored_items())
        assert relayed[0].payload == 1.0

    def test_remaining_items_sent_on_later_sync(self):
        alice, bob = replica("alice"), replica("bob")
        for i in range(3):
            bob.create_item(f"m{i}", {"destination": "alice"})
        SyncSession(
            source=SyncEndpoint(bob),
            target=SyncEndpoint(alice),
            config=SessionConfig(max_items=2),
        ).run()
        SyncSession(
            source=SyncEndpoint(bob),
            target=SyncEndpoint(alice),
            config=SessionConfig(max_items=2),
        ).run()
        assert alice.in_filter_count == 3


class TestEncounter:
    def test_two_syncs_exchange_both_ways(self):
        alice, bob = replica("alice"), replica("bob")
        alice.create_item("to bob", {"destination": "bob"})
        bob.create_item("to alice", {"destination": "alice"})
        stats = EncounterSession(
            first=SyncEndpoint(alice),
            second=SyncEndpoint(bob),
        ).run()
        assert len(stats) == 2
        assert alice.in_filter_count == 1
        assert bob.in_filter_count == 1

    def test_encounter_start_fires_once_per_side(self):
        alice, bob = replica("alice"), replica("bob")
        pa, pb = RecordingPolicy(), RecordingPolicy()
        EncounterSession(
            first=SyncEndpoint(alice, pa),
            second=SyncEndpoint(bob, pb),
        ).run()
        assert pa.encounters == 1
        assert pb.encounters == 1

    def test_encounter_budget_shared_across_both_syncs(self):
        alice, bob = replica("alice"), replica("bob")
        alice.create_item("a1", {"destination": "bob"})
        bob.create_item("b1", {"destination": "alice"})
        bob.create_item("b2", {"destination": "alice"})
        stats = EncounterSession(
            first=SyncEndpoint(alice),
            second=SyncEndpoint(bob),
            config=SessionConfig(max_items=1),
        ).run()
        assert sum(s.sent_total for s in stats) == 1

    def test_eventual_consistency_through_relay_chain(self):
        """A three-hop chain delivers with flooding, as eventual filter
        consistency plus forwarding promises."""
        nodes = [replica(name) for name in ("a", "b", "c", "d")]
        nodes[0].create_item("chain", {"destination": "d"})
        for left, right in zip(nodes, nodes[1:]):
            EncounterSession(
                first=SyncEndpoint(left, SendEverything()),
                second=SyncEndpoint(right, SendEverything()),
            ).run()
        assert nodes[-1].in_filter_count == 1


class TestPolicyMisbehaviour:
    def test_bad_priority_type_raises_policy_error(self):
        from repro.replication import PolicyError

        class BrokenPolicy(RoutingPolicy):
            name = "broken"

            def to_send(self, item, target_filter, context):
                return "very high please"  # not a Priority

        alice, bob = replica("alice"), replica("bob")
        bob.create_item("m", {"destination": "carol"})
        with pytest.raises(PolicyError, match="must return a Priority"):
            SyncSession(
                source=SyncEndpoint(bob, BrokenPolicy()),
                target=SyncEndpoint(alice),
            ).run()
