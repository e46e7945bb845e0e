"""Unit tests for binary Spray and Wait."""

import pytest

from repro.dtn.spray_wait import COPIES_ATTRIBUTE, SprayAndWaitPolicy
from repro.replication import (
    AddressFilter,
    EncounterSession,
    Replica,
    ReplicaId,
    SyncContext,
    SyncEndpoint,
    SyncSession,
)


def node(name, copies=8):
    replica = Replica(ReplicaId(name), AddressFilter(name))
    policy = SprayAndWaitPolicy(initial_copies=copies).bind(replica)
    return replica, policy


def ctx():
    return SyncContext(ReplicaId("a"), ReplicaId("b"), 0.0)


class TestConfiguration:
    def test_default_copies_matches_table_2(self):
        assert SprayAndWaitPolicy().initial_copies == 8

    def test_rejects_nonpositive_copies(self):
        with pytest.raises(ValueError):
            SprayAndWaitPolicy(initial_copies=0)


class TestForwardingDecision:
    def test_fresh_message_initialised_and_selected(self):
        replica, policy = node("a")
        item = replica.create_item("m", {"destination": "z"})
        assert policy.to_send(item, AddressFilter("b"), ctx()) is not None
        assert replica.get_item(item.item_id).local(COPIES_ATTRIBUTE) == 8

    def test_single_copy_enters_wait_phase(self):
        replica, policy = node("a")
        item = replica.create_item("m", {"destination": "z"})
        replica.adjust_local(item.with_local(**{COPIES_ATTRIBUTE: 1}))
        stored = replica.get_item(item.item_id)
        assert policy.to_send(stored, AddressFilter("b"), ctx()) is None

    def test_two_copies_still_spray(self):
        replica, policy = node("a")
        item = replica.create_item("m", {"destination": "z"})
        replica.adjust_local(item.with_local(**{COPIES_ATTRIBUTE: 2}))
        stored = replica.get_item(item.item_id)
        assert policy.to_send(stored, AddressFilter("b"), ctx()) is not None


class TestBinaryHalving:
    def test_spray_splits_budget_between_peers(self):
        a_replica, a_policy = node("a", copies=8)
        b_replica, b_policy = node("b")
        item = a_replica.create_item("m", {"destination": "z"})
        SyncSession(
            source=SyncEndpoint(a_replica, a_policy),
            target=SyncEndpoint(b_replica, b_policy),
        ).run()
        assert a_replica.get_item(item.item_id).local(COPIES_ATTRIBUTE) == 4
        assert b_replica.get_item(item.item_id).local(COPIES_ATTRIBUTE) == 4

    def test_odd_budget_keeps_ceiling_locally(self):
        a_replica, a_policy = node("a", copies=5)
        b_replica, b_policy = node("b")
        item = a_replica.create_item("m", {"destination": "z"})
        SyncSession(
            source=SyncEndpoint(a_replica, a_policy),
            target=SyncEndpoint(b_replica, b_policy),
        ).run()
        assert a_replica.get_item(item.item_id).local(COPIES_ATTRIBUTE) == 3
        assert b_replica.get_item(item.item_id).local(COPIES_ATTRIBUTE) == 2

    def test_budget_conservation_across_spray_tree(self):
        """Total logical copies across all holders never exceed the
        initial budget (the DESIGN.md invariant)."""
        initial = 8
        replicas, endpoints = [], []
        for i in range(6):
            replica = Replica(ReplicaId(f"n{i}"), AddressFilter(f"n{i}"))
            policy = SprayAndWaitPolicy(initial_copies=initial).bind(replica)
            replicas.append(replica)
            endpoints.append(SyncEndpoint(replica, policy))
        item = replicas[0].create_item("m", {"destination": "nowhere"})
        # A gossip round-robin of encounters.
        for i in range(len(endpoints)):
            for j in range(i + 1, len(endpoints)):
                EncounterSession(first=endpoints[i], second=endpoints[j]).run()
        total = sum(
            replica.get_item(item.item_id).local(COPIES_ATTRIBUTE, 0)
            for replica in replicas
            if replica.holds(item.item_id)
        )
        assert 0 < total <= initial

    def test_holder_count_bounded_by_budget(self):
        initial = 4
        replicas, endpoints = [], []
        for i in range(8):
            replica = Replica(ReplicaId(f"n{i}"), AddressFilter(f"n{i}"))
            policy = SprayAndWaitPolicy(initial_copies=initial).bind(replica)
            replicas.append(replica)
            endpoints.append(SyncEndpoint(replica, policy))
        item = replicas[0].create_item("m", {"destination": "nowhere"})
        for i in range(len(endpoints)):
            for j in range(i + 1, len(endpoints)):
                EncounterSession(first=endpoints[i], second=endpoints[j]).run()
        holders = sum(1 for replica in replicas if replica.holds(item.item_id))
        assert holders <= initial

    def test_wait_phase_still_delivers_to_destination(self):
        a_replica, a_policy = node("a", copies=1)
        dst_replica, dst_policy = node("dst")
        a_replica.create_item("m", {"destination": "dst"})
        stats = SyncSession(
            source=SyncEndpoint(a_replica, a_policy),
            target=SyncEndpoint(dst_replica, dst_policy),
        ).run()
        assert stats.sent_matching == 1
        assert dst_replica.in_filter_count == 1


class TestWireFormat:
    def test_receiver_gets_floor_half(self):
        replica, policy = node("a", copies=8)
        item = replica.create_item("m", {"destination": "z"})
        policy.to_send(item, AddressFilter("b"), ctx())
        outgoing = policy.prepare_outgoing(replica.get_item(item.item_id), ctx())
        assert outgoing.local(COPIES_ATTRIBUTE) == 4

    def test_unsprayed_delivery_carries_single_copy(self):
        replica, policy = node("a")
        item = replica.create_item("m", {"destination": "b"})
        # Direct delivery: to_send never ran, no copies attribute stored.
        outgoing = policy.prepare_outgoing(item, ctx())
        assert outgoing.local(COPIES_ATTRIBUTE) == 1
