"""Unit tests for Epidemic routing (TTL-bounded flooding)."""

import pytest

from repro.dtn.epidemic import TTL_ATTRIBUTE, EpidemicPolicy
from repro.replication import (
    AddressFilter,
    EncounterSession,
    Replica,
    ReplicaId,
    SyncContext,
    SyncEndpoint,
    SyncSession,
)


def node(name, ttl=10):
    replica = Replica(ReplicaId(name), AddressFilter(name))
    policy = EpidemicPolicy(initial_ttl=ttl).bind(replica)
    return replica, policy


def ctx(local="a", remote="b"):
    return SyncContext(ReplicaId(local), ReplicaId(remote), 0.0)


class TestConfiguration:
    def test_default_ttl_matches_table_2(self):
        assert EpidemicPolicy().initial_ttl == 10

    def test_rejects_nonpositive_ttl(self):
        with pytest.raises(ValueError):
            EpidemicPolicy(initial_ttl=0)


class TestForwardingDecision:
    def test_fresh_message_selected_and_stamped(self):
        replica, policy = node("a")
        item = replica.create_item("m", {"destination": "z"})
        decision = policy.to_send(item, AddressFilter("b"), ctx())
        assert decision is not None
        stored = replica.get_item(item.item_id)
        assert stored.local(TTL_ATTRIBUTE) == 10

    def test_zero_ttl_not_selected(self):
        replica, policy = node("a")
        item = replica.create_item("m", {"destination": "z"})
        replica.adjust_local(item.with_local(**{TTL_ATTRIBUTE: 0}))
        stored = replica.get_item(item.item_id)
        assert policy.to_send(stored, AddressFilter("b"), ctx()) is None

    def test_tombstones_not_flooded(self):
        replica, policy = node("a")
        item = replica.create_item("m", {"destination": "z"})
        tombstone = replica.delete_item(item.item_id)
        assert policy.to_send(tombstone, AddressFilter("b"), ctx()) is None


class TestTTLDecrement:
    def test_outgoing_copy_has_decremented_ttl(self):
        replica, policy = node("a", ttl=4)
        item = replica.create_item("m", {"destination": "z"})
        policy.to_send(item, AddressFilter("b"), ctx())
        outgoing = policy.prepare_outgoing(replica.get_item(item.item_id), ctx())
        assert outgoing.local(TTL_ATTRIBUTE) == 3

    def test_stored_copy_keeps_its_ttl(self):
        replica, policy = node("a", ttl=4)
        item = replica.create_item("m", {"destination": "z"})
        policy.to_send(item, AddressFilter("b"), ctx())
        policy.prepare_outgoing(replica.get_item(item.item_id), ctx())
        assert replica.get_item(item.item_id).local(TTL_ATTRIBUTE) == 4

    def test_ttl_never_goes_negative(self):
        replica, policy = node("a", ttl=1)
        item = replica.create_item("m", {"destination": "z"})
        replica.adjust_local(item.with_local(**{TTL_ATTRIBUTE: 0}))
        outgoing = policy.prepare_outgoing(
            replica.get_item(item.item_id), ctx()
        )
        assert outgoing.local(TTL_ATTRIBUTE) == 0


class TestHopBound:
    def test_ttl_limits_propagation_depth(self):
        """With TTL=2 the message reaches at most 2 relay hops from the
        source; the third relay never receives it."""
        replicas = []
        endpoints = []
        for name in ("src", "r1", "r2", "r3"):
            replica = Replica(ReplicaId(name), AddressFilter(name))
            policy = EpidemicPolicy(initial_ttl=2).bind(replica)
            replicas.append(replica)
            endpoints.append(SyncEndpoint(replica, policy))
        item = replicas[0].create_item("m", {"destination": "unreachable"})
        for left, right in zip(endpoints, endpoints[1:]):
            SyncSession(source=left, target=right).run()
        assert replicas[1].holds(item.item_id)  # hop 1 (ttl 1 remaining)
        assert replicas[2].holds(item.item_id)  # hop 2 (ttl 0 remaining)
        assert not replicas[3].holds(item.item_id)  # beyond the bound

    def test_flooding_reaches_destination_through_relays(self):
        replicas = []
        endpoints = []
        for name in ("src", "mule", "dst"):
            replica = Replica(ReplicaId(name), AddressFilter(name))
            endpoints.append(
                SyncEndpoint(replica, EpidemicPolicy().bind(replica))
            )
            replicas.append(replica)
        replicas[0].create_item("m", {"destination": "dst"})
        EncounterSession(first=endpoints[0], second=endpoints[1]).run()
        EncounterSession(first=endpoints[1], second=endpoints[2]).run()
        assert replicas[2].in_filter_count == 1

    def test_duplicate_suppression_from_substrate(self):
        """Two different relay paths still deliver exactly one copy."""
        hub1, hub1_policy = node("hub1")
        hub2, hub2_policy = node("hub2")
        src, src_policy = node("src")
        dst, dst_policy = node("dst")
        src.create_item("m", {"destination": "dst"})
        EncounterSession(
            first=SyncEndpoint(src, src_policy),
            second=SyncEndpoint(hub1, hub1_policy),
        ).run()
        EncounterSession(
            first=SyncEndpoint(src, src_policy),
            second=SyncEndpoint(hub2, hub2_policy),
        ).run()
        stats1 = EncounterSession(
            first=SyncEndpoint(hub1, hub1_policy),
            second=SyncEndpoint(dst, dst_policy),
        ).run()
        stats2 = EncounterSession(
            first=SyncEndpoint(hub2, hub2_policy),
            second=SyncEndpoint(dst, dst_policy),
        ).run()
        delivered = sum(s.sent_matching for s in stats1 + stats2)
        assert delivered == 1
        assert dst.in_filter_count == 1
