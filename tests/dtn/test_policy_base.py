"""Unit tests for the routing-policy base class and its host bindings."""

import pytest

from repro.dtn import DirectDeliveryPolicy, get_policy
from repro.replication import (
    AddressFilter,
    EncounterSession,
    MultiAddressFilter,
    Replica,
    ReplicaId,
    SyncEndpoint,
)
from tests.conftest import make_item


class TestBinding:
    def test_unbound_policy_refuses_replica_access(self):
        policy = DirectDeliveryPolicy()
        assert not policy.is_bound
        with pytest.raises(RuntimeError):
            _ = policy.replica

    def test_bind_returns_self(self):
        replica = Replica(ReplicaId("n"), AddressFilter("n"))
        policy = DirectDeliveryPolicy()
        assert policy.bind(replica) is policy
        assert policy.is_bound
        assert policy.replica is replica

    def test_local_addresses_from_provider(self):
        replica = Replica(ReplicaId("n"), AddressFilter("n"))
        policy = DirectDeliveryPolicy().bind(
            replica, lambda: frozenset({"n", "user1"})
        )
        assert policy.local_addresses() == {"n", "user1"}

    def test_local_addresses_falls_back_to_filter(self):
        # Relay addresses are hosts the filter carries mail for, not
        # destinations this host answers to.
        replica = Replica(ReplicaId("n"), MultiAddressFilter("n", {"m"}))
        policy = DirectDeliveryPolicy().bind(replica)
        assert policy.local_addresses() == {"n"}


@pytest.mark.parametrize("name", ["first-contact", "maxprop"])
def test_a_relay_for_the_destination_is_not_the_destination(name):
    """a → x → c → b, where x relays for b, with policies bound without an
    address provider: x neither ends the walk nor acks, and b receives."""
    filters = {
        "a": AddressFilter("a"),
        "x": MultiAddressFilter("x", {"b"}),
        "c": AddressFilter("c"),
        "b": AddressFilter("b"),
    }
    endpoints = {}
    for host, filter_ in filters.items():
        replica = Replica(ReplicaId(host), filter_)
        endpoints[host] = SyncEndpoint(replica, get_policy(name).bind(replica))
    message = endpoints["a"].replica.create_item("m", {"destination": "b"})
    for first, second in (("a", "x"), ("x", "c"), ("c", "b")):
        EncounterSession(first=endpoints[first], second=endpoints[second]).run()
    assert endpoints["b"].replica.get_item(message.item_id) is not None
    if name == "maxprop":
        assert message.item_id not in endpoints["x"].policy.acks


class TestHelpers:
    def test_is_routable_message(self):
        assert DirectDeliveryPolicy.is_routable_message(make_item())

    def test_tombstones_not_routable(self):
        from repro.replication.ids import ReplicaId as RId, Version

        tombstone = make_item().as_tombstone(Version(RId("x"), 5))
        assert not DirectDeliveryPolicy.is_routable_message(tombstone)

    def test_acks_not_routable(self):
        ack = make_item(kind="ack")
        assert not DirectDeliveryPolicy.is_routable_message(ack)
