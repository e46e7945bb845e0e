"""Unit tests for the emulated node."""

from repro.dtn import DirectDeliveryPolicy, EpidemicPolicy
from repro.emulation.node import EmulatedNode
from repro.replication import EncounterSession, SyncEndpoint


def node(name, **kwargs):
    return EmulatedNode(name, DirectDeliveryPolicy(), **kwargs)


class TestAddressing:
    def test_own_address_always_present(self):
        assert node("bus01").addresses() == {"bus01"}

    def test_assigned_users_join_address_set(self):
        bus = node("bus01")
        bus.assign_addresses({"user1", "user2"})
        assert bus.addresses() == {"bus01", "user1", "user2"}

    def test_static_relay_addresses_not_in_address_set(self):
        bus = node("bus01", static_relay_addresses={"bus02"})
        assert bus.addresses() == {"bus01"}
        assert bus.static_relay_addresses == {"bus02"}

    def test_filter_covers_users_and_relays(self):
        bus = node("bus01", static_relay_addresses={"bus02"})
        bus.assign_addresses({"user1"})
        addresses = bus.replica.filter.addresses
        assert addresses == {"bus01", "user1", "bus02"}

    def test_reassignment_replaces_users(self):
        bus = node("bus01")
        bus.assign_addresses({"user1"})
        bus.assign_addresses({"user2"})
        assert bus.addresses() == {"bus01", "user2"}

    def test_noop_reassignment_does_not_rebuild_filter(self):
        bus = node("bus01")
        bus.assign_addresses({"user1"})
        before = bus.replica.filter
        bus.assign_addresses({"user1"})
        assert bus.replica.filter is before


class TestMessaging:
    def test_send_and_direct_delivery(self):
        alice, bob = node("a"), node("b")
        message = alice.send("a", "b", "hello", now=0.0)
        EncounterSession(first=alice.endpoint, second=bob.endpoint).run()
        assert bob.app.has_received(message.message_id)
        assert bob.holds_message(message.message_id)

    def test_user_boarding_delivers_relayed_mail(self):
        alice = EmulatedNode("a", EpidemicPolicy())
        epidemic_bus = EmulatedNode("mule", EpidemicPolicy())
        message = alice.send("a", "user9", "hi", now=0.0)
        EncounterSession(
            first=alice.endpoint,
            second=epidemic_bus.endpoint,
        ).run()
        # user9 boards the mule; its relayed copy becomes a delivery.
        epidemic_bus.assign_addresses({"user9"})
        assert epidemic_bus.app.has_received(message.message_id)

    def test_holds_message_ignores_tombstones(self):
        alice = node("a", delete_on_receipt=True)
        bob = node("b")
        message = bob.send("b", "a", "hi", now=0.0)
        EncounterSession(first=bob.endpoint, second=alice.endpoint).run()
        assert alice.app.has_received(message.message_id)
        assert not alice.holds_message(message.message_id)


class TestStorageConstraint:
    def test_relay_capacity_applies_to_node(self):
        bus = EmulatedNode("bus", EpidemicPolicy(), relay_capacity=1)
        senders = [EmulatedNode(f"s{i}", EpidemicPolicy()) for i in range(3)]
        for i, sender in enumerate(senders):
            sender.send(sender.name, "elsewhere", f"m{i}", now=0.0)
            EncounterSession(first=sender.endpoint, second=bus.endpoint).run()
        assert bus.replica.relay_count == 1

    def test_policy_is_bound_to_replica(self):
        bus = EmulatedNode("bus", EpidemicPolicy())
        assert bus.policy.replica is bus.replica
        assert isinstance(bus.endpoint, SyncEndpoint)
