"""Unit tests for the messaging application."""

from repro.messaging.app import MessagingApp
from repro.replication import (
    AddressFilter,
    MultiAddressFilter,
    Replica,
    ReplicaId,
    SyncEndpoint,
    SyncSession,
)


def make_app(name="alice", addresses=None, **kwargs):
    replica = Replica(ReplicaId(name), AddressFilter(name))
    fixed = frozenset(addresses) if addresses else frozenset({name})
    return replica, MessagingApp(replica, lambda: fixed, **kwargs)


class TestSending:
    def test_send_creates_addressed_item(self):
        replica, app = make_app("alice")
        message = app.send("bob", "hello", now=5.0)
        assert message.destination == "bob"
        assert message.source == "alice"
        assert message.created_at == 5.0
        assert replica.holds(message.message_id)

    def test_send_from_uses_explicit_source(self):
        _, app = make_app("bus01")
        message = app.send_from("user007", "user008", "hi")
        assert message.source == "user007"

    def test_sent_message_sits_in_outbox_until_synced(self):
        replica, app = make_app("alice")
        app.send("bob", "hello")
        assert replica.outbox_count == 1
        assert replica.in_filter_count == 0


class TestDelivery:
    def test_delivery_via_sync(self):
        sender_replica, sender_app = make_app("alice")
        receiver_replica, receiver_app = make_app("bob")
        message = sender_app.send("bob", "hello")
        SyncSession(
            source=SyncEndpoint(sender_replica),
            target=SyncEndpoint(receiver_replica),
        ).run()
        assert receiver_app.has_received(message.message_id)
        assert [m.body for m in receiver_app.delivered_messages] == ["hello"]

    def test_delivery_callback_fires_once(self):
        sender_replica, sender_app = make_app("alice")
        receiver_replica, receiver_app = make_app("bob")
        received = []
        receiver_app.on_delivery(received.append)
        sender_app.send("bob", "hello")
        SyncSession(
            source=SyncEndpoint(sender_replica),
            target=SyncEndpoint(receiver_replica),
        ).run()
        SyncSession(
            source=SyncEndpoint(sender_replica),
            target=SyncEndpoint(receiver_replica),
        ).run()
        assert len(received) == 1

    def test_self_addressed_message_delivered_immediately(self):
        _, app = make_app("alice")
        message = app.send("alice", "note to self")
        assert app.has_received(message.message_id)

    def test_relayed_mail_not_counted_as_delivery(self):
        """A multi-address filter pulls in others' mail without the app
        claiming it was delivered here."""
        relay_replica = Replica(
            ReplicaId("relay"), MultiAddressFilter("relay", frozenset({"bob"}))
        )
        relay_app = MessagingApp(relay_replica, lambda: frozenset({"relay"}))
        sender_replica, sender_app = make_app("alice")
        message = sender_app.send("bob", "hi")
        SyncSession(
            source=SyncEndpoint(sender_replica),
            target=SyncEndpoint(relay_replica),
        ).run()
        assert relay_replica.holds(message.message_id)
        assert not relay_app.has_received(message.message_id)

    def test_dynamic_address_set_delivers_on_filter_change(self):
        """Mail relayed for a user is delivered when the user's address
        joins this host's set — the boarding-a-bus case."""
        current = {"addresses": frozenset({"bus"})}
        replica = Replica(ReplicaId("bus"), AddressFilter("bus"))
        app = MessagingApp(replica, lambda: current["addresses"])
        sender_replica, sender_app = make_app("alice")
        message = sender_app.send("user1", "hi")

        # First the bus merely relays for user1 (filter includes, app not).
        replica.set_filter(MultiAddressFilter("bus", frozenset({"user1"})))
        SyncSession(
            source=SyncEndpoint(sender_replica),
            target=SyncEndpoint(replica),
        ).run()
        assert not app.has_received(message.message_id)

        # Then user1 boards: address set grows and the filter re-fires.
        current["addresses"] = frozenset({"bus", "user1"})
        replica.set_filter(AddressFilter("bus"))  # demote
        replica.set_filter(MultiAddressFilter("bus", frozenset({"user1"})))
        assert app.has_received(message.message_id)


class TestDeleteOnReceipt:
    def test_destination_deletes_item_after_processing(self):
        sender_replica, sender_app = make_app("alice")
        receiver_replica, receiver_app = make_app(
            "bob", delete_on_receipt=True
        )
        message = sender_app.send("bob", "hello")
        SyncSession(
            source=SyncEndpoint(sender_replica),
            target=SyncEndpoint(receiver_replica),
        ).run()
        assert receiver_app.has_received(message.message_id)
        stored = receiver_replica.get_item(message.message_id)
        assert stored is not None and stored.deleted

    def test_tombstone_propagates_to_forwarders(self):
        """The paper's cleanup flow: a forwarder whose filter selects the
        message learns of the deletion and replaces its copy with the
        payload-free tombstone."""
        forwarder = Replica(
            ReplicaId("mule"), MultiAddressFilter("mule", frozenset({"bob"}))
        )
        sender_replica, sender_app = make_app("alice")
        receiver_replica, receiver_app = make_app("bob", delete_on_receipt=True)
        message = sender_app.send("bob", "hello")
        SyncSession(
            source=SyncEndpoint(sender_replica),
            target=SyncEndpoint(forwarder),
        ).run()
        SyncSession(
            source=SyncEndpoint(forwarder),
            target=SyncEndpoint(receiver_replica),
        ).run()
        SyncSession(
            source=SyncEndpoint(receiver_replica),
            target=SyncEndpoint(forwarder),
        ).run()
        stored = forwarder.get_item(message.message_id)
        assert stored is not None and stored.deleted
        assert stored.payload is None
