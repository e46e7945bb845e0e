"""Tests for multicast messaging (a set of recipients per message)."""

import pytest

from repro.dtn import EpidemicPolicy
from repro.messaging.app import MessagingApp
from repro.messaging.message import Message
from repro.replication import (
    AddressFilter,
    EncounterSession,
    Replica,
    ReplicaId,
    SyncEndpoint,
    SyncSession,
)


def make_host(name, policy=None):
    replica = Replica(ReplicaId(name), AddressFilter(name))
    app = MessagingApp(replica, lambda: frozenset({name}))
    if policy is not None:
        endpoint = SyncEndpoint(replica, policy.bind(replica))
    else:
        endpoint = SyncEndpoint(replica)
    return replica, app, endpoint


class TestMessageModel:
    def test_multicast_attributes(self):
        attributes = Message.multicast_attributes_for("a", ["b", "c", "b"], 1.0)
        assert attributes["destination"] == ("b", "c")  # deduped, ordered

    def test_empty_destination_set_rejected(self):
        with pytest.raises(ValueError):
            Message.multicast_attributes_for("a", [], 1.0)

    def test_destinations_view(self):
        replica, app, _ = make_host("a")
        unicast = app.send("b", "x")
        multicast = app.send_multicast(["b", "c"], "y")
        assert unicast.destinations == ("b",)
        assert not unicast.is_multicast
        assert multicast.destinations == ("b", "c")
        assert multicast.is_multicast


class TestDelivery:
    def test_each_recipient_gets_one_copy(self):
        _, sender_app, sender_ep = make_host("a")
        _, bob_app, bob_ep = make_host("b")
        _, carol_app, carol_ep = make_host("c")
        message = sender_app.send_multicast(["b", "c"], "to both")
        EncounterSession(first=sender_ep, second=bob_ep).run()
        EncounterSession(first=sender_ep, second=carol_ep).run()
        assert bob_app.has_received(message.message_id)
        assert carol_app.has_received(message.message_id)

    def test_non_recipient_does_not_deliver(self):
        _, sender_app, sender_ep = make_host("a")
        _, dave_app, dave_ep = make_host("d")
        sender_app.send_multicast(["b", "c"], "not for dave")
        EncounterSession(first=sender_ep, second=dave_ep).run()
        assert dave_app.delivered_messages == []

    def test_recipient_relays_to_other_recipient(self):
        """A recipient's filter matches the message, so the item reaches
        the second recipient through the first, no policy needed."""
        _, sender_app, sender_ep = make_host("a")
        _, bob_app, bob_ep = make_host("b")
        _, carol_app, carol_ep = make_host("c")
        message = sender_app.send_multicast(["b", "c"], "chain")
        SyncSession(source=sender_ep, target=bob_ep).run()
        SyncSession(source=bob_ep, target=carol_ep).run()
        assert bob_app.has_received(message.message_id)
        assert carol_app.has_received(message.message_id)

    def test_multicast_floods_through_relays(self):
        hosts = [make_host(name, EpidemicPolicy()) for name in "amxbc"]
        apps = {name: app for (name, (_, app, _)) in zip("amxbc", hosts)}
        endpoints = [endpoint for (_, _, endpoint) in hosts]
        message = apps["a"].send_multicast(["b", "c"], "flooded")
        for left, right in zip(endpoints, endpoints[1:]):
            EncounterSession(first=left, second=right).run()
        assert apps["b"].has_received(message.message_id)
        assert apps["c"].has_received(message.message_id)
        assert not apps["m"].has_received(message.message_id)

    def test_delivery_callback_once_per_host(self):
        _, sender_app, sender_ep = make_host("a")
        _, bob_app, bob_ep = make_host("b")
        received = []
        bob_app.on_delivery(received.append)
        sender_app.send_multicast(["b", "c"], "once")
        EncounterSession(first=sender_ep, second=bob_ep).run()
        EncounterSession(first=sender_ep, second=bob_ep).run()
        assert len(received) == 1


class TestCodecRoundtrip:
    def test_multicast_item_survives_the_wire(self):
        import json

        from repro.replication.codec import decode_item, encode_item

        replica, app, _ = make_host("a")
        message = app.send_multicast(["b", "c"], "wired")
        item = replica.get_item(message.message_id)
        # Full JSON roundtrip: the tuple becomes a list on the wire; the
        # message model and the filters both accept it.
        decoded = decode_item(json.loads(json.dumps(encode_item(item))))
        recovered = Message.from_item(decoded)
        assert recovered is not None
        assert recovered.destinations == ("b", "c")
        assert AddressFilter("b").matches(decoded)
        assert AddressFilter("c").matches(decoded)
        assert not AddressFilter("d").matches(decoded)
