"""Unit tests for MaxProp."""

import pytest

from repro.dtn.maxprop import (
    HOPLIST_ATTRIBUTE,
    MaxPropPolicy,
    MaxPropRequest,
)
from repro.replication import (
    AddressFilter,
    EncounterSession,
    PriorityClass,
    Replica,
    ReplicaId,
    SyncContext,
    SyncEndpoint,
)


def make_node(name, **kwargs):
    replica = Replica(ReplicaId(name), AddressFilter(name))
    policy = MaxPropPolicy(**kwargs).bind(replica, lambda: frozenset({name}))
    return replica, policy


def ctx(local="a", remote="b", now=0.0):
    return SyncContext(ReplicaId(local), ReplicaId(remote), now)


def peer_request(node="b", **kwargs):
    defaults = dict(addresses=frozenset({node}))
    defaults.update(kwargs)
    return MaxPropRequest(node=node, **defaults)


class TestConfiguration:
    def test_default_threshold_matches_table_2(self):
        assert MaxPropPolicy().hop_threshold == 3

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            MaxPropPolicy(hop_threshold=-1)


class TestMeetingProbabilities:
    def test_distribution_normalises_to_one(self):
        _, policy = make_node("a")
        for peer in ("b", "c", "b"):
            policy.process_req(peer_request(peer), ctx())
        vector = policy.own_vector()
        assert sum(vector.values()) == pytest.approx(1.0)
        assert vector["b"] == pytest.approx(2 / 3)
        assert vector["c"] == pytest.approx(1 / 3)

    def test_empty_history_gives_empty_vector(self):
        _, policy = make_node("a")
        assert policy.own_vector() == {}

    def test_gossip_merges_peer_vectors(self):
        _, policy = make_node("a")
        request = peer_request(
            "b", vectors={"b": {"c": 0.5, "d": 0.5}, "c": {"d": 1.0}}
        )
        policy.process_req(request, ctx())
        assert policy.known_vectors["b"] == {"c": 0.5, "d": 0.5}
        assert policy.known_vectors["c"] == {"d": 1.0}

    def test_peer_own_vector_is_authoritative(self):
        _, policy = make_node("a")
        policy.known_vectors["b"] = {"stale": 1.0}
        policy.process_req(peer_request("b", vectors={"b": {"c": 1.0}}), ctx())
        assert policy.known_vectors["b"] == {"c": 1.0}


class TestPathCosts:
    def test_direct_path_cost(self):
        _, policy = make_node("a")
        policy.process_req(peer_request("b"), ctx())
        # After one meeting, p(a→b) = 1.0, so cost 0.
        assert policy.path_cost_to_node("b") == pytest.approx(0.0)

    def test_cost_to_self_is_zero(self):
        _, policy = make_node("a")
        assert policy.path_cost_to_node("a") == 0.0

    def test_unreachable_node_has_no_cost(self):
        _, policy = make_node("a")
        assert policy.path_cost_to_node("mars") is None

    def test_multi_hop_cost_sums_miss_probabilities(self):
        _, policy = make_node("a")
        policy.meeting_counts = {"b": 1.0, "c": 1.0}  # p=0.5 each
        policy.known_vectors = {"b": {"d": 1.0}}
        policy._distance_cache = None
        # a→b cost 0.5, b→d cost 0.0 → total 0.5
        assert policy.path_cost_to_node("d") == pytest.approx(0.5)

    def test_cheaper_path_preferred(self):
        _, policy = make_node("a")
        policy.meeting_counts = {"b": 3.0, "c": 1.0}  # p(b)=.75, p(c)=.25
        policy.known_vectors = {"b": {"d": 1.0}, "c": {"d": 1.0}}
        policy._distance_cache = None
        assert policy.path_cost_to_node("d") == pytest.approx(0.25)

    def test_address_cost_uses_location_directory(self):
        _, policy = make_node("a")
        policy.process_req(peer_request("b"), ctx())
        policy.locations["user1"] = ("b", 10.0)
        assert policy.path_cost_to_address("user1") == pytest.approx(0.0)
        assert policy.path_cost_to_address("unknown-user") is None

    def test_location_gossip_freshest_wins(self):
        _, policy = make_node("a")
        policy.locations["u"] = ("old-bus", 5.0)
        policy.process_req(
            peer_request("b", locations={"u": ("new-bus", 9.0)}), ctx()
        )
        assert policy.locations["u"] == ("new-bus", 9.0)
        policy.process_req(
            peer_request("c", locations={"u": ("stale-bus", 1.0)}), ctx("a", "c")
        )
        assert policy.locations["u"] == ("new-bus", 9.0)


class TestTransmissionOrder:
    def test_new_messages_use_hopcount_band(self):
        replica, policy = make_node("a")
        policy.process_req(peer_request("b"), ctx())
        item = replica.create_item("m", {"destination": "z"})
        decision = policy.to_send(item, AddressFilter("b"), ctx())
        assert decision.class_ == PriorityClass.HIGH
        assert decision.cost == 0.0

    def test_hopcount_orders_within_band(self):
        replica, policy = make_node("a")
        policy.process_req(peer_request("b"), ctx())
        fresh = replica.create_item("m0", {"destination": "z"})
        travelled = replica.create_item("m2", {"destination": "z"})
        replica.adjust_local(
            travelled.with_local(**{HOPLIST_ATTRIBUTE: ("x", "y")})
        )
        d_fresh = policy.to_send(fresh, AddressFilter("b"), ctx())
        d_travelled = policy.to_send(
            replica.get_item(travelled.item_id), AddressFilter("b"), ctx()
        )
        assert d_fresh.sort_key() < d_travelled.sort_key()

    def test_old_messages_ranked_by_path_cost(self):
        replica, policy = make_node("a", hop_threshold=0)
        policy.process_req(peer_request("b"), ctx())
        policy.locations["z"] = ("b", 1.0)
        item = replica.create_item("m", {"destination": "z"})
        decision = policy.to_send(item, AddressFilter("b"), ctx())
        assert decision.class_ == PriorityClass.NORMAL
        assert decision.cost == pytest.approx(0.0)

    def test_unknown_destination_still_floods_last(self):
        replica, policy = make_node("a", hop_threshold=0)
        policy.process_req(peer_request("b"), ctx())
        item = replica.create_item("m", {"destination": "nowhere"})
        decision = policy.to_send(item, AddressFilter("b"), ctx())
        assert decision.class_ == PriorityClass.LOW

    def test_hoplist_extended_on_forward(self):
        replica, policy = make_node("a")
        item = replica.create_item("m", {"destination": "z"})
        outgoing = policy.prepare_outgoing(item, ctx())
        assert outgoing.local(HOPLIST_ATTRIBUTE) == ("a",)


class TestAcknowledgements:
    def test_delivery_generates_ack(self):
        replica, policy = make_node("a")
        other = Replica(ReplicaId("b"), AddressFilter("b"))
        item = other.create_item("m", {"destination": "a"})
        replica.apply_remote(item)
        assert item.item_id in policy.acks

    def test_relayed_mail_does_not_generate_ack(self):
        replica, policy = make_node("a")
        other = Replica(ReplicaId("b"), AddressFilter("b"))
        item = other.create_item("m", {"destination": "carol"})
        replica.apply_remote(item)
        assert item.item_id not in policy.acks

    def test_acked_items_not_forwarded(self):
        replica, policy = make_node("a")
        other = Replica(ReplicaId("b"), AddressFilter("b"))
        item = other.create_item("m", {"destination": "carol"})
        replica.apply_remote(item)
        policy.process_req(peer_request("b", acks=frozenset({item.item_id})), ctx())
        stored = replica.get_item(item.item_id)
        assert stored is None or policy.to_send(
            stored, AddressFilter("b"), ctx()
        ) is None

    def test_ack_expunges_relayed_copy(self):
        replica, policy = make_node("a")
        other = Replica(ReplicaId("b"), AddressFilter("b"))
        item = other.create_item("m", {"destination": "carol"})
        replica.apply_remote(item)
        policy.process_req(peer_request("b", acks=frozenset({item.item_id})), ctx())
        assert not replica.holds(item.item_id)

    def test_ack_never_expunges_destination_copy(self):
        replica, policy = make_node("a")
        other = Replica(ReplicaId("b"), AddressFilter("b"))
        item = other.create_item("m", {"destination": "a"})
        replica.apply_remote(item)
        policy.process_req(peer_request("b", acks=frozenset({item.item_id})), ctx())
        assert replica.holds(item.item_id)

    def test_acks_flood_through_requests(self):
        a_replica, a_policy = make_node("a")
        b_replica, b_policy = make_node("b")
        src = Replica(ReplicaId("src"), AddressFilter("src"))
        item = src.create_item("m", {"destination": "a"})
        a_replica.apply_remote(item)  # delivery → a acks
        EncounterSession(
            first=SyncEndpoint(a_replica, a_policy),
            second=SyncEndpoint(b_replica, b_policy),
        ).run()
        assert item.item_id in b_policy.acks


class TestAckedCopiesAreNotRedecided:
    """``to_send`` asks ``_expunge_if_relayed`` only about a copy that can
    be expunged: one the relay store holds."""

    @staticmethod
    def counted(policy):
        calls = []
        inner = policy._expunge_if_relayed

        def counting(item_id):
            calls.append(item_id)
            inner(item_id)

        policy._expunge_if_relayed = counting
        return calls

    def test_no_call_for_an_acked_copy_in_the_filter_store_or_outbox(self):
        replica, policy = make_node("a")
        other = Replica(ReplicaId("b"), AddressFilter("b"))
        delivered = other.create_item("m", {"destination": "a"})
        replica.apply_remote(delivered)  # in-filter store; acked on arrival
        authored = replica.create_item("n", {"destination": "carol"})  # outbox
        policy.acks.add(authored.item_id)
        assert not replica.relays(delivered.item_id)
        assert not replica.relays(authored.item_id)
        calls = self.counted(policy)
        for item in (delivered, authored):
            assert policy.to_send(item, AddressFilter("b"), ctx()) is None
            assert replica.holds(item.item_id)
        assert calls == []

    def test_an_acked_copy_demoted_to_relay_goes_on_the_next_to_send(self):
        replica, policy = make_node("a")
        other = Replica(ReplicaId("b"), AddressFilter("b"))
        item = other.create_item("m", {"destination": "a"})
        replica.apply_remote(item)
        assert item.item_id in policy.acks
        calls = self.counted(policy)
        assert policy.to_send(item, AddressFilter("b"), ctx()) is None
        assert calls == [] and replica.holds(item.item_id)
        replica.set_filter(AddressFilter("elsewhere"))  # demotes it
        assert replica.relays(item.item_id)
        assert policy.to_send(item, AddressFilter("b"), ctx()) is None
        assert calls == [item.item_id]
        assert not replica.holds(item.item_id)
        assert not replica.relays(item.item_id)

    def test_a_relay_copy_that_arrives_after_its_ack_is_expunged(self):
        replica, policy = make_node("a")
        other = Replica(ReplicaId("b"), AddressFilter("b"))
        item = other.create_item("m", {"destination": "carol"})
        policy.process_req(peer_request("b", acks=frozenset({item.item_id})), ctx())
        replica.apply_remote(item)
        assert replica.relays(item.item_id)
        stored = replica.get_item(item.item_id)
        assert policy.to_send(stored, AddressFilter("b"), ctx()) is None
        assert not replica.holds(item.item_id)


class TestEndToEnd:
    def test_three_node_relay_delivery(self):
        src_replica, src_policy = make_node("src")
        mule_replica, mule_policy = make_node("mule")
        dst_replica, dst_policy = make_node("dst")
        src_replica.create_item("m", {"destination": "dst"})
        EncounterSession(
            first=SyncEndpoint(src_replica, src_policy),
            second=SyncEndpoint(mule_replica, mule_policy),
        ).run()
        EncounterSession(
            first=SyncEndpoint(mule_replica, mule_policy),
            second=SyncEndpoint(dst_replica, dst_policy),
        ).run()
        assert dst_replica.in_filter_count == 1
        # And once delivered, the ack eventually clears the mule's buffer.
        EncounterSession(
            first=SyncEndpoint(dst_replica, dst_policy),
            second=SyncEndpoint(mule_replica, mule_policy),
        ).run()
        assert mule_replica.relay_count == 0
