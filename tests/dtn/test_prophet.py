"""Unit tests for PROPHET delivery predictabilities."""

import pytest

from repro.dtn.prophet import ProphetPolicy, ProphetRequest
from repro.replication import (
    AddressFilter,
    EncounterSession,
    Priority,
    Replica,
    ReplicaId,
    SyncContext,
    SyncEndpoint,
)


def make_policy(name="a", **kwargs):
    replica = Replica(ReplicaId(name), AddressFilter(name))
    policy = ProphetPolicy(**kwargs).bind(replica)
    return replica, policy


def ctx(local="a", remote="b", now=0.0):
    return SyncContext(ReplicaId(local), ReplicaId(remote), now)


class TestConfiguration:
    def test_defaults_match_table_2(self):
        policy = ProphetPolicy()
        assert policy.p_init == 0.75
        assert policy.beta == 0.25
        assert policy.gamma == 0.98

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p_init": 0.0},
            {"p_init": 1.5},
            {"beta": -0.1},
            {"gamma": 0.0},
            {"aging_unit": 0.0},
        ],
    )
    def test_rejects_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            ProphetPolicy(**kwargs)


class TestDirectBump:
    def test_meeting_raises_predictability(self):
        _, policy = make_policy("a")
        peer = ProphetRequest(addresses=frozenset({"b"}))
        policy.process_req(peer, ctx())
        assert policy.predictability("b") == pytest.approx(0.75)

    def test_repeat_meetings_approach_one(self):
        _, policy = make_policy("a")
        peer = ProphetRequest(addresses=frozenset({"b"}))
        for _ in range(5):
            policy.process_req(peer, ctx())
        assert 0.99 < policy.predictability("b") < 1.0

    def test_bounded_in_unit_interval(self):
        _, policy = make_policy("a")
        peer = ProphetRequest(addresses=frozenset({"b"}))
        for _ in range(100):
            policy.process_req(peer, ctx())
        assert 0.0 <= policy.predictability("b") <= 1.0


class TestAging:
    def test_predictability_decays_over_time(self):
        _, policy = make_policy("a", aging_unit=3600.0)
        policy.process_req(ProphetRequest(addresses=frozenset({"b"})), ctx(now=0.0))
        before = policy.predictability("b")
        policy.age(now=10 * 3600.0)
        after = policy.predictability("b")
        assert after < before
        assert after == pytest.approx(before * 0.98**10)

    def test_aging_is_monotone_nonincreasing(self):
        _, policy = make_policy("a")
        policy.process_req(ProphetRequest(addresses=frozenset({"b"})), ctx(now=0.0))
        values = []
        for hour in range(1, 6):
            policy.age(now=hour * 3600.0)
            values.append(policy.predictability("b"))
        assert values == sorted(values, reverse=True)

    def test_tiny_values_are_garbage_collected(self):
        _, policy = make_policy("a")
        policy.process_req(ProphetRequest(addresses=frozenset({"b"})), ctx(now=0.0))
        policy.age(now=1e9)
        assert "b" not in policy.predictabilities

    def test_aging_never_goes_backwards(self):
        _, policy = make_policy("a")
        policy.process_req(ProphetRequest(addresses=frozenset({"b"})), ctx(now=7200.0))
        before = policy.predictability("b")
        policy.age(now=3600.0)  # earlier timestamp: no-op
        assert policy.predictability("b") == before


class TestTransitivity:
    def test_transitive_boost_via_intermediary(self):
        _, policy = make_policy("a")
        peer = ProphetRequest(
            addresses=frozenset({"b"}),
            predictabilities={"c": 0.8},
        )
        policy.process_req(peer, ctx())
        expected = 0.75 * 0.8 * 0.25  # P(a,b) * P(b,c) * beta
        assert policy.predictability("c") == pytest.approx(expected)

    def test_transitivity_takes_maximum(self):
        _, policy = make_policy("a")
        policy.predictabilities["c"] = 0.9
        peer = ProphetRequest(
            addresses=frozenset({"b"}), predictabilities={"c": 0.8}
        )
        policy.process_req(peer, ctx())
        assert policy.predictability("c") == pytest.approx(0.9)

    def test_peer_own_addresses_excluded_from_transitivity(self):
        _, policy = make_policy("a")
        peer = ProphetRequest(
            addresses=frozenset({"b"}), predictabilities={"b": 1.0}
        )
        policy.process_req(peer, ctx())
        # b got the direct bump (0.75), not a transitive value.
        assert policy.predictability("b") == pytest.approx(0.75)


class TestForwardingRule:
    def test_forwards_when_peer_is_better(self):
        replica, policy = make_policy("a")
        item = replica.create_item("m", {"destination": "dst"})
        peer = ProphetRequest(
            addresses=frozenset({"b"}), predictabilities={"dst": 0.5}
        )
        policy.process_req(peer, ctx())
        decision = policy.to_send(item, AddressFilter("b"), ctx())
        assert isinstance(decision, Priority)

    def test_holds_when_peer_is_worse(self):
        replica, policy = make_policy("a")
        policy.predictabilities["dst"] = 0.9
        item = replica.create_item("m", {"destination": "dst"})
        peer = ProphetRequest(
            addresses=frozenset({"b"}), predictabilities={"dst": 0.5}
        )
        policy.process_req(peer, ctx())
        assert policy.to_send(item, AddressFilter("b"), ctx()) is None

    def test_no_request_means_no_forwarding(self):
        replica, policy = make_policy("a")
        item = replica.create_item("m", {"destination": "dst"})
        assert policy.to_send(item, AddressFilter("b"), ctx()) is None

    def test_equal_zero_predictability_blocks_flooding(self):
        replica, policy = make_policy("a")
        item = replica.create_item("m", {"destination": "dst"})
        peer = ProphetRequest(addresses=frozenset({"b"}))
        policy.process_req(peer, ctx())
        assert policy.to_send(item, AddressFilter("b"), ctx()) is None

    def test_higher_peer_predictability_transmits_first(self):
        replica, policy = make_policy("a")
        item = replica.create_item("m", {"destination": "near"})
        peer = ProphetRequest(
            addresses=frozenset({"b"}),
            predictabilities={"near": 0.9, "far": 0.2},
        )
        policy.process_req(peer, ctx())
        near = policy.to_send(item, AddressFilter("b"), ctx())
        far_item = replica.create_item("m2", {"destination": "far"})
        far = policy.to_send(far_item, AddressFilter("b"), ctx())
        assert near.sort_key() < far.sort_key()


class TestEndToEnd:
    def test_once_per_encounter_vector_update(self):
        """Each host's vector updates exactly once per encounter: after one
        full encounter both hosts predict each other with exactly P_init."""
        a_replica = Replica(ReplicaId("a"), AddressFilter("a"))
        a_policy = ProphetPolicy().bind(a_replica, lambda: frozenset({"a"}))
        b_replica = Replica(ReplicaId("b"), AddressFilter("b"))
        b_policy = ProphetPolicy().bind(b_replica, lambda: frozenset({"b"}))
        EncounterSession(
            first=SyncEndpoint(a_replica, a_policy),
            second=SyncEndpoint(b_replica, b_policy),
        ).run()
        assert a_policy.predictability("b") == pytest.approx(0.75)
        assert b_policy.predictability("a") == pytest.approx(0.75)

    def test_message_flows_toward_destination_gradient(self):
        """A relay that has met the destination attracts the message from
        the source that has not."""
        src = Replica(ReplicaId("src"), AddressFilter("src"))
        src_policy = ProphetPolicy().bind(src, lambda: frozenset({"src"}))
        relay = Replica(ReplicaId("relay"), AddressFilter("relay"))
        relay_policy = ProphetPolicy().bind(relay, lambda: frozenset({"relay"}))
        dst = Replica(ReplicaId("dst"), AddressFilter("dst"))
        dst_policy = ProphetPolicy().bind(dst, lambda: frozenset({"dst"}))

        # Relay meets the destination first, acquiring predictability.
        EncounterSession(
            first=SyncEndpoint(relay, relay_policy),
            second=SyncEndpoint(dst, dst_policy),
        ).run()
        item = src.create_item("m", {"destination": "dst"})
        EncounterSession(
            first=SyncEndpoint(src, src_policy),
            second=SyncEndpoint(relay, relay_policy),
        ).run()
        assert relay.holds(item.item_id)
        EncounterSession(
            first=SyncEndpoint(relay, relay_policy),
            second=SyncEndpoint(dst, dst_policy),
        ).run()
        assert dst.in_filter_count == 1

