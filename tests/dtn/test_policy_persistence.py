"""Tests for routing-policy persistent state (paper §V-A requirement 1)."""

import json

import pytest

from repro.dtn import (
    EpidemicPolicy,
    MaxPropPolicy,
    MaxPropRequest,
    ProphetPolicy,
    ProphetRequest,
    SprayAndWaitPolicy,
)
from repro.replication import AddressFilter, Replica, ReplicaId, SyncContext
from repro.replication.codec import CodecError
from repro.replication.ids import ItemId


def ctx(now=0.0):
    return SyncContext(ReplicaId("a"), ReplicaId("b"), now)


def bound(policy_cls, name="a", **kwargs):
    replica = Replica(ReplicaId(name), AddressFilter(name))
    return replica, policy_cls(**kwargs).bind(replica, lambda: frozenset({name}))


class TestDefaults:
    @pytest.mark.parametrize("policy_cls", [EpidemicPolicy, SprayAndWaitPolicy])
    def test_item_state_policies_have_empty_state(self, policy_cls):
        _, policy = bound(policy_cls)
        assert policy.persistent_state() == {}
        policy.restore_state({})  # must not raise


class TestProphet:
    def test_roundtrip_preserves_predictabilities(self):
        _, policy = bound(ProphetPolicy)
        policy.process_req(
            ProphetRequest(
                addresses=frozenset({"b"}), predictabilities={"c": 0.6}
            ),
            ctx(now=3600.0),
        )
        state = json.loads(json.dumps(policy.persistent_state()))

        _, reborn = bound(ProphetPolicy)
        reborn.restore_state(state)
        assert reborn.predictabilities == pytest.approx(policy.predictabilities)

    def test_restored_aging_clock_continues(self):
        _, policy = bound(ProphetPolicy)
        policy.process_req(
            ProphetRequest(addresses=frozenset({"b"})), ctx(now=7200.0)
        )
        state = policy.persistent_state()
        _, reborn = bound(ProphetPolicy)
        reborn.restore_state(state)
        before = reborn.predictability("b")
        reborn.age(now=7200.0)  # same instant: no decay
        assert reborn.predictability("b") == before
        reborn.age(now=7200.0 + 10 * 3600.0)
        assert reborn.predictability("b") < before


def _dicts(value, found=None):
    """Every dict reachable from ``value``, by identity."""
    found = {} if found is None else found
    if isinstance(value, dict):
        found[id(value)] = value
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        for element in value:
            _dicts(element, found)
    return found


class TestMaxProp:
    def make_populated(self):
        replica, policy = bound(MaxPropPolicy)
        policy.process_req(
            MaxPropRequest(
                node="b",
                addresses=frozenset({"b"}),
                vectors={"b": {"c": 1.0}},
                locations={"user1": ("b", 5.0)},
                acks=frozenset({ItemId(ReplicaId("x"), 1)}),
            ),
            ctx(),
        )
        return replica, policy

    def test_roundtrip_preserves_everything(self):
        _, policy = self.make_populated()
        state = json.loads(json.dumps(policy.persistent_state()))
        _, reborn = bound(MaxPropPolicy)
        reborn.restore_state(state)
        assert reborn.meeting_counts == policy.meeting_counts
        assert reborn.known_vectors == policy.known_vectors
        assert reborn.locations == policy.locations
        assert reborn.acks == policy.acks

    def test_restored_policy_computes_same_costs(self):
        _, policy = self.make_populated()
        _, reborn = bound(MaxPropPolicy)
        reborn.restore_state(policy.persistent_state())
        assert reborn.path_cost_to_node("c") == policy.path_cost_to_node("c")
        assert reborn.path_cost_to_address("user1") == policy.path_cost_to_address(
            "user1"
        )

    def _live_dicts(self, policy):
        return _dicts([policy.meeting_counts, policy.known_vectors, policy.locations])

    def test_persisted_and_restored_state_share_no_dict_with_a_live_policy(self):
        """Gossiped vectors are stored as received; what leaves or enters
        through persistence is still a copy."""
        _, policy = self.make_populated()
        state = policy.persistent_state()
        assert not _dicts(state).keys() & self._live_dicts(policy).keys()

        _, reborn = bound(MaxPropPolicy)
        reborn.restore_state(state)
        assert not _dicts(state).keys() & self._live_dicts(reborn).keys()
        assert not self._live_dicts(policy).keys() & self._live_dicts(reborn).keys()

        state["known_vectors"]["b"]["c"] = 0.0  # nothing live moves
        assert policy.known_vectors["b"] == {"c": 1.0}
        assert reborn.known_vectors["b"] == {"c": 1.0}

    def test_a_request_carries_the_acks_as_they_grow(self):
        _, policy = self.make_populated()
        first = policy.generate_req(ctx()).acks
        assert first == {ItemId(ReplicaId("x"), 1)}
        assert policy.generate_req(ctx()).acks is first  # unchanged: reused
        policy.acks.add(ItemId(ReplicaId("x"), 2))
        assert policy.generate_req(ctx()).acks == policy.acks

        _, reborn = bound(MaxPropPolicy)
        reborn.restore_state(policy.persistent_state())
        assert reborn.generate_req(ctx()).acks == policy.acks


def _prophet_state():
    return {"predictabilities": {"b": 0.5}, "last_aged_at": 3600.0}


def _maxprop_state():
    return {
        "meeting_counts": {"b": 1.0},
        "known_vectors": {"b": {"c": 1.0}},
        "locations": {"user1": ["b", 5.0]},
        "acks": [["x", 1]],
    }


#: One change each that PROPHET's or MaxProp's ``persistent_state()``
#: could never have written.
DAMAGE = {
    "prophet": [
        lambda state: [1, 2],
        lambda state: None,
        lambda state: {},
        lambda state: {**state, "bogus": 1},
        lambda state: {"last_aged_at": 0.0},
        lambda state: {**state, "predictabilities": "x"},
        lambda state: {**state, "predictabilities": {"b": "0.5"}},
        lambda state: {**state, "predictabilities": {"b": True}},
        lambda state: {**state, "last_aged_at": None},
    ],
    "maxprop": [
        lambda state: [1, 2],
        lambda state: {"predictabilities": "x"},
        lambda state: {**state, "bogus": 1},
        lambda state: {**state, "meeting_counts": {"b": "1"}},
        lambda state: {**state, "known_vectors": {"b": 1.0}},
        lambda state: {**state, "known_vectors": {"b": {"c": [1.0]}}},
        lambda state: {**state, "locations": {"user1": ["b"]}},
        lambda state: {**state, "locations": {"user1": [1, 5.0]}},
        lambda state: {**state, "locations": {"user1": "b"}},
        lambda state: {**state, "acks": {"x": 1}},
        lambda state: {**state, "acks": [["x"]]},
    ],
}


class TestRefusedStates:
    @pytest.mark.parametrize(
        "policy_cls, state, damage",
        [
            (ProphetPolicy, _prophet_state, damage)
            for damage in DAMAGE["prophet"]
        ]
        + [
            (MaxPropPolicy, _maxprop_state, damage)
            for damage in DAMAGE["maxprop"]
        ],
    )
    def test_a_state_the_policy_never_wrote_is_a_codec_error(
        self, policy_cls, state, damage
    ):
        _, reborn = bound(policy_cls)
        reborn.restore_state(state())  # the undamaged state restores
        with pytest.raises(CodecError):
            reborn.restore_state(damage(state()))
