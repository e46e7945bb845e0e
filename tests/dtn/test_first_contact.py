"""Unit tests for First Contact (single-copy random-walk) routing."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtn.first_contact import FirstContactPolicy
from repro.replication import (
    AddressFilter,
    EncounterSession,
    Replica,
    ReplicaId,
    SyncEndpoint,
    SyncSession,
)


def node(name):
    replica = Replica(ReplicaId(name), AddressFilter(name))
    policy = FirstContactPolicy().bind(replica, lambda: frozenset({name}))
    return replica, SyncEndpoint(replica, policy)


class TestHandOff:
    def test_copy_moves_not_spreads(self):
        src, src_ep = node("src")
        relay, relay_ep = node("relay")
        item = src.create_item("m", {"destination": "dst"})
        SyncSession(source=src_ep, target=relay_ep).run()
        assert relay.holds(item.item_id)
        assert not src.holds(item.item_id)  # the source dropped its copy

    def test_knowledge_survives_the_drop(self):
        src, src_ep = node("src")
        relay, relay_ep = node("relay")
        item = src.create_item("m", {"destination": "dst"})
        SyncSession(source=src_ep, target=relay_ep).run()
        assert src.knowledge.contains(item.version)
        # The walk is self-avoiding: the source refuses its old message.
        stats = SyncSession(source=relay_ep, target=src_ep).run()
        assert stats.sent_total == 0

    def test_delivery_releases_the_last_copy(self):
        src, src_ep = node("src")
        dst, dst_ep = node("dst")
        item = src.create_item("m", {"destination": "dst"})
        SyncSession(source=src_ep, target=dst_ep).run()
        assert dst.holds(item.item_id)  # delivered copy stays
        assert not src.holds(item.item_id)

    def test_delivered_message_is_never_re_walked(self):
        src, src_ep = node("src")
        dst, dst_ep = node("dst")
        bystander, bystander_ep = node("bystander")
        item = src.create_item("m", {"destination": "dst"})
        SyncSession(source=src_ep, target=dst_ep).run()
        stats = SyncSession(source=dst_ep, target=bystander_ep).run()
        assert stats.sent_total == 0
        assert dst.holds(item.item_id)

    def test_tombstones_are_not_walked(self):
        src, src_ep = node("src")
        relay, relay_ep = node("relay")
        item = src.create_item("m", {"destination": "src"})
        src.delete_item(item.item_id)
        stats = SyncSession(source=src_ep, target=relay_ep).run()
        assert stats.sent_relayed == 0


class TestSingleCopyInvariant:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),
                st.integers(min_value=0, max_value=4),
            ).filter(lambda pair: pair[0] != pair[1]),
            max_size=25,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_at_most_one_live_copy_network_wide(self, schedule):
        replicas, endpoints = [], []
        for i in range(5):
            replica, endpoint = node(f"n{i}")
            replicas.append(replica)
            endpoints.append(endpoint)
        item = replicas[0].create_item("walker", {"destination": "nowhere"})
        for step, (a, b) in enumerate(schedule):
            EncounterSession(
                first=endpoints[a],
                second=endpoints[b],
                now=float(step),
            ).run()
            holders = sum(
                1 for replica in replicas if replica.holds(item.item_id)
            )
            assert holders <= 1

    def test_walk_eventually_reaches_destination(self):
        rng = random.Random(5)
        replicas, endpoints = [], []
        for i in range(5):
            replica, endpoint = node(f"n{i}")
            replicas.append(replica)
            endpoints.append(endpoint)
        item = replicas[0].create_item("walker", {"destination": "n4"})
        for step in range(200):
            a, b = rng.sample(range(5), 2)
            EncounterSession(
                first=endpoints[a],
                second=endpoints[b],
                now=float(step),
            ).run()
            if replicas[4].holds(item.item_id):
                break
        assert replicas[4].holds(item.item_id)
