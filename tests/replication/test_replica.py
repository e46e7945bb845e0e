"""Unit tests for the replica: authoring, receiving, stores, knowledge."""

import pytest

from repro.replication import (
    AddressFilter,
    DuplicateDeliveryError,
    MultiAddressFilter,
    Replica,
    ReplicaId,
    UnknownItemError,
)
from repro.replication.events import BaseReplicaObserver


def replica(name="alice", filter_=None, relay_capacity=None):
    return Replica(
        ReplicaId(name),
        filter_ if filter_ is not None else AddressFilter(name),
        relay_capacity=relay_capacity,
    )


class Recorder(BaseReplicaObserver):
    def __init__(self):
        self.stored = []
        self.evicted = []

    def on_store(self, item, matched_filter):
        self.stored.append((item, matched_filter))

    def on_evict(self, item):
        self.evicted.append(item)


class TestAuthoring:
    def test_create_adds_version_to_knowledge(self):
        node = replica()
        item = node.create_item("hi", {"destination": "bob"})
        assert node.knowledge.contains(item.version)

    def test_create_matching_filter_goes_in_filter_store(self):
        node = replica()
        node.create_item("note to self", {"destination": "alice"})
        assert node.in_filter_count == 1
        assert node.outbox_count == 0

    def test_create_non_matching_goes_to_outbox(self):
        node = replica()
        node.create_item("hi", {"destination": "bob"})
        assert node.outbox_count == 1
        assert node.in_filter_count == 0

    def test_created_items_get_distinct_ids_and_versions(self):
        node = replica()
        a = node.create_item("x", {"destination": "bob"})
        b = node.create_item("y", {"destination": "bob"})
        assert a.item_id != b.item_id
        assert a.version != b.version

    def test_update_bumps_version_and_keeps_id(self):
        node = replica()
        item = node.create_item("v1", {"destination": "bob"})
        updated = node.update_item(item.item_id, payload="v2")
        assert updated.item_id == item.item_id
        assert updated.version != item.version
        assert node.get_item(item.item_id).payload == "v2"

    def test_update_merges_attributes(self):
        node = replica()
        item = node.create_item("v1", {"destination": "bob", "tag": "old"})
        updated = node.update_item(item.item_id, attributes={"tag": "new"})
        assert updated.attribute("tag") == "new"
        assert updated.destination == "bob"

    def test_update_unknown_raises(self):
        node = replica()
        other = replica("bob")
        foreign = other.create_item("x", {"destination": "alice"})
        with pytest.raises(UnknownItemError):
            node.update_item(foreign.item_id)

    def test_update_clears_local_attributes(self):
        node = replica()
        item = node.create_item("v1", {"destination": "bob"})
        node.adjust_local(item.with_local(ttl=3))
        updated = node.update_item(item.item_id, payload="v2")
        assert updated.local("ttl") is None


class TestReceiving:
    def test_apply_remote_matching_filter(self):
        alice, bob = replica("alice"), replica("bob")
        item = bob.create_item("hi", {"destination": "alice"})
        assert alice.apply_remote(item) is True
        assert alice.in_filter_count == 1
        assert alice.knowledge.contains(item.version)

    def test_apply_remote_non_matching_goes_to_relay(self):
        alice, bob = replica("alice"), replica("bob")
        item = bob.create_item("hi", {"destination": "carol"})
        assert alice.apply_remote(item) is False
        assert alice.relay_count == 1

    def test_duplicate_delivery_raises(self):
        alice, bob = replica("alice"), replica("bob")
        item = bob.create_item("hi", {"destination": "alice"})
        alice.apply_remote(item)
        with pytest.raises(DuplicateDeliveryError):
            alice.apply_remote(item)

    def test_newer_version_replaces_older(self):
        alice, bob = replica("alice"), replica("bob")
        item = bob.create_item("v1", {"destination": "alice"})
        alice.apply_remote(item)
        updated = bob.update_item(item.item_id, payload="v2")
        alice.apply_remote(updated)
        assert alice.get_item(item.item_id).payload == "v2"
        assert alice.in_filter_count == 1

    def test_stale_version_recorded_but_not_stored(self):
        alice, bob = replica("alice"), replica("bob")
        item = bob.create_item("v1", {"destination": "alice"})
        updated = bob.update_item(item.item_id, payload="v2")
        alice.apply_remote(updated)
        alice.apply_remote(item)  # old version arrives late via another path
        assert alice.get_item(item.item_id).payload == "v2"
        assert alice.knowledge.contains(item.version)

    def test_tombstone_wins_over_concurrent_update(self):
        alice, bob, carol = replica("alice"), replica("bob"), replica("carol")
        item = bob.create_item("v1", {"destination": "alice"})
        carol.apply_remote(item)
        tombstone = carol.delete_item(item.item_id)
        alice.apply_remote(item)
        alice.apply_remote(tombstone)
        assert alice.get_item(item.item_id).deleted


class TestDeletion:
    def test_delete_creates_replicating_tombstone(self):
        node = replica()
        item = node.create_item("x", {"destination": "alice"})
        tombstone = node.delete_item(item.item_id)
        assert tombstone.deleted
        assert node.knowledge.contains(tombstone.version)
        assert node.get_item(item.item_id).deleted

    def test_delete_unknown_raises(self):
        with pytest.raises(UnknownItemError):
            replica().delete_item(replica("x").create_item("y").item_id)

    def test_expunge_drops_without_tombstone(self):
        alice, bob = replica("alice"), replica("bob")
        item = bob.create_item("hi", {"destination": "carol"})
        alice.apply_remote(item)
        alice.expunge(item.item_id)
        assert alice.get_item(item.item_id) is None
        assert alice.knowledge.contains(item.version)


class TestLocalAdjustments:
    def test_adjust_local_in_each_store(self):
        node = replica(
            "alice", MultiAddressFilter("alice", frozenset({"carol"}))
        )
        mine = node.create_item("self", {"destination": "alice"})
        out = node.create_item("out", {"destination": "bob"})
        other = replica("bob")
        relayed_src = other.create_item("relay", {"destination": "dave"})
        node.apply_remote(relayed_src)
        for item in (mine, out, relayed_src):
            node.adjust_local(node.get_item(item.item_id).with_local(mark=1))
            assert node.get_item(item.item_id).local("mark") == 1

    def test_adjust_local_version_mismatch_raises(self):
        node = replica()
        item = node.create_item("v1", {"destination": "bob"})
        node.update_item(item.item_id, payload="v2")
        with pytest.raises(UnknownItemError):
            node.adjust_local(item.with_local(mark=1))

    def test_adjust_local_does_not_touch_knowledge(self):
        node = replica()
        item = node.create_item("x", {"destination": "bob"})
        before = list(node.knowledge.versions())
        node.adjust_local(item.with_local(mark=1))
        assert list(node.knowledge.versions()) == before


class TestFilterChange:
    def test_relayed_items_promoted_on_filter_widen(self):
        alice, bob = replica("alice"), replica("bob")
        item = bob.create_item("hi", {"destination": "carol"})
        alice.apply_remote(item)
        recorder = Recorder()
        alice.register_observer(recorder)
        alice.set_filter(MultiAddressFilter("alice", frozenset({"carol"})))
        assert alice.in_filter_count == 1
        assert alice.relay_count == 0
        assert recorder.stored == [(item, True)]

    def test_outbox_items_promoted_on_filter_widen(self):
        alice = replica("alice")
        item = alice.create_item("hi", {"destination": "carol"})
        alice.set_filter(MultiAddressFilter("alice", frozenset({"carol"})))
        assert alice.in_filter_count == 1
        assert alice.outbox_count == 0

    def test_narrowing_demotes_to_relay_or_outbox(self):
        alice = replica(
            "alice", MultiAddressFilter("alice", frozenset({"carol"}))
        )
        mine = alice.create_item("m", {"destination": "carol"})
        bob = replica("bob")
        theirs = bob.create_item("t", {"destination": "carol"})
        alice.apply_remote(theirs)
        alice.set_filter(AddressFilter("alice"))
        assert alice.in_filter_count == 0
        assert alice.outbox_count == 1  # authored here
        assert alice.relay_count == 1  # received from bob


class TestStorageConstraint:
    def test_relay_capacity_evicts_fifo(self):
        alice = replica("alice", relay_capacity=2)
        recorder = Recorder()
        alice.register_observer(recorder)
        bob = replica("bob")
        items = [
            bob.create_item(f"m{i}", {"destination": "carol"}) for i in range(3)
        ]
        for item in items:
            alice.apply_remote(item)
        assert alice.relay_count == 2
        assert [e.item_id for e in recorder.evicted] == [items[0].item_id]

    def test_capacity_never_touches_own_or_delivered_items(self):
        alice = replica("alice", relay_capacity=1)
        mine = alice.create_item("mine", {"destination": "bob"})
        bob = replica("bob")
        for_me = bob.create_item("inbound", {"destination": "alice"})
        alice.apply_remote(for_me)
        relayed = [
            bob.create_item(f"r{i}", {"destination": "carol"}) for i in range(3)
        ]
        for item in relayed:
            alice.apply_remote(item)
        assert alice.holds(mine.item_id)
        assert alice.holds(for_me.item_id)
        assert alice.relay_count == 1


class TestQueries:
    def test_stored_items_spans_all_stores(self):
        alice = replica("alice")
        alice.create_item("inbox", {"destination": "alice"})
        alice.create_item("outbox", {"destination": "bob"})
        bob = replica("bob")
        relayed = bob.create_item("relay", {"destination": "carol"})
        alice.apply_remote(relayed)
        assert len(list(alice.stored_items())) == 3

    def test_items_unknown_to(self):
        alice, bob = replica("alice"), replica("bob")
        item = alice.create_item("x", {"destination": "bob"})
        assert alice.items_unknown_to(bob.knowledge) == [item]
        bob.apply_remote(item)
        assert alice.items_unknown_to(bob.knowledge) == []
