"""Unit tests for the version index and store snapshot iteration.

The index is pure plumbing: ``VersionIndex.unknown_items(knowledge)``
must return exactly what filtering the stores' insertion-order snapshots
through ``knowledge.contains`` would — the same item objects, in the same
order — under every mutation a store supports (insert, replace, remove,
clear, in-place update). A standalone store has an index of its own; a
replica's three stores share one, so the cases at the end drive the
replica operations that move copies between stores. A randomized churn
test drives all of them against the reference predicate.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtn import EpidemicPolicy
from repro.emulation.node import EmulatedNode
from repro.replication.filters import AddressFilter, MultiAddressFilter
from repro.replication.ids import ItemId, ReplicaId, Version
from repro.replication.items import Item
from repro.replication.replica import Replica
from repro.replication.persistence import replica_from_state, replica_to_state
from repro.replication.store import ItemStore, RelayStore, VersionIndex
from repro.replication.versions import VersionVector
from tests.conftest import make_item, make_version


def reference_unknown(store, knowledge):
    """The executable spec: insertion-order scan through ``contains``."""
    return [item for item in store.items() if not knowledge.contains(item.version)]


def unknown(store, knowledge):
    return store.index.unknown_items(knowledge)


def assert_same_objects(found, expected):
    """Equal lists of the very same objects: ``Item`` equality sees only
    ``(item_id, version)``, so a stale copy would compare equal."""
    assert found == expected
    assert all(a is b for a, b in zip(found, expected))


def assert_replica_matches_scan(replica, knowledge=None):
    for probe in (knowledge, VersionVector.empty(), replica.knowledge):
        if probe is None:
            continue
        assert_same_objects(
            replica.items_unknown_to(probe),
            [
                item
                for item in replica.stored_items()
                if not probe.contains(item.version)
            ],
        )


def knowledge_of(*versions):
    vector = VersionVector.empty()
    for version in versions:
        vector.add(version)
    return vector


class TestUnknownItems:
    def test_empty_store_yields_nothing(self):
        assert unknown(ItemStore(), VersionVector.empty()) == []

    def test_empty_knowledge_yields_everything_in_insertion_order(self):
        store = ItemStore()
        items = [make_item(replica="a"), make_item(replica="b"), make_item(replica="a")]
        for item in items:
            store.put(item)
        assert unknown(store, VersionVector.empty()) == items

    def test_known_prefix_is_skipped(self):
        store = ItemStore()
        items = [make_item(replica="origin", counter=c) for c in (1, 2, 3, 4)]
        for item in items:
            store.put(item)
        knowledge = knowledge_of(*(item.version for item in items[:2]))
        assert unknown(store, knowledge) == items[2:]

    def test_extras_beyond_prefix_are_skipped(self):
        store = ItemStore()
        items = [make_item(replica="origin", counter=c) for c in (1, 2, 3, 4, 5)]
        for item in items:
            store.put(item)
        # prefix 1..2 plus out-of-order extra 4: only 3 and 5 are unknown.
        knowledge = knowledge_of(
            make_version("origin", 1), make_version("origin", 2),
            make_version("origin", 4),
        )
        assert unknown(store, knowledge) == [items[2], items[4]]

    def test_fully_known_origin_short_circuits(self):
        store = ItemStore()
        items = [make_item(replica="origin", counter=c) for c in (1, 2)]
        for item in items:
            store.put(item)
        knowledge = knowledge_of(*(item.version for item in items))
        assert unknown(store, knowledge) == []

    def test_result_interleaves_origins_by_insertion_order(self):
        store = ItemStore()
        a1 = make_item(replica="a", counter=1)
        b1 = make_item(replica="b", counter=1)
        a2 = make_item(replica="a", counter=2)
        for item in (a1, b1, a2):
            store.put(item)
        # Counter order within origin "a" is (a1, a2) but insertion order
        # interleaves b1 between them; the query must report store order.
        assert unknown(store, VersionVector.empty()) == [a1, b1, a2]

    def test_replacement_reindexes_old_version(self):
        store = ItemStore()
        item = make_item(replica="origin", counter=3)
        store.put(item)
        newer = item.with_version(make_version("origin", 7))
        store.put(newer)
        assert unknown(store, VersionVector.empty()) == [newer]
        # Knowing only the replaced version must not hide the new one.
        assert unknown(store, knowledge_of(item.version)) == [newer]
        assert unknown(store, knowledge_of(newer.version)) == []

    def test_remove_discard_clear_unindex(self):
        store = ItemStore()
        items = [make_item(replica="origin", counter=c) for c in (1, 2, 3)]
        for item in items:
            store.put(item)
        store.remove(items[0].item_id)
        store.discard(items[1].item_id)
        assert unknown(store, VersionVector.empty()) == [items[2]]
        store.clear()
        assert unknown(store, VersionVector.empty()) == []

    def test_update_in_place_keeps_index_and_order(self):
        store = ItemStore()
        first, second = make_item(), make_item()
        store.put(first)
        store.put(second)
        store.update_in_place(first.with_local(ttl=3))
        found = unknown(store, VersionVector.empty())
        assert [item.item_id for item in found] == [first.item_id, second.item_id]
        assert found[0].local("ttl") == 3
        assert found[0] is store.get(first.item_id)  # the adjusted copy itself

    def test_out_of_order_arrival_then_the_middle_counter_removed(self):
        store = ItemStore()
        by_counter = {
            c: make_item(replica="origin", counter=c) for c in (5, 2, 9, 4)
        }
        for item in by_counter.values():  # arrival order 5, 2, 9, 4
            store.put(item)
        store.remove(by_counter[4].item_id)  # sits mid-column, arrived last
        arrival = [by_counter[c] for c in (5, 2, 9)]
        assert unknown(store, VersionVector.empty()) == arrival
        # Prefix 1..2 known: the bisect lands between the out-of-order 2
        # and 5, and what is past it still reports in arrival order.
        knowledge = knowledge_of(
            make_version("origin", 1), make_version("origin", 2)
        )
        assert unknown(store, knowledge) == [by_counter[5], by_counter[9]]
        assert unknown(store, knowledge) == reference_unknown(
            store, knowledge
        )

    def test_update_in_place_with_a_changed_version_keeps_fifo_position(self):
        store = ItemStore()
        first, second, third = (
            make_item(replica="origin", counter=c) for c in (1, 2, 3)
        )
        for item in (first, second, third):
            store.put(item)
        moved = first.with_version(make_version("elsewhere", 7))
        store.update_in_place(moved)
        assert unknown(store, VersionVector.empty()) == [moved, second, third]
        assert list(store.items()) == [moved, second, third]
        assert store.oldest() == moved
        # The old version is unindexed, the new one indexed.
        assert unknown(store, knowledge_of(first.version)) == [
            moved, second, third,
        ]
        assert unknown(store, knowledge_of(moved.version)) == [second, third]
        # A later put of the same id is a fresh arrival, as ever.
        store.put(moved.with_local(ttl=1))
        assert unknown(store, VersionVector.empty()) == [second, third, moved]

    def test_clear_then_reuse(self):
        store = ItemStore()
        stale = [make_item(replica="origin", counter=c) for c in (1, 2, 3)]
        for item in stale:
            store.put(item)
        store.clear()
        assert len(store) == 0 and store.get(stale[0].item_id) is None
        fresh = [make_item(replica="origin", counter=c) for c in (2, 1)]
        for item in fresh:
            store.put(item)
        assert store.get(fresh[0].item_id) is fresh[0]
        assert unknown(store, VersionVector.empty()) == fresh
        assert unknown(store, knowledge_of(fresh[1].version)) == [fresh[0]]
        store.remove(fresh[0].item_id)
        assert unknown(store, VersionVector.empty()) == [fresh[1]]

    def test_extras_for_one_origin_and_none_for_another(self):
        store = ItemStore()
        a = [make_item(replica="a", counter=c) for c in (1, 2, 3, 4)]
        b = [make_item(replica="b", counter=c) for c in (1, 2, 3)]
        for item in (a[0], b[0], a[1], b[1], a[2], b[2], a[3]):
            store.put(item)
        # Origin "a": prefix 1 plus the extra 3 (the filtered walk).
        # Origin "b": prefix 1, no extras (the plain slice).
        knowledge = knowledge_of(
            make_version("a", 1), make_version("a", 3), make_version("b", 1)
        )
        assert knowledge.extra_counters(ReplicaId("a")) == {3}
        assert not knowledge.extra_counters(ReplicaId("b"))
        assert unknown(store, knowledge) == [a[1], b[1], b[2], a[3]]

    def test_relay_store_delegates(self):
        relay = RelayStore(capacity=2)
        items = [make_item(replica="origin", counter=c) for c in (1, 2, 3)]
        for item in items:
            relay.put(item)  # capacity 2: FIFO evicts items[0]
        knowledge = knowledge_of(items[1].version)
        assert unknown(relay._store, knowledge) == [items[2]]


class TestRandomizedIndexEquivalence:
    def test_index_matches_reference_scan_under_churn(self):
        """Random inserts, replacements, removals, and in-place updates:
        the index must agree with the reference predicate scan throughout,
        against knowledge vectors of random shape (prefixes and extras)."""
        rng = random.Random(20110607)
        store = ItemStore()
        live = []
        origins = ["a", "b", "c"]
        counters = {origin: 0 for origin in origins}
        for step in range(600):
            action = rng.random()
            if action < 0.55 or not live:
                origin = rng.choice(origins)
                counters[origin] += 1
                item = make_item(replica=origin, counter=counters[origin])
                store.put(item)
                live.append(item)
            elif action < 0.70:
                victim = live.pop(rng.randrange(len(live)))
                store.remove(victim.item_id)
            elif action < 0.85:
                index = rng.randrange(len(live))
                origin = live[index].version.replica.name
                counters[origin] += 1
                replaced = live[index].with_version(
                    make_version(origin, counters[origin])
                )
                store.put(replaced)
                live.pop(index)
                live.append(replaced)
            else:
                index = rng.randrange(len(live))
                adjusted = live[index].with_local(touched=step)
                store.update_in_place(adjusted)
                live[index] = adjusted

            if step % 7 == 0:
                knowledge = VersionVector.empty()
                for origin in origins:
                    for counter in range(1, counters[origin] + 1):
                        if rng.random() < 0.6:
                            knowledge.add(make_version(origin, counter))
                assert_same_objects(
                    unknown(store, knowledge), reference_unknown(store, knowledge)
                )
        assert_same_objects(
            unknown(store, VersionVector.empty()), list(store.items())
        )


def populated_replica(relay_capacity=None):
    """Replica ``r`` holding one copy in each store: its own mail (in
    filter), mail it wrote to ``x`` (outbox) and ``o``'s mail to ``x``
    (relay), interleaved by origin."""
    replica = Replica(
        ReplicaId("r"), AddressFilter("r"), relay_capacity=relay_capacity
    )
    replica.apply_remote(make_item(destination="x", replica="o", counter=1))
    replica.create_item("out", {"destination": "x"})
    replica.apply_remote(make_item(destination="r", replica="o", counter=2))
    replica.create_item("mine", {"destination": "r"})
    replica.apply_remote(make_item(destination="x", replica="o", counter=3))
    return replica


class TestReplicaIndex:
    """One index over a replica's three stores: store → outbox → relay,
    each in insertion order, and always the copy the store holds now."""

    def test_order_is_store_then_outbox_then_relay(self):
        replica = populated_replica()
        found = replica.items_unknown_to(VersionVector.empty())
        assert [item.destination for item in found] == ["r", "r", "x", "x", "x"]
        assert [item.version.replica.name for item in found] == [
            "o", "r", "r", "o", "o",
        ]
        assert_replica_matches_scan(replica)

    def test_adjust_local_hands_back_the_adjusted_copy(self):
        replica = populated_replica()
        for stored in list(replica.stored_items()):
            adjusted = stored.with_local(ttl=7)
            replica.adjust_local(adjusted)
            found = replica.items_unknown_to(VersionVector.empty())
            assert any(item is adjusted for item in found)
            assert not any(item is stored for item in found)
            assert_replica_matches_scan(replica)

    def test_set_filter_promotion_and_demotion_keep_store_order(self):
        replica = populated_replica()
        before = replica.items_unknown_to(VersionVector.empty())
        replica.set_filter(MultiAddressFilter("r", frozenset({"x"})))
        assert replica.relay_count == replica.outbox_count == 0
        promoted = replica.items_unknown_to(VersionVector.empty())
        assert promoted[:2] == before[:2] and promoted != before
        assert_replica_matches_scan(replica)
        replica.set_filter(AddressFilter("r"))
        assert (replica.in_filter_count, replica.outbox_count) == (2, 1)
        assert replica.relay_count == 2
        assert_replica_matches_scan(replica)
        knowledge = knowledge_of(make_version("o", 1), make_version("r", 1))
        assert_replica_matches_scan(replica, knowledge)

    def test_capacity_eviction_leaves_the_index_equal_to_the_scan(self):
        replica = populated_replica(relay_capacity=1)
        assert replica.relay_count == 1  # o:1 was evicted for o:3
        assert_replica_matches_scan(replica)
        replica.apply_remote(make_item(destination="y", replica="p", counter=1))
        assert [item.version for item in replica.stored_items()][-1] == (
            make_version("p", 1)
        )
        assert_replica_matches_scan(replica, knowledge_of(make_version("o", 2)))

    def test_restored_replica_indexes_what_persistence_put_back(self):
        replica = populated_replica()
        replica.adjust_local(
            replica.get_item(next(iter(replica.stored_items())).item_id)
            .with_local(ttl=3)
        )
        restored = replica_from_state(
            json.loads(json.dumps(replica_to_state(replica)))
        )
        assert restored.items_unknown_to(VersionVector.empty()) == (
            replica.items_unknown_to(VersionVector.empty())
        )
        assert_replica_matches_scan(restored, knowledge_of(make_version("o", 1)))

    def test_crash_restart_of_a_node_keeps_the_index(self):
        node = EmulatedNode("r", EpidemicPolicy(), relay_capacity=2)
        for counter in (1, 2, 3):
            node.replica.apply_remote(
                make_item(destination="x", replica="o", counter=counter)
            )
        node.replica.create_item("out", {"destination": "x"})
        node.crash_restart()
        assert node.replica.relay_count == 2
        assert_replica_matches_scan(node.replica, knowledge_of(make_version("o", 2)))


class TestRemove:
    def test_removing_a_version_the_index_does_not_hold_raises(self):
        r = ReplicaId("a")
        index = VersionIndex()
        held = Item(
            item_id=ItemId(r, 1), version=Version(r, 2), payload=None,
            attributes={},
        )
        index.add(held, 7)
        stranger = Item(
            item_id=ItemId(r, 2), version=Version(r, 1), payload=None,
            attributes={},
        )
        with pytest.raises(KeyError, match="a:1"):
            index.remove(stranger)
        assert_same_objects(index.unknown_items(VersionVector.empty()), [held])
        assert index.remove(held) == 7


class TestPark:
    def test_a_parked_copy_is_reached_by_destination_and_counted(self):
        replica = populated_replica()
        everything = replica.items_unknown_to(VersionVector.empty())
        relayed = everything[-1]  # o:3, relayed for "x"
        replica.park(relayed)
        assert_same_objects(
            replica.items_unknown_to(VersionVector.empty()), everything
        )
        found, count = replica.sync_candidates(VersionVector.empty(), {"r"})
        assert_same_objects(found, everything[:-1])
        assert count == 5
        for addresses in ({"x"}, {"r", "x"}, None):
            found, count = replica.sync_candidates(
                VersionVector.empty(), addresses
            )
            assert_same_objects(found, everything)
            assert count == 5
        known = knowledge_of(relayed.version, make_version("o", 1))
        found, count = replica.sync_candidates(known, {"x"})
        assert relayed not in found and count == 3
        # Replacing the copy (here a host-local adjustment) ends the mark.
        adjusted = relayed.with_local(ttl=0)
        replica.adjust_local(adjusted)
        found, count = replica.sync_candidates(VersionVector.empty(), {"r"})
        assert found[-1] is adjusted and count == 5

    def test_parking_a_stale_or_multicast_copy_does_nothing(self):
        replica = populated_replica()
        stale = [i for i in replica.stored_items() if i.version.counter == 3][0]
        replica.adjust_local(stale.with_local(ttl=1))
        replica.park(stale)  # no longer the copy the store holds
        multicast = make_item(destination=("x", "y"), replica="p", counter=1)
        replica.apply_remote(multicast)
        replica.park(multicast)
        found, count = replica.sync_candidates(VersionVector.empty(), {"r"})
        assert_same_objects(
            found, replica.items_unknown_to(VersionVector.empty())
        )
        assert count == len(found) == 6


#: The destinations a parked-index case draws from: single addresses of
#: a small alphabet, multicast tuples and none at all.
ALPHABET = ("a", "b", "c", "d")
DESTINATIONS = st.one_of(
    st.sampled_from(ALPHABET),
    st.none(),
    st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=2, unique=True)
    .map(tuple),
)
ORIGINS = ("o", "p", "r")
MAX_COUNTER = 12


def _where(replica, item_id):
    """Which of the replica's three stores holds ``item_id``, by rank."""
    for rank, store in enumerate(
        (replica._store, replica._outbox, replica._relay)
    ):
        if item_id in store:
            return rank
    return None


def _random_knowledge(rng):
    """A vector over the three origins with prefixes and, often, extras."""
    vector = VersionVector.empty()
    for origin in ORIGINS:
        for counter in range(1, MAX_COUNTER + 1):
            if rng.random() < 0.45:
                vector.add(make_version(origin, counter))
    return vector


class TestParkedIndexAgainstBruteForce:
    """Whatever a replica does to its copies, ``candidates`` returns the
    uncovered held items in store order, less the parked ones addressed
    outside the target's addresses, and counts every uncovered one."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_candidates_match_the_scan_under_every_operation(self, data):
        replica = Replica(ReplicaId("r"), AddressFilter("a"), relay_capacity=3)
        used = {origin: set() for origin in ("o", "p")}
        seen = []  # every item ever offered: held, replaced or dropped
        parked = {}  # item id → (the parked copy, the rank of its store)
        rng = random.Random(data.draw(st.integers(0, 2**32)))  # the probes

        def held():
            return list(replica.stored_items())

        for step in range(data.draw(st.integers(1, 25))):
            op = data.draw(
                st.sampled_from(
                    ("create", "remote", "remote", "adjust", "expunge",
                     "delete", "set_filter", "park", "park")
                )
            )
            current = held()
            if op == "create":
                destination = data.draw(DESTINATIONS)
                attributes = {} if destination is None else {
                    "destination": destination
                }
                if replica.last_authored_counter < MAX_COUNTER:
                    seen.append(replica.create_item(step, attributes))
            elif op == "remote":
                origin = data.draw(st.sampled_from(("o", "p")))
                free = sorted(
                    set(range(1, MAX_COUNTER + 1)) - used[origin]
                )
                if not free:
                    continue
                counter = data.draw(st.sampled_from(free))
                used[origin].add(counter)
                version = make_version(origin, counter)
                ours = [i for i in seen if i.item_id.origin.name == origin]
                if ours and data.draw(st.booleans()):
                    earlier = data.draw(st.sampled_from(ours))
                    if data.draw(st.booleans()):
                        item = earlier.as_tombstone(version)
                    else:
                        item = earlier.with_version(version)
                else:
                    destination = data.draw(DESTINATIONS)
                    item = Item(
                        item_id=ItemId(ReplicaId(origin), counter),
                        version=version,
                        payload=step,
                        attributes={} if destination is None else {
                            "destination": destination
                        },
                    )
                seen.append(item)
                replica.apply_remote(item)
            elif op == "adjust" and current:
                target = data.draw(st.sampled_from(current))
                replica.adjust_local(target.with_local(touched=step))
                seen.append(target)  # now a stale copy of a held version
            elif op == "expunge" and current:
                replica.expunge(data.draw(st.sampled_from(current)).item_id)
            elif op == "delete" and current:
                if replica.last_authored_counter < MAX_COUNTER:
                    target = data.draw(st.sampled_from(current))
                    seen.append(replica.delete_item(target.item_id))
            elif op == "set_filter":
                relays = data.draw(st.frozensets(st.sampled_from(ALPHABET[1:])))
                replica.set_filter(
                    MultiAddressFilter("a", relays) if relays
                    else AddressFilter("a")
                )
            elif op == "park":
                pool = current + seen
                if not pool:
                    continue
                item = data.draw(st.sampled_from(pool))
                was_open = (
                    replica.get_item(item.item_id) is item
                    and item.item_id not in parked
                )
                replica.park(item)
                if was_open and isinstance(item.destination, str):
                    parked[item.item_id] = (item, _where(replica, item.item_id))

            # A mark ends when its copy leaves the store that held it.
            parked = {
                item_id: (item, rank)
                for item_id, (item, rank) in parked.items()
                if replica.get_item(item_id) is item
                and _where(replica, item_id) == rank
            }
            current = held()
            for _ in range(3):
                knowledge = _random_knowledge(rng)
                addresses = rng.choice(
                    (None, frozenset(rng.sample(ALPHABET, rng.randrange(5))))
                )
                uncovered = [
                    item for item in current
                    if not knowledge.contains(item.version)
                ]
                expected = [
                    item for item in uncovered
                    if addresses is None
                    or item.item_id not in parked
                    or item.destination in addresses
                ]
                found, count = replica.sync_candidates(knowledge, addresses)
                assert_same_objects(found, expected)
                assert count == len(uncovered)
                assert_same_objects(replica.items_unknown_to(knowledge), uncovered)


class TestSnapshotIteration:
    def test_items_returns_cached_immutable_snapshot(self):
        store = ItemStore()
        item = make_item()
        store.put(item)
        first = store.items()
        assert isinstance(first, tuple)
        assert store.items() is first  # cached until the next mutation
        store.put(make_item())
        assert store.items() is not first
        assert len(store.items()) == 2

    def test_snapshot_safe_to_iterate_while_mutating(self):
        store = ItemStore()
        items = [make_item() for _ in range(5)]
        for item in items:
            store.put(item)
        seen = []
        for item in store:
            seen.append(item.item_id)
            store.discard(item.item_id)  # must not disturb the iteration
        assert seen == [item.item_id for item in items]
        assert len(store) == 0
