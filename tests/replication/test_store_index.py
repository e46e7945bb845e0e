"""Unit tests for the ItemStore version index and snapshot iteration.

The index is pure plumbing: ``unknown_items(knowledge)`` must return
exactly what filtering the insertion-order snapshot through
``knowledge.contains`` would — same items, same order — under every
mutation the store supports (insert, replace, remove, clear, in-place
update). A randomized churn test drives all of them against the
reference predicate.
"""

import random

from repro.replication.ids import ReplicaId
from repro.replication.store import ItemStore, RelayStore
from repro.replication.versions import VersionVector
from tests.conftest import make_item, make_version


def reference_unknown(store, knowledge):
    """The executable spec: insertion-order scan through ``contains``."""
    return [item for item in store.items() if not knowledge.contains(item.version)]


def knowledge_of(*versions):
    vector = VersionVector.empty()
    for version in versions:
        vector.add(version)
    return vector


class TestUnknownItems:
    def test_empty_store_yields_nothing(self):
        assert ItemStore().unknown_items(VersionVector.empty()) == []

    def test_empty_knowledge_yields_everything_in_insertion_order(self):
        store = ItemStore()
        items = [make_item(replica="a"), make_item(replica="b"), make_item(replica="a")]
        for item in items:
            store.put(item)
        assert store.unknown_items(VersionVector.empty()) == items

    def test_known_prefix_is_skipped(self):
        store = ItemStore()
        items = [make_item(replica="origin", counter=c) for c in (1, 2, 3, 4)]
        for item in items:
            store.put(item)
        knowledge = knowledge_of(*(item.version for item in items[:2]))
        assert store.unknown_items(knowledge) == items[2:]

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
        assert store.unknown_items(knowledge) == [items[2], items[4]]

    def test_fully_known_origin_short_circuits(self):
        store = ItemStore()
        items = [make_item(replica="origin", counter=c) for c in (1, 2)]
        for item in items:
            store.put(item)
        knowledge = knowledge_of(*(item.version for item in items))
        assert store.unknown_items(knowledge) == []

    def test_result_interleaves_origins_by_insertion_order(self):
        store = ItemStore()
        a1 = make_item(replica="a", counter=1)
        b1 = make_item(replica="b", counter=1)
        a2 = make_item(replica="a", counter=2)
        for item in (a1, b1, a2):
            store.put(item)
        # Counter order within origin "a" is (a1, a2) but insertion order
        # interleaves b1 between them; the query must report store order.
        assert store.unknown_items(VersionVector.empty()) == [a1, b1, a2]

    def test_replacement_reindexes_old_version(self):
        store = ItemStore()
        item = make_item(replica="origin", counter=3)
        store.put(item)
        newer = item.with_version(make_version("origin", 7))
        store.put(newer)
        assert store.unknown_items(VersionVector.empty()) == [newer]
        # Knowing only the replaced version must not hide the new one.
        assert store.unknown_items(knowledge_of(item.version)) == [newer]
        assert store.unknown_items(knowledge_of(newer.version)) == []

    def test_remove_discard_clear_unindex(self):
        store = ItemStore()
        items = [make_item(replica="origin", counter=c) for c in (1, 2, 3)]
        for item in items:
            store.put(item)
        store.remove(items[0].item_id)
        store.discard(items[1].item_id)
        assert store.unknown_items(VersionVector.empty()) == [items[2]]
        store.clear()
        assert store.unknown_items(VersionVector.empty()) == []

    def test_update_in_place_keeps_index_and_order(self):
        store = ItemStore()
        first, second = make_item(), make_item()
        store.put(first)
        store.put(second)
        store.update_in_place(first.with_local(ttl=3))
        unknown = store.unknown_items(VersionVector.empty())
        assert [item.item_id for item in unknown] == [first.item_id, second.item_id]
        assert unknown[0].local("ttl") == 3

    def test_out_of_order_arrival_then_the_middle_counter_removed(self):
        store = ItemStore()
        by_counter = {
            c: make_item(replica="origin", counter=c) for c in (5, 2, 9, 4)
        }
        for item in by_counter.values():  # arrival order 5, 2, 9, 4
            store.put(item)
        store.remove(by_counter[4].item_id)  # sits mid-column, arrived last
        arrival = [by_counter[c] for c in (5, 2, 9)]
        assert store.unknown_items(VersionVector.empty()) == arrival
        # Prefix 1..2 known: the bisect lands between the out-of-order 2
        # and 5, and what is past it still reports in arrival order.
        knowledge = knowledge_of(
            make_version("origin", 1), make_version("origin", 2)
        )
        assert store.unknown_items(knowledge) == [by_counter[5], by_counter[9]]
        assert store.unknown_items(knowledge) == reference_unknown(
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
        assert store.unknown_items(VersionVector.empty()) == [moved, second, third]
        assert list(store.items()) == [moved, second, third]
        assert store.oldest() == moved
        # The old version is unindexed, the new one indexed.
        assert store.unknown_items(knowledge_of(first.version)) == [
            moved, second, third,
        ]
        assert store.unknown_items(knowledge_of(moved.version)) == [second, third]
        # A later put of the same id is a fresh arrival, as ever.
        store.put(moved.with_local(ttl=1))
        assert store.unknown_items(VersionVector.empty()) == [second, third, moved]

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
        assert store.unknown_items(VersionVector.empty()) == fresh
        assert store.unknown_items(knowledge_of(fresh[1].version)) == [fresh[0]]
        store.remove(fresh[0].item_id)
        assert store.unknown_items(VersionVector.empty()) == [fresh[1]]

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
        assert store.unknown_items(knowledge) == [a[1], b[1], b[2], a[3]]

    def test_relay_store_delegates(self):
        relay = RelayStore(capacity=2)
        items = [make_item(replica="origin", counter=c) for c in (1, 2, 3)]
        for item in items:
            relay.put(item)  # capacity 2: FIFO evicts items[0]
        knowledge = knowledge_of(items[1].version)
        assert relay.unknown_items(knowledge) == [items[2]]


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
                assert store.unknown_items(knowledge) == reference_unknown(
                    store, knowledge
                ), f"index/scan divergence at step {step}"
        assert store.unknown_items(VersionVector.empty()) == list(store.items())


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
