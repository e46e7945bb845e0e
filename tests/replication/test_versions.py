"""Unit tests for version vectors (knowledge)."""

import random

import pytest

from repro.replication.codec import encode_knowledge, wire_size
from repro.replication.ids import ReplicaId, Version
from repro.replication.versions import VersionVector, _Entry


def v(name: str, counter: int) -> Version:
    return Version(ReplicaId(name), counter)


class TestEntry:
    def test_empty_contains_nothing(self):
        entry = _Entry()
        assert not entry.contains(1)
        assert entry.is_empty

    def test_prefix_contains_all_below(self):
        entry = _Entry(prefix=3)
        assert entry.contains(1)
        assert entry.contains(3)
        assert not entry.contains(4)

    def test_extras_must_be_above_prefix(self):
        with pytest.raises(ValueError):
            _Entry(prefix=3, extras=frozenset({2}))

    def test_extras_touching_prefix_rejected(self):
        with pytest.raises(ValueError):
            _Entry(prefix=3, extras=frozenset({4}))

    def test_canonical_folds_adjacent_extras(self):
        entry = _Entry.canonical(1, {2, 3, 5})
        assert entry.prefix == 3
        assert entry.extras == frozenset({5})

    def test_add_is_idempotent(self):
        entry = _Entry(prefix=2)
        assert entry.add(1) is entry

    def test_add_closes_gap(self):
        entry = _Entry(prefix=1, extras=frozenset({3}))
        merged = entry.add(2)
        assert merged.prefix == 3
        assert not merged.extras

    def test_merge_takes_max_prefix_and_union_extras(self):
        a = _Entry(prefix=2, extras=frozenset({5}))
        b = _Entry(prefix=3, extras=frozenset({7}))
        merged = a.merge(b)
        assert merged.prefix == 3
        assert merged.extras == frozenset({5, 7})

    def test_dominates(self):
        big = _Entry(prefix=5)
        small = _Entry(prefix=2, extras=frozenset({4}))
        assert big.dominates(small)
        assert not small.dominates(big)

    def test_counters_iterates_in_order(self):
        entry = _Entry(prefix=2, extras=frozenset({5, 4}))
        assert list(entry.counters()) == [1, 2, 4, 5]


class TestVersionVector:
    def test_empty_vector(self):
        vector = VersionVector.empty()
        assert not vector
        assert not vector.contains(v("a", 1))

    def test_add_then_contains(self):
        vector = VersionVector.empty()
        vector.add(v("a", 1))
        assert vector.contains(v("a", 1))
        assert v("a", 1) in vector

    def test_add_reports_whether_the_version_was_new(self):
        vector = VersionVector.empty()
        a = ReplicaId("a")
        steps = [
            # (counter, new?, prefix after, extras after)
            (1, True, 1, set()),       # first counter of a replica
            (2, True, 2, set()),       # a gap-free prefix extends
            (2, False, 2, set()),      # a repeat inside the prefix
            (5, True, 2, {5}),         # an extra beyond a gap
            (4, True, 2, {4, 5}),      # a second extra, still a gap
            (5, False, 2, {4, 5}),     # a repeat among the extras
            (3, True, 5, set()),       # the gap fills; extras fold in
            (10, True, 5, {10}),       # a two-digit extra
        ]
        for counter, new, prefix, extras in steps:
            assert vector.add(v("a", counter)) is new, counter
            assert vector.known_counter_prefix(a) == prefix
            assert vector.extra_counters(a) == extras
            assert vector.wire_size() == wire_size(encode_knowledge(vector))
        for counter in range(6, 10):  # 9 -> 10 changes the prefix's digits
            assert vector.add(v("a", counter)) is True
            assert vector.wire_size() == wire_size(encode_knowledge(vector))
        assert vector.known_counter_prefix(a) == 10

    def test_a_repeated_add_does_not_detach_a_shared_table(self):
        vector = VersionVector.from_versions([v("a", 1), v("a", 3)])
        snapshot = vector.copy()
        assert vector.add(v("a", 1)) is False
        assert vector.add(v("a", 3)) is False
        assert snapshot._entries is vector._entries  # still copy-on-write
        assert vector.add(v("a", 2)) is True
        assert snapshot._entries is not vector._entries
        assert not snapshot.contains(v("a", 2))

    def test_contains_distinguishes_replicas(self):
        vector = VersionVector.from_versions([v("a", 1)])
        assert not vector.contains(v("b", 1))

    def test_out_of_order_adds_compact(self):
        vector = VersionVector.empty()
        vector.add(v("a", 3))
        vector.add(v("a", 1))
        assert vector.size_in_extras() == 1
        vector.add(v("a", 2))
        assert vector.size_in_extras() == 0
        assert vector.known_counter_prefix(ReplicaId("a")) == 3

    @pytest.mark.parametrize("order", ["reverse", "shuffled"])
    def test_a_batch_out_of_order_ends_as_the_in_order_vector(self, order):
        """20 000 versions of one origin, last first or shuffled (what a
        node rejoining after a long partition receives): every step stays
        canonical and its size stays the size of its encoding."""
        counters = list(range(1, 20_001))
        if order == "reverse":
            counters.reverse()
        else:
            random.Random(44).shuffle(counters)
        vector = VersionVector.empty()
        for step, counter in enumerate(counters, 1):
            assert vector.add(v("a", counter)) is True
            if step % 1000 == 0:
                entry = vector._entries[ReplicaId("a")]
                assert _Entry(entry.prefix, entry.extras) == entry  # canonical
                assert vector.wire_size() == wire_size(encode_knowledge(vector))
        assert vector == VersionVector.from_versions(
            v("a", counter) for counter in range(1, 20_001)
        )
        assert vector.size_in_extras() == 0
        assert vector.wire_size() == wire_size(encode_knowledge(vector))

    def test_merge_unions(self):
        left = VersionVector.from_versions([v("a", 1), v("b", 2), v("b", 1)])
        right = VersionVector.from_versions([v("a", 2), v("c", 1)])
        left.merge(right)
        for version in (v("a", 1), v("a", 2), v("b", 1), v("b", 2), v("c", 1)):
            assert left.contains(version)

    def test_merged_does_not_mutate_operands(self):
        left = VersionVector.from_versions([v("a", 1)])
        right = VersionVector.from_versions([v("b", 1)])
        combined = left.merged(right)
        assert combined.contains(v("b", 1))
        assert not left.contains(v("b", 1))

    def test_dominates_reflexive(self):
        vector = VersionVector.from_versions([v("a", 1), v("b", 3), v("b", 2), v("b", 1)])
        assert vector.dominates(vector)

    def test_dominates_superset(self):
        small = VersionVector.from_versions([v("a", 1)])
        big = VersionVector.from_versions([v("a", 1), v("a", 2)])
        assert big.dominates(small)
        assert not small.dominates(big)

    def test_dominates_empty(self):
        assert VersionVector.empty().dominates(VersionVector.empty())
        vector = VersionVector.from_versions([v("a", 1)])
        assert vector.dominates(VersionVector.empty())

    def test_copy_is_independent(self):
        vector = VersionVector.from_versions([v("a", 1)])
        copy = vector.copy()
        copy.add(v("a", 2))
        assert not vector.contains(v("a", 2))

    def test_equality_ignores_empty_entries(self):
        left = VersionVector.empty()
        right = VersionVector({ReplicaId("a"): _Entry()})
        assert left == right

    def test_versions_roundtrip(self):
        originals = [v("a", 1), v("a", 2), v("b", 1)]
        vector = VersionVector.from_versions(originals)
        assert sorted(vector.versions()) == sorted(originals)

    def test_replicas_sorted(self):
        vector = VersionVector.from_versions([v("b", 1), v("a", 1)])
        assert [r.name for r in vector.replicas()] == ["a", "b"]

    def test_repr_mentions_gaps(self):
        vector = VersionVector.empty()
        vector.add(v("a", 1))
        vector.add(v("a", 4))
        text = repr(vector)
        assert "a" in text and "4" in text
