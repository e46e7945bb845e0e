"""Unit tests for identifier types."""

import copy
import os
import pickle
import subprocess
import sys

import pytest

from repro.replication.ids import IdFactory, ItemId, ReplicaId, Version


class TestReplicaId:
    def test_wraps_name(self):
        assert ReplicaId("bus01").name == "bus01"

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            ReplicaId("")

    def test_equality_by_name(self):
        assert ReplicaId("a") == ReplicaId("a")
        assert ReplicaId("a") != ReplicaId("b")

    def test_ordering_is_lexicographic(self):
        assert ReplicaId("a") < ReplicaId("b")
        assert sorted([ReplicaId("c"), ReplicaId("a")])[0] == ReplicaId("a")

    def test_hashable(self):
        assert len({ReplicaId("a"), ReplicaId("a"), ReplicaId("b")}) == 2

    def test_str(self):
        assert str(ReplicaId("bus01")) == "bus01"


class TestItemId:
    def test_fields(self):
        item_id = ItemId(ReplicaId("n"), 3)
        assert item_id.origin == ReplicaId("n")
        assert item_id.serial == 3

    def test_rejects_negative_serial(self):
        with pytest.raises(ValueError):
            ItemId(ReplicaId("n"), -1)

    def test_equality_and_hash(self):
        a = ItemId(ReplicaId("n"), 1)
        b = ItemId(ReplicaId("n"), 1)
        assert a == b
        assert hash(a) == hash(b)

    def test_str(self):
        assert str(ItemId(ReplicaId("n"), 7)) == "n#7"


class TestVersion:
    def test_counter_starts_at_one(self):
        with pytest.raises(ValueError):
            Version(ReplicaId("n"), 0)

    def test_ordering(self):
        v1 = Version(ReplicaId("a"), 1)
        v2 = Version(ReplicaId("a"), 2)
        assert v1 < v2

    def test_str(self):
        assert str(Version(ReplicaId("n"), 2)) == "n:2"


IDS = [
    ReplicaId("n"),
    ItemId(ReplicaId("n"), 7),
    Version(ReplicaId("n"), 2),
]


class TestHashComputedOnce:
    """The ids are tuple-backed value types hashed in C: the hash is the
    field tuple's, computed once per ``hash()`` call with no Python frame,
    and everything else about the three value types behaves as before."""

    def test_hash_is_the_field_tuple_hash_of_each_kind(self):
        replica = ReplicaId("n")
        assert hash(replica) == hash(("n",))
        assert hash(ItemId(replica, 7)) == hash((replica, 7))
        assert hash(Version(replica, 2)) == hash((replica, 2))

    @pytest.mark.parametrize("value", IDS, ids=repr)
    def test_hash_is_the_generated_field_tuple_hash(self, value):
        assert hash(value) == hash(
            tuple(getattr(value, name) for name in value._fields)
        )

    @pytest.mark.parametrize("value", IDS, ids=repr)
    def test_stored_hash_is_not_a_field(self, value):
        assert not hasattr(value, "__dict__")  # no per-instance dict
        assert "_hash" not in value._fields
        assert "_hash" not in repr(value)
        rebuilt = value._replace()
        assert rebuilt == value and hash(rebuilt) == hash(value)

    @pytest.mark.parametrize("value", IDS, ids=repr)
    def test_never_equal_to_a_plain_tuple(self, value):
        plain = tuple(value)
        assert plain == tuple(getattr(value, name) for name in value._fields)
        assert value != plain and plain != value
        assert not value == plain and not plain == value
        assert {value: 1}.get(plain) is None

    def test_ids_of_different_kinds_never_compare_equal(self):
        replica = ReplicaId("n")
        item_id, version = ItemId(replica, 1), Version(replica, 1)
        assert item_id != version and version != item_id
        assert not item_id == version and not version == item_id
        assert len({item_id, version}) == 2

    def test_repr_and_str_are_unchanged(self):
        replica = ReplicaId("n")
        assert repr(replica) == "ReplicaId(name='n')"
        assert repr(ItemId(replica, 7)) == (
            "ItemId(origin=ReplicaId(name='n'), serial=7)"
        )
        assert repr(Version(replica, 2)) == (
            "Version(replica=ReplicaId(name='n'), counter=2)"
        )
        assert [str(value) for value in IDS] == ["n", "n#7", "n:2"]

    @pytest.mark.parametrize("value", IDS, ids=repr)
    def test_copies_and_pickles_compare_and_hash_equal(self, value):
        for clone in (
            copy.copy(value),
            copy.deepcopy(value),
            pickle.loads(pickle.dumps(value)),
        ):
            assert clone == value
            assert hash(clone) == hash(value)
            assert {value: 1}[clone] == 1
            assert type(clone) is type(value)
            assert repr(clone) == repr(value) and str(clone) == str(value)

    def test_pickle_rehashes_in_a_process_with_another_hash_seed(self):
        """String hashes are per-process: a stored hash must not travel."""
        script = (
            "import pickle, sys\n"
            "values = pickle.loads(sys.stdin.buffer.read())\n"
            "from repro.replication.ids import ItemId, ReplicaId, Version\n"
            "fresh = [ReplicaId('n'), ItemId(ReplicaId('n'), 7),"
            " Version(ReplicaId('n'), 2)]\n"
            "assert values == fresh\n"
            "assert [hash(v) for v in values] == [hash(v) for v in fresh]\n"
        )
        for seed in ("1", "2"):
            subprocess.run(
                [sys.executable, "-c", script],
                input=pickle.dumps(IDS),
                env={
                    **os.environ,
                    "PYTHONHASHSEED": seed,
                    "PYTHONPATH": os.pathsep.join(sys.path),
                },
                check=True,
                timeout=60,
            )


class TestIdFactory:
    def test_item_ids_are_sequential(self):
        factory = IdFactory(ReplicaId("n"))
        first = factory.next_item_id()
        second = factory.next_item_id()
        assert first.serial == 0
        assert second.serial == 1

    def test_versions_are_sequential_from_one(self):
        factory = IdFactory(ReplicaId("n"))
        assert factory.next_version().counter == 1
        assert factory.next_version().counter == 2
        assert factory.last_counter == 2

    def test_versions_carry_replica(self):
        factory = IdFactory(ReplicaId("n"))
        assert factory.next_version().replica == ReplicaId("n")

    def test_independent_factories_do_not_share_state(self):
        fa = IdFactory(ReplicaId("a"))
        fb = IdFactory(ReplicaId("b"))
        fa.next_version()
        assert fb.last_counter == 0
