"""Unit tests for replicated items."""

from dataclasses import fields, replace

from hypothesis import given, settings, strategies as st

from repro.replication.ids import ReplicaId, Version
from repro.replication.integrity import cached_item_checksum, item_checksum
from repro.replication.items import (
    ATTR_DESTINATION,
    CHECKSUM_MEMO_ATTRIBUTE,
    KIND_MESSAGE,
    Item,
)
from tests.conftest import make_item


class TestIdentity:
    def test_equality_by_id_and_version(self):
        item = make_item()
        twin = Item(item.item_id, item.version, payload="different")
        assert item == twin
        assert hash(item) == hash(twin)

    def test_local_attributes_do_not_affect_equality(self):
        item = make_item()
        adjusted = item.with_local(ttl=3)
        assert item == adjusted

    def test_different_versions_differ(self):
        item = make_item()
        updated = item.with_version(Version(ReplicaId("other"), 9))
        assert item != updated


class TestAttributes:
    def test_attribute_access(self):
        item = make_item(destination="carol")
        assert item.attribute(ATTR_DESTINATION) == "carol"
        assert item.destination == "carol"

    def test_attribute_default(self):
        assert make_item().attribute("missing", 42) == 42

    def test_kind_defaults_to_message(self):
        assert make_item().kind == KIND_MESSAGE

    def test_attributes_are_copied_defensively(self):
        source = {"destination": "x"}
        item = Item(make_item().item_id, make_item().version, attributes=source)
        source["destination"] = "mutated"
        assert item.destination == "x"


class TestLocalAttributes:
    def test_with_local_sets_value(self):
        item = make_item().with_local(ttl=5)
        assert item.local("ttl") == 5

    def test_with_local_none_deletes(self):
        item = make_item().with_local(ttl=5).with_local(ttl=None)
        assert item.local("ttl") is None

    def test_with_local_preserves_others(self):
        item = make_item().with_local(a=1).with_local(b=2)
        assert item.local("a") == 1
        assert item.local("b") == 2

    def test_without_local_strips_everything(self):
        item = make_item().with_local(a=1)
        assert item.without_local().local_attributes == {}

    def test_without_local_noop_when_already_clean(self):
        item = make_item()
        assert item.without_local() is item


#: Host-local state as the policies write it: TTLs and copy budgets
#: (ints), hop lists (tuples of names), and ``None`` to delete a key.
local_values = st.one_of(
    st.integers(0, 3),
    st.tuples(),
    st.lists(st.sampled_from(["bus-a", "bus-b"]), max_size=3).map(tuple),
)
local_keys = st.sampled_from(["epidemic.ttl", "spray.copies", "maxprop.hops"])
local_states = st.dictionaries(local_keys, local_values, max_size=3)
local_changes = st.dictionaries(
    local_keys, st.one_of(st.none(), local_values), max_size=3
)


class TestWireCopy:
    """``wire_copy(**state)`` is ``without_local().with_local(**state)``
    in one step — and ``self`` when the copy already carries ``state``."""

    @given(held=local_states, shipped=local_changes, hashed=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_equals_strip_then_stamp_in_every_observable_respect(
        self, held, shipped, hashed
    ):
        item = make_item(payload="body").with_local(**held)
        if hashed:
            cached_item_checksum(item)
        two_step = item.without_local().with_local(**shipped)
        one_step = item.wire_copy(**shipped)

        for field in fields(Item):
            assert getattr(one_step, field.name) == getattr(
                two_step, field.name
            ), field.name
        assert type(one_step.local_attributes) is type(two_step.local_attributes)
        assert one_step == two_step == item
        assert hash(one_step) == hash(two_step) == hash(item)
        # The checksum memo rides along (content is untouched).
        memo = item_checksum(item) if hashed else None
        assert getattr(one_step, CHECKSUM_MEMO_ATTRIBUTE, None) == memo
        assert getattr(two_step, CHECKSUM_MEMO_ATTRIBUTE, None) == memo

        wanted = {k: v for k, v in shipped.items() if v is not None}
        if wanted == held:
            assert one_step is item  # nothing changes: nothing is built
        assert item.local_attributes == held  # the source copy is untouched
        assert one_step.wire_copy(**shipped) is one_step

    def test_a_forged_copy_starts_without_a_memo(self):
        item = make_item().wire_copy(ttl=3)
        cached_item_checksum(item)
        forged = replace(item, payload="tampered")
        assert getattr(forged, CHECKSUM_MEMO_ATTRIBUTE, None) is None
        assert forged.local("ttl") == 3
        rebuilt = Item(item.item_id, item.version, item.payload, item.attributes)
        assert getattr(rebuilt, CHECKSUM_MEMO_ATTRIBUTE, None) is None


class TestTombstones:
    def test_as_tombstone_marks_deleted_and_drops_payload(self):
        item = make_item(payload="secret")
        tombstone = item.as_tombstone(Version(ReplicaId("origin"), 99))
        assert tombstone.deleted
        assert tombstone.payload is None

    def test_tombstone_keeps_attributes_for_routing(self):
        item = make_item(destination="carol")
        tombstone = item.as_tombstone(Version(ReplicaId("origin"), 99))
        assert tombstone.destination == "carol"

    def test_repr_flags_deleted(self):
        tombstone = make_item().as_tombstone(Version(ReplicaId("origin"), 99))
        assert "deleted" in repr(tombstone)
