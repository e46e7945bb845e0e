"""Unit tests for the wire codec."""

import pytest

from repro.replication import (
    AddressFilter,
    AllFilter,
    AttributeFilter,
    MultiAddressFilter,
    NotFilter,
    NothingFilter,
    Priority,
    PriorityClass,
    Replica,
    ReplicaId,
    SyncRequest,
    VersionVector,
)
from repro.replication.codec import (
    CodecError,
    decode_batch_frame,
    decode_filter,
    decode_item,
    decode_item_id,
    decode_knowledge,
    decode_routing_state,
    decode_sync_request,
    decode_version,
    encode_batch_frame,
    encode_filter,
    encode_item,
    encode_item_id,
    encode_knowledge,
    encode_routing_state,
    encode_sync_request,
    encode_version,
    knowledge_wire_size,
    wire_size,
)
from repro.replication.ids import ItemId, Version
from repro.replication.sync import BatchEntry
from tests.conftest import make_item


class TestIdentifiers:
    def test_version_roundtrip(self):
        version = Version(ReplicaId("bus01"), 42)
        assert decode_version(encode_version(version)) == version

    def test_item_id_roundtrip(self):
        item_id = ItemId(ReplicaId("bus01"), 7)
        assert decode_item_id(encode_item_id(item_id)) == item_id

    def test_bad_version_raises(self):
        with pytest.raises(CodecError):
            decode_version(["only-one"])


class TestKnowledge:
    def test_roundtrip_with_gaps(self):
        vector = VersionVector.from_versions(
            [
                Version(ReplicaId("a"), 1),
                Version(ReplicaId("a"), 2),
                Version(ReplicaId("a"), 5),
                Version(ReplicaId("b"), 3),
            ]
        )
        assert decode_knowledge(encode_knowledge(vector)) == vector

    def test_empty_roundtrip(self):
        assert decode_knowledge(encode_knowledge(VersionVector.empty())) == (
            VersionVector.empty()
        )

    def test_size_grows_with_replicas_not_items(self):
        """The paper's compact-metadata claim, in bytes."""
        many_items = VersionVector.from_versions(
            Version(ReplicaId("a"), c) for c in range(1, 2001)
        )
        many_replicas = VersionVector.from_versions(
            Version(ReplicaId(f"r{i:03d}"), 1) for i in range(40)
        )
        assert knowledge_wire_size(many_items) < 30
        assert knowledge_wire_size(many_replicas) > knowledge_wire_size(many_items)

    def test_bad_encoding_raises(self):
        with pytest.raises(CodecError):
            decode_knowledge([1, 2, 3])
        with pytest.raises(CodecError):
            decode_knowledge({"a": "oops"})

    @pytest.mark.parametrize(
        "entry",
        [
            "5", [1, "3"], [True], [2.0], [1.5], [3, 5.0],  # not int counters
            [3, 5, 5], [3, 6, 5], [3, 4], [3, 2],  # extras not increasing
            [0], [], [-1],  # empty, none, negative
            (3,),  # a tuple, which no wire decode yields
        ],
    )
    def test_refuses_what_the_encoder_never_writes(self, entry):
        with pytest.raises(CodecError):
            decode_knowledge({"a": entry})


class TestFilters:
    @pytest.mark.parametrize(
        "filter_",
        [
            AllFilter(),
            NothingFilter(),
            AddressFilter("alice"),
            MultiAddressFilter("alice", frozenset({"bob", "carol"})),
            AttributeFilter("kind", "message"),
            AddressFilter("a") & AttributeFilter("x", 1),
            AddressFilter("a") | AddressFilter("b"),
            NotFilter(AddressFilter("spam")),
        ],
    )
    def test_roundtrip(self, filter_):
        assert decode_filter(encode_filter(filter_)) == filter_

    def test_unknown_type_raises(self):
        with pytest.raises(CodecError):
            decode_filter({"type": "quantum"})
        with pytest.raises(CodecError):
            decode_filter("not-a-dict")


class TestItems:
    def test_plain_roundtrip(self):
        item = make_item(payload="hello", destination="bob")
        assert decode_item(encode_item(item)) == item
        decoded = decode_item(encode_item(item))
        assert decoded.payload == "hello"
        assert decoded.attributes == item.attributes

    def test_local_attributes_preserved(self):
        item = make_item().with_local(ttl=3, hops=("a", "b"))
        decoded = decode_item(encode_item(item))
        assert decoded.local("ttl") == 3
        assert decoded.local("hops") == ("a", "b")

    def test_tombstone_roundtrip(self):
        tombstone = make_item().as_tombstone(Version(ReplicaId("x"), 9))
        decoded = decode_item(encode_item(tombstone))
        assert decoded.deleted
        assert decoded.payload is None

    def test_bad_item_raises(self):
        with pytest.raises(CodecError):
            decode_item({"id": "nope"})


class TestSyncMessages:
    def test_request_roundtrip(self):
        replica = Replica(ReplicaId("alice"), AddressFilter("alice"))
        replica.create_item("x", {"destination": "alice"})
        request = SyncRequest(
            target_id=replica.replica_id,
            knowledge=replica.knowledge.copy(),
            filter=replica.filter,
        )
        decoded = decode_sync_request(encode_sync_request(request))
        assert decoded.target_id == request.target_id
        assert decoded.knowledge == request.knowledge
        assert decoded.filter == request.filter
        assert decoded.routing_state is None

    def test_request_with_an_undefined_key_is_refused(self):
        """What a 1.2 peer in digest mode sends: a placeholder vector plus
        a ``digest`` key. Ignoring the key would serve it the whole store."""
        request = {
            "target": "alice",
            "knowledge": {},
            "filter": {"type": "all"},
            "routing": None,
            "digest": {"salt": 1, "bits": ""},
        }
        with pytest.raises(CodecError, match="digest"):
            decode_sync_request(request)

    def test_request_with_prophet_state_roundtrips(self):
        import repro.dtn  # noqa: F401 — registers the codecs
        from repro.dtn import ProphetRequest

        state = ProphetRequest(
            addresses=frozenset({"alice"}), predictabilities={"bob": 0.5}
        )
        decoded = decode_routing_state(encode_routing_state(state))
        assert decoded == state

    def test_request_with_maxprop_state_roundtrips(self):
        import repro.dtn  # noqa: F401
        from repro.dtn import MaxPropRequest

        state = MaxPropRequest(
            node="bus01",
            addresses=frozenset({"bus01"}),
            vectors={"bus01": {"bus02": 1.0}},
            locations={"user1": ("bus02", 9.0)},
            acks=frozenset({ItemId(ReplicaId("x"), 3)}),
        )
        decoded = decode_routing_state(encode_routing_state(state))
        assert decoded == state

    @pytest.mark.parametrize(
        "tag, change",
        [
            ("prophet", {"p": {"x": "0.5", "y": True}}),
            ("maxprop", {"node": 5, "addresses": "ab"}),
            ("maxprop", {"addresses": "ab"}),
            ("maxprop", {"vectors": {"bus01": {"bus02": "nan"}}}),
            ("maxprop", {"locations": {"user1": ["bus02"]}}),
            ("maxprop", {"acks": "x"}),
            ("prophet", {"extra": 1}),
        ],
    )
    def test_a_routing_state_no_encoder_wrote_is_refused(self, tag, change):
        import repro.dtn  # noqa: F401
        from repro.dtn import MaxPropRequest, ProphetRequest

        state = {
            "prophet": ProphetRequest(frozenset({"alice"}), {"bob": 0.5}),
            "maxprop": MaxPropRequest(
                node="bus01",
                addresses=frozenset({"bus01"}),
                vectors={"bus01": {"bus02": 1.0}},
                locations={"user1": ("bus02", 9.0)},
            ),
        }[tag]
        encoded = encode_routing_state(state)
        assert decode_routing_state(encoded) == state
        encoded["state"].update(change)
        with pytest.raises(CodecError):
            decode_routing_state(encoded)

    def test_unregistered_state_raises(self):
        with pytest.raises(CodecError):
            encode_routing_state(object())

    def test_batch_roundtrip(self):
        batch = [
            BatchEntry(make_item(), True, Priority(PriorityClass.FILTER_MATCH)),
            BatchEntry(make_item(), False, Priority(PriorityClass.NORMAL, 0.3)),
        ]
        decoded = decode_batch_frame(encode_batch_frame(batch))
        assert [e.item for e in decoded] == [e.item for e in batch]
        assert [e.priority for e in decoded] == [e.priority for e in batch]
        assert [e.matched_filter for e in decoded] == [True, False]


class TestWireSize:
    def test_compact_json(self):
        assert wire_size({"a": 1}) == len(b'{"a":1}')

    def test_deterministic_key_order(self):
        assert wire_size({"b": 1, "a": 2}) == wire_size({"a": 2, "b": 1})
