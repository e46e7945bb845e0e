"""Fuzzing the wire codec: typed errors in, identical objects back.

Everything the decoders see comes from another process, so their error
contract is part of the protocol: callers (``apply_batch``'s frame
quarantine, the live server, checkpoint loading) handle
:class:`CodecError` and nothing else. Two properties:

* any JSON-shaped value — arbitrary junk, or a valid encoding with one
  subtree replaced by junk — either decodes or raises ``CodecError``;
* ``decode(encode(v)) == v`` through real JSON text, for items with
  host-local attributes, knowledge vectors with extras, sync requests
  and batch frames.
"""

import json
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.dtn  # noqa: F401  (registers the bundled routing-state codecs)
from repro.dtn.prophet import ProphetRequest
from repro.replication import (
    AddressFilter,
    AllFilter,
    AndFilter,
    AttributeFilter,
    MultiAddressFilter,
    NotFilter,
    NothingFilter,
    OrFilter,
    Priority,
    PriorityClass,
    ReplicaId,
    SyncRequest,
    VersionVector,
)
from repro.replication.codec import (
    CodecError,
    decode_batch_entry,
    decode_batch_frame,
    decode_filter,
    decode_item,
    decode_item_id,
    decode_knowledge,
    decode_routing_state,
    decode_sync_request,
    decode_version,
    encode_batch_entry,
    encode_batch_frame,
    encode_item,
    encode_knowledge,
    encode_sync_request,
)
from repro.replication.ids import ItemId, Version
from repro.replication.integrity import item_checksum
from repro.replication.items import Item
from repro.replication.sync import BatchEntry

DECODERS = [
    decode_version,
    decode_item_id,
    decode_knowledge,
    decode_filter,
    decode_item,
    decode_routing_state,
    decode_sync_request,
    decode_batch_entry,
    decode_batch_frame,
]

# -- what a peer can put on the wire ------------------------------------------

#: ``json.loads`` yields non-finite floats from ``1e999``/``Infinity``/``NaN``
#: and ints of any size; ``float(10**400)`` and ``int(inf)`` both overflow.
junk_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.just(10**400)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8)
)
junk = st.recursive(
    junk_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)

# -- honest protocol objects ---------------------------------------------------

names = st.text(min_size=1, max_size=6)
replica_ids = st.sampled_from(["a", "b", "bus-07", "ü"]).map(ReplicaId)
versions = st.builds(Version, replica_ids, st.integers(1, 12))
item_ids = st.builds(ItemId, replica_ids, st.integers(0, 10**6))
values = (
    st.none()
    | st.booleans()
    | st.integers(-(10**9), 10**9)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8)
)
#: Host-local values: scalars, or tuples (hop lists) that ride as arrays.
local_values = values.filter(lambda v: v is not None) | st.lists(
    st.text(max_size=4), max_size=3
).map(tuple)
items = st.builds(
    Item,
    item_id=item_ids,
    version=versions,
    payload=values,
    attributes=st.dictionaries(names, values, max_size=3),
    local_attributes=st.dictionaries(names, local_values, max_size=3),
    deleted=st.booleans(),
)
#: Counters 1..12 over four replicas: gaps (extras) are the common case.
knowledge = st.lists(versions, max_size=20).map(VersionVector.from_versions)
filters = st.recursive(
    st.just(AllFilter())
    | st.just(NothingFilter())
    | st.builds(AddressFilter, names)
    | st.builds(MultiAddressFilter, names, st.frozensets(names, max_size=3))
    | st.builds(AttributeFilter, names, values),
    lambda children: st.builds(NotFilter, children)
    | st.lists(children, max_size=3).map(lambda fs: AndFilter(tuple(fs)))
    | st.lists(children, max_size=3).map(lambda fs: OrFilter(tuple(fs))),
    max_leaves=5,
)
routing_states = st.none() | st.builds(
    ProphetRequest,
    addresses=st.frozensets(names, max_size=3),
    predictabilities=st.dictionaries(
        names, st.floats(0.0, 1.0, allow_nan=False), max_size=3
    ),
)
requests = st.builds(
    SyncRequest,
    target_id=replica_ids,
    knowledge=knowledge,
    filter=filters,
    routing_state=routing_states,
)
entries = st.builds(
    BatchEntry,
    item=items,
    matched_filter=st.booleans(),
    priority=st.builds(
        Priority,
        st.sampled_from(list(PriorityClass)),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
)
batches = st.lists(entries, max_size=4)


def wire(encoded):
    """Through JSON text and back, as the live transport does."""
    return json.loads(json.dumps(encoded))


def canonical_bytes(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


def content(item):
    """Every field of an item (``Item.__eq__`` sees only id and version)."""
    return (
        item.item_id,
        item.version,
        item.payload,
        dict(item.attributes),
        dict(item.local_attributes),
        item.deleted,
    )


# -- junk grafted under valid keys ---------------------------------------------

honest_frames = st.one_of(
    st.tuples(st.just(decode_item), items.map(encode_item)),
    st.tuples(st.just(decode_knowledge), knowledge.map(encode_knowledge)),
    st.tuples(st.just(decode_sync_request), requests.map(encode_sync_request)),
    st.tuples(st.just(decode_batch_entry), entries.map(encode_batch_entry)),
    st.tuples(st.just(decode_batch_frame), batches.map(encode_batch_frame)),
)


def _paths(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from _paths(child, prefix + (index,))


def _graft(value, path, replacement):
    if not path:
        return replacement
    clone = dict(value) if isinstance(value, dict) else list(value)
    clone[path[0]] = _graft(value[path[0]], path[1:], replacement)
    return clone


@st.composite
def damaged_frames(draw):
    decoder, encoded = draw(honest_frames)
    path = draw(st.sampled_from(list(_paths(encoded))))
    return decoder, _graft(encoded, path, draw(junk))


cases = st.tuples(st.sampled_from(DECODERS), junk) | damaged_frames()


@settings(max_examples=600, deadline=None)
@given(case=cases)
# The three reported leaks: AttributeError, TypeError, OverflowError.
@example(case=(decode_item, 5))
@example(case=(decode_item, []))
@example(case=(decode_batch_frame, None))
@example(
    case=(
        decode_sync_request,
        {
            "target": "a",
            "knowledge": {"a": [float("inf")]},
            "filter": {"type": "all"},
        },
    )
)
# float(10**400) overflows; a non-string replica name would poison every
# later sort of the knowledge it entered.
@example(
    case=(
        decode_batch_entry,
        {"item": {"id": ["a", 0], "version": ["a", 1]}, "matched": True,
         "priority": [2, 10**400]},
    )
)
@example(case=(decode_version, [5, 1]))
@example(case=(decode_batch_frame, {"entries": 7, "checksum": "x"}))
@example(case=(decode_routing_state, {"tag": "prophet", "state": []}))
def test_any_json_value_decodes_or_raises_codec_error(case):
    decoder, value = case
    try:
        decoder(value)
    except CodecError:
        pass


def test_json_text_spellings_of_the_reported_request_are_refused():
    for spelling in ("1e999", "Infinity", "NaN"):
        text = (
            '{"target": "a", "knowledge": {"a": [%s]}, '
            '"filter": {"type": "all"}}' % spelling
        )
        with pytest.raises(CodecError):
            decode_sync_request(json.loads(text))


def test_replica_names_must_be_strings():
    """``ReplicaId(5)`` constructs, but sorts with no string name: one such
    version in a replica's knowledge would break every later encode."""
    for decode, value in (
        (decode_version, [5, 1]),
        (decode_item_id, [True, 0]),
        (decode_sync_request, {"target": 5, "knowledge": {}, "filter": {"type": "all"}}),
    ):
        with pytest.raises(CodecError):
            decode(value)


@settings(max_examples=200, deadline=None)
@given(item=items)
def test_item_round_trips_with_local_attributes(item):
    assert content(decode_item(wire(encode_item(item)))) == content(item)
    stamped = wire(encode_item(item, with_checksum=True))
    assert content(decode_item(stamped)) == content(item)
    for with_checksum in (False, True):  # and back to its very bytes
        encoded = encode_item(item, with_checksum=with_checksum)
        again = encode_item(decode_item(wire(encoded)), with_checksum=with_checksum)
        assert canonical_bytes(again) == canonical_bytes(encoded)


#: What a peer might write for an id, a version or the deletion flag:
#: look-alikes of each (a bool, a float or a string for a number); other
#: keys dropped, emptied or added.
_id_shapes = st.lists(
    st.sampled_from(["a", "b"]) | st.integers(-1, 3) | st.booleans()
    | st.floats(0, 3) | st.text(alphabet="0123", max_size=1),
    max_size=3,
)
_flags = (
    st.booleans() | st.none() | st.integers(0, 1) | st.floats(0, 1)
    | st.sampled_from(["true", "false", ""])
)


@st.composite
def _item_shapes(draw):
    encoded = encode_item(draw(items))
    field = draw(
        st.sampled_from(["id", "version", "deleted", "local", "payload", "extra"])
    )
    if field in ("id", "version"):
        encoded[field] = draw(_id_shapes)
    elif field == "deleted":
        encoded[field] = draw(_flags)
    elif draw(st.booleans()):  # a key dropped, or one no encoder writes
        encoded.pop(field, None)
    else:
        encoded[field] = draw(st.just({}) | st.none() | _flags)
    return encoded


@settings(max_examples=500, deadline=None)
@given(data=_item_shapes())
def test_item_decodes_only_what_re_encodes_to_itself(data):
    try:
        item = decode_item(data)
    except CodecError:
        return
    assert canonical_bytes(encode_item(item)) == canonical_bytes(data)


@settings(max_examples=200, deadline=None)
@given(vector=knowledge)
def test_knowledge_round_trips_with_extras(vector):
    decoded = decode_knowledge(wire(encode_knowledge(vector)))
    assert decoded == vector
    assert decoded.wire_size() == vector.wire_size()
    assert decoded.size_in_extras() == vector.size_in_extras()


_counters = st.one_of(
    st.integers(min_value=-1, max_value=9),
    st.booleans(),
    st.floats(min_value=0, max_value=9),
    st.text(alphabet="0123456789", max_size=2),
)
_knowledge_shapes = knowledge.map(encode_knowledge) | st.dictionaries(
    st.text(alphabet="ab", max_size=2),
    st.lists(_counters, max_size=4) | _counters,
    max_size=3,
)


@settings(max_examples=500, deadline=None)
@given(data=_knowledge_shapes)
def test_knowledge_decodes_only_what_re_encodes_to_itself(data):
    try:
        vector = decode_knowledge(data)
    except CodecError:
        return
    assert canonical_bytes(encode_knowledge(vector)) == canonical_bytes(data)


@settings(max_examples=200, deadline=None)
@given(request=requests)
def test_sync_request_round_trips(request):
    assert decode_sync_request(wire(encode_sync_request(request))) == request


@settings(max_examples=200, deadline=None)
@given(batch=batches)
def test_batch_frame_round_trips(batch):
    decoded = decode_batch_frame(wire(encode_batch_frame(batch)))
    assert decoded == [
        replace(entry, checksum=item_checksum(entry.item)) for entry in batch
    ]
    assert [content(entry.item) for entry in decoded] == [
        content(entry.item) for entry in batch
    ]
