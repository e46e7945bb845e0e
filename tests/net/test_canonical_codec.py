"""The canonical JSON codec the live wire builds once.

Frames, content checksums and ``codec.wire_size`` each encode with one C
encoder made at import, and the frame decoder parses a payload in one
scan when the value fills it. Both must be indistinguishable from the
``json.dumps`` / ``json.loads`` calls they stand for: the same bytes,
the same checksums, the same frames accepted and refused.
"""

import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.framing import MAGIC, FrameDecoder, FramingError, encode_frame
from repro.replication import codec
from repro.replication.ids import ItemId, ReplicaId, Version
from repro.replication.integrity import _opaque, item_checksum
from repro.replication.items import Item

_SPECIAL_FLOATS = st.sampled_from(
    [-0.0, 0.0, math.nan, math.inf, -math.inf, 1e-300, 1e300, 0.1]
)
_STRINGS = st.text() | st.sampled_from(
    ["", "é", "日本", "\U0001f600", "\ud800", '"', "\\", "\n\t\x00", "</script>"]
)
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.floats()
    | _SPECIAL_FLOATS
    | _STRINGS
)
_VALUES = st.recursive(
    _LEAVES,
    lambda children: st.lists(children, max_size=5)
    | st.tuples(children, children)
    | st.dictionaries(_STRINGS, children, max_size=5),
    max_leaves=25,
)
#: Payloads JSON cannot represent: the checksum names them by type, a
#: frame refuses them.
_FOREIGN = st.sampled_from([b"bytes", {1, 2}, frozenset(), object(), 1j, range(3)])
_PAYLOADS = st.recursive(
    _LEAVES | _FOREIGN,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_STRINGS, children, max_size=4),
    max_leaves=15,
)


def _outcome(function, value):
    """What ``function(value)`` returns, or the class of what it raises."""
    try:
        return function(value)
    except Exception as error:  # noqa: BLE001 - the class is the outcome
        return type(error)


def _reference_frame(message):
    payload = json.dumps(message, sort_keys=True, separators=(",", ":")).encode()
    return MAGIC + len(payload).to_bytes(4, "big") + payload


def _reference_checksum(item):
    body = {
        "id": [item.item_id.origin.name, item.item_id.serial],
        "version": [item.version.replica.name, item.version.counter],
        "payload": item.payload,
        "attributes": dict(item.attributes),
        "deleted": bool(item.deleted),
    }
    encoded = json.dumps(
        body, sort_keys=True, separators=(",", ":"), default=_opaque
    ).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()[:16]


def _frame(payload: bytes) -> bytes:
    return MAGIC + len(payload).to_bytes(4, "big") + payload


# -- byte identity --------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(_STRINGS, _VALUES, max_size=6))
def test_a_frame_is_the_canonical_dumps_of_its_message(message):
    assert encode_frame(message) == _reference_frame(message)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(_STRINGS, _PAYLOADS, min_size=1, max_size=4))
def test_a_frame_refuses_what_dumps_refuses(message):
    expected = _outcome(_reference_frame, message)
    if isinstance(expected, type):
        with pytest.raises(FramingError):
            encode_frame(message)
    else:
        assert encode_frame(message) == expected


@settings(max_examples=100, deadline=None)
@given(
    payload=_PAYLOADS,
    attributes=st.dictionaries(_STRINGS, _PAYLOADS, max_size=3),
    origin=_STRINGS.filter(bool),
    serial=st.integers(min_value=0, max_value=2**40),
    counter=st.integers(min_value=1, max_value=2**40),
    deleted=st.booleans(),
)
def test_a_checksum_is_the_canonical_hash_of_the_content(
    payload, attributes, origin, serial, counter, deleted
):
    item = Item(
        item_id=ItemId(ReplicaId(origin), serial),
        version=Version(ReplicaId(origin), counter),
        payload=payload,
        attributes=attributes,
        deleted=deleted,
    )
    assert _outcome(item_checksum, item) == _outcome(_reference_checksum, item)


@settings(max_examples=100, deadline=None)
@given(_VALUES)
def test_wire_size_is_the_length_of_the_canonical_dumps(value):
    expected = len(json.dumps(value, separators=(",", ":"), sort_keys=True).encode())
    assert codec.wire_size(value) == expected


def test_mixed_key_types_are_refused_as_before():
    """Sorting ``{1: …, "a": …}`` fails in both encoders alike."""
    message = {1: "one", "a": "letter"}
    assert _outcome(_reference_frame, message) is TypeError
    with pytest.raises(FramingError):
        encode_frame(message)
    assert encode_frame({1: "one", 2: "two"}) == _reference_frame({1: "one", 2: "two"})


# -- decoding -------------------------------------------------------------------


def _reference_corrupt(payload: bytes) -> int:
    """1 if ``json.loads`` would not make a message of ``payload``."""
    try:
        return 0 if isinstance(json.loads(payload.decode("utf-8")), dict) else 1
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError):
        return 1


_EDGE_PAYLOADS = [
    b'{"a":1}',
    b' {"a":1}',
    b'{"a":1} ',
    b'\n\t{"a":1}\r\n',
    b'{ "a" : [1 , 2] }',
    b'{"a":1}x',
    b'{"a":1}{"b":2}',
    b'{"a":1} 2',
    b'{"a":1',
    b'{"a":NaN,"b":-Infinity}',
    b'{"a":nan}',
    b"",
    b" ",
    b"[]",
    b"1",
    b'"s"',
    b"null",
    b"\xef\xbb\xbf{}",
    b"\xff{}",
    b'{"a":"\xc3"}',
    b'{"a":"\\ud800"}',
    b"{" * 5 + b"}" * 5,
    b"[" * 200_000,
    b'{"a":' * 50_000 + b"1" + b"}" * 50_000,
]


@pytest.mark.parametrize("payload", _EDGE_PAYLOADS, ids=range(len(_EDGE_PAYLOADS)))
def test_the_decoder_refuses_exactly_what_loads_refuses(payload):
    decoder = FrameDecoder()
    messages = decoder.feed(_frame(payload) + encode_frame({"after": True}))
    assert decoder.corrupt_frames == _reference_corrupt(payload)
    if decoder.corrupt_frames:
        assert messages == [{"after": True}]
    else:
        assert messages == [json.loads(payload.decode("utf-8")), {"after": True}]


_PADDING = st.sampled_from(["", " ", "\n", "\t\r ", "x", "1", "{}", "]"])


@settings(max_examples=100, deadline=None)
@given(
    message=st.dictionaries(_STRINGS, _VALUES, max_size=4),
    before=_PADDING,
    after=_PADDING,
    indent=st.none() | st.integers(min_value=0, max_value=2),
)
def test_padded_and_trailing_payloads_decode_as_loads_would(
    message, before, after, indent
):
    text = before + json.dumps(message, indent=indent) + after
    payload = text.encode("utf-8")
    decoder = FrameDecoder()
    messages = decoder.feed(_frame(payload))
    assert decoder.corrupt_frames == _reference_corrupt(payload)
    if not decoder.corrupt_frames:
        # NaN never equals itself: compare the canonical re-encodings.
        assert [encode_frame(m) for m in messages] == [encode_frame(message)]


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=40))
def test_arbitrary_payload_bytes_decode_as_loads_would(payload):
    decoder = FrameDecoder()
    decoder.feed(_frame(payload))
    assert decoder.corrupt_frames == _reference_corrupt(payload)


# -- errors ---------------------------------------------------------------------


def _circular_dict():
    message = {"type": "loop"}
    message["self"] = message
    return message


def _circular_list():
    loop = []
    loop.append(loop)
    return {"type": "loop", "items": loop}


def _deep():
    value = []
    for _ in range(100_000):
        value = [value]
    return {"type": "deep", "value": value}


@pytest.mark.parametrize(
    "build",
    [_circular_dict, _circular_list, _deep, lambda: {"x": object()}, lambda: {"x": {1, 2}}],
    ids=["circular-dict", "circular-list", "deep", "object", "set"],
)
def test_an_unencodable_message_raises_framing_error(build):
    message = build()
    with pytest.raises(FramingError) as raised:
        encode_frame(message)
    assert not isinstance(raised.value, RecursionError)
    # The encoder is left usable.
    assert encode_frame({"a": 1}) == _reference_frame({"a": 1})
