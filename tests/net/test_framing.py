"""Unit tests for the length-prefixed wire framing.

The decoder must survive everything a real TCP stream does to a byte
sequence: arbitrary segmentation, junk prefixes from a confused peer,
corrupt length fields, and a connection cut mid-frame (the live analogue
of the truncation fault in :mod:`repro.faults` — a proper prefix of the
bytes arrives, and nothing after the cut may be invented).
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.framing import (
    HEADER_SIZE,
    MAGIC,
    MAX_FRAME_BYTES,
    PIECE_BYTES,
    FrameDecoder,
    FramingError,
    encode_frame,
    frame_text,
)

MESSAGES = [
    {"type": "hello", "node": "bus00", "protocol": 1},
    {"type": "sync-request", "request": {"knowledge": {}, "filter": "f"}},
    {"type": "sync-ack", "stats": {"sent_total": 3, "nested": [1, 2, 3]}},
]


def test_round_trip_single_frame():
    decoder = FrameDecoder()
    assert decoder.feed(encode_frame(MESSAGES[0])) == [MESSAGES[0]]
    assert decoder.pending == 0


def test_round_trip_many_frames_one_feed():
    data = b"".join(encode_frame(m) for m in MESSAGES)
    assert FrameDecoder().feed(data) == MESSAGES


def test_byte_at_a_time():
    decoder = FrameDecoder()
    out = []
    for message in MESSAGES:
        for i in bytes(encode_frame(message)):
            out.extend(decoder.feed(bytes([i])))
    assert out == MESSAGES
    assert decoder.pending == 0


def test_random_segmentation():
    """Frames split at arbitrary TCP segment boundaries reassemble."""
    rng = random.Random(7)
    stream = b"".join(encode_frame(m) for m in MESSAGES * 10)
    decoder = FrameDecoder()
    out = []
    position = 0
    while position < len(stream):
        size = rng.randint(1, 37)
        out.extend(decoder.feed(stream[position:position + size]))
        position += size
    assert out == MESSAGES * 10


def test_junk_prefix_resync():
    decoder = FrameDecoder()
    got = decoder.feed(b"NOISE-NOT-A-FRAME" + encode_frame(MESSAGES[0]))
    assert got == [MESSAGES[0]]
    assert decoder.resyncs == 1
    assert decoder.junk_bytes == len(b"NOISE-NOT-A-FRAME")


def test_junk_ending_in_partial_magic():
    """A junk tail that is a proper prefix of MAGIC must be retained."""
    decoder = FrameDecoder()
    assert decoder.feed(b"garbage" + MAGIC[:2]) == []
    # The rest of the magic plus the frame body completes the frame.
    frame = encode_frame(MESSAGES[1])
    assert decoder.feed(frame[2:]) == [MESSAGES[1]]


def test_bogus_length_rescan_finds_next_frame():
    """An insane length field cannot blind the decoder to a later frame."""
    bogus = MAGIC + (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
    decoder = FrameDecoder()
    got = decoder.feed(bogus + encode_frame(MESSAGES[2]))
    assert got == [MESSAGES[2]]
    assert decoder.resyncs >= 1


def test_corrupt_payload_counted_and_skipped():
    frame = bytearray(encode_frame(MESSAGES[0]))
    frame[HEADER_SIZE + 2] ^= 0xFF  # flip a payload byte -> invalid JSON
    decoder = FrameDecoder()
    got = decoder.feed(bytes(frame) + encode_frame(MESSAGES[1]))
    assert got == [MESSAGES[1]]
    assert decoder.corrupt_frames == 1


def test_non_object_payload_is_corrupt_not_fatal():
    payload = b"[1,2,3]"
    frame = MAGIC + len(payload).to_bytes(4, "big") + payload
    decoder = FrameDecoder()
    assert decoder.feed(frame + encode_frame(MESSAGES[0])) == [MESSAGES[0]]
    assert decoder.corrupt_frames == 1


def test_crash_mid_frame_keeps_prefix_pending():
    """A cut connection leaves a decodable prefix and a pending tail.

    Mirrors the truncation-fault contract: every frame completed before
    the cut is delivered, nothing after it is, and the receiver can tell
    the stream ended mid-frame.
    """
    stream = encode_frame(MESSAGES[0]) + encode_frame(MESSAGES[1])
    cut = len(stream) - 5
    decoder = FrameDecoder()
    assert decoder.feed(stream[:cut]) == [MESSAGES[0]]
    assert decoder.pending > 0  # the torn second frame is detectable


def test_encode_rejects_non_dict():
    with pytest.raises(FramingError):
        encode_frame(["not", "a", "mapping"])


def test_encode_rejects_oversized():
    huge = {"blob": "x" * (MAX_FRAME_BYTES + 1)}
    with pytest.raises(FramingError):
        encode_frame(huge)


def test_encoding_is_canonical():
    assert encode_frame({"b": 1, "a": 2}) == encode_frame({"a": 2, "b": 1})


def test_pathologically_nested_payload_is_corrupt_not_fatal():
    """A frame the JSON scanner cannot recurse through is dropped, typed."""
    payload = b"[" * 200_000
    frame = MAGIC + len(payload).to_bytes(4, "big") + payload
    decoder = FrameDecoder()
    assert decoder.feed(frame + encode_frame(MESSAGES[0])) == [MESSAGES[0]]
    assert decoder.corrupt_frames == 1


# -- fuzz ---------------------------------------------------------------------

_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)
_messages = st.dictionaries(st.text(max_size=6), _json_values, max_size=4)

_NOT_R = [value for value in range(256) if value != MAGIC[0]]
#: Junk that can neither contain nor begin a magic (no ``R`` at all) ...
_noise = st.lists(st.sampled_from(_NOT_R), min_size=1, max_size=40).map(bytes)
#: ... and the junk that does: a magic whose length field is hostile.
_bogus_header = st.tuples(
    st.integers(2, 255).filter(lambda value: value != MAGIC[0]),
    st.lists(st.sampled_from(_NOT_R), min_size=3, max_size=3),
).map(lambda pair: MAGIC + bytes([pair[0], *pair[1]]))


def _feed_piecewise(decoder, stream, cuts):
    out = []
    edges = [0, *sorted(cuts), len(stream)]
    for low, high in zip(edges, edges[1:]):
        out.extend(decoder.feed(stream[low:high]))
    return out


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(_messages, _noise, _bogus_header), max_size=8
    ),
    st.data(),
)
def test_fuzz_intact_frames_survive_junk_cuts_and_truncation(elements, data):
    """Frames interleaved with junk, the stream cut short anywhere and fed
    in arbitrary pieces: exactly the frames that arrived whole come out,
    in order; every other byte is counted as junk or left pending."""
    pieces = [
        encode_frame(element) if isinstance(element, dict) else element
        for element in elements
    ]
    stream = b"".join(pieces)
    cut = data.draw(st.integers(0, len(stream)), label="cut")
    cuts = data.draw(st.lists(st.integers(0, cut), max_size=10), label="feeds")

    expected, delivered_bytes, tail, position = [], 0, 0, 0
    for element, piece in zip(elements, pieces):
        end = position + len(piece)
        if isinstance(element, dict) and end <= cut:
            expected.append(element)
            delivered_bytes += len(piece)
        elif position < cut < end and piece.startswith(MAGIC):
            tail = cut - position  # a torn frame, or a torn bogus header
        position = end

    decoder = FrameDecoder()
    assert _feed_piecewise(decoder, stream[:cut], cuts) == expected
    assert decoder.pending == tail
    assert decoder.corrupt_frames == 0
    assert decoder.junk_bytes == cut - delivered_bytes - tail


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.binary(max_size=30),
            st.just(MAGIC),
            st.integers(0, 40).map(lambda n: n.to_bytes(4, "big")),
            _messages.map(encode_frame),
        ),
        max_size=10,
    ).map(b"".join),
    st.data(),
)
def test_fuzz_segmentation_never_changes_the_outcome(stream, data):
    """Truly arbitrary bytes — accidental magics, small bogus lengths that
    swallow what follows: nothing is raised, every byte is accounted for,
    and how the stream was split changes nothing."""
    cuts = data.draw(st.lists(st.integers(0, len(stream)), max_size=10))
    whole, pieced = FrameDecoder(), FrameDecoder()
    messages = whole.feed(stream)
    assert _feed_piecewise(pieced, stream, cuts) == messages
    assert all(isinstance(message, dict) for message in messages)
    for name in ("pending", "junk_bytes", "corrupt_frames"):
        assert getattr(pieced, name) == getattr(whole, name), name
    assert whole.pending + whole.junk_bytes <= len(stream)


# -- piecewise encoding ----------------------------------------------------------

_any_json = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.floats()  # NaN and the infinities too
    | st.text()
    | _json_values.map(json.dumps),  # a string that is itself JSON
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=24,
)


def _canonical(message):
    return json.dumps(message, sort_keys=True, separators=(",", ":"))


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(st.text(max_size=8), _any_json, max_size=5),
    st.lists(st.integers(min_value=0, max_value=400), max_size=8),
)
def test_fuzz_pieces_join_to_the_one_shot_frame(message, cuts):
    """Canonical text cut anywhere frames to ``encode_frame``'s bytes."""
    text = _canonical(message)
    bounds = [0, *sorted(min(cut, len(text)) for cut in cuts), len(text)]
    strings = [text[start:end] for start, end in zip(bounds, bounds[1:])]
    pieces = list(frame_text(lambda: strings))
    assert b"".join(pieces) == encode_frame(message)
    assert len(pieces[0]) == HEADER_SIZE


def test_pieces_are_bounded_and_header_first():
    message = {"items": ["é" * 500 + str(serial) for serial in range(600)]}
    strings = ["{", '"items":', _canonical(message["items"]), "}"]
    strings[2:3] = [strings[2][start : start + 999] for start in range(0, len(strings[2]), 999)]
    pieces = list(frame_text(lambda: strings))
    assert b"".join(pieces) == encode_frame(message)
    assert len(pieces) > 10
    assert all(len(piece) < PIECE_BYTES + 1_000 for piece in pieces)


def test_the_source_is_read_twice():
    calls = []

    def text():
        calls.append(len(calls))
        yield '{"a":1}'

    assert b"".join(frame_text(text)) == encode_frame({"a": 1})
    assert calls == [0, 1]


def _failing():
    yield '{"a":'
    raise TypeError("a piece that fails to encode")


@pytest.mark.parametrize(
    "text, error",
    [
        (
            lambda: ['{"blob":"'] + ["x" * (1 << 20)] * 17 + ['"}'],
            FramingError,
        ),
        (lambda: ['{"text":"é"}'], FramingError),
        (_failing, TypeError),
    ],
    ids=["oversized", "non-ascii", "failing"],
)
def test_a_refused_frame_yields_nothing(text, error):
    pieces = frame_text(text)
    with pytest.raises(error):
        next(pieces)
    assert list(pieces) == []
