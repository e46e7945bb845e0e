"""Length-prefixed wire framing for the live transport.

A frame is ``MAGIC + 4-byte big-endian payload length + payload``, where
the payload is one UTF-8 canonical-JSON object (the same compact encoding
:mod:`repro.replication.codec` uses for everything else on the wire). The
magic both versions the framing and anchors resynchronisation: a receiver
that finds itself mid-garbage — a partially overwritten buffer, a peer
speaking an older framing, bytes mangled in flight — scans forward to the
next magic and resumes, counting what it skipped instead of dying.

Streams are adversarial by assumption (the PR-4 threat model): a bogus
length field must not make the receiver wait forever or allocate
unboundedly, so lengths above :data:`MAX_FRAME_BYTES` are treated as
corruption, not as instructions. Payloads that decode to non-JSON or to a
non-object are dropped and counted (``corrupt_frames``) — the sync layer
above already treats missing frames as a truncated session and re-offers
at the next contact, the same monotone-progress contract the faults layer
established.

See ``docs/protocol.md`` §9.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Callable, Dict, Iterable, Iterator, List

from repro.replication.integrity import canonical_encoder

MAGIC = b"RPR1"
HEADER_SIZE = len(MAGIC) + 4
#: Hard ceiling on one frame's payload. A batch frame at city scale is a
#: few MB; anything claiming more is a corrupt or hostile length field.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Bytes per piece :func:`frame_text` yields.
PIECE_BYTES = 64 * 1024

_LENGTH = struct.Struct(">I")
_encode = canonical_encoder()
_decoder = json.JSONDecoder()
_scan_once = _decoder.scan_once


def _decode(text: str) -> Any:
    """``JSONDecoder().decode(text)``, in one scan when the value fills it.

    ``JSONDecoder.decode`` also runs two whitespace regexes per payload;
    a canonical frame has no whitespace, so the value scanned at offset 0
    ends exactly at the payload's end. Anything else — padding, trailing
    data, no value at all — goes through ``decode``, which accepts or
    refuses it exactly as before.
    """
    try:
        value, end = _scan_once(text, 0)
    except StopIteration:
        end = -1
    if end == len(text):
        return value
    return _decoder.decode(text)


class FramingError(ValueError):
    """A message that cannot be framed (not JSON-encodable, or oversized)."""


def _encoded(message: Dict[str, Any], encode: Callable[[Any], Any]) -> Any:
    """``encode(message)``, or the :class:`FramingError` refusing it."""
    if not isinstance(message, dict):
        raise FramingError(
            f"wire messages are JSON objects, got {type(message).__name__}"
        )
    try:
        return encode(message)
    except (TypeError, ValueError, RecursionError) as error:
        # A circular message nests until the interpreter's limit.
        raise FramingError(f"message is not JSON-encodable: {error}") from error


def _header(length: int) -> bytes:
    if length > MAX_FRAME_BYTES:
        raise FramingError(
            f"frame payload of {length} bytes exceeds "
            f"MAX_FRAME_BYTES ({MAX_FRAME_BYTES})"
        )
    return MAGIC + _LENGTH.pack(length)


def encode_frame(message: Dict[str, Any]) -> bytes:
    """Encode one message dict as a wire frame.

    Canonical compact JSON (sorted keys, no whitespace) so identical
    messages are byte-identical — the property every checksum in the
    codec layer already relies on.
    """
    payload = _encoded(message, _encode).encode("utf-8")
    return b"".join((_header(len(payload)), payload))


def frame_text(text: Callable[[], Iterable[str]]) -> Iterator[bytes]:
    """The frame whose payload is ``"".join(text())``, header first, in
    pieces of about :data:`PIECE_BYTES`, so no whole frame is ever held.

    ``text`` is called twice and must yield the same ASCII strings both
    times (canonical JSON escapes every non-ASCII character, so a
    piece's length is its byte count). The first pass sums the lengths;
    a frame that cannot be written — oversized, non-ASCII, or a piece
    that fails to encode — is refused on the first ``next()``, before
    any byte is yielded, so a frame is never torn. The second pass
    yields it.
    """
    length = 0
    for piece in text():
        if not piece.isascii():
            raise FramingError("frame text must be ASCII")
        length += len(piece)
    yield _header(length)
    # Each piece a copy of the chunk, as a transport may keep a view of
    # what it was handed.
    chunk = bytearray()
    for piece in text():
        chunk += piece.encode("ascii")
        if len(chunk) >= PIECE_BYTES:
            yield bytes(chunk)
            chunk.clear()
    yield bytes(chunk)


def _magic_prefix_overlap(tail: bytes) -> int:
    """Longest suffix of ``tail`` that is a proper prefix of MAGIC."""
    for size in range(min(len(tail), len(MAGIC) - 1), 0, -1):
        if tail[-size:] == MAGIC[:size]:
            return size
    return 0


class FrameDecoder:
    """Incremental frame decoder over an arbitrary byte stream.

    Feed it whatever the socket hands you — single bytes, half frames,
    three frames and a torn header — and it returns each complete message
    exactly once, in order. Garbage between frames is skipped by scanning
    to the next magic (``resyncs`` / ``junk_bytes`` count it); a frame
    whose payload fails JSON decoding is dropped (``corrupt_frames``).

    ``pending`` exposes the buffered byte count so a reader can tell a
    clean EOF from a connection cut mid-frame — the wire-level analogue
    of the truncation fault's interrupted session.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self.resyncs = 0
        self.junk_bytes = 0
        self.corrupt_frames = 0

    @property
    def pending(self) -> int:
        """Bytes buffered toward an incomplete frame (0 at a clean point)."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[Dict[str, Any]]:
        """Consume ``data``; return every message it completes."""
        # Frames are parsed where they lie (in ``data`` itself when nothing
        # is buffered, the usual case); only an unterminated tail is kept.
        buffer = self._buffer
        if buffer:
            buffer += data
            data = buffer
        messages: List[Dict[str, Any]] = []
        start, end = 0, len(data)
        with memoryview(data) as view:
            while True:
                index = data.find(MAGIC, start)
                if index < 0:
                    # No magic in sight: keep only the longest tail that
                    # could still grow into one, so a magic split across
                    # two reads is never thrown away.
                    index = end - _magic_prefix_overlap(
                        data[max(start, end - len(MAGIC) + 1):]
                    )
                if index != start:
                    self.junk_bytes += index - start
                    self.resyncs += 1
                    start = index
                body = start + HEADER_SIZE
                if end < body:
                    break
                (length,) = _LENGTH.unpack_from(data, start + len(MAGIC))
                if length > MAX_FRAME_BYTES:
                    # A hostile/corrupt length field. Skip one byte and
                    # rescan: a real frame boundary inside what looked like
                    # a header (the magic can legitimately appear in payload
                    # bytes that were torn from their own frame) is found,
                    # not lost.
                    start += 1
                    self.junk_bytes += 1
                    self.resyncs += 1
                    continue
                if end < body + length:
                    break
                start = body + length
                try:
                    message = _decode(str(view[body:start], "utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError, RecursionError):
                    message = None
                if isinstance(message, dict):
                    messages.append(message)
                else:
                    self.corrupt_frames += 1
        if data is buffer:
            del buffer[:start]
        else:
            buffer += data[start:]
        return messages
