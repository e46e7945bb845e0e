"""Checkpointing replica state to disk.

Cimbiosys replicas survive restarts: the item stores, knowledge, filter,
and version counters persist, and Section V-A of the paper adds the
requirement that routing policies "can define persistent data structures
which are serialized to disk and retrieved whenever a synchronization
operation is invoked". A checkpoint (``repro.replica-state.v2``,
docs/protocol.md §6) is one head line of canonical JSON — identity,
filter, relay configuration, knowledge, id counters, each store's item
count and the policy's persistent state — then one line per stored
item, store by store in FIFO order.

:func:`checkpoint_lines` is the one writer and :func:`replica_from_lines`
the one reader, for files (:func:`save_replica` / :func:`load_replica`)
and for an emulated crash restart alike. The reader decodes a line at a
time and refuses, with :class:`CodecError`, any line that is not one
value and its newline, a store short of its count, and a line past the
last item: a torn file never loads short. A restored replica is
protocol-indistinguishable from the one saved: same knowledge, same
stored versions, same future ids.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    TextIO,
    Tuple,
    Union,
)

from .codec import (
    _MALFORMED,
    CodecError,
    decode_filter,
    decode_item,
    decode_knowledge,
    encode_filter,
    encode_item,
    encode_knowledge,
)
from .ids import ReplicaId
from .integrity import canonical_encoder
from .items import Item
from .replica import Replica

#: Format marker so future layout changes can be detected on load.
STATE_FORMAT = "repro.replica-state.v2"

_encode = canonical_encoder()
_scan_once = json.JSONDecoder().scan_once


#: A replica's stores, in the order a checkpoint lists their items.
STORE_KEYS = ("in_filter", "outbox", "relay")


def replica_stores(replica: Replica) -> Dict[str, Sequence[Item]]:
    """Each store's items in FIFO order, under its key in a checkpoint."""
    stores = (replica._store, replica._outbox, replica._relay)
    return {key: store.items() for key, store in zip(STORE_KEYS, stores)}


def checkpoint_lines(
    replica: Replica, policy_state: Optional[Dict[str, Any]] = None
) -> Iterator[str]:
    """A replica's checkpoint, one newline-terminated line at a time: the
    head, then each stored item, encoded as it is yielded."""
    stores = replica_stores(replica)
    head = {
        "format": STATE_FORMAT,
        "replica": replica.replica_id.name,
        "filter": encode_filter(replica.filter),
        "relay_capacity": replica._relay.capacity,
        "relay_eviction": replica._relay.strategy,
        "knowledge": encode_knowledge(replica.knowledge),
        "ids": replica._ids.snapshot(),
        "counts": {key: len(items) for key, items in stores.items()},
        "policy_state": policy_state,
    }
    yield _encode(head) + "\n"
    for items in stores.values():
        for item in items:
            yield _encode(encode_item(item)) + "\n"


def _line_value(line: str, number: int) -> Any:
    """The one JSON value on checkpoint line ``number`` (1-based)."""
    try:
        value, end = _scan_once(line, 0)
    except (StopIteration, ValueError, RecursionError):
        end = -1
    if end != len(line) - 1 or not line.endswith("\n"):
        raise CodecError(f"line {number} is not one JSON value and its newline")
    return value


def _replica_from_head(
    line: str,
) -> Tuple[Replica, List[int], Optional[Dict[str, Any]]]:
    """The replica a checkpoint's head line describes, stores still
    empty; each store's item count; the policy state."""
    head = _line_value(line, 1)
    found = head.get("format") if isinstance(head, dict) else None
    if found != STATE_FORMAT:
        raise CodecError(f"unrecognised replica state format: {found!r}")
    try:
        replica = Replica(
            ReplicaId(head["replica"]),
            decode_filter(head["filter"]),
            relay_capacity=head["relay_capacity"],
            relay_eviction=head["relay_eviction"],
        )
        replica._ids.restore(head["ids"])
        replica.knowledge = decode_knowledge(head["knowledge"])
        counts = [int(head["counts"][key]) for key in STORE_KEYS]
    except _MALFORMED as error:
        raise CodecError(f"bad checkpoint head: {error!r}") from error
    return replica, counts, head.get("policy_state")


def replica_from_lines(
    lines: Iterable[str],
) -> Tuple[Replica, Optional[Dict[str, Any]]]:
    """Rebuild a replica from :func:`checkpoint_lines` output; returns
    (replica, policy_state-or-None). Items are put straight into their
    stores: observers do not fire, they were told in the previous life.
    """
    numbered = enumerate(lines, start=1)
    replica, counts, policy_state = _replica_from_head(next(numbered, (1, ""))[1])
    stores = (replica._store, replica._outbox, replica._relay)
    for store, count in zip(stores, counts):
        for _ in range(count):
            number, line = next(numbered, (None, None))
            if line is None:
                raise CodecError("checkpoint ends before its last item")
            store.put(decode_item(_line_value(line, number)))
    extra = next(numbered, None)
    if extra is not None:
        raise CodecError(f"line {extra[0]} follows the last item")
    return replica, policy_state


def write_atomic(path: pathlib.Path, chunks: Iterable[str]) -> None:
    """Replace ``path``'s contents with the concatenated ``chunks``, all or
    nothing.

    Temp file beside the target, ``fsync``, then ``os.replace``: a writer
    killed at any instruction, or a chunk that fails to encode, leaves
    the old file or the new one, never a torn one (churn SIGKILLs a
    daemon right after its checkpoint directive).
    """
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as stream:
        stream.writelines(chunks)
        stream.flush()
        os.fsync(stream.fileno())
    os.replace(tmp, path)


def save_replica(
    replica: Replica,
    path: Union[str, pathlib.Path],
    policy_state: Optional[Dict[str, Any]] = None,
) -> None:
    """Write ``checkpoint_lines(replica, policy_state)`` to ``path``, all
    or nothing."""
    write_atomic(pathlib.Path(path), checkpoint_lines(replica, policy_state))


def _read(path: Union[str, pathlib.Path], read: Callable[[TextIO], Any]) -> Any:
    """``read`` an open checkpoint; a file that is not one raises
    :class:`CodecError` naming it."""
    with open(path, encoding="utf-8") as stream:
        try:
            return read(stream)
        except (CodecError, UnicodeDecodeError) as error:
            raise CodecError(f"{path}: {error}") from error


def load_replica(
    path: Union[str, pathlib.Path],
) -> Tuple[Replica, Optional[Dict[str, Any]]]:
    """Load a checkpoint; returns (replica, policy_state-or-None). A file
    that is not a whole checkpoint raises :class:`CodecError` naming it."""
    return _read(path, replica_from_lines)


def load_identity(path: Union[str, pathlib.Path]) -> Replica:
    """The :func:`amnesiac_replica` of the checkpoint at ``path``, read
    from its head line alone: an amnesiac rejoin decodes no stored item."""
    replica, _, _ = _read(path, lambda stream: _replica_from_head(stream.readline()))
    return amnesiac_replica(replica)


def amnesiac_replica(replica: Replica) -> Replica:
    """A fresh replica keeping only ``replica``'s identity: its name,
    filter, relay configuration and id-factory counters (an amnesiac
    node must not reissue the serials of items it forgot)."""
    fresh = Replica(
        replica.replica_id,
        replica.filter,
        relay_capacity=replica._relay.capacity,
        relay_eviction=replica._relay.strategy,
    )
    fresh._ids.restore(replica._ids.snapshot())
    return fresh
