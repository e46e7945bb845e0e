"""Checkpointing replica state to disk.

Cimbiosys replicas survive restarts: the item stores, knowledge, filter,
and version counters persist, and Section V-A of the paper adds the
requirement that routing policies "can define persistent data structures
which are serialized to disk and retrieved whenever a synchronization
operation is invoked". This module provides both halves:

* :func:`replica_to_state` / :func:`replica_from_state` — a complete,
  JSON-representable snapshot of a replica (all three stores in FIFO
  order, knowledge, filter, id-factory counters);
* :func:`save_replica` / :func:`load_replica` — the same, to/from a file,
  optionally bundling a routing policy's persistent state alongside
  (policies expose ``persistent_state()`` / ``restore_state()``; see
  :class:`repro.replication.routing.RoutingPolicy`). The file is
  ``json.dumps(document, sort_keys=True)``, written a stored item at a
  time: the snapshot dict is never built for it.

Restoring produces a replica that is protocol-indistinguishable from the
one saved: same knowledge, same stored versions, same future ids — so a
host can check-point between encounters and resume where it left off.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Any, Dict, Iterable, Iterator, Optional, Sequence, Union

from .codec import (
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
STATE_FORMAT = "repro.replica-state.v1"

#: ``json.dumps(value, sort_keys=True)``, the checkpoint file's encoding.
_dumps = canonical_encoder(separators=(", ", ": "))


def replica_stores(replica: Replica) -> Dict[str, Sequence[Item]]:
    """Each store's items in FIFO order, under its key in a replica state."""
    return {
        "in_filter": replica._store.items(),
        "outbox": replica._outbox.items(),
        "relay": replica._relay.items(),
    }


def _state_head(replica: Replica) -> Dict[str, Any]:
    """A replica's snapshot without its three stores."""
    return {
        "format": STATE_FORMAT,
        "replica": replica.replica_id.name,
        "filter": encode_filter(replica.filter),
        "relay_capacity": replica._relay.capacity,
        "relay_eviction": replica._relay.strategy,
        "knowledge": encode_knowledge(replica.knowledge),
        "ids": replica._ids.snapshot(),
    }


def replica_to_state(replica: Replica) -> Dict[str, Any]:
    """Snapshot a replica into a JSON-representable dict."""
    state = _state_head(replica)
    for key, items in replica_stores(replica).items():
        state[key] = [encode_item(item) for item in items]
    return state


def replica_from_state(state: Dict[str, Any]) -> Replica:
    """Rebuild a replica from :func:`replica_to_state` output.

    Store contents are restored directly (observers do not fire — the
    items were already reported stored in the previous life).
    """
    if state.get("format") != STATE_FORMAT:
        raise CodecError(
            f"unrecognised replica state format: {state.get('format')!r}"
        )
    replica = Replica(
        ReplicaId(state["replica"]),
        decode_filter(state["filter"]),
        relay_capacity=state.get("relay_capacity"),
        relay_eviction=state["relay_eviction"],
    )
    replica._ids.restore(state["ids"])
    replica.knowledge = decode_knowledge(state["knowledge"])
    for encoded in state["in_filter"]:
        replica._store.put(decode_item(encoded))
    for encoded in state["outbox"]:
        replica._outbox.put(decode_item(encoded))
    for encoded in state["relay"]:
        replica._relay.put(decode_item(encoded))
    return replica


def amnesiac_replica_state(state: Dict[str, Any]) -> Dict[str, Any]:
    """The state an *amnesiac* restart of ``state``'s replica boots from.

    Everything is lost except identity: the filter configuration (the
    node still knows who it is and what it subscribes to) and — crucially
    — the id-factory counters. Reusing version serials after forgetting
    the items they named would collide with copies of the old items still
    circulating in the network, so an amnesiac node resumes authoring
    from its pre-crash counter even though its stores and knowledge come
    back empty.
    """
    if state.get("format") != STATE_FORMAT:
        raise CodecError(
            f"unrecognised replica state format: {state.get('format')!r}"
        )
    fresh = replica_to_state(
        Replica(
            ReplicaId(state["replica"]),
            decode_filter(state["filter"]),
            relay_capacity=state.get("relay_capacity"),
            relay_eviction=state["relay_eviction"],
        )
    )
    fresh["ids"] = state["ids"]
    return fresh


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


def _checkpoint_chunks(
    replica: Replica, policy_state: Optional[Dict[str, Any]]
) -> Iterator[str]:
    """``json.dumps(document, sort_keys=True)`` of a checkpoint, in pieces,
    each stored item encoded as it is written."""
    stores = replica_stores(replica)
    state = {**_state_head(replica), **stores}
    yield "{"
    if policy_state is not None:
        yield '"policy_state": ' + _dumps(policy_state) + ", "
    yield '"replica_state": {'
    for number, key in enumerate(sorted(state)):
        yield (", " if number else "") + _dumps(key) + ": "
        if key not in stores:
            yield _dumps(state[key])
            continue
        yield "["
        for position, item in enumerate(stores[key]):
            yield (", " if position else "") + _dumps(encode_item(item))
        yield "]"
    yield "}}"


def save_replica(
    replica: Replica,
    path: Union[str, pathlib.Path],
    policy_state: Optional[Dict[str, Any]] = None,
) -> None:
    """Write a replica checkpoint (plus optional policy state) to ``path``:
    ``{"policy_state": ..., "replica_state": replica_to_state(replica)}``."""
    write_atomic(pathlib.Path(path), _checkpoint_chunks(replica, policy_state))


def load_replica(
    path: Union[str, pathlib.Path],
) -> tuple[Replica, Optional[Dict[str, Any]]]:
    """Load a checkpoint; returns (replica, policy_state-or-None)."""
    document = json.loads(pathlib.Path(path).read_text())
    try:
        replica_state = document["replica_state"]
    except (TypeError, KeyError):
        raise CodecError(f"not a replica checkpoint: {path}") from None
    return replica_from_state(replica_state), document.get("policy_state")
