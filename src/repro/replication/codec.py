"""Wire encoding of protocol objects, with size accounting.

The emulation passes Python objects between replicas directly; a real
deployment serialises them. This module defines a canonical JSON encoding
for every protocol object — items, versions, knowledge, sync requests and
batches — both so the library is deployable over a byte transport and so
experiments can measure *metadata overhead in bytes* (the paper's
"compact knowledge" claim is about exactly this: knowledge size grows
with the number of replicas, not the number of messages).

Encoding rules:

* payloads and attribute values must be JSON-representable (the
  messaging application only ever uses strings/numbers);
* host-local attributes are encoded too — they are legitimately carried
  per-copy on the wire (TTLs, copy budgets, hop lists), they just never
  replicate as versioned data;
* knowledge is encoded per authoring replica as ``[prefix, extras...]``,
  the same compact shape it is stored in.

Routing-policy payloads are open-ended, so the codec has a small registry
(:func:`register_routing_codec`) mapping a type tag to encode/decode
functions; the bundled PROPHET and MaxProp states are registered by
:mod:`repro.dtn.codec`.

Decoding keeps one copy of what repeats from item to item. Replica
names, their ids and short string attribute keys and values go through
one bounded process-wide table (:data:`SHARED_NAMES`), so a node that
stores thousands of decoded copies holds each name once, as an
in-process replica does. Per-copy state goes to
:func:`~repro.replication.items.per_copy_state`, and an item's attribute
map is built once, as the item's own mapping.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from .errors import InvalidFilterError, ReplicationError
from .filters import (
    AddressFilter,
    AllFilter,
    AndFilter,
    AttributeFilter,
    Filter,
    MultiAddressFilter,
    NotFilter,
    NothingFilter,
    OrFilter,
)
from .ids import ItemId, ReplicaId, Version
from .integrity import (
    cached_item_checksum,
    canonical_encoder,
    frame_checksum,
    item_checksum,
)
from .items import Item, owned_mapping, per_copy_state
from .sync import BatchEntry, SyncRequest
from .routing import Priority, PriorityClass
from .versions import VersionVector, _Entry


class CodecError(ReplicationError):
    """A protocol object could not be encoded or decoded."""


#: What decoding a malformed but JSON-shaped value raises underneath:
#: missing keys and short sequences, wrong container types, out-of-range
#: and non-finite numbers (``int(float("inf"))`` is an OverflowError),
#: constructor validation, junk nested deeper than the interpreter
#: recurses. Every ``decode_*`` turns all of these into
#: :class:`CodecError`, the one exception its callers handle.
_MALFORMED = (
    LookupError,
    TypeError,
    ValueError,
    AttributeError,
    ArithmeticError,
    RecursionError,
    InvalidFilterError,
)


# -- identifiers -----------------------------------------------------------------


def encode_version(version: Version) -> List[Any]:
    return [version.replica.name, version.counter]


#: How many distinct strings, and how many replica ids, decoding shares
#: process-wide. The first decoded copy of a name is kept and every later
#: equal name decodes to it; once the table is full a new name is used as
#: decoded. Never ``sys.intern``: a peer picks these strings, and interned
#: strings outlive every reference on Python 3.12.
SHARED_NAMES = 4096
#: Longer strings (bodies, not names) are never shared.
SHARED_NAME_LENGTH = 64


class _SharedTable(dict):
    """Decoded text → the first value built from an equal text.

    A hit is one C dict lookup; a miss builds the value and keeps it
    while the text is short and the table has room.
    """

    __slots__ = ("_build",)

    def __init__(self, build: Callable[[str], Any]) -> None:
        super().__init__()
        self._build = build

    def __missing__(self, text: Any) -> Any:
        value = self._build(text)
        if (
            type(text) is str
            and len(text) <= SHARED_NAME_LENGTH
            and len(self) < SHARED_NAMES
        ):
            self[text] = value
        return value


_names = _SharedTable(lambda text: text)
_replica_ids = _SharedTable(lambda name: ReplicaId(_names[name]))


def _replica_id(name: Any) -> ReplicaId:
    """A replica id from the wire; names are strings, nothing else sorts."""
    if not isinstance(name, str):
        raise CodecError(f"bad replica name: {name!r}")
    return _replica_ids[name]


def _id_fields(data: Any) -> Tuple[ReplicaId, int]:
    """The ``[name, number]`` list :func:`encode_version` and
    :func:`encode_item_id` write; a number must be an ``int`` (not a
    ``bool``, ``float`` or ``str``), so that it re-encodes to itself."""
    if type(data) is not list or len(data) != 2 or type(data[1]) is not int:
        raise ValueError(f"not an encoded id: {data!r}")
    return _replica_id(data[0]), data[1]


def decode_version(data: Any) -> Version:
    try:
        return Version(*_id_fields(data))
    except _MALFORMED as error:
        raise CodecError(f"bad version encoding: {data!r}") from error


def encode_item_id(item_id: ItemId) -> List[Any]:
    return [item_id.origin.name, item_id.serial]


def decode_item_id(data: Any) -> ItemId:
    try:
        return ItemId(*_id_fields(data))
    except _MALFORMED as error:
        raise CodecError(f"bad item id encoding: {data!r}") from error


# -- knowledge --------------------------------------------------------------------


def encode_knowledge(vector: VersionVector) -> Dict[str, List[int]]:
    """Encode as {replica: [prefix, extra, extra, ...]}."""
    encoded: Dict[str, List[int]] = {}
    for replica in vector.replicas():
        entry = vector._entries[replica]
        if entry.is_empty:
            continue
        encoded[replica.name] = [entry.prefix, *sorted(entry.extras)]
    return encoded


def _knowledge_entry(shape: Any) -> _Entry:
    """The entry ``[prefix, extra, ...]`` :func:`encode_knowledge` writes.

    Only what re-encodes to itself is accepted: a list of ``int`` (not
    ``bool``, ``float`` or ``str``) counters, extras strictly increasing
    above ``prefix + 1``, and not the empty entry ``[0]``.
    """
    if type(shape) is not list or shape == [0]:
        raise ValueError(f"not an encoded entry: {shape!r}")
    prefix, *extras = shape
    if type(prefix) is not int:
        raise ValueError(f"the prefix must be an int: {shape!r}")
    last = prefix + 1
    for extra in extras:
        if type(extra) is not int or extra <= last:
            raise ValueError(f"extras must be increasing ints: {shape!r}")
        last = extra
    return _Entry(prefix, frozenset(extras))


def decode_knowledge(data: Any) -> VersionVector:
    """Decode :func:`encode_knowledge`'s output; anything it would not
    re-encode byte for byte raises :class:`CodecError`."""
    if not isinstance(data, dict):
        raise CodecError(f"bad knowledge encoding: {data!r}")
    entries: Dict[ReplicaId, _Entry] = {}
    for name, shape in data.items():
        try:
            entries[_replica_id(name)] = _knowledge_entry(shape)
        except _MALFORMED as error:
            raise CodecError(f"bad knowledge entry for {name!r}") from error
    return VersionVector(entries)


# -- filters -----------------------------------------------------------------------


def encode_filter(filter_: Filter) -> Dict[str, Any]:
    if isinstance(filter_, AllFilter):
        return {"type": "all"}
    if isinstance(filter_, NothingFilter):
        return {"type": "nothing"}
    if isinstance(filter_, AddressFilter):
        return {"type": "address", "address": filter_.address}
    if isinstance(filter_, MultiAddressFilter):
        return {
            "type": "multi-address",
            "own": filter_.own_address,
            "relay": sorted(filter_.relay_addresses),
        }
    if isinstance(filter_, AttributeFilter):
        return {"type": "attribute", "name": filter_.name, "value": filter_.value}
    if isinstance(filter_, AndFilter):
        return {"type": "and", "operands": [encode_filter(f) for f in filter_.operands]}
    if isinstance(filter_, OrFilter):
        return {"type": "or", "operands": [encode_filter(f) for f in filter_.operands]}
    if isinstance(filter_, NotFilter):
        return {"type": "not", "operand": encode_filter(filter_.operand)}
    raise CodecError(f"cannot encode filter type {type(filter_).__name__}")


#: The keys :func:`encode_filter` writes for each filter type.
_FILTER_KEYS = {
    "all": ("type",),
    "nothing": ("type",),
    "address": ("type", "address"),
    "multi-address": ("type", "own", "relay"),
    "attribute": ("type", "name", "value"),
    "and": ("type", "operands"),
    "or": ("type", "operands"),
    "not": ("type", "operand"),
}


def _decode_operands(data: Any) -> Tuple[Filter, ...]:
    if type(data) is not list:
        raise CodecError(f"filter operands are {type(data).__name__}, not a list")
    return tuple(decode_filter(operand) for operand in data)


def decode_filter(data: Any) -> Filter:
    """Decode :func:`encode_filter`'s output; anything it would not write
    back (a key missing or unknown, a name that is not a string, relay
    addresses unsorted or repeated) raises :class:`CodecError`."""
    try:
        kind = data["type"]
    except _MALFORMED as error:
        raise CodecError(f"bad filter encoding: {data!r}") from error
    if type(kind) is not str or kind not in _FILTER_KEYS:
        raise CodecError(f"unknown filter type: {kind!r}")
    _, *fields = decode_state_fields(data, _FILTER_KEYS[kind])
    try:
        if kind == "all":
            return AllFilter()
        if kind == "nothing":
            return NothingFilter()
        if kind == "address":
            return AddressFilter(decode_name(*fields))
        if kind == "multi-address":
            own, relay = fields
            return MultiAddressFilter(decode_name(own), decode_addresses(relay))
        if kind == "attribute":
            name, value = fields
            return AttributeFilter(decode_name(name), value)
        if kind == "not":
            return NotFilter(decode_filter(*fields))
        operands = _decode_operands(*fields)
        return AndFilter(operands) if kind == "and" else OrFilter(operands)
    except _MALFORMED as error:
        raise CodecError(f"bad filter encoding: {data!r}") from error


# -- items --------------------------------------------------------------------------


def encode_item(item: Item, with_checksum: bool = False) -> Dict[str, Any]:
    """Encode one item; ``with_checksum`` stamps its content checksum.

    The checksum covers the replicated content only (never the host-local
    attributes — see :func:`repro.replication.integrity.item_checksum`),
    so relay hops that rewrite TTLs or hop lists do not invalidate it.
    Checksums are opt-in to keep the plain wire format — and every
    zero-fault byte measurement built on it — unchanged. Stamping uses the
    per-instance checksum memo (hash once per content, not per encoding);
    decode-side *verification* never does — see :func:`decode_item`.
    """
    encoded: Dict[str, Any] = {
        "id": encode_item_id(item.item_id),
        "version": encode_version(item.version),
        "payload": item.payload,
        "attributes": dict(item.attributes),
    }
    if item.local_attributes:
        encoded["local"] = _encode_local_attributes(item.local_attributes)
    if item.deleted:
        encoded["deleted"] = True
    if with_checksum:
        encoded["checksum"] = cached_item_checksum(item)
    return encoded


def _encode_local_attributes(local: Any) -> Dict[str, Any]:
    encoded = {}
    for key, value in dict(local).items():
        if isinstance(value, tuple):
            value = list(value)
        encoded[key] = value
    return encoded


#: The keys :func:`encode_item` always writes, and those it writes only
#: when they carry something.
_ITEM_KEYS = frozenset({"id", "version", "payload", "attributes"})
_ITEM_EXTRAS = frozenset({"local", "deleted", "checksum"})


def _check_item_shape(data: Any) -> None:
    """Refuse what :func:`encode_item` would not write back: a key
    missing or unknown, an empty ``local``, a ``deleted`` that is not
    ``true``, a checksum that is not a string."""
    keys = data.keys()
    if (
        not _ITEM_KEYS <= keys
        or not keys - _ITEM_KEYS <= _ITEM_EXTRAS
        or ("local" in data and not data["local"])
        or data.get("deleted", True) is not True
        or type(data.get("checksum", "")) is not str
    ):
        raise ValueError(f"not an encoded item: {data!r}")


def decode_item(data: Any) -> Item:
    """Decode one item, verifying its content checksum when present.

    A checksum mismatch means the encoded bytes were altered after the
    sender stamped them — the item is refused with :class:`CodecError`
    rather than silently admitted to a store. Verification always hashes
    the freshly decoded content (a decoded object can carry no memo;
    caching before verifying is how a forged frame would slip through).
    Only what :func:`encode_item` writes decodes (:func:`_check_item_shape`).
    """
    try:
        _check_item_shape(data)
        local = {
            key: tuple(value) if isinstance(value, list) else value
            for key, value in data.get("local", {}).items()
        }
        item = Item(
            decode_item_id(data["id"]),
            decode_version(data["version"]),
            data["payload"],
            owned_mapping(
                (_names[key], _names[value] if type(value) is str else value)
                for key, value in data["attributes"].items()
            ),
            per_copy_state(local),
            "deleted" in data,
        )
        declared = data.get("checksum")
        if declared is not None and item_checksum(item) != declared:
            raise CodecError(
                f"item {item.item_id} fails its content checksum "
                f"(declared {declared!r})"
            )
        return item
    except _MALFORMED as error:
        raise CodecError(f"bad item encoding: {data!r}") from error


# -- routing-state registry -------------------------------------------------------------

RoutingEncoder = Callable[[Any], Dict[str, Any]]
RoutingDecoder = Callable[[Dict[str, Any]], Any]

_ROUTING_CODECS: Dict[str, Tuple[type, RoutingEncoder, RoutingDecoder]] = {}


def register_routing_codec(
    tag: str, state_type: type, encoder: RoutingEncoder, decoder: RoutingDecoder
) -> None:
    """Register wire encode/decode functions for a routing-state type."""
    _ROUTING_CODECS[tag] = (state_type, encoder, decoder)


def encode_routing_state(state: Any) -> Optional[Dict[str, Any]]:
    if state is None:
        return None
    for tag, (state_type, encoder, _) in _ROUTING_CODECS.items():
        if isinstance(state, state_type):
            return {"tag": tag, "state": encoder(state)}
    raise CodecError(
        f"no routing codec registered for {type(state).__name__}; "
        "call register_routing_codec"
    )


def decode_routing_state(data: Any) -> Any:
    if data is None:
        return None
    try:
        tag, payload = data["tag"], data["state"]
    except _MALFORMED as error:
        raise CodecError(f"bad routing-state encoding: {data!r}") from error
    try:
        _, _, decoder = _ROUTING_CODECS[tag]
    except (KeyError, TypeError):
        raise CodecError(f"unknown routing-state tag: {tag!r}") from None
    try:
        return decoder(payload)
    except _MALFORMED as error:
        raise CodecError(f"bad {tag} routing state: {payload!r}") from error


# -- policy persistent state ----------------------------------------------------------------
#
# A policy's ``persistent_state()`` reaches a checkpoint's head line as
# plain JSON. Restoring refuses what that method could not have written,
# so a damaged or hand-edited file stops a boot with :class:`CodecError`
# instead of an ``AttributeError`` or a silently empty routing state.


def decode_state_fields(data: Any, keys: Tuple[str, ...]) -> List[Any]:
    """The values of a JSON object holding exactly ``keys``, in that
    order (a persistent state, a filter)."""
    if not isinstance(data, dict):
        raise CodecError(f"{type(data).__name__} where a map belongs")
    if data.keys() != set(keys):
        found = sorted(map(str, data))
        raise CodecError(f"a map needs exactly {sorted(keys)}, got {found}")
    return [data[key] for key in keys]


def decode_number(value: Any) -> float:
    """A JSON number (not a bool, not a string) as a float."""
    if type(value) not in (int, float):
        raise CodecError(f"policy state holds {value!r} where a number belongs")
    return float(value)


def decode_name(value: Any) -> str:
    """A name or address: a JSON string, nothing that merely converts."""
    if type(value) is not str:
        raise CodecError(f"{value!r} where a name belongs")
    return value


def decode_addresses(value: Any) -> FrozenSet[str]:
    """The sorted list of distinct names an encoder writes for a set."""
    if type(value) is not list or not all(type(a) is str for a in value):
        raise CodecError(f"{value!r} where a list of addresses belongs")
    if any(a >= b for a, b in zip(value, value[1:])):
        raise CodecError(f"addresses {value!r} are not sorted and distinct")
    return frozenset(value)


def decode_names(data: Any, decode_value: Callable[[Any], Any]) -> Dict[str, Any]:
    """A JSON object keyed by names, each value through ``decode_value``."""
    if not isinstance(data, dict):
        kind = type(data).__name__
        raise CodecError(f"policy state holds {kind} where a map belongs")
    return {key: decode_value(value) for key, value in data.items()}


# -- protocol messages ---------------------------------------------------------------------


def encode_sync_request(request: SyncRequest) -> Dict[str, Any]:
    return {
        "target": request.target_id.name,
        "knowledge": encode_knowledge(request.knowledge),
        "filter": encode_filter(request.filter),
        "routing": encode_routing_state(request.routing_state),
    }


_REQUEST_KEYS = frozenset(("target", "knowledge", "filter", "routing"))


def decode_sync_request(data: Any) -> SyncRequest:
    """Decode a REQUEST frame, refusing keys this version does not define:
    a 1.2 peer's ``digest`` request carries an empty placeholder vector,
    and ignoring the key would answer it as a target that knows nothing."""
    try:
        unknown = data.keys() - _REQUEST_KEYS
        if unknown:
            raise CodecError(f"unknown sync request keys: {sorted(unknown)!r}")
        return SyncRequest(
            target_id=_replica_id(data["target"]),
            knowledge=decode_knowledge(data["knowledge"]),
            filter=decode_filter(data["filter"]),
            routing_state=decode_routing_state(data.get("routing")),
        )
    except _MALFORMED as error:
        raise CodecError(f"bad sync request encoding: {data!r}") from error


def encode_batch_entry(
    entry: BatchEntry, with_checksum: bool = False
) -> Dict[str, Any]:
    """Encode one batch entry; checksums are stamped when requested or
    when the entry already carries one (re-encoding preserves it)."""
    encoded = {
        "item": encode_item(entry.item),
        "matched": entry.matched_filter,
        "priority": [int(entry.priority.class_), entry.priority.cost],
    }
    if with_checksum or entry.checksum is not None:
        encoded["checksum"] = (
            entry.checksum
            if entry.checksum is not None
            else cached_item_checksum(entry.item)
        )
    return encoded


def decode_batch_entry(data: Any) -> BatchEntry:
    """Decode one batch entry frame.

    The entry-level checksum (when present) is carried onto the
    :class:`BatchEntry` for ``apply_batch`` to verify against the item's
    content — the codec validates the frame's *shape* here; content
    verification belongs to the receive path so a mismatch quarantines
    one entry rather than failing the whole decode.
    """
    try:
        class_value, cost = data["priority"]
        checksum = data.get("checksum")
        if checksum is not None and not isinstance(checksum, str):
            raise CodecError(f"bad entry checksum: {checksum!r}")
        return BatchEntry(
            item=decode_item(data["item"]),
            matched_filter=bool(data["matched"]),
            priority=Priority(PriorityClass(class_value), float(cost)),
            checksum=checksum,
        )
    except _MALFORMED as error:
        raise CodecError(f"bad batch entry: {data!r}") from error


def encode_batch_frame(batch: List[BatchEntry]) -> Dict[str, Any]:
    """Encode a whole batch as one integrity-protected frame.

    Every entry is checksummed individually and the frame carries a
    checksum over the ordered entry checksums, so both a flipped payload
    byte and a reordered/spliced entry list are detectable at decode
    time.
    """
    entries = [
        encode_batch_entry(entry, with_checksum=True) for entry in batch
    ]
    return {
        "entries": entries,
        "checksum": frame_checksum(
            entry["checksum"] for entry in entries
        ),
    }


def decode_batch_frame(data: Any) -> List[BatchEntry]:
    """Decode an integrity-protected batch frame.

    Raises :class:`CodecError` when the frame-level checksum does not
    match the ordered entry checksums — a damaged or tampered frame is
    rejected before any entry is considered. Per-entry content checks
    then happen entry-by-entry in ``apply_batch``.
    """
    try:
        raw_entries = data["entries"]
        declared = data["checksum"]
    except _MALFORMED as error:
        raise CodecError(f"bad batch frame: {data!r}") from error
    if not isinstance(raw_entries, list):
        raise CodecError(f"bad batch frame entries: {raw_entries!r}")
    checksums = []
    for element in raw_entries:
        checksum = element.get("checksum") if isinstance(element, dict) else None
        if not isinstance(checksum, str):
            raise CodecError(f"batch frame entry missing checksum: {element!r}")
        checksums.append(checksum)
    if frame_checksum(checksums) != declared:
        raise CodecError(
            f"batch frame fails its checksum (declared {declared!r})"
        )
    return [decode_batch_entry(element) for element in raw_entries]


# -- size accounting -----------------------------------------------------------------------


_encode = canonical_encoder()


def wire_size(encoded: Any) -> int:
    """Size in bytes of an encoded object on the wire (compact JSON)."""
    return len(_encode(encoded))


def knowledge_wire_size(vector: VersionVector) -> int:
    """Bytes a replica's knowledge occupies in a sync request.

    Always ``wire_size(encode_knowledge(vector))``, read in O(1): the
    vector keeps the total as it learns
    (:meth:`~repro.replication.versions.VersionVector.wire_size`).
    """
    return vector.wire_size()
