"""Content integrity and protocol-violation reporting for the sync path.

The sync engine trusts nothing it receives over a faulty channel: every
batch entry can carry a content checksum (stamped by the sender just
before transmission) and the receiver recomputes it before applying the
item. A mismatch, an undecodable frame, a replayed entry, or fabricated
knowledge is surfaced as a typed :class:`ProtocolViolation` instead of
crashing or silently poisoning the store — the per-entry quarantine in
:func:`repro.replication.sync.apply_batch` counts the entry, skips it,
and leaves the sender's knowledge for that item unacknowledged so the
item retries at a later contact.

The checksum covers exactly the *replicated* content of an item — id,
version, payload, shared attributes, and the deletion marker. Host-local
attributes are excluded on purpose: routing policies legitimately rewrite
them per copy (TTLs, hop lists, copy budgets), so including them would
make every relay hop look like corruption.

Because that content is immutable per ``(item_id, version)``, hashing it
once per hop is pure waste on the hot path. :func:`cached_item_checksum`
removes it without weakening a single check: it binds the computed
checksum to the exact :class:`Item` *instance* it was computed from (a
non-field slot, never serialised, never copied by ``copy``, ``pickle`` or
``dataclasses.replace`` — see
:data:`~repro.replication.items.CHECKSUM_MEMO_ATTRIBUTE`). A corrupted
copy is a different object and always recomputes. Send-side stamping and
receive-side verification both go through it; :func:`item_checksum` is
the always-computing specification it must agree with.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from json import JSONEncoder
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Callable, Iterable, Optional, Tuple

from .ids import ItemId
from .items import CHECKSUM_MEMO_ATTRIBUTE, Item

#: Violation kinds, as they appear in metrics and logs.
VIOLATION_CHECKSUM_MISMATCH = "checksum-mismatch"
VIOLATION_MALFORMED_ENTRY = "malformed-entry"
VIOLATION_REPLAY = "replay"
VIOLATION_KNOWLEDGE_FABRICATION = "knowledge-fabrication"
VIOLATION_VERSION_CONFLICT = "version-conflict"

VIOLATION_KINDS: Tuple[str, ...] = (
    VIOLATION_CHECKSUM_MISMATCH,
    VIOLATION_MALFORMED_ENTRY,
    VIOLATION_REPLAY,
    VIOLATION_KNOWLEDGE_FABRICATION,
    VIOLATION_VERSION_CONFLICT,
)

#: Hex digits kept from the sha256 digest; 64 bits of collision resistance
#: is ample for corruption *detection* (the threat is noise, not forgery).
_DIGEST_LENGTH = 16


def _opaque(value: object) -> str:
    """Stable placeholder for payloads that are not JSON-representable."""
    return f"<{type(value).__name__}>"


def canonical_encoder(
    default: Callable[[Any], Any] = JSONEncoder().default,
) -> Callable[[Any], str]:
    """The canonical compact JSON encoder, as one C encoder built once.

    Exactly ``json.dumps(value, sort_keys=True, separators=(",", ":"),
    default=default)``: ASCII escapes, ``NaN``/``Infinity`` allowed. A
    ``JSONEncoder``'s ``encode`` builds a new C encoder, float closure and
    circular-reference ``markers`` dict per call; this one keeps no
    markers, so a circular value raises ``RecursionError`` (at the
    interpreter's nesting limit) instead of ``ValueError``.
    """
    encode = c_make_encoder(
        None,
        default,
        encode_basestring_ascii,
        None,
        ":",
        ",",
        True,
        False,
        True,
    )
    return lambda value: "".join(encode(value, 0))


_encode = canonical_encoder(_opaque)

#: Count of actual serialise-and-hash computations performed by
#: :func:`item_checksum` since process start. The instance memo avoids
#: computations, it never changes results, so the counter is the honest
#: cost metric (the memo tests count with it).
_computations = 0


def checksum_computations() -> int:
    """How many times :func:`item_checksum` actually hashed content."""
    return _computations


def item_checksum(item: Item) -> str:
    """Checksum of an item's replicated content (hex, truncated sha256).

    Deterministic across processes and Python versions: the content is
    serialized as canonical compact JSON with sorted keys. Host-local
    attributes never contribute (see module docstring).

    Always computes — this is the executable specification the memoised
    :func:`cached_item_checksum` must agree with.
    """
    global _computations
    _computations += 1
    body = {
        "id": [item.item_id.origin.name, item.item_id.serial],
        "version": [item.version.replica.name, item.version.counter],
        "payload": item.payload,
        "attributes": dict(item.attributes),
        "deleted": bool(item.deleted),
    }
    payload = _encode(body).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:_DIGEST_LENGTH]


def cached_item_checksum(item: Item) -> str:
    """:func:`item_checksum`, memoised on the item instance.

    The memo is bound with ``object.__setattr__`` to a slot of the exact
    (frozen) object whose content was hashed, so it is trustworthy by
    construction: it never survives serialisation, ``dataclasses.replace``
    never copies it (a tampered copy made via ``replace`` starts clean and
    recomputes), and only the content-preserving derivations
    ``Item.with_local`` / ``without_local`` / ``wire_copy`` carry it
    forward — the checksum excludes host-local attributes, so those
    derivations cannot change it.
    """
    memo = getattr(item, CHECKSUM_MEMO_ATTRIBUTE, None)
    if memo is not None:
        return memo
    checksum = item_checksum(item)
    object.__setattr__(item, CHECKSUM_MEMO_ATTRIBUTE, checksum)
    return checksum


def stamp_checksum(item: Item, held: Callable[[ItemId], Optional[Item]]) -> str:
    """:func:`cached_item_checksum` of a wire copy, memoised as well on
    the stored copy ``held(item.item_id)`` when that provably holds the
    same replicated content.

    Proof is identity, not equality: the stored copy must carry the very
    same id, version, payload and attribute objects as ``item`` and the
    same deletion flag, as the copy a wire copy was derived from does
    (an author's copy is then hashed once, not at every send). A forged
    or decoded copy holds other objects and keeps computing its own. A
    wire copy that already carries a checksum was derived from a copy
    that did, so the store is asked only when this one is computed.
    """
    memo = getattr(item, CHECKSUM_MEMO_ATTRIBUTE, None)
    if memo is not None:
        return memo
    checksum = cached_item_checksum(item)
    other = held(item.item_id)
    if (
        other is not None
        and other.item_id is item.item_id
        and other.version is item.version
        and other.payload is item.payload
        and other.attributes is item.attributes
        and other.deleted == item.deleted
        and getattr(other, CHECKSUM_MEMO_ATTRIBUTE, None) is None
    ):
        object.__setattr__(other, CHECKSUM_MEMO_ATTRIBUTE, checksum)
    return checksum


def frame_checksum(entry_checksums: Iterable[str]) -> str:
    """Checksum of a whole batch frame: the hash of its entries' checksums.

    Order-sensitive — the protocol's monotone-progress argument relies on
    in-order delivery, so a reordered frame must not validate.
    """
    joined = ",".join(entry_checksums).encode("utf-8")
    return hashlib.sha256(joined).hexdigest()[:_DIGEST_LENGTH]


@dataclass(frozen=True, slots=True)
class ProtocolViolation:
    """One detected act of peer misbehaviour, as seen by one replica.

    ``observer`` is the replica that detected the violation; ``peer`` is
    the replica it holds responsible (its counterpart in the sync
    session). ``kind`` is one of :data:`VIOLATION_KINDS`.
    """

    kind: str
    peer: str
    observer: str
    detail: str = ""

    def __post_init__(self) -> None:
        if self.kind not in VIOLATION_KINDS:
            raise ValueError(
                f"unknown violation kind {self.kind!r}; "
                f"expected one of {VIOLATION_KINDS}"
            )
