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
once per hop is pure waste on the hot path. Two memoisation layers remove
it without weakening a single check:

* :func:`cached_item_checksum` binds the computed checksum to the exact
  :class:`Item` *instance* it was computed from (a non-field attribute,
  never serialised, never copied by ``dataclasses.replace`` — see
  :data:`~repro.replication.items.CHECKSUM_MEMO_ATTRIBUTE`). A corrupted
  copy is a different object and always recomputes.
* :class:`ChecksumCache` (one per replica, invalidated by its stores)
  memoises the send side by ``(item_id, version)`` — outgoing items come
  from the replica's own trusted store — and records **verified** receive
  triples so a relayed entry that was already verified skips the hash.
  The receive path never consults anything *before* verifying: a lookup
  only short-circuits when it can prove it is looking at the very object
  it verified earlier; everything else is recomputed and a mismatch
  quarantined exactly as on the uncached path.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

from repro._compat import DATACLASS_SLOTS

from .ids import ItemId, Version
from .items import CHECKSUM_MEMO_ATTRIBUTE, Item

#: Violation kinds, as they appear in metrics and logs.
VIOLATION_CHECKSUM_MISMATCH = "checksum-mismatch"
VIOLATION_MALFORMED_ENTRY = "malformed-entry"
VIOLATION_REPLAY = "replay"
VIOLATION_KNOWLEDGE_FABRICATION = "knowledge-fabrication"
VIOLATION_VERSION_CONFLICT = "version-conflict"
VIOLATION_DIGEST = "digest-mismatch"

VIOLATION_KINDS: Tuple[str, ...] = (
    VIOLATION_CHECKSUM_MISMATCH,
    VIOLATION_MALFORMED_ENTRY,
    VIOLATION_REPLAY,
    VIOLATION_KNOWLEDGE_FABRICATION,
    VIOLATION_VERSION_CONFLICT,
    VIOLATION_DIGEST,
)

#: Hex digits kept from the sha256 digest; 64 bits of collision resistance
#: is ample for corruption *detection* (the threat is noise, not forgery).
_DIGEST_LENGTH = 16


def _opaque(value: object) -> str:
    """Stable placeholder for payloads that are not JSON-representable."""
    return f"<{type(value).__name__}>"


#: Count of actual serialise-and-hash computations performed by
#: :func:`item_checksum` since process start. Cache layers avoid
#: computations, they never change results, so the counter is the honest
#: cost metric for both the cached and the uncached pipeline (the cache
#: tests count with it).
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
    layers (:func:`cached_item_checksum`, :class:`ChecksumCache`) must
    agree with.
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
    payload = json.dumps(
        body, sort_keys=True, separators=(",", ":"), default=_opaque
    ).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:_DIGEST_LENGTH]


def cached_item_checksum(item: Item) -> str:
    """:func:`item_checksum`, memoised on the item instance.

    The memo is bound with ``object.__setattr__`` to the exact (frozen,
    slot-less) object whose content was hashed, so it is trustworthy by
    construction: it never survives serialisation, ``dataclasses.replace``
    never copies it (a tampered copy made via ``replace`` starts clean and
    recomputes), and only the content-preserving derivations
    ``Item.with_local`` / ``Item.without_local`` carry it forward — the
    checksum excludes host-local attributes, so those derivations cannot
    change it.
    """
    memo = getattr(item, CHECKSUM_MEMO_ATTRIBUTE, None)
    if memo is not None:
        return memo
    checksum = item_checksum(item)
    object.__setattr__(item, CHECKSUM_MEMO_ATTRIBUTE, checksum)
    return checksum


_ChecksumKey = Tuple[ItemId, Version]


class ChecksumCache:
    """Content-addressed checksum memoisation for one replica.

    Two maps, with sharply different trust stories:

    * ``trusted`` (send side) — ``(item_id, version) → checksum`` for items
      in this replica's *own* stores. Outgoing batches are built from the
      local store, whose content per version is immutable, so the key fully
      determines the content. :meth:`checksum_outgoing` must only ever be
      fed items drawn from the owning replica's stores (or their
      ``prepare_outgoing`` derivations, which must not alter replicated
      content). Even a violated contract fails *closed*: a wrong outgoing
      stamp makes the honest receiver quarantine the entry, never accept a
      bad one.
    * ``verified`` (receive side) — ``(item_id, version) → (checksum,
      item)`` triples recorded **only after** a full verification
      succeeded. A lookup short-circuits only when the declared checksum
      matches *and* the entry is the identical verified object — a
      corrupted copy shares the key and (under
      :class:`~repro.faults.models.PayloadCorruption`) the honest declared
      checksum, so anything less than object identity must recompute.

    The owning :class:`~repro.replication.replica.Replica` wires
    invalidation into its stores: eviction, removal, and version
    supersession call :meth:`forget`, so both maps track store contents
    and a superseded version can never serve a stale checksum.
    """

    __slots__ = ("_trusted", "_verified", "hits", "misses", "invalidations")

    def __init__(self) -> None:
        self._trusted: Dict[_ChecksumKey, str] = {}
        self._verified: Dict[_ChecksumKey, Tuple[str, Item]] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    # -- send side ---------------------------------------------------------------

    def checksum_outgoing(self, item: Item) -> str:
        """Checksum for an outgoing item from this replica's own store.

        A hit binds the instance memo too: the outgoing object ships
        in-process with its checksum attached, so the receiver's
        verification can reuse it (the trust argument is the send-side
        contract above — the object *is* the stored content for this key,
        and transit corruption models forge copies via ``replace``, which
        drops the memo).
        """
        key = (item.item_id, item.version)
        cached = self._trusted.get(key)
        if cached is not None:
            self.hits += 1
            if getattr(item, CHECKSUM_MEMO_ATTRIBUTE, None) is None:
                object.__setattr__(item, CHECKSUM_MEMO_ATTRIBUTE, cached)
            return cached
        memo = getattr(item, CHECKSUM_MEMO_ATTRIBUTE, None)
        if memo is not None:
            self.hits += 1
            self._trusted[key] = memo
            return memo
        self.misses += 1
        checksum = cached_item_checksum(item)
        self._trusted[key] = checksum
        return checksum

    # -- receive side ------------------------------------------------------------

    def verify_incoming(self, item: Item, declared: str) -> bool:
        """Verify a received entry against its declared checksum.

        Semantics-preserving by construction: the only ways this returns
        ``True`` without hashing are (a) the entry is the very object this
        replica fully verified before under the same declared checksum, or
        (b) the object carries an instance memo, which is only ever written
        next to an actual hash of that exact object. A corrupted copy with
        an honest ``(item_id, version)`` and an honest declared checksum
        has neither — it is recomputed and fails, exactly as uncached.
        """
        key = (item.item_id, item.version)
        cached = self._verified.get(key)
        if cached is not None and cached[0] == declared and cached[1] is item:
            self.hits += 1
            return True
        memo = getattr(item, CHECKSUM_MEMO_ATTRIBUTE, None)
        if memo is not None:
            self.hits += 1
            actual = memo
        else:
            self.misses += 1
            actual = cached_item_checksum(item)
        if actual != declared:
            return False
        self._verified[key] = (declared, item)
        return True

    # -- invalidation ------------------------------------------------------------

    def forget(self, item: Item) -> None:
        """Drop everything cached for an item leaving a store.

        Called on eviction, removal, and version supersession (the store
        replaces the previous version before inserting the new one).
        """
        key = (item.item_id, item.version)
        dropped = self._trusted.pop(key, None) is not None
        dropped = (self._verified.pop(key, None) is not None) or dropped
        if dropped:
            self.invalidations += 1

    def clear(self) -> None:
        self._trusted.clear()
        self._verified.clear()

    def __len__(self) -> int:
        """Total cached entries across the send and receive maps."""
        return len(self._trusted) + len(self._verified)


def frame_checksum(entry_checksums: Iterable[str]) -> str:
    """Checksum of a whole batch frame: the hash of its entries' checksums.

    Order-sensitive — the protocol's monotone-progress argument relies on
    in-order delivery, so a reordered frame must not validate.
    """
    joined = ",".join(entry_checksums).encode("utf-8")
    return hashlib.sha256(joined).hexdigest()[:_DIGEST_LENGTH]


@dataclass(frozen=True, **DATACLASS_SLOTS)
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
