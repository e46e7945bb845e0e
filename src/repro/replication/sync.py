"""The pairwise synchronisation protocol, with DTN policy hook points.

This implements the paper's Figure 4 flow::

    Target node:
        routingState = DTN.generateReq()
        send knowledge, filter, and routingState to source
        for each item received:
            add item to local store
            update knowledge

    Source node:
        receive knowledge, filter, and routingState
        DTN.processReq(routingState)
        for each item in local store:
            if item unknown to target:
                if item matches filter or DTN.toSend(item):
                    add item to batch
        sort batch by priority
        send batch to target

The *target* is the initiator (it asks "bring me up to date"); the *source*
is the responder that pushes items. One real-world **encounter** between
two hosts runs two syncs, alternating roles, which
:class:`repro.replication.session.EncounterSession` packages.

Bandwidth constraints (Figure 9) are modelled as a cap on the number of
items transferred; because the batch is priority-sorted before truncation,
constrained syncs send the most valuable items first, exactly the situation
MaxProp's ordering is designed for.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .errors import PolicyError
from .filters import Filter, address_set
from .ids import ReplicaId
from .integrity import (
    VIOLATION_CHECKSUM_MISMATCH,
    VIOLATION_KNOWLEDGE_FABRICATION,
    VIOLATION_MALFORMED_ENTRY,
    VIOLATION_REPLAY,
    VIOLATION_VERSION_CONFLICT,
    ProtocolViolation,
    cached_item_checksum,
)
from .items import Item
from .replica import Replica
from .routing import (
    FILTER_MATCH_PRIORITY,
    DirectDeliveryPolicy,
    Priority,
    RoutingPolicy,
    SyncContext,
)
from .versions import VersionVector


@dataclass
class SyncEndpoint:
    """A replica paired with its routing policy, as seen by the sync engine.

    ``serves_at_most`` caps the items this endpoint sends per sync as a
    source, whatever the session's bandwidth allows: 0 for a free rider
    that only takes, ``None`` for an honest node.
    """

    replica: Replica
    policy: RoutingPolicy = field(default_factory=DirectDeliveryPolicy)
    serves_at_most: Optional[int] = None

    @property
    def replica_id(self) -> ReplicaId:
        return self.replica.replica_id


@dataclass
class SyncRequest:
    """What the target sends to open a sync: knowledge, filter, routing."""

    target_id: ReplicaId
    knowledge: VersionVector
    filter: Filter
    routing_state: Any = None


@dataclass(slots=True)
class BatchEntry:
    """One item scheduled for transmission, with its priority.

    ``checksum`` is the item's content checksum
    (:func:`~repro.replication.integrity.item_checksum`), stamped by the
    sender just before the entry crosses a faulty channel; ``None`` on
    the perfect-channel path, where integrity is not in question.
    """

    item: Item
    matched_filter: bool
    priority: Priority
    checksum: Optional[str] = None


@dataclass
class SyncStats:
    """Counters describing one sync session, consumed by the metrics layer.

    ``truncated`` counts items dropped by the *bandwidth cap* before
    transmission (Figure 9); the transit-fault fields describe what the
    channel did to the items that were actually sent: ``received_total``
    items stored by the target, ``lost_in_transit`` items cut off by an
    interrupted transfer, ``redundant_received`` duplicate deliveries the
    target recognised and discarded, and ``interrupted`` marking a session
    whose batch was truncated mid-transfer (the next encounter resumes it).

    The hardened-sync fields account for peer misbehaviour:
    ``quarantined_entries`` counts received entries refused by integrity
    checks (undecodable frames, checksum mismatches, same-version content
    conflicts) — skipped, not applied, and not acknowledged, so they
    retry at a later contact; ``rejected_knowledge`` counts sync requests
    whose knowledge claimed versions this source never authored; and
    ``violations`` carries the typed
    :class:`~repro.replication.integrity.ProtocolViolation` records
    behind both (plus replay detections, which are counted under
    ``redundant_received`` because the item is already known).

    The scan-cost fields make the version index observable:
    ``store_size`` is how many items the source held (what a full scan
    would have visited), ``candidates`` how many of those the target does
    not know (parked ones too, which the walk skips), and ``index_skipped``
    the difference. ``metadata_bytes`` is what the request's knowledge
    vector occupied on the wire.
    """

    source: ReplicaId
    target: ReplicaId
    candidates: int = 0
    store_size: int = 0
    index_skipped: int = 0
    # Always zero: the two caches they counted were removed in 1.3.0. The
    # frozen ``bench/substrate_flood.py`` still reads these four names via
    # ``getattr``; they go when it stops.
    filter_cache_hits: int = 0
    filter_cache_misses: int = 0
    checksum_cache_hits: int = 0
    checksum_cache_misses: int = 0
    sent_total: int = 0
    sent_matching: int = 0
    sent_relayed: int = 0
    truncated: int = 0
    received_total: int = 0
    lost_in_transit: int = 0
    redundant_received: int = 0
    quarantined_entries: int = 0
    rejected_knowledge: int = 0
    metadata_bytes: int = 0
    interrupted: bool = False
    delivered_items: List[Item] = field(default_factory=list)
    violations: List[ProtocolViolation] = field(default_factory=list)

    @property
    def transmissions(self) -> int:
        return self.sent_total

    @property
    def completed(self) -> bool:
        """True when every transmitted item reached the target."""
        return not self.interrupted

    # Every plain counter/flag field, in declaration order — the wire
    # representation ships these verbatim.
    _COUNTER_FIELDS = (
        "candidates",
        "store_size",
        "index_skipped",
        "sent_total",
        "sent_matching",
        "sent_relayed",
        "truncated",
        "received_total",
        "lost_in_transit",
        "redundant_received",
        "quarantined_entries",
        "rejected_knowledge",
        "metadata_bytes",
        "interrupted",
    )

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe encoding, so a networked source can ship its half.

        The live transport runs the source and target halves of a sync in
        different OS processes; the source's counters travel to the
        session coordinator in this form and are merged there: endpoints,
        every counter (always present) and the violations.
        ``delivered_items`` stays process-local — the batch frame already
        carried the items one way, and nothing reads them on the way back.
        """
        data: Dict[str, Any] = {
            "source": self.source.name,
            "target": self.target.name,
        }
        for name in self._COUNTER_FIELDS:
            data[name] = getattr(self, name)
        data["violations"] = [
            {
                "kind": violation.kind,
                "peer": violation.peer,
                "observer": violation.observer,
                "detail": violation.detail,
            }
            for violation in self.violations
        ]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SyncStats":
        stats = cls(
            source=ReplicaId(data["source"]), target=ReplicaId(data["target"])
        )
        for name in cls._COUNTER_FIELDS:
            if name in data:
                setattr(stats, name, data[name])
        stats.violations = [
            ProtocolViolation(
                kind=violation["kind"],
                peer=violation["peer"],
                observer=violation["observer"],
                detail=violation.get("detail", ""),
            )
            for violation in data.get("violations", [])
        ]
        return stats


def build_request(target: SyncEndpoint, context: SyncContext) -> SyncRequest:
    """Target side, step 1: snapshot knowledge + filter, add routing state."""
    routing_state = target.policy.generate_req(context)
    return SyncRequest(
        target_id=target.replica_id,
        knowledge=target.replica.knowledge.copy(),
        filter=target.replica.filter,
        routing_state=routing_state,
    )


def validate_request_knowledge(
    source: SyncEndpoint, request: SyncRequest, stats: SyncStats
) -> VersionVector:
    """Source-side protocol validation of the target's claimed knowledge.

    A peer can legitimately claim knowledge of this replica's own versions
    only up to the highest counter this replica has ever authored. A claim
    beyond that is fabricated (or the request was corrupted in transit):
    it is surfaced as a :class:`ProtocolViolation`, counted in
    ``stats.rejected_knowledge``, and the knowledge used for batch
    selection is *clamped* to the authored range — claims about versions
    this replica never authored cannot mask items (present or future)
    carrying those versions. Claims *within* the authored range are
    indistinguishable from honest state, so a tampered request costs at
    most one session's delay: the next request, built from the target's
    real vector, re-offers anything withheld. The target's own vector is
    never touched (knowledge travels by value), and a replica never
    regresses its own knowledge in response to anything a peer claims.

    Honest requests pass through unchanged at zero cost — no allocation,
    no RNG — which is what keeps zero-fault runs byte-identical.
    """
    knowledge = request.knowledge
    own = source.replica_id
    authored = source.replica.last_authored_counter
    claimed = max(
        knowledge.known_counter_prefix(own),
        max(knowledge.extra_counters(own), default=0),
    )
    if claimed > authored:
        stats.rejected_knowledge += 1
        stats.violations.append(
            ProtocolViolation(
                kind=VIOLATION_KNOWLEDGE_FABRICATION,
                peer=request.target_id.name,
                observer=own.name,
                detail=(
                    f"claims counter {claimed} of {own.name}, "
                    f"but only {authored} were ever authored"
                ),
            )
        )
        knowledge = knowledge.clamped(own, authored)
    return knowledge


def build_batch(
    source: SyncEndpoint,
    request: SyncRequest,
    context: SyncContext,
    max_items: Optional[int] = None,
) -> Tuple[List[BatchEntry], SyncStats]:
    """Source side: select, prioritise, order, and truncate the batch.

    Items matching the target's filter are always included, at
    :attr:`PriorityClass.FILTER_MATCH`; for each remaining unknown item the
    policy's ``to_send`` is consulted. The final batch is sorted by
    priority (stable, so equal priorities keep store order) and truncated
    to ``max_items`` or the source's ``serves_at_most``, whichever is
    smaller, when either applies (via a partial sort — picking the same
    prefix a full sort-then-slice would).

    The unknown items are enumerated through the replica's version index
    (:meth:`Replica.sync_candidates`), at a cost proportional to what the
    target is missing; a copy whose refusal stands (``refuses_for_good``)
    is parked there, out of later walks but for filter matches.

    Building does **not** fire ``on_items_sent`` — the channel has not
    carried anything yet. :meth:`SyncSession.run` invokes the hook with the
    entries that were actually delivered; callers assembling the protocol
    by hand must do the same once delivery is confirmed.
    """
    # The endpoint's serving cap tightens (never widens) the session's:
    # it governs the whole batch, filter matches included.
    cap = source.serves_at_most
    if cap is not None:
        max_items = cap if max_items is None else min(max_items, cap)
    stats = SyncStats(source=source.replica_id, target=request.target_id)
    source.policy.process_req(request.routing_state, context)

    stats.store_size = source.replica.stored_count
    stats.metadata_bytes = request.knowledge.wire_size()
    knowledge = validate_request_knowledge(source, request, stats)
    addresses = address_set(request.filter)
    unknown, stats.candidates = source.replica.sync_candidates(knowledge, addresses)
    stats.index_skipped = stats.store_size - stats.candidates

    matches = request.filter.matches
    refuses_for_good = source.policy.refuses_for_good
    entries: List[BatchEntry] = []
    for item in unknown:
        if matches(item):
            entries.append(BatchEntry(item, True, FILTER_MATCH_PRIORITY))
        else:
            priority = source.policy.to_send(item, request.filter, context)
            if priority is None:
                if refuses_for_good(item):
                    source.replica.park(item)
                continue
            if not isinstance(priority, Priority):
                raise PolicyError(
                    f"{source.policy.name}.to_send must return a Priority "
                    f"or None, got {type(priority).__name__}"
                )
            entries.append(BatchEntry(item, False, priority))

    # Decorate once: ``sort_key()`` is computed exactly once per entry and
    # the enumeration index breaks ties, so plain tuple comparison gives
    # the same stable order on both paths without a per-comparison key
    # call (entries themselves are never compared — the index is unique).
    keyed = [
        (entry.priority.sort_key(), index, entry)
        for index, entry in enumerate(entries)
    ]
    if max_items is not None and len(keyed) > max_items:
        # Partial sort: same prefix as a stable full sort followed by a
        # slice, at O(n log k).
        stats.truncated = len(keyed) - max_items
        keyed = heapq.nsmallest(max_items, keyed)
    else:
        keyed.sort()

    # The selection entries are this function's own, so each goes out
    # carrying the prepared copy in place of the stored one.
    prepare_outgoing = source.policy.prepare_outgoing
    prepared = []
    for _, _, entry in keyed:
        entry.item = prepare_outgoing(entry.item, context)
        prepared.append(entry)
    stats.sent_total = len(prepared)
    stats.sent_matching = sum(1 for entry in prepared if entry.matched_filter)
    stats.sent_relayed = stats.sent_total - stats.sent_matching

    return prepared, stats


def apply_batch(
    target: SyncEndpoint,
    batch: List[BatchEntry],
    stats: SyncStats,
    tolerate_duplicates: bool = False,
) -> SyncStats:
    """Target side, step 2: store every received item and update knowledge.

    Knowledge commits *per item*, in received order — this is the monotone
    progress property: if the stream of entries is cut at any point, the
    delivered prefix is durably received and only the lost suffix remains
    unknown (to be offered again at the next encounter).

    ``tolerate_duplicates`` selects the transport contract. Over a perfect
    channel (the default) an already-known version is a protocol bug and
    :meth:`~repro.replication.replica.Replica.apply_remote` raises; over a
    lossy channel duplicated delivery is expected, so known versions are
    counted as redundant receptions and skipped.

    Over a faulty channel the receive path is *hardened*, per entry:

    * a frame that is not a :class:`BatchEntry` is run through the codec;
      an undecodable frame is quarantined (counted, reported as a
      ``malformed-entry`` violation, skipped) instead of aborting the
      remainder of the batch;
    * an entry carrying a checksum that does not match its item's content
      is quarantined as ``checksum-mismatch``;
    * a version already known *before this batch began* is a replayed
      frame (an honest source filters against our knowledge), reported as
      a ``replay`` violation — versions first seen earlier in the same
      delivery are benign channel duplicates;
    * two entries in one delivery carrying the same version but different
      content are a ``version-conflict``; the later one is quarantined.

    Quarantined entries never reach :meth:`apply_remote`, so the target's
    knowledge does not cover them and the sender re-offers the real item
    at the next contact — corruption costs latency, never correctness.

    Verification uses the per-instance memo of
    :func:`~repro.replication.integrity.cached_item_checksum`: the hash is
    skipped only for the very object it was computed from, and a
    corrupted copy (a different object) always recomputes.
    """
    snapshot = target.replica.knowledge.copy() if tolerate_duplicates else None
    seen_checksums: Dict[Any, Optional[str]] = {}
    for frame in batch:
        entry = frame
        if not isinstance(entry, BatchEntry):
            entry = _decode_frame(frame, target, stats)
            if entry is None:
                continue
        checksum = entry.checksum
        if (
            checksum is not None
            and cached_item_checksum(entry.item) != checksum
        ):
            stats.quarantined_entries += 1
            stats.violations.append(
                ProtocolViolation(
                    kind=VIOLATION_CHECKSUM_MISMATCH,
                    peer=stats.source.name,
                    observer=target.replica_id.name,
                    detail=f"item {entry.item.item_id} failed its checksum",
                )
            )
            continue
        key = (entry.item.item_id, entry.item.version)
        if tolerate_duplicates and target.replica.knowledge.contains(
            entry.item.version
        ):
            stats.redundant_received += 1
            if key in seen_checksums:
                earlier = seen_checksums[key]
                if (
                    checksum is not None
                    and earlier is not None
                    and checksum != earlier
                ):
                    stats.quarantined_entries += 1
                    stats.violations.append(
                        ProtocolViolation(
                            kind=VIOLATION_VERSION_CONFLICT,
                            peer=stats.source.name,
                            observer=target.replica_id.name,
                            detail=(
                                f"two contents for version "
                                f"{entry.item.version}"
                            ),
                        )
                    )
            elif snapshot is not None and snapshot.contains(
                entry.item.version
            ):
                # Known before the batch began: an honest source filters
                # against our knowledge, so this frame was replayed.
                stats.violations.append(
                    ProtocolViolation(
                        kind=VIOLATION_REPLAY,
                        peer=stats.source.name,
                        observer=target.replica_id.name,
                        detail=f"replayed {entry.item.version}",
                    )
                )
            seen_checksums.setdefault(key, checksum)
            continue
        seen_checksums[key] = checksum
        matched = target.replica.apply_remote(entry.item)
        stats.received_total += 1
        if matched:
            stats.delivered_items.append(entry.item)
    return stats


def _decode_frame(
    frame: Any, target: SyncEndpoint, stats: SyncStats
) -> Optional[BatchEntry]:
    """Decode a raw wire frame; quarantine (and return None) on failure."""
    from .codec import CodecError, decode_batch_entry

    try:
        return decode_batch_entry(frame)
    except CodecError as error:
        stats.quarantined_entries += 1
        stats.violations.append(
            ProtocolViolation(
                kind=VIOLATION_MALFORMED_ENTRY,
                peer=stats.source.name,
                observer=target.replica_id.name,
                detail=str(error)[:120],
            )
        )
        return None


def _each_entry_once(delivered: List[BatchEntry]) -> List[BatchEntry]:
    """The delivered entries with channel duplicates collapsed, in order."""
    seen = set()
    unique: List[BatchEntry] = []
    for entry in delivered:
        key = (entry.item.item_id, entry.item.version)
        if key in seen:
            continue
        seen.add(key)
        unique.append(entry)
    return unique
