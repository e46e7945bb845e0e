"""Measurement: everything the paper's evaluation section reports.

The collector tracks, per injected message: injection time, first delivery
time, and the number of live copies stored network-wide at the moment of
delivery and at the end of the experiment — the quantities behind
Figures 5–10. Sync-level counters (transmissions, truncations, evictions)
quantify the traffic/storage side of the trade-off.

Delay conventions follow the paper: delays are measured from injection to
*first* delivery; "delivered within T" fractions are over all injected
messages (undelivered counts against the fraction); mean delay is over
delivered messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.replication.ids import ItemId, ReplicaId
from repro.replication.sync import SyncStats

HOURS = 3600.0
DAYS = 86400.0

#: The lifecycle state a churning run's ``to_dict()`` carries as ``churn``.
_CHURN_STATE = (
    "churn_arrivals",
    "churn_leaves",
    "churn_crashes",
    "churn_rejoins",
    "churn_amnesiac_rejoins",
    "churn_handoffs",
    "churn_skipped_encounters",
    "churn_lost_injections",
    "reciprocity_refusals",
    "node_seconds_online",
    "rejoin_recovery_seconds",
    "rejoin_recoveries",
    "lost_to_departure",
    "reciprocity_scores",
)


@dataclass
class MessageRecord:
    """Lifecycle of one injected message."""

    message_id: ItemId
    source: str
    destination: str
    injected_at: float
    injected_node: str
    delivered_at: Optional[float] = None
    delivered_node: Optional[str] = None
    copies_at_delivery: Optional[int] = None
    copies_at_end: Optional[int] = None

    @property
    def delivered(self) -> bool:
        return self.delivered_at is not None

    @property
    def delay(self) -> Optional[float]:
        """Injection-to-first-delivery delay in seconds (None if undelivered)."""
        if self.delivered_at is None:
            return None
        return self.delivered_at - self.injected_at

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict; ``from_dict(to_dict())`` reconstructs exactly.

        The item id is kept structured (origin name + serial) rather than
        as its ``"origin#serial"`` string so reconstruction never has to
        parse a host name that could itself contain ``#``.
        """
        return {
            "message_id": {
                "origin": self.message_id.origin.name,
                "serial": self.message_id.serial,
            },
            "source": self.source,
            "destination": self.destination,
            "injected_at": self.injected_at,
            "injected_node": self.injected_node,
            "delivered_at": self.delivered_at,
            "delivered_node": self.delivered_node,
            "copies_at_delivery": self.copies_at_delivery,
            "copies_at_end": self.copies_at_end,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MessageRecord":
        payload = dict(data)
        raw_id = payload.pop("message_id")
        return cls(
            message_id=ItemId(ReplicaId(raw_id["origin"]), raw_id["serial"]),
            **payload,
        )


@dataclass
class MetricsCollector:
    """Accumulates per-message records and aggregate traffic counters."""

    records: Dict[ItemId, MessageRecord] = field(default_factory=dict)
    syncs: int = 0
    encounters: int = 0
    transmissions: int = 0
    matching_transmissions: int = 0
    relayed_transmissions: int = 0
    truncated_transmissions: int = 0
    evictions: int = 0
    # Fault-injection accounting (all zero in fault-free runs): encounters
    # the fault model dropped outright or deferred to a backoff window,
    # sessions interrupted mid-batch, pairs whose first complete encounter
    # after an interruption resumed them (an encounter/pair-level count,
    # not per session), node crash-restarts, and transmissions lost in
    # transit or delivered twice.
    dropped_encounters: int = 0
    backoff_skips: int = 0
    interrupted_syncs: int = 0
    resumed_pairs: int = 0
    crashes: int = 0
    lost_transmissions: int = 0
    redundant_transmissions: int = 0
    # Hardened-sync accounting (all zero in fault-free runs): entries the
    # integrity checks quarantined at apply time, sync requests whose
    # knowledge was rejected as fabricated, encounters skipped because a
    # participant had quarantined its peer, protocol violations by kind,
    # and peer-health state transitions by ``from->to`` label.
    quarantined_entries: int = 0
    rejected_knowledge: int = 0
    quarantine_skips: int = 0
    protocol_violations: Dict[str, int] = field(default_factory=dict)
    peer_health_transitions: Dict[str, int] = field(default_factory=dict)
    # Sync hot-path accounting (the version-index optimisation): how many
    # stored items the sources held when batches were built (what a full
    # scan would visit), how many of them the targets did not know
    # (parked ones too, which the walk skips), and how many the index
    # skipped. ``items_scanned`` over items sent is the figure ``bench/``
    # reports as ``sync.candidates_per_sent``.
    store_items_at_sync: int = 0
    items_scanned: int = 0
    index_skipped: int = 0
    # Always zero: the two caches they counted were removed in 1.3.0. The
    # frozen ``bench/paper_object.py`` still reads these four names from
    # ``summary()``; they go when it stops.
    filter_cache_hits: int = 0
    filter_cache_misses: int = 0
    checksum_cache_hits: int = 0
    checksum_cache_misses: int = 0
    # Request-knowledge bytes on the wire (the exact vector's encoding).
    metadata_bytes: int = 0
    end_time: float = 0.0

    # Memory accounting (deliberately *not* dataclass fields: to_dict()
    # iterates fields(), and run artifacts must stay byte-identical and
    # independent of what else the hosting process did — peak RSS is
    # process-wide and monotone, so stamping it automatically would
    # break sequential-run determinism).  Benches opt in by calling
    # record_memory() before reading summary().
    peak_rss_bytes = 0.0
    tracemalloc_peak_bytes = 0.0

    # Churn/lifecycle accounting — also non-field class attributes, so
    # that churn-disabled run artifacts stay byte-identical to pre-churn
    # ones: unless churn_armed, these keys enter neither to_dict() nor
    # summary(). A churning run sets churn_armed and the counters via the
    # record_churn_* methods, and its to_dict() carries them in a
    # ``churn`` block (_CHURN_STATE); reciprocity_scores is always
    # *replaced* with a fresh dict (assignment creates an instance
    # attribute — mutating the class attribute in place would leak state
    # across collectors).
    churn_armed = False
    churn_arrivals = 0
    churn_leaves = 0
    churn_crashes = 0
    churn_rejoins = 0
    churn_amnesiac_rejoins = 0
    churn_handoffs = 0
    churn_skipped_encounters = 0
    churn_lost_injections = 0
    reciprocity_refusals = 0
    node_seconds_online = 0.0
    rejoin_recovery_seconds = 0.0
    rejoin_recoveries = 0
    lost_to_departure = 0
    reciprocity_scores = {}  # Mapping[str, float] once finalize_churn ran

    # -- recording ------------------------------------------------------------------

    def record_injection(
        self,
        message_id: ItemId,
        source: str,
        destination: str,
        time: float,
        node: str,
    ) -> None:
        self.records[message_id] = MessageRecord(
            message_id=message_id,
            source=source,
            destination=destination,
            injected_at=time,
            injected_node=node,
        )

    def record_delivery(
        self, message_id: ItemId, time: float, node: str, copies: int
    ) -> bool:
        """Record a first delivery. Returns False for unknown/repeat events."""
        record = self.records.get(message_id)
        if record is None or record.delivered:
            return False
        record.delivered_at = time
        record.delivered_node = node
        record.copies_at_delivery = copies
        return True

    def record_sync(self, stats: SyncStats) -> None:
        self.syncs += 1
        self.transmissions += stats.sent_total
        self.matching_transmissions += stats.sent_matching
        self.relayed_transmissions += stats.sent_relayed
        self.truncated_transmissions += stats.truncated
        self.lost_transmissions += stats.lost_in_transit
        self.redundant_transmissions += stats.redundant_received
        self.store_items_at_sync += stats.store_size
        self.items_scanned += stats.candidates
        self.index_skipped += stats.index_skipped
        self.quarantined_entries += stats.quarantined_entries
        self.rejected_knowledge += stats.rejected_knowledge
        self.metadata_bytes += stats.metadata_bytes
        for violation in stats.violations:
            self.record_violation(violation.kind)
        if stats.interrupted:
            self.interrupted_syncs += 1

    def record_encounter(self) -> None:
        self.encounters += 1

    def record_eviction(self) -> None:
        self.evictions += 1

    def record_dropped_encounter(self) -> None:
        self.dropped_encounters += 1

    def record_backoff_skip(self) -> None:
        self.backoff_skips += 1

    def record_resumed_pair(self) -> None:
        """One pair's first complete encounter after an interruption."""
        self.resumed_pairs += 1

    def record_crash(self) -> None:
        self.crashes += 1

    def record_quarantine_skip(self) -> None:
        """An encounter refused because a side had quarantined its peer."""
        self.quarantine_skips += 1

    def record_violation(self, kind: str) -> None:
        """One detected protocol violation, tallied by kind."""
        self.protocol_violations[kind] = self.protocol_violations.get(kind, 0) + 1

    def record_health_transition(self, label: str) -> None:
        """One peer-health state transition (``"from->to"`` label)."""
        self.peer_health_transitions[label] = (
            self.peer_health_transitions.get(label, 0) + 1
        )

    # -- churn recording (no-ops unless a churning engine drives them) --------------

    def arm_churn(self) -> None:
        """Mark this collector as belonging to a churning run.

        Arming makes ``summary()`` include the lifecycle block and
        ``to_dict()`` carry it as ``churn``; a churn-free dump has no
        such key.
        """
        self.churn_armed = True

    def record_churn_arrival(self) -> None:
        self.churn_arrivals += 1

    def record_churn_leave(self) -> None:
        self.churn_leaves += 1

    def record_churn_crash(self) -> None:
        self.churn_crashes += 1

    def record_churn_rejoin(self, amnesiac: bool = False) -> None:
        self.churn_rejoins += 1
        if amnesiac:
            self.churn_amnesiac_rejoins += 1

    def record_churn_handoff(self) -> None:
        """A leaver's final sync with its handoff partner actually ran."""
        self.churn_handoffs += 1

    def record_churn_skip(self) -> None:
        """An encounter skipped because a participant was offline."""
        self.churn_skipped_encounters += 1

    def record_churn_lost_injection(self) -> None:
        """An injection that fell on an offline node (message never born)."""
        self.churn_lost_injections += 1

    def record_reciprocity_refusal(self) -> None:
        """An encounter refused by the tit-for-tat reciprocity gate."""
        self.reciprocity_refusals += 1

    def record_rejoin_recovery(self, seconds: float) -> None:
        """A rejoined node completed its first post-rejoin encounter."""
        self.rejoin_recovery_seconds += seconds
        self.rejoin_recoveries += 1

    def finalize_churn(
        self,
        node_seconds_online: float,
        departed: frozenset,
        scores: Mapping[str, float],
    ) -> None:
        """Stamp end-of-run lifecycle aggregates onto the collector.

        ``lost_to_departure`` counts injected-but-undelivered messages
        whose destination node left for good — deliveries churn has
        taken off the table, as opposed to ones merely still in flight.
        """
        self.node_seconds_online = node_seconds_online
        self.lost_to_departure = sum(
            1
            for record in self.records.values()
            if not record.delivered and record.destination in departed
        )
        self.reciprocity_scores = dict(sorted(scores.items()))

    def record_memory(self) -> None:
        """Stamp current peak memory usage onto this collector (opt-in).

        Captures the process-wide peak RSS (``ru_maxrss``; kibibytes on
        Linux, bytes on macOS) and, when :mod:`tracemalloc` is tracing,
        the traced-allocation peak.  Neither value enters ``to_dict()``:
        they are measurement-host facts, not run results.
        """
        import resource
        import sys
        import tracemalloc

        maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        scale = 1 if sys.platform == "darwin" else 1024
        self.peak_rss_bytes = float(maxrss * scale)
        if tracemalloc.is_tracing():
            _current, peak = tracemalloc.get_traced_memory()
            self.tracemalloc_peak_bytes = float(peak)

    # -- aggregate views ----------------------------------------------------------------

    @property
    def injected(self) -> int:
        return len(self.records)

    @property
    def delivered(self) -> int:
        return sum(1 for record in self.records.values() if record.delivered)

    @property
    def delivery_ratio(self) -> float:
        return self.delivered / self.injected if self.injected else 0.0

    def delays(self) -> List[float]:
        """Delays (seconds) of delivered messages, sorted ascending."""
        return sorted(
            record.delay  # type: ignore[misc]
            for record in self.records.values()
            if record.delay is not None
        )

    def mean_delay(self) -> Optional[float]:
        """Mean delivery delay in seconds, over delivered messages."""
        delays = self.delays()
        if not delays:
            return None
        return sum(delays) / len(delays)

    def mean_delay_hours(self) -> Optional[float]:
        mean = self.mean_delay()
        return None if mean is None else mean / HOURS

    def max_delay(self) -> Optional[float]:
        delays = self.delays()
        return delays[-1] if delays else None

    def fraction_delivered_within(self, seconds: float) -> float:
        """Fraction of *all injected* messages delivered within ``seconds``."""
        if not self.records:
            return 0.0
        on_time = sum(
            1
            for record in self.records.values()
            if record.delay is not None and record.delay <= seconds
        )
        return on_time / len(self.records)

    def delay_cdf(self, points: Sequence[float]) -> List[Tuple[float, float]]:
        """(delay_bound_seconds, fraction delivered within it) pairs.

        This is exactly the curve family of Figures 7, 9, and 10: the
        cumulative distribution of message delays over all injections.
        """
        return [(point, self.fraction_delivered_within(point)) for point in points]

    def mean_copies_at_delivery(self) -> Optional[float]:
        values = [
            record.copies_at_delivery
            for record in self.records.values()
            if record.copies_at_delivery is not None
        ]
        if not values:
            return None
        return sum(values) / len(values)

    def mean_copies_at_end(self) -> Optional[float]:
        values = [
            record.copies_at_end
            for record in self.records.values()
            if record.copies_at_end is not None
        ]
        if not values:
            return None
        return sum(values) / len(values)

    def injections_by_day(self) -> Dict[int, int]:
        """Day (0-based) → messages injected that day."""
        counts: Dict[int, int] = {}
        for record in self.records.values():
            day = int(record.injected_at // DAYS)
            counts[day] = counts.get(day, 0) + 1
        return counts

    def deliveries_by_day(self) -> Dict[int, int]:
        """Day (0-based) → messages first delivered that day."""
        counts: Dict[int, int] = {}
        for record in self.records.values():
            if record.delivered_at is None:
                continue
            day = int(record.delivered_at // DAYS)
            counts[day] = counts.get(day, 0) + 1
        return counts

    def backlog_by_day(self) -> Dict[int, int]:
        """Day → messages injected but not yet delivered at day end.

        The day-by-day view of convergence: the paper's Figure 7(b)
        plateau corresponds to this reaching (near) zero.
        """
        injected = self.injections_by_day()
        delivered = self.deliveries_by_day()
        days = sorted(set(injected) | set(delivered))
        backlog: Dict[int, int] = {}
        outstanding = 0
        for day in range(days[0], days[-1] + 1) if days else []:
            outstanding += injected.get(day, 0) - delivered.get(day, 0)
            backlog[day] = outstanding
        return backlog

    # -- serialization (the repro.api round-trip contract) ------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict; ``from_dict(to_dict())`` reconstructs exactly.

        Records are emitted sorted by message id so the serialized form is
        deterministic regardless of delivery-driven insertion order — the
        property behind the sweep engine's byte-identical parallel/serial
        artifact guarantee.
        """
        data: Dict[str, Any] = {
            "records": [
                self.records[message_id].to_dict()
                for message_id in sorted(self.records)
            ],
        }
        for spec in fields(self):
            if spec.name == "records":
                continue
            value = getattr(self, spec.name)
            if isinstance(value, dict):
                # Tally dicts are emitted key-sorted so the serialized
                # form never depends on detection order.
                value = {key: value[key] for key in sorted(value)}
            data[spec.name] = value
        if self.churn_armed:
            data["churn"] = {name: getattr(self, name) for name in _CHURN_STATE}
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MetricsCollector":
        payload = dict(data)
        records = [
            MessageRecord.from_dict(raw) for raw in payload.pop("records")
        ]
        churn = payload.pop("churn", None)
        collector = cls(
            records={record.message_id: record for record in records},
            **payload,
        )
        if churn is not None:
            collector.arm_churn()
            for name in _CHURN_STATE:
                setattr(collector, name, churn[name])
        return collector

    def summary(self) -> Dict[str, Any]:
        """Headline numbers for reports and experiment assertions.

        Churning runs (``churn_armed``) append a lifecycle block —
        availability, losses to departure, rejoin recovery latency, and
        the per-node ``reciprocity_scores`` map; churn-free summaries
        are unchanged.
        """
        mean_delay_hours = self.mean_delay_hours()
        max_delay = self.max_delay()
        copies_at_delivery = self.mean_copies_at_delivery()
        copies_at_end = self.mean_copies_at_end()
        summary: Dict[str, Any] = {
            "injected": float(self.injected),
            "delivered": float(self.delivered),
            "delivery_ratio": self.delivery_ratio,
            "mean_delay_hours": mean_delay_hours if mean_delay_hours is not None else float("nan"),
            "max_delay_days": (max_delay / DAYS) if max_delay is not None else float("nan"),
            "within_12h": self.fraction_delivered_within(12 * HOURS),
            "encounters": float(self.encounters),
            "syncs": float(self.syncs),
            "transmissions": float(self.transmissions),
            "relayed_transmissions": float(self.relayed_transmissions),
            "evictions": float(self.evictions),
            "dropped_encounters": float(self.dropped_encounters),
            "backoff_skips": float(self.backoff_skips),
            "interrupted_syncs": float(self.interrupted_syncs),
            "resumed_pairs": float(self.resumed_pairs),
            "crashes": float(self.crashes),
            "lost_transmissions": float(self.lost_transmissions),
            "redundant_transmissions": float(self.redundant_transmissions),
            "quarantined_entries": float(self.quarantined_entries),
            "rejected_knowledge": float(self.rejected_knowledge),
            "quarantine_skips": float(self.quarantine_skips),
            "protocol_violations": float(
                sum(self.protocol_violations.values())
            ),
            "peer_health_transitions": float(
                sum(self.peer_health_transitions.values())
            ),
            "store_items_at_sync": float(self.store_items_at_sync),
            "items_scanned": float(self.items_scanned),
            "index_skipped": float(self.index_skipped),
            "items_scanned_per_sync": (
                self.items_scanned / self.syncs if self.syncs else 0.0
            ),
            "filter_cache_hits": float(self.filter_cache_hits),
            "filter_cache_misses": float(self.filter_cache_misses),
            "checksum_cache_hits": float(self.checksum_cache_hits),
            "checksum_cache_misses": float(self.checksum_cache_misses),
            "metadata_bytes": float(self.metadata_bytes),
            "metadata_bytes_per_delivered": (
                self.metadata_bytes / self.delivered
                if self.delivered
                else float(self.metadata_bytes)
            ),
            "mean_copies_at_delivery": (
                copies_at_delivery if copies_at_delivery is not None else float("nan")
            ),
            "mean_copies_at_end": (
                copies_at_end if copies_at_end is not None else float("nan")
            ),
            "peak_rss_bytes": float(self.peak_rss_bytes),
            "tracemalloc_peak_bytes": float(self.tracemalloc_peak_bytes),
        }
        if self.churn_armed:
            summary["churn_arrivals"] = float(self.churn_arrivals)
            summary["churn_leaves"] = float(self.churn_leaves)
            summary["churn_crashes"] = float(self.churn_crashes)
            summary["churn_rejoins"] = float(self.churn_rejoins)
            summary["churn_amnesiac_rejoins"] = float(
                self.churn_amnesiac_rejoins
            )
            summary["churn_handoffs"] = float(self.churn_handoffs)
            summary["churn_skipped_encounters"] = float(
                self.churn_skipped_encounters
            )
            summary["churn_lost_injections"] = float(
                self.churn_lost_injections
            )
            summary["reciprocity_refusals"] = float(self.reciprocity_refusals)
            summary["node_hours_online"] = self.node_seconds_online / HOURS
            summary["lost_to_departure"] = float(self.lost_to_departure)
            summary["mean_rejoin_recovery_hours"] = (
                self.rejoin_recovery_seconds / self.rejoin_recoveries / HOURS
                if self.rejoin_recoveries
                else float("nan")
            )
            summary["reciprocity_scores"] = dict(self.reciprocity_scores)
        return summary
