"""Transport-agnostic sync sessions: the protocol flow as an object.

The Figure 4 flow of :mod:`repro.replication.sync` behind three
keyword-only objects:

* :class:`SessionConfig` — the protocol knobs, serialisable like every
  other config object (``to_dict``/``from_dict`` round-trip);
* :class:`SyncSession` — one sync (target pulls from source). With both
  endpoints local, :meth:`SyncSession.run` executes the whole flow.
  With only *one* endpoint local — the networked case, where source
  and target live in different OS processes — the stepwise
  halves (:meth:`build_request` / :meth:`apply` on the target side,
  :meth:`build_response` / :meth:`stamp` / :meth:`confirm_sent` on the
  source side) expose each protocol step so a byte transport can carry
  the encoded frames between them;
* :class:`EncounterSession` — two syncs with alternating roles and a
  shared bandwidth budget, exactly the paper's encounter shape.

The discrete-event emulator and the asyncio transport in
:mod:`repro.net` both drive these same session objects.

A channel is anything satisfying the :class:`Transport` protocol —
:class:`repro.faults.FaultyTransport` already does, and so does the
delivery half of a live socket connection.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterator, List, Optional, Protocol, Sequence, Tuple, runtime_checkable


from .errors import SyncProtocolError
from .ids import ReplicaId
from .integrity import stamp_checksum
from .replica import Replica
from .routing import SyncContext
from .sync import (
    BatchEntry,
    SyncEndpoint,
    SyncRequest,
    SyncStats,
    _each_entry_once,
    apply_batch,
    build_batch,
    build_request,
)


@runtime_checkable
class Transport(Protocol):
    """What a sync session requires of a delivery channel.

    ``deliver(batch)`` carries a checksum-stamped batch toward the target
    and returns an outcome object with (at least) three attributes:
    ``delivered`` — the entries that arrived, in order, possibly
    damaged/duplicated; ``truncated`` — True when the stream was cut
    mid-batch; ``lost`` — how many sent entries never arrived. An
    optional ``confirmed`` attribute narrows the ``on_items_sent``
    accounting to entries that arrived *intact* (each once), and an
    optional ``corrupt_request(request)`` method lets the channel tamper
    with the sync request before the source sees it.

    :class:`repro.faults.FaultyTransport` and its
    :class:`~repro.faults.DeliveryOutcome` satisfy this protocol
    unchanged.
    """

    def deliver(self, batch: Sequence[Any]) -> Any:
        """Carry ``batch`` across the channel; return the outcome."""
        ...


@dataclass(frozen=True, kw_only=True)
class SessionConfig:
    """The protocol knob of one sync/encounter session.

    ``max_items`` is the bandwidth cap (per sync when given to a
    :class:`SyncSession`, per encounter when given to an
    :class:`EncounterSession`).
    """

    max_items: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_items is not None and self.max_items < 0:
            raise ValueError("max_items must be non-negative or None")

    def to_dict(self) -> dict:
        """A JSON-safe dict; ``from_dict(to_dict())`` reconstructs exactly."""
        return {"max_items": self.max_items}

    @classmethod
    def from_dict(cls, data: dict) -> "SessionConfig":
        return cls(**data)


class SyncSession:
    """One sync session: ``target`` pulls from ``source``.

    Constructed keyword-only. For a fully local session pass both
    endpoints; :meth:`run` then executes the whole Figure 4 flow. For a
    networked session, construct a *half* session in each process — only
    the local endpoint plus ``peer`` naming the remote replica — and
    drive the stepwise methods, shipping the encoded request/batch
    frames through :mod:`repro.replication.codec` in between.
    """

    def __init__(
        self,
        *,
        source: Optional[SyncEndpoint] = None,
        target: Optional[SyncEndpoint] = None,
        peer: Optional[ReplicaId] = None,
        now: float = 0.0,
        config: Optional[SessionConfig] = None,
        transport: Optional[Transport] = None,
    ) -> None:
        if source is None and target is None:
            raise ValueError("a sync session needs a source and/or a target")
        if (source is None or target is None) and peer is None:
            raise ValueError(
                "a half-open session (one endpoint) must name its remote "
                "peer"
            )
        self.source = source
        self.target = target
        self.now = now
        self.config = config if config is not None else SessionConfig()
        self.transport = transport
        self._peer = peer

    # -- contexts -------------------------------------------------------------

    @property
    def source_id(self) -> ReplicaId:
        return self.source.replica_id if self.source is not None else self._peer  # type: ignore[return-value]

    @property
    def target_id(self) -> ReplicaId:
        return self.target.replica_id if self.target is not None else self._peer  # type: ignore[return-value]

    def _source_context(self) -> SyncContext:
        return SyncContext(
            local=self.source_id, remote=self.target_id, now=self.now
        )

    def _target_context(self) -> SyncContext:
        return SyncContext(
            local=self.target_id, remote=self.source_id, now=self.now
        )

    # -- stepwise halves ------------------------------------------------------

    def build_request(self) -> SyncRequest:
        """Target side, step 1: open the session (knowledge + filter)."""
        if self.target is None:
            raise ValueError("build_request needs the target endpoint")
        return build_request(self.target, self._target_context())

    def build_response(
        self, request: SyncRequest, max_items: Optional[int] = None
    ) -> Tuple[List[BatchEntry], SyncStats]:
        """Source side: select, prioritise, and truncate the batch.

        ``max_items`` overrides the config's cap for this one response —
        the encounter layer uses it to spend a shared budget across two
        syncs.
        """
        if self.source is None:
            raise ValueError("build_response needs the source endpoint")
        budget = max_items if max_items is not None else self.config.max_items
        return build_batch(
            self.source, request, self._source_context(), max_items=budget
        )

    def stamp(self, batch: List[BatchEntry]) -> List[BatchEntry]:
        """Source side: stamp content checksums before a real channel.

        Each checksum is memoised on the stored copy the wire copy was
        derived from as well (:func:`stamp_checksum`), so a copy this
        replica authored is hashed once, however often it is sent.
        """
        if self.source is None:
            raise ValueError("stamp needs the source endpoint")
        held = self.source.replica.get_item
        return [
            BatchEntry(
                entry.item,
                entry.matched_filter,
                entry.priority,
                stamp_checksum(entry.item, held),
            )
            for entry in batch
        ]

    def confirm_sent(self, entries: Sequence[BatchEntry]) -> None:
        """Source side: fire ``on_items_sent`` for confirmed deliveries.

        Call with the entries the channel provably carried intact; each
        distinct item fires once however many times it was duplicated.
        Policies that release stored copies on hand-off (First Contact)
        or spend copy budgets (Spray and Wait) rely on this being the
        *confirmed* set, not the attempted one.
        """
        if self.source is None:
            raise ValueError("confirm_sent needs the source endpoint")
        delivered_once = _each_entry_once(
            [entry for entry in entries if isinstance(entry, BatchEntry)]
        )
        self.source.policy.on_items_sent(
            [entry.item for entry in delivered_once], self._source_context()
        )

    def apply(
        self,
        batch: Sequence[Any],
        stats: Optional[SyncStats] = None,
        tolerate_duplicates: bool = True,
    ) -> SyncStats:
        """Target side, step 2: store the delivered entries.

        ``stats`` carries the source-side counters when the remote half
        shipped them (see :meth:`SyncStats.to_dict`); a fresh record is
        created otherwise. Defaults to the lossy-channel contract
        (duplicates tolerated) because a half-open session is by
        definition behind a real transport.
        """
        if self.target is None:
            raise ValueError("apply needs the target endpoint")
        if stats is None:
            stats = SyncStats(source=self.source_id, target=self.target_id)
        return apply_batch(
            self.target,
            list(batch),
            stats,
            tolerate_duplicates=tolerate_duplicates,
        )

    # -- the full local flow --------------------------------------------------

    def run(self) -> SyncStats:
        """Run the complete session with both endpoints local.

        Build the request, (optionally) let the transport corrupt it,
        build the batch, deliver — stamping checksums only when a
        transport is present — fire ``on_items_sent`` for the confirmed
        set, and apply the delivered stream on the target.
        """
        if self.source is None or self.target is None:
            raise ValueError("run() needs both endpoints; use the stepwise "
                             "halves for a networked session")
        source, target = self.source, self.target
        transport = self.transport
        request = self.build_request()
        if transport is not None and hasattr(transport, "corrupt_request"):
            request = transport.corrupt_request(request)
        batch, stats = self.build_response(request)
        if transport is None:
            source.policy.on_items_sent(
                [entry.item for entry in batch], self._source_context()
            )
            return apply_batch(target, batch, stats)
        stamped = self.stamp(batch)
        outcome = transport.deliver(stamped)
        stats.interrupted = outcome.truncated
        stats.lost_in_transit = outcome.lost
        confirmed = getattr(outcome, "confirmed", None)
        if confirmed is None:
            confirmed = outcome.delivered
        self.confirm_sent(confirmed)
        return apply_batch(
            target, outcome.delivered, stats, tolerate_duplicates=True
        )


class EncounterSession:
    """One encounter: two syncs with alternating source/target roles.

    Follows the paper's setup ("we performed two syncs between the
    corresponding replicas, alternating the source and target roles").
    ``on_encounter_start`` hooks fire once per side before either sync;
    the config's ``max_items`` is the Figure 9 per-*encounter* budget —
    the first sync (with ``first`` as source) spends before the second.

    ``transport_factory``, when given, is called once per sync with
    ``(source_id, target_id)`` and returns that sync's channel (or None
    for perfect delivery).
    """

    def __init__(
        self,
        *,
        first: SyncEndpoint,
        second: SyncEndpoint,
        now: float = 0.0,
        config: Optional[SessionConfig] = None,
        transport_factory: Optional[
            Callable[[ReplicaId, ReplicaId], Optional[Transport]]
        ] = None,
    ) -> None:
        self.first = first
        self.second = second
        self.now = now
        self.config = config if config is not None else SessionConfig()
        self.transport_factory = transport_factory

    def _channel(
        self, source: SyncEndpoint, target: SyncEndpoint
    ) -> Optional[Transport]:
        if self.transport_factory is None:
            return None
        return self.transport_factory(source.replica_id, target.replica_id)

    def begin(self) -> None:
        """Fire both sides' ``on_encounter_start`` hooks (exactly once)."""
        first_context = SyncContext(
            local=self.first.replica_id,
            remote=self.second.replica_id,
            now=self.now,
        )
        second_context = SyncContext(
            local=self.second.replica_id,
            remote=self.first.replica_id,
            now=self.now,
        )
        self.first.policy.on_encounter_start(first_context)
        self.second.policy.on_encounter_start(second_context)

    def run(self) -> List[SyncStats]:
        """Run the full encounter; returns both syncs' stats in order."""
        self.begin()
        config = self.config
        stats_a = SyncSession(
            source=self.first,
            target=self.second,
            now=self.now,
            config=config,
            transport=self._channel(self.first, self.second),
        ).run()
        if config.max_items is not None and stats_a.sent_total:
            # Only a spent budget needs a config of its own: the second
            # sync may send what the first left.
            config = replace(
                config, max_items=max(0, config.max_items - stats_a.sent_total)
            )
        stats_b = SyncSession(
            source=self.second,
            target=self.first,
            now=self.now,
            config=config,
            transport=self._channel(self.second, self.first),
        ).run()
        return [stats_a, stats_b]


@contextmanager
def monotone_knowledge(*replicas: Replica, during: str) -> Iterator[None]:
    """Assert that no replica's knowledge regresses across the block.

    Knowledge must be monotone across an encounter no matter what the
    channel did; a regression means the hardening layer failed, and
    silently carrying on would poison the run, so it raises
    :class:`SyncProtocolError`. The snapshots are copy-on-write and
    ``dominates`` skips what they still share, so the guard costs what
    the block learned. A block that raises is not checked.
    """
    before = [replica.knowledge.copy() for replica in replicas]
    yield
    for replica, old in zip(replicas, before):
        if not replica.knowledge.dominates(old):
            raise SyncProtocolError(
                f"version vector of {replica.replica_id.name!r} regressed "
                f"during {during}"
            )
