"""A faulty transport: the lossy channel between build_batch and apply_batch.

The sync engine (:mod:`repro.replication.sync`) hands a fully built batch
to the transport; what comes out the other side is what the target
actually receives. A transport may truncate the batch (losing a suffix),
duplicate individual entries (delivering some twice), corrupt payloads,
replace entries with undecodable garbage frames, replay entries from
earlier sessions on the same link, and tamper with the sync request's
knowledge before the source sees it. The delivered sequence preserves
batch order — the channel reorders nothing, matching the in-order stream
semantics the protocol's monotone-progress argument relies on (replayed
entries are appended after the genuine stream).

Besides the delivered stream, the outcome reports the ``confirmed``
entries: the originals that reached the target *intact* at least once.
``SyncSession.run`` fires ``on_items_sent`` for exactly those — a policy
that releases its copy on hand-off (First Contact) or spends a copy
budget (Spray and Wait) must not pay for an item the target quarantined.

With no transport (the default everywhere), delivery is perfect and the
sync engine behaves exactly as before the fault subsystem existed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Any, List, Optional, Sequence

from repro.replication.ids import ReplicaId, Version
from repro.replication.integrity import item_checksum
from repro.replication.sync import BatchEntry, SyncRequest

from .config import FaultConfig
from .models import inflate_by, mask, plan_cut, plan_replay

#: Payload substituted into corrupted copies — recognisable in debugging
#: dumps, and guaranteed to differ from any honest JSON payload.
CORRUPTED_PAYLOAD = "\x00<corrupted-in-transit>"

#: Replay pool cap per directed link: old enough entries age out, which
#: keeps pool state bounded however long an emulation runs.
REPLAY_POOL_LIMIT = 32


@dataclass
class DeliveryOutcome:
    """What the channel did to one batch.

    ``delivered`` is the stream the target receives (possibly containing
    corrupted entries and garbage frames); ``truncated`` says whether a
    cut fired and ``lost`` how many entries it dropped; ``confirmed``
    lists the original entries that arrived intact at least once, which
    is what delivery confirmation (``on_items_sent``) must be based on.
    """

    delivered: List[object] = field(default_factory=list)
    truncated: bool = False
    lost: int = 0
    confirmed: List[object] = field(default_factory=list)


class FaultyTransport:
    """Applies the config's armed channel faults to each transmitted batch.

    One transport instance mediates one sync session; the injector mints a
    fresh one per session so per-session decisions stay independent while
    sharing the injector's seeded RNG stream. ``source_id`` is the
    replica whose batches it carries, the one a fabricated claim names.
    ``replay_pool`` (when given) is the injector-owned pool of previously
    confirmed entries for this directed link — the transport draws
    replays from it and feeds newly confirmed entries back into it.
    """

    def __init__(
        self,
        config: FaultConfig,
        rng: random.Random,
        *,
        source_id: ReplicaId,
        replay_pool: Optional[List[BatchEntry]] = None,
    ) -> None:
        self._config = config
        self._rng = rng
        self._source_id = source_id
        self._replay_pool = replay_pool

    # -- request tampering ---------------------------------------------------------

    def corrupt_request(self, request: SyncRequest) -> SyncRequest:
        """Possibly tamper with the request's knowledge (fabrication model).

        The vector is inflated on a copy — knowledge travels by value, so
        the target's live vector is never touched — claiming counters of
        the *source's* own authoring range, which is exactly the claim
        the source can validate against what it actually authored.
        """
        inflate = inflate_by(self._config, self._rng)
        if inflate == 0:
            return request
        knowledge = request.knowledge.copy()
        base = max(
            knowledge.known_counter_prefix(self._source_id),
            max(knowledge.extra_counters(self._source_id), default=0),
        )
        for counter in range(base + 1, base + inflate + 1):
            knowledge.add(Version(self._source_id, counter))
        return SyncRequest(
            target_id=request.target_id,
            knowledge=knowledge,
            filter=request.filter,
            routing_state=request.routing_state,
        )

    # -- batch delivery ------------------------------------------------------------

    def deliver(self, batch: Sequence[Any]) -> DeliveryOutcome:
        """Run one batch through the channel, in order.

        Model order is fixed (truncation → duplication → corruption →
        malformed frames → replay) so a (config, seed) pair replays the
        exact same fault schedule.
        """
        config = self._config
        rng = self._rng
        outcome = DeliveryOutcome()
        delivered: List[Any] = list(batch)
        cut = plan_cut(config, len(delivered), rng)
        if cut is not None:
            outcome.truncated = True
            outcome.lost = len(delivered) - cut
            delivered = delivered[:cut]

        # From here on, track (original, wire copy) pairs: ``original``
        # survives only while the wire copy is intact, so the confirmed
        # set falls out of the surviving left-hand sides.
        stream = [(entry, entry) for entry in delivered]
        if stream:
            doubled = []
            for pair, again in zip(
                stream, mask(config.duplication_probability, len(stream), rng)
            ):
                doubled.append(pair)
                if again:
                    doubled.append(pair)
            stream = doubled
            hits = mask(config.corruption_probability, len(stream), rng)
            for index, hit in enumerate(hits):
                if hit:
                    stream[index] = (None, _corrupt_copy(stream[index][1]))
            hits = mask(config.malformed_probability, len(stream), rng)
            for index, hit in enumerate(hits):
                if hit:
                    stream[index] = (None, {"malformed-frame": index})
        if self._replay_pool:
            for index in plan_replay(config, len(self._replay_pool), rng):
                stream.append((None, self._replay_pool[index]))

        outcome.delivered = [wire for _, wire in stream]
        confirmed: List[object] = []
        seen = set()
        for original, _ in stream:
            if original is None or id(original) in seen:
                continue
            seen.add(id(original))
            confirmed.append(original)
        outcome.confirmed = confirmed
        if self._replay_pool is not None and confirmed:
            self._replay_pool.extend(
                entry for entry in confirmed if isinstance(entry, BatchEntry)
            )
            del self._replay_pool[:-REPLAY_POOL_LIMIT]
        return outcome


def _corrupt_copy(entry: Any) -> Any:
    """A copy of ``entry`` whose payload was damaged in transit.

    The checksum is preserved (stamped before the damage, as a real
    sender would), so the receiver's integrity check must catch the
    mismatch. Entries that were never stamped get the checksum of their
    *original* content — damage to an unchecksummed frame would otherwise
    be undetectable by construction, which is not what this model is for.
    """
    if not isinstance(entry, BatchEntry):
        return entry
    checksum = entry.checksum or item_checksum(entry.item)
    damaged = replace(entry.item, payload=CORRUPTED_PAYLOAD)
    return replace(entry, item=damaged, checksum=checksum)
