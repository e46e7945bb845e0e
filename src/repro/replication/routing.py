"""The pluggable routing-policy interface (the paper's ``IDTNPolicy``).

Section V of the paper extends the replication platform with a three-method
interface that lets DTN routing protocols decide which *out-of-filter* items
a sync source should forward to the target, and in what order:

* :meth:`RoutingPolicy.generate_req` — called on the **target** (the sync
  initiator); returns opaque routing state to embed in the sync request
  (e.g. PROPHET's delivery-predictability vector).
* :meth:`RoutingPolicy.process_req` — called on the **source** when the
  request arrives; typically persists the peer's routing state.
* :meth:`RoutingPolicy.to_send` — called on the source once per stored item
  that the target does not know and whose filter does not match, unless
  :meth:`RoutingPolicy.refuses_for_good` parked it; returns a
  :class:`Priority` to include the item in the batch or ``None`` to skip it.

The platform (this module and :mod:`repro.replication.sync`) defines the
interface; concrete protocols live in :mod:`repro.dtn`. This mirrors the
paper's layering, where Cimbiosys exposes ``IDTNPolicy`` and the four case
studies implement it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import IntEnum
from functools import total_ordering
from typing import Any, Optional

from .filters import Filter
from .ids import ReplicaId
from .items import Item


class PriorityClass(IntEnum):
    """Coarse transmission-priority bands, per the paper's priority design.

    ``FILTER_MATCH`` is reserved for the sync engine: items matching the
    target's filter ("messages addressed directly to the neighbour", in
    MaxProp's phrasing) always transmit first. Policies use the bands below
    it.
    """

    FILTER_MATCH = 100
    HIGHEST = 40
    HIGH = 30
    NORMAL = 20
    LOW = 10
    LOWEST = 0


@total_ordering
@dataclass(frozen=True, slots=True)
class Priority:
    """A transmission priority: a class band plus a real-valued cost tiebreak.

    Sorting is by *descending* class then *ascending* cost — lower cost wins
    inside a band (MaxProp's path costs are "lower is better"). The
    comparison operators implement "transmits earlier than".
    """

    class_: PriorityClass
    cost: float = 0.0

    def sort_key(self) -> tuple:
        return (-int(self.class_), self.cost)

    def __lt__(self, other: "Priority") -> bool:
        if not isinstance(other, Priority):
            return NotImplemented
        return self.sort_key() < other.sort_key()


#: Convenience instance for "send whenever there is room, no preference".
NORMAL_PRIORITY = Priority(PriorityClass.NORMAL)

#: What the sync engine gives every item matching the target's filter.
#: Priorities are frozen values, so one instance serves every batch entry.
FILTER_MATCH_PRIORITY = Priority(PriorityClass.FILTER_MATCH)


@dataclass
class SyncContext:
    """What a policy may know about the sync it is participating in.

    ``local`` and ``remote`` identify the two replicas from the policy
    host's point of view; ``now`` is the emulation clock (seconds). The
    platform builds one context per sync session per side.
    """

    local: ReplicaId
    remote: ReplicaId
    now: float


class RoutingPolicy(ABC):
    """Base class for pluggable DTN routing policies.

    One policy instance is attached to one replica and lives as long as the
    replica does; whatever state it accumulates across syncs (encounter
    histories, predictability vectors) is its "persistent routing state" in
    the paper's terms.

    Subclasses must implement :meth:`to_send`; the request hooks default to
    no-ops because the two simplest protocols (Epidemic, Spray and Wait)
    need neither.
    """

    #: Human-readable protocol name, used in experiment reports.
    name: str = "policy"

    def generate_req(self, context: SyncContext) -> Any:
        """Produce routing state for a sync request this replica initiates.

        Called on the *target* side. The returned value is treated as an
        opaque payload by the platform and handed to the source's
        :meth:`process_req`. Return ``None`` when the protocol sends
        nothing.
        """
        return None

    def process_req(self, routing_state: Any, context: SyncContext) -> None:
        """Consume the routing state of an incoming sync request.

        Called on the *source* side before any ``to_send`` decisions, so
        the state can inform them.
        """

    @abstractmethod
    def to_send(
        self, item: Item, target_filter: Filter, context: SyncContext
    ) -> Optional[Priority]:
        """Decide whether to forward an out-of-filter ``item`` to the target.

        Return a :class:`Priority` to include the item in the batch, or
        ``None`` to leave it out. The platform never calls this for items
        that match the target's filter — those are always sent, at
        :attr:`PriorityClass.FILTER_MATCH`.
        """

    def refuses_for_good(self, item: Item) -> bool:
        """Whether the refusal :meth:`to_send` just gave ``item`` stands.

        ``True`` parks the stored copy: later syncs reach it only when it
        matches the target's filter. Answer ``True`` only if, for as long
        as the store holds this very object, ``to_send`` would return
        ``None`` for it at every later sync, whatever the peer, context or
        policy state, and a call to it would change nothing. Any
        replacement of the stored copy ends the mark (a newer version,
        ``adjust_local``, a store move, an eviction, an expunge); a
        restored replica is a fresh one, with no marks.
        """
        return False

    def on_encounter_start(self, context: SyncContext) -> None:
        """Hook invoked once per *encounter* (before the pair of syncs).

        Protocols that age or bump state per meeting (PROPHET, MaxProp)
        use this so that the two back-to-back syncs of one encounter update
        state only once, matching Section V-C3 of the paper.
        """

    def on_items_sent(self, items: list[Item], context: SyncContext) -> None:
        """Hook invoked on the source once delivery is confirmed.

        ``items`` holds exactly the batch entries the channel actually
        carried to the target, each once — over a lossy transport a cut
        suffix never appears here, and a duplicated entry appears once.
        Gives copy-budget protocols (Spray and Wait) a place to adjust the
        locally stored copies of forwarded items, and single-copy
        protocols (First Contact) a safe point to release theirs.
        """

    def prepare_outgoing(self, item: Item, context: SyncContext) -> Item:
        """Last-touch transform of an item as it is placed into the batch.

        The default strips host-local attributes (they must not replicate).
        Policies override to attach per-copy state for the receiving host
        (a decremented TTL, half the copy budget).
        """
        return item.without_local()

    def source_budget(self, max_items: Optional[int]) -> Optional[int]:
        """The batch-size cap this source is *willing* to honour.

        ``max_items`` is the platform's cap for the session (bandwidth
        budget, or ``None`` for unlimited); the return value replaces
        it.  The default is honest — send everything the cap allows.
        Selfish behaviours (``repro.churn.freeride``) override this to
        under-serve peers: unlike :meth:`to_send`, which is never asked
        about filter-matching items, this cap governs the whole batch.
        """
        return max_items


class NullRoutingPolicy(RoutingPolicy):
    """The no-forwarding policy: unmodified Cimbiosys behaviour.

    Only items matching the target's filter are transferred; this is the
    paper's baseline (``cimbiosys`` lines in Figures 5–10, ``k = 0``).
    """

    name = "cimbiosys"

    def to_send(
        self, item: Item, target_filter: Filter, context: SyncContext
    ) -> Optional[Priority]:
        return None

    def refuses_for_good(self, item: Item) -> bool:
        return True
