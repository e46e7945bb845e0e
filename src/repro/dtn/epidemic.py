"""Epidemic routing as a replication policy (Section V-C1 of the paper).

Epidemic routing (Vahdat & Becker, 2000) floods every message to every
encountered host, bounding propagation with a per-copy hop-count budget
(the "TTL"). The classic protocol's summary-vector duplicate suppression is
unnecessary here: the substrate's knowledge exchange already guarantees
at-most-once delivery, which is exactly the simplification the paper
demonstrates.

Implementation notes, mirroring the paper faithfully:

* The TTL is a **host-local** attribute of each stored copy — it is
  per-copy state and must not replicate as a new item version.
* When ``to_send`` meets a message that has no TTL yet (a message freshly
  authored by the local application), it stamps the stored copy with the
  initial TTL through the no-new-version interface.
* The copy placed in the sync batch carries ``TTL − 1``; the decrement only
  affects the in-flight copy, never the source's stored copy.
* Messages are selected whenever their TTL is positive.
"""

from __future__ import annotations

from typing import Optional

from repro.replication.filters import Filter
from repro.replication.items import Item
from repro.replication.routing import Priority, SyncContext

from .policy import DTNPolicy

#: Host-local attribute holding the remaining hop budget of a stored copy.
TTL_ATTRIBUTE = "epidemic.ttl"

#: Table II: Epidemic TTL = 10.
DEFAULT_TTL = 10


class EpidemicPolicy(DTNPolicy):
    """Bounded flooding: forward every message whose hop budget remains."""

    name = "epidemic"

    def __init__(self, initial_ttl: int = DEFAULT_TTL) -> None:
        super().__init__()
        if initial_ttl < 1:
            raise ValueError("initial_ttl must be >= 1")
        self.initial_ttl = initial_ttl

    def _current_ttl(self, item: Item) -> int:
        """Read the stored copy's TTL, stamping the default if absent."""
        ttl = item.local(TTL_ATTRIBUTE)
        if ttl is None:
            ttl = self.initial_ttl
            self.replica.adjust_local(item.with_local(**{TTL_ATTRIBUTE: ttl}))
        return int(ttl)

    def to_send(
        self, item: Item, target_filter: Filter, context: SyncContext
    ) -> Optional[Priority]:
        if not self.is_routable_message(item):
            return None
        if self._current_ttl(item) > 0:
            return self.normal()
        return None

    def prepare_outgoing(self, item: Item, context: SyncContext) -> Item:
        """Ship the copy with a decremented hop budget.

        Applies to out-of-filter forwards; a copy that is being *delivered*
        (filter match) also gets the decrement, which is harmless — the
        destination does not reflood unless it relays for others. A copy
        that already carries exactly the outgoing TTL ships as-is
        (:meth:`~repro.replication.items.Item.wire_copy`).
        """
        stored = self.replica.get_item(item.item_id)
        ttl = self.initial_ttl if stored is None else int(
            stored.local(TTL_ATTRIBUTE, self.initial_ttl)
        )
        return item.wire_copy(**{TTL_ATTRIBUTE: max(0, ttl - 1)})
