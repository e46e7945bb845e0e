"""Selfish peer behaviours: policies that take but under-give.

A :class:`FreeRiderPolicy` wraps an honest routing policy and delegates
everything except :meth:`~repro.replication.routing.RoutingPolicy.source_budget`
— the one hook through which a source caps what it serves. Wrapping (as
opposed to a standalone policy) means a free-rider *routes* exactly like
its honest configuration and stays otherwise protocol-conformant; only
its generosity changes, which is precisely what a reciprocity score
should catch and a protocol validator should not.
"""

from __future__ import annotations

from typing import Any, FrozenSet, Optional

from repro.dtn.policy import AddressProvider, DTNPolicy
from repro.replication.filters import Filter
from repro.replication.items import Item
from repro.replication.replica import Replica
from repro.replication.routing import Priority, SyncContext

from .config import FREE_RIDER_MODES


class FreeRiderPolicy(DTNPolicy):
    """An honest policy's routing with a selfish serving budget.

    ``mode="receive-only"`` serves nothing at all; ``mode="budget-lie"``
    serves at most ``budget`` items per sync regardless of the session's
    real bandwidth cap.
    """

    name = "free-rider"

    def __init__(
        self, inner: DTNPolicy, mode: str = "receive-only", budget: int = 1
    ) -> None:
        super().__init__()
        if mode not in FREE_RIDER_MODES:
            raise ValueError(
                f"mode must be one of {FREE_RIDER_MODES}, got {mode!r}"
            )
        if budget < 0:
            raise ValueError("budget must be >= 0")
        self.inner = inner
        self.mode = mode
        self.budget = budget

    # -- the selfish part -----------------------------------------------------------

    def source_budget(self, max_items: Optional[int]) -> Optional[int]:
        if self.mode == "receive-only":
            return 0
        if max_items is None:
            return self.budget
        return min(max_items, self.budget)

    # -- everything else delegates to the honest inner policy -----------------------

    def bind(
        self, replica: Replica, addresses: Optional[AddressProvider] = None
    ) -> "FreeRiderPolicy":
        super().bind(replica, addresses)
        self.inner.bind(replica, addresses)
        return self

    def generate_req(self, context: SyncContext) -> Any:
        return self.inner.generate_req(context)

    def process_req(self, routing_state: Any, context: SyncContext) -> None:
        self.inner.process_req(routing_state, context)

    def to_send(
        self, item: Item, target_filter: Filter, context: SyncContext
    ) -> Optional[Priority]:
        return self.inner.to_send(item, target_filter, context)

    def refuses_for_good(self, item: Item) -> bool:
        return self.inner.refuses_for_good(item)

    def on_encounter_start(self, context: SyncContext) -> None:
        self.inner.on_encounter_start(context)

    def on_items_sent(self, items: list, context: SyncContext) -> None:
        self.inner.on_items_sent(items, context)

    def prepare_outgoing(self, item: Item, context: SyncContext) -> Item:
        return self.inner.prepare_outgoing(item, context)

    def local_addresses(self) -> FrozenSet[str]:
        return self.inner.local_addresses()

    def persistent_state(self) -> dict:
        return self.inner.persistent_state()

    def restore_state(self, state: dict) -> None:
        self.inner.restore_state(state)
