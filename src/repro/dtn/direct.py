"""The direct-delivery (no forwarding) policy — unmodified Cimbiosys.

Items move only when they match the target's filter; with self-address
filters that means delivery happens only on direct sender→recipient
encounters. This is the baseline labelled ``cimbiosys`` in every figure of
the paper, and the ``k = 0`` point of Figures 5 and 6.
"""

from __future__ import annotations

from typing import Optional

from repro.replication.filters import Filter
from repro.replication.items import Item
from repro.replication.routing import Priority, SyncContext

from .policy import DTNPolicy


class DirectDeliveryPolicy(DTNPolicy):
    """Never volunteers out-of-filter items."""

    name = "cimbiosys"

    def to_send(
        self, item: Item, target_filter: Filter, context: SyncContext
    ) -> Optional[Priority]:
        return None

    def refuses_for_good(self, item: Item) -> bool:
        return True
