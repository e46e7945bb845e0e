"""Binary Spray and Wait as a replication policy (Section V-C2).

Spray and Wait (Spyropoulos et al., WDTN'05) bounds flooding by budget
rather than history: the source injects ``L`` logical copies of each
message; a host holding ``n ≥ 2`` copies hands **half** of them to any host
it meets (the *spray* phase, a binary tree rooted at the source); a host
holding a single copy waits to meet the destination directly (the *wait*
phase).

As with Epidemic, the original protocol's duplicate-suppression handshake
is subsumed by the substrate's knowledge exchange.

Implementation notes:

* The copy budget is a **host-local** attribute, initialised lazily on the
  stored copy when the policy first considers the message, through the
  no-new-version interface (the paper calls out that this local adjustment
  must not make the item look updated).
* On a forward of a copy holding ``n``: the in-batch copy carries
  ``⌊n/2⌋`` and the stored copy is rewritten to ``⌈n/2⌉``, conserving the
  total budget exactly (an invariant the property tests check).
* Deliveries (filter-matched sends) do not halve the budget: the wait-phase
  single copy may always be handed to its destination.
"""

from __future__ import annotations

from typing import List, Optional

from repro.replication.filters import Filter
from repro.replication.items import Item
from repro.replication.routing import Priority, SyncContext

from .policy import DTNPolicy

#: Host-local attribute holding the logical copy budget of a stored copy.
COPIES_ATTRIBUTE = "spray.copies"

#: Table II: Spray and Wait copies per message = 8.
DEFAULT_COPIES = 8


class SprayAndWaitPolicy(DTNPolicy):
    """Binary spray: forward while holding at least two logical copies."""

    name = "spray"

    def __init__(self, initial_copies: int = DEFAULT_COPIES) -> None:
        super().__init__()
        if initial_copies < 1:
            raise ValueError("initial_copies must be >= 1")
        self.initial_copies = initial_copies

    def _current_copies(self, item: Item) -> int:
        """Read the stored copy's budget, stamping the initial value if absent."""
        copies = item.local_attributes.get(COPIES_ATTRIBUTE)
        if copies is None:
            copies = self.initial_copies
            self.replica.adjust_local(item.with_local(**{COPIES_ATTRIBUTE: copies}))
        return int(copies)

    def to_send(
        self, item: Item, target_filter: Filter, context: SyncContext
    ) -> Optional[Priority]:
        if not self.is_routable_message(item):
            return None
        if self._current_copies(item) >= 2:
            return self.normal()
        return None

    def prepare_outgoing(self, item: Item, context: SyncContext) -> Item:
        stored = self.replica.get_item(item.item_id)
        if stored is None:
            return item.without_local()
        copies = stored.local(COPIES_ATTRIBUTE)
        if copies is None or int(copies) < 2:
            # A delivery (or a message never sprayed): hand over a single
            # terminal copy; the stored budget is untouched.
            shipped = 1
        else:
            shipped = int(copies) // 2
        # In the wait phase the stored single-copy state is exactly what
        # goes on the wire, and ``wire_copy`` ships that object as it is.
        return item.wire_copy(**{COPIES_ATTRIBUTE: shipped})

    def on_items_sent(self, items: List[Item], context: SyncContext) -> None:
        """Halve the stored budget of every *delivered* spray (keep ⌈n/2⌉).

        Entries a faulty transport lost never reach this hook, so their
        budget stays intact locally — no copies are destroyed without a
        replica receiving them, keeping the total budget conserved.
        """
        for sent in items:
            stored = self.replica.get_item(sent.item_id)
            if stored is None or stored.version != sent.version:
                continue
            copies = stored.local(COPIES_ATTRIBUTE)
            if copies is None or int(copies) < 2:
                continue
            remaining = int(copies) - int(copies) // 2
            self.replica.adjust_local(
                stored.with_local(**{COPIES_ATTRIBUTE: remaining})
            )
