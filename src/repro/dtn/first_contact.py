"""First Contact routing as a replication policy.

First Contact (Jain, Fall & Patra's single-copy baseline from "Routing in
a delay tolerant network", SIGCOMM'04 — reference [9] of the paper) keeps
exactly **one** copy of each message in the network: a node carrying a
message hands it to the first node it encounters and then *drops its own
copy*, so the message performs a random walk until it hits the
destination. It is the canonical low-overhead / high-delay point of the
DTN design space, and a useful contrast to the copy-budgeted and flooding
families bundled from the paper.

Implementation notes:

* the hand-off's "drop my copy" is a **local expunge** (no tombstone —
  the message must stay alive elsewhere); knowledge still covers the
  version, so the walk never revisits a node, making it a self-avoiding
  walk — strictly better than the classic protocol, courtesy of the
  substrate's at-most-once guarantee;
* the origin keeps its copy until the first hand-off (it authored the
  item; dropping that would risk total loss if the transfer failed —
  we drop only after ``on_items_sent`` confirms *delivery*: over a lossy
  transport the hook reports exactly the entries that reached the
  target, so a copy lost in transit stays stored and re-offerable).
"""

from __future__ import annotations

from typing import List, Optional

from repro.replication.filters import Filter
from repro.replication.items import Item
from repro.replication.routing import Priority, RoutingPolicy, SyncContext


class FirstContactPolicy(RoutingPolicy):
    """Single-copy random-walk forwarding."""

    name = "first-contact"

    def to_send(
        self, item: Item, target_filter: Filter, context: SyncContext
    ) -> Optional[Priority]:
        if not self.is_routable_message(item):
            return None
        destination = item.destination
        if isinstance(destination, str) and destination in self.local_addresses():
            # The walk ended here: a delivered message is never re-walked.
            return None
        return self.normal()

    def on_items_sent(self, items: List[Item], context: SyncContext) -> None:
        """Hand-off complete: drop the local copies of *delivered* messages.

        ``items`` contains only the entries the channel actually carried,
        so an interrupted transfer never expunges the sole copy of a
        message that was lost in transit. Items that matched the target's
        filter were *delivered*, not relayed; the destination's copy is
        theirs and ours is dropped all the same — a delivered message
        needs no further carrying (the origin's copy is released too,
        which is First Contact's single-copy semantics rather than the
        substrate default).
        """
        for item in items:
            stored = self.replica.get_item(item.item_id)
            if stored is None or stored.version != item.version:
                continue
            if self.is_routable_message(stored):
                self.replica.expunge(item.item_id)
