"""The replica: one device's view of the replicated collection.

A :class:`Replica` ties together the pieces defined elsewhere in this
package:

* a :class:`~repro.replication.filters.Filter` declaring which items the
  host wants (its in-filter data),
* *knowledge* (a :class:`~repro.replication.versions.VersionVector`)
  summarising every item version the replica has ever received or authored,
* three stores:

  - the **in-filter store** — items matching the filter (the host's own
    mail, plus any relay addresses in a multi-address filter),
  - the **outbox** — items this replica authored that do *not* match its
    own filter (a message you send is usually addressed to someone else);
    Cimbiosys's push-out store plays this role,
  - the **relay store** — out-of-filter items accepted from peers because a
    DTN routing policy chose to carry them; this is the only store subject
    to the Figure 10 storage cap, matching the paper's "excluding messages
    for which the node itself is the sender or the destination".

The replica enforces the substrate's two delivery guarantees:

* **at-most-once** — :meth:`apply_remote` refuses any version already
  covered by knowledge (the sync layer should never send one; doing so is
  a protocol bug and raises),
* **eventual filter consistency** — versions are only added to knowledge
  when actually received or authored, so an unknown in-filter item is
  always accepted at the next opportunity.
"""

from __future__ import annotations

from typing import AbstractSet, Any, Iterator, List, Mapping, Optional, Tuple

from .errors import DuplicateDeliveryError, UnknownItemError
from .events import ObserverList, ReplicaObserver
from .filters import Filter
from .ids import IdFactory, ItemId, ReplicaId, Version
from .items import Item
from .store import ItemStore, RelayStore, VersionIndex
from .versions import VersionVector


def _wins(incoming: Item, stored: Item) -> bool:
    """Deterministic conflict resolution between two versions of one item.

    Deletion dominates (the paper's destination-deletes-the-item flow must
    not be resurrected by a stale copy); otherwise the higher
    ``(counter, replica)`` version wins — a deterministic last-writer-wins
    rule that every replica resolves identically.
    """
    if incoming.deleted != stored.deleted:
        return incoming.deleted
    incoming_key = (incoming.version.counter, incoming.version.replica)
    stored_key = (stored.version.counter, stored.version.replica)
    return incoming_key > stored_key


class Replica:
    """One host's replication state and the operations on it."""

    def __init__(
        self,
        replica_id: ReplicaId,
        filter_: Filter,
        relay_capacity: Optional[int] = None,
        relay_eviction: str = "fifo",
    ) -> None:
        self.replica_id = replica_id
        self._filter = filter_
        self._ids = IdFactory(replica_id)
        self.knowledge = VersionVector.empty()
        #: One version index over all three stores, ranked in the order
        #: :meth:`stored_items` visits them.
        self._index = VersionIndex()
        self._store = ItemStore(self._index, rank=0)
        self._outbox = ItemStore(self._index, rank=1)
        self.observers = ObserverList()
        self._relay = RelayStore(
            capacity=relay_capacity,
            on_evict=self.observers.on_evict,
            strategy=relay_eviction,
            index=self._index,
        )

    # -- configuration ---------------------------------------------------------

    @property
    def filter(self) -> Filter:
        return self._filter

    def set_filter(self, new_filter: Filter) -> None:
        """Replace the replica's filter.

        Relayed or outboxed items that match the new filter move into the
        in-filter store (and are reported as stored with
        ``matched_filter=True`` — a delivery, if the application considers
        them addressed here). Items in the in-filter store that no longer
        match are demoted to the relay store.
        """
        self._filter = new_filter
        for item in self._relay.items():
            if new_filter.matches(item):
                self._relay.discard(item.item_id)
                self._store.put(item)
                self.observers.on_store(item, matched_filter=True)
        for item in self._outbox.items():
            if new_filter.matches(item):
                self._outbox.discard(item.item_id)
                self._store.put(item)
                self.observers.on_store(item, matched_filter=True)
        for item in self._store.items():
            if not new_filter.matches(item):
                self._store.discard(item.item_id)
                if item.version.replica == self.replica_id:
                    self._outbox.put(item)
                else:
                    self._relay.put(item)

    def register_observer(self, observer: ReplicaObserver) -> None:
        self.observers.register(observer)

    # -- authoring ----------------------------------------------------------------

    def create_item(
        self,
        payload: Any = None,
        attributes: Optional[Mapping[str, Any]] = None,
    ) -> Item:
        """Author a new item at this replica.

        The item gets a fresh id and version; its version is recorded in
        knowledge immediately (a replica always knows what it authored).
        """
        item = Item(
            item_id=self._ids.next_item_id(),
            version=self._ids.next_version(),
            payload=payload,
            attributes=dict(attributes or {}),
        )
        self.knowledge.add(item.version)
        self._place_authored(item)
        return item

    def update_item(
        self,
        item_id: ItemId,
        payload: Any = None,
        attributes: Optional[Mapping[str, Any]] = None,
    ) -> Item:
        """Author a new version of an existing item."""
        current = self._find(item_id)
        if current is None:
            raise UnknownItemError(item_id)
        new_attributes = dict(current.attributes)
        if attributes:
            new_attributes.update(attributes)
        updated = current.with_version(
            self._ids.next_version(),
            payload=payload if payload is not None else current.payload,
            attributes=new_attributes,
            local_attributes={},
        )
        self.knowledge.add(updated.version)
        self._replace(updated)
        return updated

    def delete_item(self, item_id: ItemId) -> Item:
        """Delete an item by authoring a replicating tombstone.

        The tombstone keeps the item's attributes (so filters still route
        it) but drops the payload; as it spreads, forwarding nodes replace
        their stored copies, freeing buffer space — the paper's
        acknowledgement-free cleanup.
        """
        current = self._find(item_id)
        if current is None:
            raise UnknownItemError(item_id)
        tombstone = current.as_tombstone(self._ids.next_version())
        self.knowledge.add(tombstone.version)
        self._replace(tombstone)
        return tombstone

    @property
    def last_authored_counter(self) -> int:
        """The highest version counter this replica has ever issued.

        Protocol validation uses this as the upper bound on what any peer
        can legitimately claim to know about this replica's own versions:
        a sync request whose knowledge exceeds it is fabricated.
        """
        return self._ids.last_counter

    # -- receiving -------------------------------------------------------------------

    def apply_remote(self, item: Item) -> bool:
        """Accept an item received during a sync.

        Returns ``True`` if the item matched this replica's filter (for the
        messaging application, a potential delivery). Raises
        :class:`DuplicateDeliveryError` if the version is already known —
        the source is required to filter against our knowledge, so a
        duplicate indicates a protocol violation, not a benign race.
        """
        if not self.knowledge.add(item.version):
            raise DuplicateDeliveryError(
                f"{self.replica_id} already knows {item.version}"
            )

        stored = self._find(item.item_id)
        if stored is not None and not _wins(item, stored):
            # Stale concurrent version: knowledge now covers it, but the
            # stored (winning) copy is untouched.
            return False

        matched = self._filter.matches(item)
        if stored is not None:
            self._remove_everywhere(item.item_id)
        if matched:
            self._store.put(item)
        else:
            self._relay.put(item)
        self.observers.on_store(item, matched_filter=matched)
        return matched

    # -- host-local adjustments -----------------------------------------------------

    def adjust_local(self, item: Item) -> None:
        """Replace a stored item with a host-local-attribute variant.

        The replacement must carry the same id and version (``with_local``
        guarantees this); the operation does not touch knowledge, versions,
        or FIFO positions — it is invisible to the replication protocol,
        matching the paper's internal no-new-version update interface.
        """
        for store in (self._store, self._outbox, self._relay):
            stored = store.get(item.item_id)
            if stored is not None:
                if stored.version != item.version:
                    raise UnknownItemError(item.item_id)
                store.update_in_place(item)
                return
        raise UnknownItemError(item.item_id)

    def expunge(self, item_id: ItemId) -> None:
        """Drop an item locally *without* replicating a deletion.

        Knowledge still covers its version, so the item will not be
        re-accepted; used by application-level cleanup that should not
        generate tombstone traffic.
        """
        self._remove_everywhere(item_id)

    # -- queries ------------------------------------------------------------------------

    def stored_items(self) -> Iterator[Item]:
        """All items this replica holds, across all three stores."""
        yield from self._store
        yield from self._outbox
        yield from self._relay

    @property
    def stored_count(self) -> int:
        """Total items held across all three stores."""
        return len(self._store) + len(self._outbox) + len(self._relay)

    def items_unknown_to(self, knowledge: VersionVector) -> List[Item]:
        """Stored items whose versions the given knowledge does not cover.

        The replica's version index enumerates only the counters above
        the peer's known prefix (see
        :meth:`~repro.replication.store.VersionIndex.candidates`). The
        result is what filtering :meth:`stored_items` through
        ``knowledge.contains`` gives — same items, same order — at a cost
        proportional to what the peer is missing.
        """
        return self._index.candidates(knowledge)[0]

    def sync_candidates(
        self, knowledge: VersionVector, addresses: Optional[AbstractSet[str]]
    ) -> Tuple[List[Item], int]:
        """What a sync walks and how many held items ``knowledge`` does
        not cover (:meth:`~repro.replication.store.VersionIndex.candidates`)."""
        return self._index.candidates(knowledge, addresses)

    def park(self, item: Item) -> None:
        """Take a copy its policy refuses for good out of the sync walk
        (:meth:`~repro.replication.store.VersionIndex.park`)."""
        self._index.park(item)

    def get_item(self, item_id: ItemId) -> Optional[Item]:
        return self._find(item_id)

    def holds(self, item_id: ItemId) -> bool:
        return self._find(item_id) is not None

    def relays(self, item_id: ItemId) -> bool:
        """Whether the copy held is a relay copy: out of filter, authored elsewhere."""
        return item_id in self._relay

    @property
    def in_filter_count(self) -> int:
        return len(self._store)

    @property
    def outbox_count(self) -> int:
        return len(self._outbox)

    @property
    def relay_count(self) -> int:
        return len(self._relay)

    # -- internals -------------------------------------------------------------------------

    def _place_authored(self, item: Item) -> None:
        if self._filter.matches(item):
            self._store.put(item)
            self.observers.on_store(item, matched_filter=True)
        else:
            self._outbox.put(item)
            self.observers.on_store(item, matched_filter=False)

    def _replace(self, item: Item) -> None:
        self._remove_everywhere(item.item_id)
        if self._filter.matches(item):
            self._store.put(item)
        elif item.version.replica == self.replica_id:
            self._outbox.put(item)
        else:
            self._relay.put(item)

    def _find(self, item_id: ItemId) -> Optional[Item]:
        item = self._store.get(item_id)
        if item is None:
            item = self._outbox.get(item_id)
            if item is None:
                item = self._relay.get(item_id)
        return item

    def _remove_everywhere(self, item_id: ItemId) -> None:
        self._store.discard(item_id)
        self._outbox.discard(item_id)
        self._relay.discard(item_id)

    def __repr__(self) -> str:
        return (
            f"Replica({self.replica_id}, in_filter={len(self._store)}, "
            f"outbox={len(self._outbox)}, relay={len(self._relay)})"
        )
