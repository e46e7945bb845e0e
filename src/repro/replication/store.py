"""Item storage for a replica: the in-filter store and the relay store.

A replica holds items in two logical stores:

* The **item store** holds items matching the replica's filter — the data
  the host actually wants (its own mail, plus relay addresses it opted
  into via a multi-address filter).
* The **relay store** (the generalisation of Cimbiosys's *push-out store*)
  holds items that do *not* match the filter but that a DTN routing policy
  decided this host should carry on behalf of others. Section IV-C of the
  paper extends Cimbiosys's push-out mechanism to exactly this use.

Keeping the stores separate matters for the evaluation: the Figure 10
storage constraint caps only relayed messages ("excluding messages for
which the node itself is the sender or the destination"), and the FIFO
eviction it prescribes applies to the relay store alone.

Both stores index items by :class:`~repro.replication.ids.ItemId` and hold
exactly one (the latest known) version per id.

Beyond the primary id index, every :class:`ItemStore` maintains a
**version index**: per authoring replica, the stored version counters in
sorted order and, in a parallel column, who holds each. Because a peer's
knowledge is a per-replica prefix plus a small extras set (see
:mod:`repro.replication.versions`), the index lets
:meth:`ItemStore.unknown_items` enumerate exactly the stored items a
given knowledge vector does *not* cover — a bisect to skip the known
prefix, then a slice of the tail — instead of probing ``contains`` on
every stored item. That query is the sync hot path: one call per sync
session, proportional to what the peer is missing rather than to the
store size.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)
from zlib import crc32

from .errors import UnknownItemError
from .ids import ItemId, ReplicaId
from .items import Item
from .versions import VersionVector

#: Callback invoked when the relay store evicts an item under pressure.
EvictionCallback = Callable[[Item], None]

#: Who holds an indexed version: ``(insertion sequence, item id)``.
_Owner = Tuple[int, ItemId]


class ItemStore:
    """A keyed store of the latest known version of each item.

    Insertion order is preserved (Python dicts are ordered), which the relay
    store's FIFO eviction relies on. Alongside the primary dict the store
    keeps the version index: per origin replica two parallel columns, the
    stored counters in sorted order and beside each its *owner*, the pair
    ``(insertion sequence, item id)``. The sequence is a monotone
    per-insertion number (re-insertion bumps it, like the dict), so a
    plain sort of owners is insertion order and never compares two ids.
    The index is maintained incrementally on every mutation.
    """

    __slots__ = ("_items", "_by_origin", "_owners", "_seq", "_snapshot", "get")

    def __init__(self) -> None:
        self._items: Dict[ItemId, Item] = {}
        #: ``get(item_id)``: the stored item or ``None``. The dict's own
        #: bound method (kept valid by :meth:`clear` emptying in place): a
        #: forwarded item is looked up twice per hop in up to three stores.
        self.get: Callable[[ItemId], Optional[Item]] = self._items.get
        #: origin replica → sorted list of stored version counters.
        self._by_origin: Dict[ReplicaId, List[int]] = {}
        #: origin replica → the owner of each counter, position for position.
        #: A dict of its own, not a pair with the counters: a sync that
        #: moves nothing reads only those, one object fewer per origin.
        self._owners: Dict[ReplicaId, List[_Owner]] = {}
        self._seq = 0
        #: Cached insertion-order tuple, rebuilt lazily after mutations.
        self._snapshot: Optional[Tuple[Item, ...]] = None

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item_id: ItemId) -> bool:
        return item_id in self._items

    def __iter__(self) -> Iterator[Item]:
        return iter(self.items())

    def require(self, item_id: ItemId) -> Item:
        item = self._items.get(item_id)
        if item is None:
            raise UnknownItemError(item_id)
        return item

    def put(self, item: Item) -> None:
        """Insert or replace the stored version of ``item``.

        Replacing re-inserts at the end of iteration order: a *newer
        version* of a relayed message counts as fresh arrival for FIFO
        purposes.
        """
        previous = self._items.pop(item.item_id, None)
        if previous is not None:
            self._index_remove(previous)
        self._items[item.item_id] = item
        self._index_add(item, self._seq)
        self._seq += 1
        self._snapshot = None

    def update_in_place(self, item: Item) -> None:
        """Replace a stored item without touching its FIFO position.

        Used for host-local attribute adjustments (TTL decrements, copy
        halving) which must not look like fresh arrivals.
        """
        previous = self._items.get(item.item_id)
        if previous is None:
            raise UnknownItemError(item.item_id)
        if previous.version != item.version:
            # Callers adjust host-local state only, so the version should
            # never change here; keep the index right regardless.
            self._index_add(item, self._index_remove(previous))
        self._items[item.item_id] = item
        self._snapshot = None

    def remove(self, item_id: ItemId) -> Item:
        item = self._items.pop(item_id, None)
        if item is None:
            raise UnknownItemError(item_id)
        self._index_remove(item)
        self._snapshot = None
        return item

    def discard(self, item_id: ItemId) -> Optional[Item]:
        item = self._items.pop(item_id, None)
        if item is not None:
            self._index_remove(item)
            self._snapshot = None
        return item

    def oldest(self) -> Optional[Item]:
        """The item at the front of insertion order (FIFO eviction victim)."""
        for item in self._items.values():
            return item
        return None

    def items(self) -> Sequence[Item]:
        """A snapshot of stored items in insertion order.

        The snapshot is an immutable tuple cached until the next mutation,
        so callers that only iterate (eviction strategies, persistence,
        filter re-scans) pay no per-call allocation; it also stays safe to
        iterate while the store is being mutated.
        """
        if self._snapshot is None:
            self._snapshot = tuple(self._items.values())
        return self._snapshot

    def clear(self) -> None:
        self._items.clear()
        self._by_origin.clear()
        self._owners.clear()
        self._snapshot = None

    # -- version index -----------------------------------------------------------

    def _index_add(self, item: Item, sequence: int) -> None:
        version = item.version
        counter = version.counter
        owner = (sequence, item.item_id)
        counters = self._by_origin.get(version.replica)
        if counters is None:
            self._by_origin[version.replica] = [counter]
            self._owners[version.replica] = [owner]
            return
        owners = self._owners[version.replica]
        if counter > counters[-1]:  # common case: counters ascend
            counters.append(counter)
            owners.append(owner)
        else:
            index = bisect_right(counters, counter)
            counters.insert(index, counter)
            owners.insert(index, owner)

    def _index_remove(self, item: Item) -> int:
        """Unindex ``item``'s version; returns its insertion sequence."""
        version = item.version
        counters = self._by_origin[version.replica]
        index = bisect_left(counters, version.counter)
        del counters[index]
        sequence, _ = self._owners[version.replica].pop(index)
        if not counters:
            del self._by_origin[version.replica]
            del self._owners[version.replica]
        return sequence

    def unknown_items(self, knowledge: VersionVector) -> List[Item]:
        """Stored items whose versions ``knowledge`` does not cover.

        Equivalent to filtering :meth:`items` through
        ``knowledge.contains`` — same items, same insertion order — but
        walks the version index instead: per authoring replica, a bisect
        skips every counter inside the peer's known prefix and the owners
        past it are taken as one slice (filtered only when the peer has
        extras for that origin). Cost is proportional to the number of
        *unknown* items, not the store size.
        """
        found: List[_Owner] = []
        for origin, counters in self._by_origin.items():
            prefix = knowledge.known_counter_prefix(origin)
            if counters[-1] <= prefix:
                continue  # everything from this origin is already known
            owners = self._owners[origin]
            start = bisect_right(counters, prefix)
            extras = knowledge.extra_counters(origin)
            if extras:
                found += [
                    owners[at]
                    for at in range(start, len(counters))
                    if counters[at] not in extras
                ]
            else:
                found += owners[start:]
        found.sort()  # sequences are unique: insertion order, ids untouched
        items = self._items
        return [items[item_id] for _, item_id in found]


#: An eviction strategy picks the victim among currently stored items.
EvictionStrategy = Callable[[Sequence[Item]], Item]


def evict_fifo(items: Sequence[Item]) -> Item:
    """Drop the item that arrived first (the paper's Figure 10 policy)."""
    return items[0]


def evict_random(items: Sequence[Item]) -> Item:
    """Drop a deterministic pseudo-random victim (seeded by store contents).

    Randomised buffer management is a common DTN baseline; this variant
    digests the candidate ids so runs stay reproducible without threading
    an RNG through the store. A CRC, not ``hash()``: ``str`` hashes are
    salted per process, and every node of a live swarm is its own.
    """
    ids = ",".join(str(item.item_id) for item in items)
    return items[crc32(ids.encode("utf-8")) % len(items)]


def evict_oldest_created(items: Sequence[Item]) -> Item:
    """Drop the message created longest ago (by ``created_at`` attribute).

    Old messages have had the most delivery opportunities already; many
    DTN buffer studies prefer evicting them over recent arrivals. Items
    without a creation timestamp count as oldest.
    """
    return min(
        items,
        key=lambda item: (
            float(item.attribute("created_at", float("-inf"))),
            str(item.item_id),
        ),
    )


EVICTION_STRATEGIES = {
    "fifo": evict_fifo,
    "random": evict_random,
    "oldest-created": evict_oldest_created,
}


@dataclass
class RelayStore:
    """The out-of-filter store, optionally capacity-bounded with eviction.

    ``capacity`` of ``None`` means unbounded (the paper's default runs).
    When a put would exceed capacity, ``strategy`` picks a victim among
    the stored items (FIFO by default — the paper's Figure 10 policy) and
    ``on_evict`` (if set) is told, so the emulation can count drops. A
    capacity of 0 disables relaying entirely. ``strategy`` accepts a
    name from :data:`EVICTION_STRATEGIES` or any callable mapping the
    stored-item sequence to the victim.
    """

    capacity: Optional[int] = None
    on_evict: Optional[EvictionCallback] = None
    strategy: Union[str, EvictionStrategy] = "fifo"
    _store: ItemStore = field(default_factory=ItemStore, init=False)

    def __post_init__(self) -> None:
        if self.capacity is not None and self.capacity < 0:
            raise ValueError("relay store capacity must be >= 0 or None")
        if isinstance(self.strategy, str):
            try:
                self.strategy = EVICTION_STRATEGIES[self.strategy]
            except KeyError:
                raise ValueError(
                    f"unknown eviction strategy {self.strategy!r}; "
                    f"known: {', '.join(sorted(EVICTION_STRATEGIES))}"
                ) from None
        #: ``get(item_id)``: the inner store's own, at the same cost.
        self.get = self._store.get

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, item_id: ItemId) -> bool:
        return item_id in self._store

    def __iter__(self) -> Iterator[Item]:
        return iter(self._store)

    def put(self, item: Item) -> bool:
        """Store a relayed item, evicting FIFO if needed.

        Returns ``True`` if the item ended up stored, ``False`` if capacity
        is zero (nothing can be relayed).
        """
        if self.capacity == 0:
            return False
        already_held = item.item_id in self._store
        if (
            self.capacity is not None
            and not already_held
            and len(self._store) >= self.capacity
        ):
            candidates = self._store.items()
            if candidates:
                victim = self.strategy(candidates)  # type: ignore[operator]
                self._store.remove(victim.item_id)
                if self.on_evict is not None:
                    self.on_evict(victim)
        self._store.put(item)
        return True

    def update_in_place(self, item: Item) -> None:
        self._store.update_in_place(item)

    def discard(self, item_id: ItemId) -> Optional[Item]:
        return self._store.discard(item_id)

    def items(self) -> Sequence[Item]:
        return self._store.items()

    def unknown_items(self, knowledge: VersionVector) -> List[Item]:
        """See :meth:`ItemStore.unknown_items`."""
        return self._store.unknown_items(knowledge)

    def clear(self) -> None:
        self._store.clear()
