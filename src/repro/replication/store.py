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

Beyond the primary id index, every store writes into a
**version index** (:class:`VersionIndex`; a replica's three stores share
one): per authoring replica, the held version counters in sorted order
and, in parallel columns, each copy's key and the copy itself. Because
a peer's knowledge is a per-replica prefix plus a small extras set (see
:mod:`repro.replication.versions`), the index lets
:meth:`VersionIndex.candidates` enumerate exactly the held items a
given knowledge vector does *not* cover — a bisect to skip the known
prefix, then a slice of the tail — instead of probing ``contains`` on
every stored item. That query is the sync hot path: one call per sync
session, proportional to what the peer is missing rather than to the
store size.

Every copy a store takes in (:meth:`ItemStore.put`,
:meth:`ItemStore.update_in_place`) is :func:`~repro.replication.items.adopt`-ed:
the copy it was derived from hands it out again for the same per-copy
state, so in one process identical copies of a version share one shell.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import InitVar, dataclass, field
from typing import (
    AbstractSet,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)
from zlib import crc32

from .errors import UnknownItemError
from .ids import ItemId, ReplicaId, Version
from .items import ATTR_DESTINATION, Item, adopt
from .versions import VersionVector

#: Callback invoked when the relay store evicts an item under pressure.
EvictionCallback = Callable[[Item], None]

#: A copy as a walk sorts it: ``(key, item)``, built for the walk (and
#: kept for the few parked copies), never stored per open copy.
_Owner = Tuple[int, Item]

#: Bits of a store's insertion sequence below its rank in a copy's key.
_RANK_SHIFT = 48


class _Columns:
    """One partition of a :class:`VersionIndex`: per origin, the held
    counters in sorted order and, position for position, each copy's
    key and the copy itself. Three dicts of columns, not a record per
    copy: the keys are unboxed in an ``array('q')`` (a rank of at most
    2 shifted by 48 fits), the items are the stored copies, so a held
    copy costs three slots and no object of its own. A sync that moves
    nothing reads only the counters."""

    __slots__ = ("counters", "keys", "items")

    def __init__(self) -> None:
        self.counters: Dict[ReplicaId, List[int]] = {}
        self.keys: Dict[ReplicaId, array] = {}
        self.items: Dict[ReplicaId, List[Item]] = {}

    def insert(self, version: Version, key: int, item: Item) -> None:
        origin, counter = version
        counters = self.counters.get(origin)
        if counters is None:
            self.counters[origin] = [counter]
            self.keys[origin] = array("q", (key,))
            self.items[origin] = [item]
        elif counter > counters[-1]:  # common case: counters ascend
            counters.append(counter)
            self.keys[origin].append(key)
            self.items[origin].append(item)
        else:
            at = bisect_right(counters, counter)
            counters.insert(at, counter)
            self.keys[origin].insert(at, key)
            self.items[origin].insert(at, item)

    def take(self, version: Version, item: Optional[Item] = None) -> Optional[int]:
        """Unindex ``version``; its key, or ``None`` (nothing touched) if
        it is not held here or, given ``item``, held by another copy."""
        origin, counter = version
        counters = self.counters.get(origin)
        if counters is None:
            return None
        at = bisect_left(counters, counter)
        if at == len(counters) or counters[at] != counter:
            return None
        items = self.items[origin]
        if item is not None and items[at] is not item:
            return None
        del counters[at], items[at]
        key = self.keys[origin].pop(at)
        if not counters:
            del self.counters[origin], self.keys[origin], self.items[origin]
        return key

    def unknown(self, found: List[_Owner], known: Callable[[ReplicaId], Any]) -> None:
        """Append to ``found`` the ``(key, item)`` of each copy ``known``
        does not cover: per origin one lookup, a bisect past the known
        prefix, and the two columns beyond zipped from one slice each
        (filtered only when there are extras)."""
        keys, items = self.keys, self.items
        for origin, counters in self.counters.items():
            entry = known(origin)
            if entry is None:  # nothing known from this origin
                found += zip(keys[origin], items[origin])
                continue
            prefix = entry.prefix
            if counters[-1] <= prefix:
                continue  # everything from this origin is already known
            start = bisect_right(counters, prefix)
            extras = entry.extras
            if extras:
                column, held = keys[origin], items[origin]
                found += [
                    (column[at], held[at])
                    for at in range(start, len(counters))
                    if counters[at] not in extras
                ]
            else:
                found += zip(keys[origin][start:], items[origin][start:])

    def count_unknown(self, known: Callable[[ReplicaId], Any]) -> int:
        """How many copies :meth:`unknown` would find, not enumerated:
        extras lie above the prefix, so one C-level intersection."""
        count = 0
        for origin, counters in self.counters.items():
            entry = known(origin)
            if entry is None:
                count += len(counters)
            elif counters[-1] > entry.prefix:
                count += len(counters) - bisect_right(counters, entry.prefix)
                if entry.extras:
                    count -= len(entry.extras.intersection(counters))
        return count


class VersionIndex:
    """Per authoring replica, the held version counters and who holds each.

    Three parallel columns per origin (:class:`_Columns`): the counters
    in sorted order and, position for position, each copy's *key* and
    the stored :class:`Item`. The key is the holding store's rank
    shifted above that store's insertion sequence, so one plain sort of
    ``(key, item)`` pairs is the stores' concatenated insertion order,
    decided by unique ints: two items are never compared. The column
    holds the stored copy, so a walk hands back items without looking a
    single id up. A :class:`Replica` shares one index among its three
    stores; a standalone store has its own.

    A sync walks the *open* columns. A copy its routing policy refuses
    for good (:meth:`~repro.replication.routing.RoutingPolicy.refuses_for_good`)
    is :meth:`park`-ed in a second partition, which a sync reaches only
    by the target filter's addresses and counts without enumerating. Any
    :meth:`remove` ends the mark; a store that keeps the copy adds it
    back open.
    """

    __slots__ = ("_open", "_parked", "_destined")

    def __init__(self) -> None:
        self._open = _Columns()
        self._parked = _Columns()
        #: destination address → the parked ``(key, item)``s addressed there.
        self._destined: Dict[str, Dict[Version, _Owner]] = {}

    def add(self, item: Item, key: int) -> None:
        self._open.insert(item.version, key, item)

    def remove(self, item: Item) -> int:
        """Unindex ``item``'s version, open or parked; returns its key.
        Raises :class:`KeyError`, the index untouched, if neither holds it."""
        version = item.version
        key = self._open.take(version)
        if key is None:
            key = self._parked.take(version)
            if key is None:
                raise KeyError(f"version {version} is not indexed")
            # One version, one content: the held copy's destination.
            destination = item.attributes[ATTR_DESTINATION]
            parked = self._destined[destination]
            del parked[version]
            if not parked:
                del self._destined[destination]
        return key

    def park(self, item: Item) -> None:
        """Move ``item`` out of the walk. A no-op unless it is the very
        copy held open for its version (not one a policy has since
        restamped or expunged) and its destination is one address."""
        destination = item.attributes.get(ATTR_DESTINATION)
        if isinstance(destination, str):
            key = self._open.take(item.version, item)
            if key is not None:
                self._parked.insert(item.version, key, item)
                self._destined.setdefault(destination, {})[item.version] = (key, item)

    def candidates(
        self, knowledge: VersionVector, addresses: Optional[AbstractSet[str]] = None
    ) -> Tuple[List[Item], int]:
        """The uncovered items a sync must consider, in store order, and
        how many held items ``knowledge`` does not cover, parked or not.

        The items are the open ones plus the parked ones addressed to one
        of ``addresses`` (``None``: every parked one). A parked item
        addressed elsewhere neither matches such a filter nor goes out
        through the policy, so leaving it out changes no batch.
        """
        found: List[_Owner] = []
        known = knowledge.entries().get
        self._open.unknown(found, known)
        if addresses is None:
            self._parked.unknown(found, known)
            count = len(found)
        else:
            count = len(found) + self._parked.count_unknown(known)
            if self._destined:
                contains = knowledge.contains
                for address in addresses:
                    parked = self._destined.get(address)
                    if parked is not None:
                        found += [
                            owner
                            for version, owner in parked.items()
                            if not contains(version)
                        ]
        found.sort()  # keys are unique: store order, items untouched
        return [item for _, item in found], count

    def unknown_items(self, knowledge: VersionVector) -> List[Item]:
        """Every held item whose version ``knowledge`` does not cover."""
        return self.candidates(knowledge)[0]


class ItemStore:
    """A keyed store of the latest known version of each item.

    Insertion order is preserved (Python dicts are ordered), which the relay
    store's FIFO eviction relies on. Every mutation is written through to a
    :class:`VersionIndex` under the key ``rank << 48 | sequence``: the
    sequence is a monotone per-insertion number (re-insertion bumps it,
    like the dict) and ``rank`` places this store among the others that
    share the index.
    """

    __slots__ = ("_items", "index", "_rank", "_seq", "_snapshot", "get")

    def __init__(self, index: Optional[VersionIndex] = None, rank: int = 0) -> None:
        self._items: Dict[ItemId, Item] = {}
        #: ``get(item_id)``: the stored item or ``None``. The dict's own
        #: bound method (kept valid by :meth:`clear` emptying in place): a
        #: forwarded item is looked up twice per hop in up to three stores.
        self.get: Callable[[ItemId], Optional[Item]] = self._items.get
        #: The version index this store writes into: its replica's, or
        #: one of its own.
        self.index = VersionIndex() if index is None else index
        #: Index keys are ``_rank | _seq``, held unboxed by the index.
        self._rank = rank << _RANK_SHIFT
        self._seq = 0
        #: Cached insertion-order tuple, rebuilt lazily after mutations.
        self._snapshot: Optional[Tuple[Item, ...]] = None

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item_id: ItemId) -> bool:
        return item_id in self._items

    def __iter__(self) -> Iterator[Item]:
        return iter(self.items())

    def put(self, item: Item) -> None:
        """Insert or replace the stored version of ``item``.

        Replacing re-inserts at the end of iteration order: a *newer
        version* of a relayed message counts as fresh arrival for FIFO
        purposes.
        """
        previous = self._items.pop(item.item_id, None)
        if previous is not None:
            self.index.remove(previous)
        self._items[item.item_id] = item
        self.index.add(item, self._rank | self._seq)
        self._seq += 1
        self._snapshot = None
        adopt(item)

    def update_in_place(self, item: Item) -> None:
        """Replace a stored item without touching its FIFO position.

        Used for host-local attribute adjustments (TTL decrements, copy
        halving) which must not look like fresh arrivals. The index hands
        out ``item`` from now on: a stale copy there would show a policy
        old per-copy state.
        """
        previous = self._items.get(item.item_id)
        if previous is None:
            raise UnknownItemError(item.item_id)
        self.index.add(item, self.index.remove(previous))  # the old key
        self._items[item.item_id] = item
        self._snapshot = None
        adopt(item)

    def remove(self, item_id: ItemId) -> Item:
        item = self._items.pop(item_id, None)
        if item is None:
            raise UnknownItemError(item_id)
        self.index.remove(item)
        self._snapshot = None
        return item

    def discard(self, item_id: ItemId) -> Optional[Item]:
        item = self._items.pop(item_id, None)
        if item is not None:
            self.index.remove(item)
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
        for item in self._items.values():
            self.index.remove(item)
        self._items.clear()
        self._snapshot = None


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


#: Eviction strategy name → the function picking the victim among the
#: currently stored items.
EVICTION_STRATEGIES: Dict[str, Callable[[Sequence[Item]], Item]] = {
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
    capacity of 0 disables relaying entirely. ``strategy`` is a name from
    :data:`EVICTION_STRATEGIES`, so a checkpoint can record it.
    """

    capacity: Optional[int] = None
    on_evict: Optional[EvictionCallback] = None
    strategy: str = "fifo"
    #: The version index to write into (a replica's); ``None``: its own.
    index: InitVar[Optional[VersionIndex]] = None
    _store: ItemStore = field(init=False)

    def __post_init__(self, index: Optional[VersionIndex]) -> None:
        if self.capacity is not None and self.capacity < 0:
            raise ValueError("relay store capacity must be >= 0 or None")
        if self.strategy not in EVICTION_STRATEGIES:
            raise ValueError(
                f"unknown eviction strategy {self.strategy!r}; "
                f"known: {', '.join(sorted(EVICTION_STRATEGIES))}"
            )
        # Rank 2: a replica's relay copies come after its store and outbox.
        self._store = ItemStore(index, rank=2)
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
                victim = EVICTION_STRATEGIES[self.strategy](candidates)
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

    def clear(self) -> None:
        self._store.clear()
