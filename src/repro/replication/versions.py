"""Version vectors — the "knowledge" metadata of the replication protocol.

Cimbiosys-style replication keeps, per replica, a compact summary of every
item version the replica has ever learned about. The summary is a *version
vector*: for each authoring replica it records which of that replica's
version counters are known. Because counters are issued contiguously, most
replicas' knowledge of a peer is a single prefix ``1..n``, which the vector
stores as one integer; out-of-order learning (possible when versions arrive
via different relay paths) is handled by keeping an extra set of counters
beyond the prefix and re-compacting whenever the gap closes.

Knowledge is what makes synchronisation cheap: two replicas exchange their
vectors (size proportional to the number of *replicas*, not items) and each
then knows exactly which of its stored versions the other lacks. It is also
what guarantees **at-most-once delivery** — a version covered by the
target's knowledge is never retransmitted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Optional, Set, Tuple

from .ids import ReplicaId, Version

@dataclass(frozen=True, slots=True)
class _Entry:
    """Knowledge about one authoring replica: prefix + extras.

    ``prefix`` means counters ``1..prefix`` inclusive are all known.
    ``extras`` are known counters strictly above ``prefix + 1`` (i.e. there
    is a gap). The representation is canonical: extras never contains
    ``prefix + 1`` (that would extend the prefix) and never anything below.
    """

    prefix: int = 0
    extras: FrozenSet[int] = frozenset()

    def __post_init__(self) -> None:
        if self.prefix < 0:
            raise ValueError("prefix must be non-negative")
        if any(c <= self.prefix for c in self.extras):
            raise ValueError("extras must lie strictly above the prefix")
        if self.prefix + 1 in self.extras:
            raise ValueError("non-canonical entry: extras touch the prefix")

    @staticmethod
    def canonical(prefix: int, extras: Iterable[int]) -> "_Entry":
        """Build a canonical entry, folding adjacent extras into the prefix."""
        pending: Set[int] = {c for c in extras if c > prefix}
        while prefix + 1 in pending:
            prefix += 1
            pending.discard(prefix)
        return _Entry(prefix, frozenset(pending))

    def contains(self, counter: int) -> bool:
        return counter <= self.prefix or counter in self.extras

    def add(self, counter: int) -> "_Entry":
        """This entry with ``counter`` known; ``self`` if it already is."""
        prefix = self.prefix
        extras = self.extras
        if counter <= prefix or counter in extras:
            return self
        if counter != prefix + 1:
            # Beyond a gap: canonical by construction, so it skips the
            # validation pass over every extra (out-of-order batches add
            # thousands of extras one by one).
            entry = object.__new__(_Entry)
            object.__setattr__(entry, "prefix", prefix)
            object.__setattr__(entry, "extras", extras | {counter})
            return entry
        if not extras:
            # The usual add: a gap-free prefix grows by one, its (empty)
            # extras handed on untouched.
            return _Entry(counter, extras)
        return _Entry.canonical(counter, extras)  # a gap closes; extras fold

    def merge(self, other: "_Entry") -> "_Entry":
        if other.prefix <= self.prefix and all(
            self.contains(c) for c in other.extras
        ):
            return self
        prefix = max(self.prefix, other.prefix)
        return _Entry.canonical(prefix, self.extras | other.extras)

    def dominates(self, other: "_Entry") -> bool:
        """True if every counter in ``other`` is contained in ``self``."""
        # Canonical form: ``prefix + 1`` is never known, so a longer
        # prefix on the other side is already a counter-example.
        if other.prefix > self.prefix:
            return False
        return not other.extras or all(self.contains(c) for c in other.extras)

    def counters(self) -> Iterator[int]:
        """Iterate every known counter (ascending). Use sparingly: O(n)."""
        yield from range(1, self.prefix + 1)
        yield from sorted(self.extras)

    @property
    def is_empty(self) -> bool:
        return self.prefix == 0 and not self.extras


#: What a vector knows of a replica it has no entry for: one shared value,
#: so the lookups of the sync hot path neither branch nor allocate.
_NOTHING_KNOWN = _Entry()


def _numbers_cost(entry: _Entry) -> int:
    """Bytes of ``prefix,extra,...`` in the compact-JSON encoding."""
    cost = len(str(entry.prefix))
    if entry.extras:
        cost += sum(len(str(counter)) + 1 for counter in entry.extras)
    return cost


def _entry_cost(replica: ReplicaId, entry: Optional[_Entry]) -> int:
    """Bytes ``entry`` occupies in the compact-JSON knowledge encoding.

    One ``"name":[prefix,extra,...],`` member, separator included; empty
    entries are not encoded. The name is measured the way the codec
    writes it (JSON-escaped, ASCII-only).
    """
    if entry is None or entry.is_empty:
        return 0
    return len(json.dumps(replica.name)) + 4 + _numbers_cost(entry)


class VersionVector:
    """A compact, immutable-by-convention set of :class:`Version` values.

    The public API treats the vector as a set of versions with fast
    ``contains`` / ``add`` / ``merge`` / ``dominates``. Mutating methods
    return ``None`` and update in place (replicas own their knowledge);
    use :meth:`copy` to snapshot before handing a vector to a peer.

    Snapshots are **copy-on-write**: :meth:`copy` is O(1) — it shares the
    underlying entry table and the first mutation on either side pays the
    O(replicas) detach. Entries themselves are immutable, so sharing the
    table is safe; a sync request's knowledge snapshot therefore costs
    nothing unless the replica learns something mid-session.

    ``_cost`` is the running sum of :func:`_entry_cost` over the table,
    adjusted by :meth:`_write` — the one place an entry is stored — so
    :meth:`wire_size` is a read at every sync instead of an encoding.
    """

    __slots__ = ("_entries", "_shared", "_cost")

    def __init__(self, entries: Mapping[ReplicaId, _Entry] | None = None) -> None:
        self._entries: Dict[ReplicaId, _Entry] = dict(entries or {})
        self._shared = False
        self._cost = sum(
            _entry_cost(replica, entry)
            for replica, entry in self._entries.items()
        )

    # -- construction helpers -------------------------------------------------

    @classmethod
    def empty(cls) -> "VersionVector":
        return cls()

    @classmethod
    def from_versions(cls, versions: Iterable[Version]) -> "VersionVector":
        vector = cls()
        for version in versions:
            vector.add(version)
        return vector

    def copy(self) -> "VersionVector":
        """An O(1) copy-on-write snapshot of this vector."""
        snapshot = VersionVector.__new__(VersionVector)
        snapshot._entries = self._entries
        snapshot._shared = True
        snapshot._cost = self._cost
        self._shared = True
        return snapshot

    def _write(
        self,
        replica: ReplicaId,
        old: Optional[_Entry],
        entry: _Entry,
        growth: Optional[int] = None,
    ) -> None:
        """Store ``entry`` where ``old`` was: detach a shared table first,
        keep the size by what changed (``growth`` bytes, when the caller
        knows it)."""
        if self._shared:
            self._entries = dict(self._entries)
            self._shared = False
        if growth is not None:
            self._cost += growth
        elif old is None or old.is_empty or entry.is_empty:
            self._cost += _entry_cost(replica, entry) - _entry_cost(replica, old)
        elif entry.extras is old.extras:
            # Nearly every write: a prefix grew beside untouched extras.
            self._cost += len(str(entry.prefix)) - len(str(old.prefix))
        else:  # a member's numbers moving: its key cancels
            self._cost += _numbers_cost(entry) - _numbers_cost(old)
        self._entries[replica] = entry

    # -- set operations --------------------------------------------------------

    def contains(self, version: Version) -> bool:
        """True if this vector covers ``version``."""
        entry = self._entries.get(version.replica, _NOTHING_KNOWN)
        return entry.contains(version.counter)

    __contains__ = contains

    def add(self, version: Version) -> bool:
        """Record ``version`` as known; ``True`` if it was not before.

        One lookup answers "is it known?" and does the write, which is
        how :meth:`Replica.apply_remote` keeps its at-most-once guard. A
        repeat writes nothing, so a shared table stays shared.
        """
        replica, counter = version.replica, version.counter
        old = self._entries.get(replica, _NOTHING_KNOWN)
        new = old.add(counter)
        if new is old:
            return False
        if new.prefix == old.prefix and not old.is_empty:
            # One more extra: ``,counter`` joins the member, nothing else.
            self._write(replica, old, new, len(str(counter)) + 1)
        else:
            self._write(replica, old, new)
        return True

    def merge(self, other: "VersionVector") -> None:
        """Union ``other`` into this vector (in place)."""
        for replica, other_entry in other._entries.items():
            mine = self._entries.get(replica)
            merged = other_entry if mine is None else mine.merge(other_entry)
            if merged is not mine:
                self._write(replica, mine, merged)

    def merged(self, other: "VersionVector") -> "VersionVector":
        """Return a new vector equal to the union of both operands."""
        result = self.copy()
        result.merge(other)
        return result

    def clamped(self, replica: ReplicaId, maximum: int) -> "VersionVector":
        """A copy whose entry for ``replica`` keeps only counters ≤ ``maximum``.

        Used by protocol validation to sanitise fabricated knowledge: a
        peer claiming to know versions a replica never authored gets its
        claim clipped to the authored range before the claim is used for
        anything. Returns ``self`` unchanged when nothing exceeds the
        bound, so the honest path allocates nothing.
        """
        entry = self._entries.get(replica)
        if entry is None or (
            entry.prefix <= maximum
            and all(counter <= maximum for counter in entry.extras)
        ):
            return self
        clamp = self.copy()
        clamp._write(
            replica,
            entry,
            _Entry.canonical(
                min(entry.prefix, maximum),
                (counter for counter in entry.extras if counter <= maximum),
            ),
        )
        return clamp

    def dominates(self, other: "VersionVector") -> bool:
        """True if every version in ``other`` is contained in ``self``.

        A snapshot still sharing this vector's table is dominated by
        construction, and after a detach the untouched entries are the
        same objects — so checking a vector against its own earlier
        snapshot compares only the entries written in between.
        """
        if other._entries is self._entries:
            return True
        for replica, other_entry in other._entries.items():
            mine = self._entries.get(replica, _NOTHING_KNOWN)
            if mine is not other_entry and not mine.dominates(other_entry):
                return False
        return True

    # -- introspection ----------------------------------------------------------

    def known_counter_prefix(self, replica: ReplicaId) -> int:
        """The contiguous prefix of counters known for ``replica``."""
        return self._entries.get(replica, _NOTHING_KNOWN).prefix

    def extra_counters(self, replica: ReplicaId) -> FrozenSet[int]:
        """Out-of-order counters known for ``replica`` beyond its prefix."""
        return self._entries.get(replica, _NOTHING_KNOWN).extras

    def entries(self) -> Mapping[ReplicaId, _Entry]:
        """The per-replica entry table itself, for reading only: what lets a
        version index skip, per origin, the counters this vector covers."""
        return self._entries

    def replicas(self) -> Tuple[ReplicaId, ...]:
        """The authoring replicas this vector has knowledge about (sorted)."""
        return tuple(sorted(self._entries))

    def versions(self) -> Iterator[Version]:
        """Iterate every covered version. O(total counters); for tests."""
        for replica in sorted(self._entries):
            for counter in self._entries[replica].counters():
                yield Version(replica, counter)

    def wire_size(self) -> int:
        """Bytes of this vector's compact-JSON encoding; O(1).

        Always ``codec.wire_size(codec.encode_knowledge(self))``: the two
        braces plus every member, less the last member's separator.
        """
        return max(2, self._cost + 1)

    def size_in_extras(self) -> int:
        """Total non-contiguous counters retained (0 when fully compacted)."""
        return sum(len(entry.extras) for entry in self._entries.values())

    # -- dunder plumbing ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VersionVector):
            return NotImplemented
        mine = {r: e for r, e in self._entries.items() if not e.is_empty}
        theirs = {r: e for r, e in other._entries.items() if not e.is_empty}
        return mine == theirs

    def __bool__(self) -> bool:
        return any(not e.is_empty for e in self._entries.values())

    def __repr__(self) -> str:
        parts = []
        for replica in sorted(self._entries):
            entry = self._entries[replica]
            if entry.is_empty:
                continue
            text = f"{replica.name}<= {entry.prefix}"
            if entry.extras:
                text += "+" + ",".join(str(c) for c in sorted(entry.extras))
            parts.append(text)
        return f"VersionVector({'; '.join(parts)})"
