"""Identifier types for replicas, items, and item versions.

The substrate names three kinds of things:

* **Replicas** — one per participating device. A :class:`ReplicaId` wraps a
  short human-readable string (``"bus-07"``, ``"alice-phone"``).
* **Items** — the replicated data units (messages, in the DTN application).
  An :class:`ItemId` is unique across the whole system; by convention it is
  minted by the replica that created the item.
* **Versions** — every create/update of an item produces a new
  :class:`Version`, the pair ``(replica, counter)`` where ``counter`` is the
  authoring replica's monotonically increasing update counter. Version
  vectors (knowledge) are sets of versions compressed per replica; see
  :mod:`repro.replication.versions`.

All three are immutable, hashable, and totally ordered so they can be used
as dict keys and sorted deterministically — determinism matters because the
emulation must be exactly reproducible from a seed.

The ids are dict keys on every store, index and knowledge lookup, so
they are tuple-backed value types: each is a ``collections.namedtuple``
of its fields whose ``__hash__`` is ``tuple.__hash__``, which CPython
calls straight in C. That hash is the hash of the field tuple, the value
a frozen dataclass of the same fields generates, so a dict or set of ids
iterates exactly as it always has. Equality stays type-strict
(:class:`_Value`): an id never equals a plain tuple or an id of another
kind.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field


class _Value:
    """Type-strict equality over a tuple-backed id, hashed in C.

    ``tuple`` equality would let ``ReplicaId("n") == ("n",)`` and an
    :class:`ItemId` equal the :class:`Version` with the same fields; only
    an id of the same class compares by its fields. The hash stays
    ``tuple``'s (``__eq__`` defined here would otherwise unset it).
    """

    __slots__ = ()

    __hash__ = tuple.__hash__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        # False, not NotImplemented: a plain tuple asked next would compare
        # by fields.
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other: object) -> bool:  # not ``tuple.__ne__``'s fields
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal


class ReplicaId(_Value, namedtuple("ReplicaId", "name")):
    """Identity of a replica (one per device/host).

    The wrapped ``name`` must be non-empty. Replica ids are compared and
    sorted by name, which gives deterministic iteration orders throughout
    the substrate.
    """

    __slots__ = ()

    def __new__(cls, name: str) -> "ReplicaId":
        if not name:
            raise ValueError("ReplicaId name must be non-empty")
        return tuple.__new__(cls, (name,))

    def __str__(self) -> str:
        return self.name


class ItemId(_Value, namedtuple("ItemId", "origin serial")):
    """Globally unique identity of a replicated item.

    ``origin`` is the replica that created the item and ``serial`` is that
    replica's creation counter. The pair is unique as long as each replica
    numbers its creations monotonically, which :class:`IdFactory` enforces.
    """

    __slots__ = ()

    def __new__(cls, origin: ReplicaId, serial: int) -> "ItemId":
        if serial < 0:
            raise ValueError("ItemId serial must be non-negative")
        return tuple.__new__(cls, (origin, serial))

    def __str__(self) -> str:
        return f"{self.origin.name}#{self.serial}"


class Version(_Value, namedtuple("Version", "replica counter")):
    """A single authored version: ``(replica, counter)``.

    ``counter`` values are per-replica and strictly increasing, so the set
    of versions authored by one replica is always a contiguous or gappy
    subset of the integers, compressible to ranges in a version vector.
    """

    __slots__ = ()

    def __new__(cls, replica: ReplicaId, counter: int) -> "Version":
        if counter < 1:
            raise ValueError("Version counter starts at 1")
        return tuple.__new__(cls, (replica, counter))

    def __str__(self) -> str:
        return f"{self.replica.name}:{self.counter}"


@dataclass
class IdFactory:
    """Mints item ids and versions for one replica.

    A replica owns exactly one factory. The factory guarantees that item
    serials and version counters are each strictly increasing, which is the
    substrate-wide uniqueness invariant. The counters are plain integers so
    a replica's state (including the factory) can be check-pointed to disk
    and restored (see :mod:`repro.replication.persistence`).
    """

    replica: ReplicaId
    _next_serial: int = field(default=0, init=False, repr=False)
    _version_counter: int = field(default=0, init=False, repr=False)

    def next_item_id(self) -> ItemId:
        """Return a fresh :class:`ItemId` originating at this replica."""
        item_id = ItemId(self.replica, self._next_serial)
        self._next_serial += 1
        return item_id

    def next_version(self) -> Version:
        """Return the next :class:`Version` authored by this replica."""
        self._version_counter += 1
        return Version(self.replica, self._version_counter)

    @property
    def last_counter(self) -> int:
        """The highest version counter issued so far (0 if none)."""
        return self._version_counter

    def snapshot(self) -> dict:
        """Counter state for persistence."""
        return {
            "next_serial": self._next_serial,
            "version_counter": self._version_counter,
        }

    def restore(self, state: dict) -> None:
        """Restore counters from :meth:`snapshot` output.

        Counters may only move forward — restoring an older snapshot onto
        a factory that has already minted beyond it would break global
        uniqueness, so that is rejected.
        """
        next_serial = int(state["next_serial"])
        version_counter = int(state["version_counter"])
        if next_serial < self._next_serial or version_counter < self._version_counter:
            raise ValueError("cannot rewind an id factory")
        self._next_serial = next_serial
        self._version_counter = version_counter
