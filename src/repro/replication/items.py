"""Replicated items and their metadata.

An :class:`Item` is the replication unit. It carries:

* an :class:`~repro.replication.ids.ItemId` (stable across versions),
* a :class:`~repro.replication.ids.Version` (changes on every update),
* an opaque ``payload`` (the message body, in the DTN application),
* ``attributes`` — *replicated* metadata that travels with the item and is
  visible to filters (destination address, source address, timestamps…),
* ``local_attributes`` — *host-specific* metadata that is **not** replicated
  and does not bump the version (e.g. Epidemic's TTL, Spray-and-Wait's copy
  budget). Section V-A of the paper calls these "transient metadata
  associated with a specific copy of a message"; updating them must not make
  the item look like a new version during subsequent syncs.

Items are value objects from the protocol's point of view but expose an
explicit :meth:`Item.with_local` so policies can adjust per-copy state
without version churn, mirroring Cimbiosys's internal no-new-version update
interface that the paper relies on for Spray and Wait.

A stored copy is a small slotted ``Item`` shell around shared parts:
ids, payload and ``attributes`` are the author's objects, and
``local_attributes`` is *the* mapping :func:`per_copy_state` keeps for
that state (every copy whose TTL is 7 holds one ``{"epidemic.ttl": 7}``,
a copy decoded off the wire too). That is safe: both mappings refuse
every mutating method, and one handed in from outside is copied before
an item binds it. Identical copies of one version share the shell as
well: a copy hands out the copy it derived for a state once a store has
:func:`adopt`-ed it, so every replica one holder sent that state to
stores the same object.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Any, Iterable, Mapping, Tuple

from .ids import ItemId, Version

#: Reserved attribute names used by the messaging application. Policies and
#: applications may add their own attributes freely; these are the ones the
#: substrate and bundled policies know about.
ATTR_SOURCE = "source"
ATTR_DESTINATION = "destination"
ATTR_CREATED_AT = "created_at"
ATTR_KIND = "kind"

#: ``kind`` values with substrate-level meaning.
KIND_MESSAGE = "message"
KIND_ACK = "ack"
KIND_TOMBSTONE = "tombstone"

#: Name of the per-instance content-checksum memo (see
#: :func:`repro.replication.integrity.cached_item_checksum`). The memo is a
#: non-field slot set with ``object.__setattr__``, so neither the
#: constructor nor ``dataclasses.replace`` ever copies it — any derivation
#: that *could* change replicated content starts clean. Only the
#: derivations that provably preserve replicated content
#: (:meth:`Item.with_local`, :meth:`Item.without_local`,
#: :meth:`Item.wire_copy`; the checksum excludes host-local attributes)
#: carry it over explicitly.
CHECKSUM_MEMO_ATTRIBUTE = "_content_checksum"

#: Name of the slot through which identical copies share one shell. A copy
#: :meth:`Item._restamped` derives holds ``(origin,)`` there until a store
#: :func:`adopt`-s it; from then on the origin holds the adopted copy and
#: hands it out again for the same per-copy state, and the copy holds
#: nothing. A derivation no store takes (a wire copy, a duplicate, a copy
#: lost in transit) is never pointed at, so it keeps nothing alive.
DERIVED_ATTRIBUTE = "_derived"


class _OwnedDict(dict):
    """A read-only mapping an :class:`Item` constructor created and owns.

    ``__post_init__`` copies incoming mappings defensively; one of this
    type was built inside this module and refuses every mutating method
    (reads stay the C ``dict``'s), so items adopt and share it as it is.
    """

    __slots__ = ()

    def _refuse(self, *args: Any, **kwargs: Any) -> Any:
        raise TypeError("an item's mappings are read-only; derive a new item")

    __setitem__ = __delitem__ = __ior__ = update = _refuse
    pop = popitem = clear = setdefault = _refuse


@lru_cache(maxsize=4096, typed=True)
def _shared_state(**state: Any) -> _OwnedDict:
    # ``typed`` keeps ``1``, ``1.0`` and ``True`` apart but not ``0.0`` from ``-0.0``
    # nor ``(1,)`` from ``(True,)``: only ints, strings, bools and hop lists share.
    for value in state.values():
        hop_list = type(value) is tuple and set(map(type, value)) <= {str}
        if not hop_list and type(value) not in (int, str, bool):
            raise TypeError(f"per-copy state {value!r} is not shared")
    return _OwnedDict(state)


def per_copy_state(state: Mapping[str, Any]) -> _OwnedDict:
    """*The* read-only mapping for ``state``, its keys sorted; one built fresh
    if the state cannot be shared or the bounded table has forgotten it."""
    try:
        state = dict(sorted(state.items())) if len(state) > 1 else state
        return _shared_state(**state)
    except TypeError:  # a float, an unhashable list, a key that is not a name
        return _OwnedDict(state)


def owned_mapping(pairs: Iterable[Tuple[str, Any]]) -> _OwnedDict:
    """A read-only mapping of ``pairs`` that an item adopts as it is: a
    decoder builds an item's attributes once instead of once and a copy."""
    return _OwnedDict(pairs)


class _Memos:
    #: A slotted dataclass can declare no slot that is not a field; its base can.
    __slots__ = (CHECKSUM_MEMO_ATTRIBUTE, DERIVED_ATTRIBUTE)


@dataclass(frozen=True, slots=True)
class Item(_Memos):
    """One version of one replicated item.

    Instances are immutable; updates produce new instances. Equality and
    hashing consider only ``(item_id, version)`` — two copies of the same
    version on different hosts are "the same item" even if their host-local
    attributes differ, which is exactly the semantics at-most-once delivery
    needs.
    """

    item_id: ItemId
    version: Version
    payload: Any = None
    attributes: Mapping[str, Any] = field(default_factory=dict)
    local_attributes: Mapping[str, Any] = field(default_factory=dict)
    deleted: bool = False

    def __post_init__(self) -> None:
        # Freeze the mapping views so accidental aliasing cannot mutate a
        # stored item; dataclass(frozen=True) only protects the bindings.
        # Mappings this module built itself are adopted as-is — the
        # derivation helpers below would otherwise pay two copies per hop.
        if type(self.attributes) is not _OwnedDict:
            object.__setattr__(self, "attributes", _OwnedDict(self.attributes))
        if type(self.local_attributes) is not _OwnedDict:
            object.__setattr__(
                self, "local_attributes", _OwnedDict(self.local_attributes)
            )

    def __reduce__(self) -> tuple:  # copies rebuild by the constructor: no memo travels
        mappings = dict(self.attributes), dict(self.local_attributes)
        return Item, (self.item_id, self.version, self.payload, *mappings, self.deleted)

    # -- identity ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Item):
            return NotImplemented
        return self.item_id == other.item_id and self.version == other.version

    def __hash__(self) -> int:
        return hash((self.item_id, self.version))

    # -- attribute access ---------------------------------------------------------

    def attribute(self, name: str, default: Any = None) -> Any:
        """Read a replicated attribute."""
        return self.attributes.get(name, default)

    def local(self, name: str, default: Any = None) -> Any:
        """Read a host-local (non-replicated) attribute."""
        return self.local_attributes.get(name, default)

    @property
    def source(self) -> Any:
        return self.attributes.get(ATTR_SOURCE)

    @property
    def destination(self) -> Any:
        return self.attributes.get(ATTR_DESTINATION)

    @property
    def kind(self) -> str:
        return self.attributes.get(ATTR_KIND, KIND_MESSAGE)

    # -- derivation ---------------------------------------------------------------

    def with_version(self, version: Version, **changes: Any) -> "Item":
        """A new version of this item (a replicated update)."""
        return replace(self, version=version, **changes)

    def with_local(self, **local_changes: Any) -> "Item":
        """Same version, adjusted host-local attributes.

        This is the no-new-version update path: the result compares equal to
        the original, so knowledge and sync behaviour are unaffected.
        Returns ``self`` when every change is a no-op on state stamped here
        (the value already stored, a delete of an absent key), so hot paths
        that re-stamp unchanged per-copy state allocate nothing.
        """
        return self._restamped({**self.local_attributes, **local_changes})

    def without_local(self) -> "Item":
        """A copy stripped of host-local attributes, as sent on the wire.

        Host-local metadata must never replicate; the sync layer calls this
        before handing an item to the transport (policies may then attach
        fresh per-copy state for the receiving host, e.g. a decremented TTL).
        """
        if not self.local_attributes:
            return self
        return self._restamped({})

    def wire_copy(self, **local_state: Any) -> "Item":
        """The copy one hop ships: exactly ``local_state`` as host-local state.

        ``without_local()`` then ``with_local(**local_state)``, in one step
        and one allocation: this host's per-copy state stripped, the
        receiving host's stamped on (a decremented TTL, half the copy
        budget; a ``None`` value carries nothing). Returns ``self`` when
        the copy already carries that state's shared mapping, memos and all.
        """
        return self._restamped(local_state)

    def _restamped(self, state: Mapping[str, Any]) -> "Item":
        """This version with ``state`` as its host-local attributes; ``self``
        if it carries that very mapping (``1`` and ``1.0`` are different states).

        Replicated content is untouched, so the checksum memo carries
        over. Built by the constructor: every forwarded item is
        re-stamped at every hop, and ``dataclasses.replace``'s reflection
        was the largest single cost of moving one.
        """
        if None in state.values():  # "a ``None`` value carries nothing"
            state = {key: value for key, value in state.items() if value is not None}
        shared = per_copy_state(state)
        if shared is self.local_attributes:
            return self
        adopted = getattr(self, DERIVED_ATTRIBUTE, None)
        if type(adopted) is Item and adopted.local_attributes is shared:
            return adopted
        derived = Item(
            self.item_id,
            self.version,
            self.payload,
            self.attributes,
            shared,
            self.deleted,
        )
        memo = getattr(self, CHECKSUM_MEMO_ATTRIBUTE, None)
        if memo is not None:
            object.__setattr__(derived, CHECKSUM_MEMO_ATTRIBUTE, memo)
        object.__setattr__(derived, DERIVED_ATTRIBUTE, (self,))
        return derived

    def as_tombstone(self, version: Version) -> "Item":
        """A deletion marker for this item.

        Tombstones replicate like ordinary updates so that deletions reach
        every interested replica (the paper's "destination deletes the item,
        causing it to be discarded by forwarding nodes").
        """
        return replace(self, version=version, payload=None, deleted=True)

    def __repr__(self) -> str:
        flags = " deleted" if self.deleted else ""
        return f"Item({self.item_id}@{self.version}{flags})"


def adopt(item: Item) -> None:
    """``item`` is now stored: the copy it was derived from hands it out
    for the same per-copy state from here on (at most one such copy each),
    and ``item`` lets go of that copy."""
    origin = getattr(item, DERIVED_ATTRIBUTE, None)
    if type(origin) is tuple:
        object.__setattr__(origin[0], DERIVED_ATTRIBUTE, item)
        object.__setattr__(item, DERIVED_ATTRIBUTE, None)
