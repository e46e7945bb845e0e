"""Content-based filters — the selection predicate of filtered replication.

A filter is a predicate over item *attributes* (the replicated metadata).
Each replica declares one filter; during synchronisation the source sends
exactly the unknown items that match the target's filter, plus whatever
extra items the active DTN policy chooses (Section V of the paper).

Filters must be **serialisable by value**: they travel inside sync requests,
so they are plain data, never closures. The small algebra below covers
everything the paper needs:

* :class:`AddressFilter` — "messages addressed to me" (the basic DTN app);
* :class:`MultiAddressFilter` — "me plus these k other hosts" (Section IV-B,
  evaluated in Figures 5 and 6);
* :class:`AllFilter` / :class:`NothingFilter` — flooding / sink extremes;
* :class:`AttributeFilter` — generic equality test on any attribute;
* :class:`AndFilter` / :class:`OrFilter` / :class:`NotFilter` — combinators.

The one structural rule comes straight from the paper: *a host's filter
must select messages addressed to the host itself* — otherwise eventual
filter consistency cannot deliver its own mail. The address filters hold
it by construction: :class:`MultiAddressFilter` always includes its
``own_address``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, FrozenSet, Optional, Tuple

from .errors import InvalidFilterError
from .items import ATTR_DESTINATION, Item


class Filter(ABC):
    """Predicate over an item's replicated attributes.

    Implementations must be immutable value objects (hashable, comparable)
    so that filters can be embedded in sync requests and compared cheaply.
    """

    @abstractmethod
    def matches(self, item: Item) -> bool:
        """True if ``item`` should be replicated at a host with this filter."""

    # Combinator sugar -----------------------------------------------------------

    def __and__(self, other: "Filter") -> "Filter":
        return AndFilter((self, other))

    def __or__(self, other: "Filter") -> "Filter":
        return OrFilter((self, other))

    def __invert__(self) -> "Filter":
        return NotFilter(self)


@dataclass(frozen=True)
class AllFilter(Filter):
    """Matches every item. A host with this filter replicates everything,
    turning the substrate into epidemic flooding (the paper's "in the limit"
    case for multi-address filters)."""

    def matches(self, item: Item) -> bool:
        return True


@dataclass(frozen=True)
class NothingFilter(Filter):
    """Matches no item. Useful for pure-relay experiment controls."""

    def matches(self, item: Item) -> bool:
        return False


def _matches_addresses(self: Filter, item: Item) -> bool:
    """``matches`` of both address filters, which runs per candidate item on
    the sync path: one set lookup in the filter's ``_addresses``. A
    destination that is not one address (``str``) is malformed input and
    matches nothing."""
    destination = item.attributes.get(ATTR_DESTINATION)
    return isinstance(destination, str) and destination in self._addresses


@dataclass(frozen=True)
class AddressFilter(Filter):
    """Matches items whose destination attribute equals ``address``."""

    address: str

    def __post_init__(self) -> None:
        if not self.address:
            raise InvalidFilterError("AddressFilter requires a non-empty address")
        # Built once: ``matches`` runs per candidate item on the sync path.
        # Not a field, so equality, hashing and repr do not see it.
        object.__setattr__(self, "_addresses", frozenset((self.address,)))

    matches = _matches_addresses


@dataclass(frozen=True)
class MultiAddressFilter(Filter):
    """Matches items addressed to any of a set of addresses.

    This is the Section IV-B mechanism: a host lists its own address plus
    the addresses of other hosts it is willing to relay for. ``own_address``
    is kept separate so the structural rule (own address always included)
    is explicit and checkable.
    """

    own_address: str
    relay_addresses: FrozenSet[str] = frozenset()

    def __post_init__(self) -> None:
        if not self.own_address:
            raise InvalidFilterError("MultiAddressFilter requires own_address")
        object.__setattr__(self, "relay_addresses", frozenset(self.relay_addresses))
        # Built once, like ``AddressFilter._addresses``.
        object.__setattr__(
            self, "_addresses", self.relay_addresses | {self.own_address}
        )

    @property
    def addresses(self) -> FrozenSet[str]:
        return self._addresses

    matches = _matches_addresses


def address_set(filter_: Filter) -> Optional[FrozenSet[str]]:
    """The addresses ``filter_`` selects if it is an address filter whose
    ``matches`` is not overridden, else ``None``."""
    if type(filter_).matches is _matches_addresses:
        return filter_._addresses
    return None


@dataclass(frozen=True)
class AttributeFilter(Filter):
    """Matches items whose ``name`` attribute equals ``value``."""

    name: str
    value: Any

    def matches(self, item: Item) -> bool:
        return item.attribute(self.name) == self.value


@dataclass(frozen=True)
class AndFilter(Filter):
    """Conjunction of sub-filters (empty conjunction matches everything)."""

    operands: Tuple[Filter, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "operands", tuple(self.operands))

    def matches(self, item: Item) -> bool:
        return all(operand.matches(item) for operand in self.operands)


@dataclass(frozen=True)
class OrFilter(Filter):
    """Disjunction of sub-filters (empty disjunction matches nothing)."""

    operands: Tuple[Filter, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "operands", tuple(self.operands))

    def matches(self, item: Item) -> bool:
        return any(operand.matches(item) for operand in self.operands)


@dataclass(frozen=True)
class NotFilter(Filter):
    """Negation of a sub-filter."""

    operand: Filter

    def matches(self, item: Item) -> bool:
        return not self.operand.matches(item)
