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

The one structural rule, enforced by :func:`validate_host_filter`, comes
straight from the paper: *a host's filter must select messages addressed to
the host itself* — otherwise eventual filter consistency cannot deliver its
own mail.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, FrozenSet, Iterable, Tuple

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
    the sync path: a unicast (``str``) destination is one set lookup in the
    filter's ``_addresses``; a multicast one matches if any address does."""
    destination = item.attributes.get(ATTR_DESTINATION)
    if isinstance(destination, str):
        return destination in self._addresses
    if not isinstance(destination, Iterable):  # None included
        return False
    return any(d in self._addresses for d in destination)


@dataclass(frozen=True)
class AddressFilter(Filter):
    """Matches items whose destination attribute equals ``address``.

    Destinations may be a single address or a collection (multicast); both
    are handled.
    """

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


def covers_address(filter_: Filter, address: str, probe_item_factory) -> bool:
    """Best-effort structural check that ``filter_`` selects mail for ``address``.

    ``probe_item_factory`` builds a representative item addressed to
    ``address``; the check simply evaluates the filter on it. Structural
    inspection short-circuits the common cases.
    """
    if isinstance(filter_, AllFilter):
        return True
    if isinstance(filter_, AddressFilter):
        return filter_.address == address
    if isinstance(filter_, MultiAddressFilter):
        return address in filter_.addresses
    return bool(filter_.matches(probe_item_factory(address)))


def validate_host_filter(filter_: Filter, own_address: str, probe_item_factory) -> None:
    """Enforce the paper's rule: a host's filter must include its own address.

    Raises :class:`InvalidFilterError` when the filter demonstrably fails to
    select a message addressed to the host itself.
    """
    if not covers_address(filter_, own_address, probe_item_factory):
        raise InvalidFilterError(
            f"host filter must select messages addressed to {own_address!r}"
        )
