"""Base machinery for DTN routing policies.

:class:`DTNPolicy` extends the platform's
:class:`~repro.replication.routing.RoutingPolicy` with the two bindings
concrete protocols need:

* a reference to the host **replica**, so policies can adjust host-local
  per-copy state (TTLs, copy budgets) through the no-new-version interface
  (:meth:`~repro.replication.replica.Replica.adjust_local`), and
* an **addresses provider** — a callable returning the set of addresses the
  host currently answers to. In the paper's evaluation users are
  re-assigned to buses every day, so a host's address set is dynamic;
  policies that reason about destinations (PROPHET, MaxProp) read it lazily.

A policy instance belongs to exactly one host. Its mutable attributes are
its "persistent routing state" in the paper's terms (Table I, column 2).
"""

from __future__ import annotations

from abc import abstractmethod
from typing import Callable, ClassVar, FrozenSet, List, Optional

from repro.replication.filters import AddressFilter, Filter, MultiAddressFilter
from repro.replication.items import ATTR_KIND, KIND_MESSAGE, Item
from repro.replication.replica import Replica
from repro.replication.routing import (
    NORMAL_PRIORITY,
    Priority,
    PriorityClass,
    RoutingPolicy,
    SyncContext,
)

AddressProvider = Callable[[], FrozenSet[str]]


def filter_addresses(filter_: Filter) -> FrozenSet[str]:
    """Extract the address set a filter answers to, where structurally known."""
    if isinstance(filter_, AddressFilter):
        return frozenset((filter_.address,))
    if isinstance(filter_, MultiAddressFilter):
        return frozenset(filter_.addresses)
    return frozenset()


class DTNPolicy(RoutingPolicy):
    """Routing policy bound to a host replica.

    Subclasses read :attr:`replica` for store access and call
    :meth:`local_addresses` for the host's current address set. ``bind`` is
    invoked by the node/emulation layer when the policy is attached; using
    an unbound policy in a sync raises immediately rather than misrouting.
    """

    def __init__(self) -> None:
        self._replica: Optional[Replica] = None
        self._addresses: Optional[AddressProvider] = None

    def bind(
        self, replica: Replica, addresses: Optional[AddressProvider] = None
    ) -> "DTNPolicy":
        """Attach this policy to its host. Returns self for chaining."""
        self._replica = replica
        self._addresses = addresses
        return self

    @property
    def replica(self) -> Replica:
        if self._replica is None:
            raise RuntimeError(f"{type(self).__name__} is not bound to a replica")
        return self._replica

    @property
    def is_bound(self) -> bool:
        return self._replica is not None

    def local_addresses(self) -> FrozenSet[str]:
        """Addresses this host currently answers to.

        Falls back to structural inspection of the replica's filter when no
        provider was supplied at bind time.
        """
        if self._addresses is not None:
            return self._addresses()
        return filter_addresses(self.replica.filter)

    # -- persistence (paper §V-A requirement 1) -----------------------------------

    def persistent_state(self) -> dict:
        """The policy's routing state, as a JSON-representable dict.

        Section V-A: "DTN routing policies can define persistent data
        structures which are serialized to disk and retrieved whenever a
        synchronization operation is invoked." The default is empty —
        Epidemic's and Spray-and-Wait's per-copy state lives on the items
        themselves and persists with the replica's stores.
        """
        return {}

    def restore_state(self, state: dict) -> None:
        """Restore routing state from :meth:`persistent_state` output."""

    # -- shared helpers ---------------------------------------------------------

    @staticmethod
    def is_routable_message(item: Item) -> bool:
        """True for live application messages (not tombstones, not acks)."""
        kind = item.attributes.get(ATTR_KIND, KIND_MESSAGE)  # ``item.kind``
        return not item.deleted and kind == KIND_MESSAGE

    @staticmethod
    def normal(cost: float = 0.0) -> Priority:
        if not cost:
            return NORMAL_PRIORITY  # a frozen value: one instance serves all
        return Priority(PriorityClass.NORMAL, cost)


class CopyBudgetPolicy(DTNPolicy):
    """A protocol whose whole state is one integer per stored copy.

    Epidemic's TTL and Spray and Wait's copy count are one mechanism
    (Table I): a host-local budget, stamped with :attr:`initial` on the
    stored copy the first time :meth:`to_send` considers it (through
    ``adjust_local``, so the item never looks updated). A subclass
    declares only its rules: :attr:`attribute`, the budget's key;
    :attr:`least_forwarded`, the smallest budget forwarded;
    :meth:`shipped`; and :attr:`kept`, the stored budget after a
    confirmed send (``None``: a send leaves it as it is). The columnar
    engine runs the same rules on its flat columns.
    """

    attribute: ClassVar[str]
    least_forwarded: ClassVar[int]
    kept: Optional[Callable[[int], int]] = None

    def __init__(self, initial: int, keyword: str) -> None:
        super().__init__()
        if initial < 1:
            raise ValueError(f"{keyword} must be >= 1")
        self.initial = initial

    @abstractmethod
    def shipped(self, budget: Optional[int]) -> int:
        """The budget a sent copy carries; ``budget`` is the stored one."""

    def to_send(
        self, item: Item, target_filter: Filter, context: SyncContext
    ) -> Optional[Priority]:
        if not self.is_routable_message(item):
            return None
        budget = item.local_attributes.get(self.attribute)
        if budget is None:
            budget = self.initial
            self.replica.adjust_local(item.with_local(**{self.attribute: budget}))
        return self.normal() if budget >= self.least_forwarded else None

    def refuses_for_good(self, item: Item) -> bool:
        """A non-message, or a stamped budget below :attr:`least_forwarded`
        (Spray's wait phase, Epidemic's TTL 0): only ``adjust_local``
        changes a budget, and that replaces the copy."""
        budget = item.local_attributes.get(self.attribute)
        return not self.is_routable_message(item) or (
            budget is not None and budget < self.least_forwarded
        )

    def prepare_outgoing(self, item: Item, context: SyncContext) -> Item:
        """The wire copy carries :meth:`shipped` of the stored budget."""
        stored = self.replica.get_item(item.item_id)
        budget = None if stored is None else stored.local(self.attribute)
        return item.wire_copy(**{self.attribute: self.shipped(budget)})

    def on_items_sent(self, items: List[Item], context: SyncContext) -> None:
        """Rewrite the stored budget of every confirmed send to :attr:`kept`.
        A send a faulty transport lost never reaches this hook, so no
        budget is spent without a replica receiving it."""
        kept = self.kept
        if kept is None:
            return
        for sent in items:
            stored = self.replica.get_item(sent.item_id)
            if stored is None or stored.version != sent.version:
                continue
            budget = stored.local(self.attribute)
            if budget is not None and kept(budget) != budget:
                self.replica.adjust_local(
                    stored.with_local(**{self.attribute: kept(budget)})
                )
