"""The copy-budget policy family shared by Epidemic and Spray and Wait.

Every policy subclasses the platform's
:class:`~repro.replication.routing.RoutingPolicy`, which also binds it to
its host replica and address provider. :class:`CopyBudgetPolicy` is the
one extra layer the bundled protocols share: a host-local integer budget
per stored copy.
"""

from __future__ import annotations

from abc import abstractmethod
from typing import Callable, ClassVar, List, Optional

from repro.replication.filters import Filter
from repro.replication.items import Item
from repro.replication.routing import Priority, RoutingPolicy, SyncContext


class CopyBudgetPolicy(RoutingPolicy):
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
