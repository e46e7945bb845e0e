"""Message representation for the DTN application.

A :class:`Message` is the application-level view of a replicated item: the
payload plus the addressing metadata that the substrate's filters route by.
The mapping is the paper's Section IV-A design — "messages are the data
items that are replicated between nodes":

====================  ============================================
Message field         Item representation
====================  ============================================
``source``            replicated attribute ``source``
``destination``       replicated attribute ``destination``
``created_at``        replicated attribute ``created_at``
``body``              item payload
(message identity)    the item id
====================  ============================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.replication.ids import ItemId
from repro.replication.items import (
    ATTR_CREATED_AT,
    ATTR_DESTINATION,
    ATTR_KIND,
    ATTR_SOURCE,
    KIND_MESSAGE,
    Item,
)


@dataclass(frozen=True)
class Message:
    """One application message, as sent or received, to one recipient."""

    message_id: ItemId
    source: str
    destination: str
    body: Any
    created_at: float

    @classmethod
    def attributes_for(
        cls, source: str, destination: str, created_at: float
    ) -> Dict[str, Any]:
        """The replicated attribute dict for a new message item."""
        return {
            ATTR_KIND: KIND_MESSAGE,
            ATTR_SOURCE: source,
            ATTR_DESTINATION: destination,
            ATTR_CREATED_AT: created_at,
        }

    @classmethod
    def from_item(cls, item: Item) -> Optional["Message"]:
        """Decode an item into a message; None for non-message items and
        for a source or destination that is not one address."""
        if item.deleted or item.attribute(ATTR_KIND, KIND_MESSAGE) != KIND_MESSAGE:
            return None
        source = item.attribute(ATTR_SOURCE)
        destination = item.attribute(ATTR_DESTINATION)
        if not isinstance(source, str) or not isinstance(destination, str):
            return None
        return cls(
            message_id=item.item_id,
            source=source,
            destination=destination,
            body=item.payload,
            created_at=float(item.attribute(ATTR_CREATED_AT, 0.0)),
        )
