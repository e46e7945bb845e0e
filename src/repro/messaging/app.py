"""The DTN messaging application built on the replication substrate.

Section IV-A of the paper: "To send a message, a host creates an item
representing the message and submits it to the replication layer. Each
host's filter ... is set to select the messages addressed to it. Hosts
synchronize when connections become available, and eventual consistency
guarantees that each message is delivered." This module is that
application — deliberately thin, because the substrate does the work.

A :class:`MessagingApp` wraps one replica. It watches the replica's store
events; when an item addressed to one of the host's *current* addresses
arrives (including the filter-change path, when a user boards a new bus and
relayed mail starts matching), it records a delivery exactly once per
message and invokes any registered delivery callbacks.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

from repro.replication.events import BaseReplicaObserver
from repro.replication.ids import ItemId
from repro.replication.items import Item
from repro.replication.replica import Replica
from repro.replication.routing import AddressProvider

from .message import Message

DeliveryCallback = Callable[[Message], None]


class _StoreWatcher(BaseReplicaObserver):
    def __init__(self, app: "MessagingApp") -> None:
        self._app = app

    def on_store(self, item: Item, matched_filter: bool) -> None:
        if matched_filter:
            self._app._consider_delivery(item)


class MessagingApp:
    """Send and receive messages through a replica.

    ``addresses`` tells the app which addresses this host answers to right
    now (a host may carry several users, and the set may change over time);
    only items destined to a current address count as deliveries, even
    though a multi-address filter also pulls in relayed mail.
    """

    def __init__(
        self,
        replica: Replica,
        addresses: AddressProvider,
        delete_on_receipt: bool = False,
    ) -> None:
        self.replica = replica
        self._addresses = addresses
        self.delete_on_receipt = delete_on_receipt
        self._delivered: Dict[ItemId, Message] = {}
        self._callbacks: List[DeliveryCallback] = []
        replica.register_observer(_StoreWatcher(self))

    # -- sending ------------------------------------------------------------------

    def send(self, destination: str, body: Any, now: float = 0.0) -> Message:
        """Create and submit a message addressed to ``destination``.

        The source address recorded on the message is the host's primary
        (first, sorted) current address.
        """
        addresses = sorted(self._addresses())
        source = addresses[0] if addresses else self.replica.replica_id.name
        item = self.replica.create_item(
            payload=body,
            attributes=Message.attributes_for(source, destination, now),
        )
        message = Message.from_item(item)
        assert message is not None
        return message

    def send_from(
        self, source: str, destination: str, body: Any, now: float = 0.0
    ) -> Message:
        """Send with an explicit source address (a specific local user)."""
        item = self.replica.create_item(
            payload=body,
            attributes=Message.attributes_for(source, destination, now),
        )
        message = Message.from_item(item)
        assert message is not None
        return message

    # -- receiving -------------------------------------------------------------------

    def on_delivery(self, callback: DeliveryCallback) -> None:
        """Register a callback fired once per delivered message."""
        self._callbacks.append(callback)

    @property
    def delivered_messages(self) -> List[Message]:
        """Messages delivered to this host, in delivery order."""
        return list(self._delivered.values())

    def has_received(self, message_id: ItemId) -> bool:
        return message_id in self._delivered

    def delivery_log(self) -> Dict[ItemId, Message]:
        """Snapshot of the delivered-message log, in delivery order.

        The log is application-durable state: a host that checkpoints and
        restarts must not re-announce old deliveries, so the node layer
        saves this alongside the replica and feeds it back through
        :meth:`restore_delivery_log`.
        """
        return dict(self._delivered)

    def restore_delivery_log(self, log: Dict[ItemId, Message]) -> None:
        """Restore a :meth:`delivery_log` snapshot (no callbacks fire)."""
        self._delivered.update(log)

    # -- internals ----------------------------------------------------------------------

    def _consider_delivery(self, item: Item) -> None:
        message = Message.from_item(item)
        if message is None:
            return
        if message.destination not in self._addresses():
            return
        if item.item_id in self._delivered:
            return
        self._delivered[item.item_id] = message
        for callback in self._callbacks:
            callback(message)
        if self.delete_on_receipt:
            # The paper's cleanup flow: the destination deletes the item,
            # and the tombstone's spread discards forwarded copies.
            self.replica.delete_item(item.item_id)
