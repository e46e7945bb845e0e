"""An emulated host: replica + messaging app + routing policy + addresses.

Each DieselNet bus becomes one :class:`EmulatedNode`. The node owns:

* its replica (with an optional relay-store cap — the Figure 10 storage
  constraint),
* its messaging app (delivery accounting),
* its routing policy instance (bound to the replica and to the node's
  dynamic address set),
* its **address set** — the node's own address plus the user addresses
  currently assigned to it (the paper re-distributes users over active
  buses every day) plus any static relay addresses from a Figure 5/6
  filter strategy.

Changing the address set rewrites the replica's filter; the replica's
filter-change logic promotes already-relayed items into the in-filter
store, which the app observes as deliveries — exactly the "user boards a
bus that already carries their mail" case.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, FrozenSet, Iterable, Optional

from repro.messaging.app import MessagingApp
from repro.replication.filters import MultiAddressFilter
from repro.replication.ids import ReplicaId
from repro.replication.persistence import (
    amnesiac_replica_state,
    replica_from_state,
    replica_to_state,
)
from repro.replication.replica import Replica
from repro.replication.routing import RoutingPolicy
from repro.replication.sync import SyncEndpoint


class EmulatedNode:
    """One host participating in the emulation."""

    def __init__(
        self,
        name: str,
        policy: RoutingPolicy,
        relay_capacity: Optional[int] = None,
        relay_eviction: str = "fifo",
        static_relay_addresses: Iterable[str] = (),
        delete_on_receipt: bool = False,
        policy_factory: Optional[Callable[[], RoutingPolicy]] = None,
        serves_at_most: Optional[int] = None,
    ) -> None:
        self.name = name
        self._assigned_addresses: FrozenSet[str] = frozenset()
        self._static_relay: FrozenSet[str] = frozenset(static_relay_addresses)
        self.delete_on_receipt = delete_on_receipt
        #: How to build a pristine policy instance for an amnesiac
        #: restart (the old instance's routing state is exactly what an
        #: amnesia event is supposed to destroy). Optional: nodes in
        #: churn-free runs never need one.
        self.policy_factory = policy_factory
        #: The most items this node serves per sync (a free rider's
        #: cap), set on every endpoint it builds; ``None`` is honest.
        self.serves_at_most = serves_at_most
        self.replica = Replica(
            ReplicaId(name),
            self._build_filter(),
            relay_capacity=relay_capacity,
            relay_eviction=relay_eviction,
        )
        self.policy = policy.bind(self.replica, self.addresses)
        self.app = MessagingApp(
            self.replica, self.addresses, delete_on_receipt=delete_on_receipt
        )
        self.endpoint = SyncEndpoint(self.replica, self.policy, serves_at_most)

    # -- addressing ---------------------------------------------------------------

    def addresses(self) -> FrozenSet[str]:
        """Addresses this node currently answers to (own + assigned users).

        Static relay addresses are *not* included: the node carries mail
        for them (its filter matches) but is not their destination.
        """
        return self._assigned_addresses | {self.name}

    @property
    def static_relay_addresses(self) -> FrozenSet[str]:
        return self._static_relay

    def assign_addresses(self, addresses: Iterable[str]) -> None:
        """Set the user addresses hosted here (a day-boundary reassignment)."""
        new = frozenset(addresses)
        if new == self._assigned_addresses:
            return
        self._assigned_addresses = new
        self.replica.set_filter(self._build_filter())

    def _build_filter(self) -> MultiAddressFilter:
        return MultiAddressFilter(
            own_address=self.name,
            relay_addresses=self._assigned_addresses | self._static_relay,
        )

    # -- restarts -----------------------------------------------------------------------

    def adopt(
        self,
        replica: Replica,
        policy_state: Optional[Dict[str, Any]] = None,
        delivery_log: Optional[Dict[Any, Any]] = None,
    ) -> "EmulatedNode":
        """Come back up on a restored ``replica``: the one rewire every
        restart shares, simulated or a real process booting from disk.

        The hosted-user set is re-derived from the restored filter, so a
        later reassignment makes the same no-op/rebuild decision whether
        the node object lived through the crash or was built afresh:
        every relay address that is not a static one is a hosted user,
        and one that is both stays hosted only if this object already
        knew it was (a checkpoint records the filter, not the
        assignment). The policy is re-bound and reloads ``policy_state``
        (paper §V-A: routing state is serialised to disk); the app is
        recreated, with ``delivery_log`` when one survived so old
        deliveries are not re-announced. Observers on the previous
        replica and app are gone — whoever wires metrics re-attaches.
        """
        self.replica = replica
        restored = replica.filter
        if isinstance(restored, MultiAddressFilter):
            relay = restored.relay_addresses
            self._assigned_addresses = (relay - self._static_relay) | (
                relay & self._assigned_addresses
            )
        self.policy.bind(replica, self.addresses)
        if policy_state is not None:
            self.policy.restore_state(policy_state)
        self.app = MessagingApp(
            replica, self.addresses, delete_on_receipt=self.delete_on_receipt
        )
        if delivery_log is not None:
            self.app.restore_delivery_log(delivery_log)
        self.endpoint = SyncEndpoint(replica, self.policy, self.serves_at_most)
        return self

    def crash_restart(self) -> "EmulatedNode":
        """Simulate a crash + reboot: only durable state survives.

        The replica and the policy's ``persistent_state()`` go through
        the persistence layer with a JSON round-trip, exactly what disk
        storage would impose; the delivery log is durable too.
        """
        replica_state = json.loads(json.dumps(replica_to_state(self.replica)))
        policy_state = json.loads(json.dumps(self.policy.persistent_state()))
        return self.adopt(
            replica_from_state(replica_state),
            policy_state,
            self.app.delivery_log(),
        )

    def amnesiac_restart(self) -> "EmulatedNode":
        """Reboot after losing all local state except identity.

        The replica comes back with empty stores and knowledge but the
        *preserved* id-factory counters (see
        :func:`~repro.replication.persistence.amnesiac_replica_state` —
        reusing serials would collide with still-circulating copies of
        forgotten items). The routing policy is rebuilt from scratch via
        ``policy_factory`` and the messaging app restarts with an empty
        delivery log: previously delivered messages will be announced
        again if they arrive again, which is what losing the log means.
        """
        if self.policy_factory is None:
            raise ValueError(
                f"node {self.name!r} has no policy_factory; an amnesiac "
                "restart needs one to rebuild its routing policy"
            )
        state = json.loads(
            json.dumps(amnesiac_replica_state(replica_to_state(self.replica)))
        )
        self.policy = self.policy_factory()
        return self.adopt(replica_from_state(state))

    # -- convenience ------------------------------------------------------------------

    def send(self, source: str, destination: str, body: object, now: float):
        """Inject a message from a hosted user."""
        return self.app.send_from(source, destination, body, now=now)

    def holds_message(self, item_id) -> bool:
        """True if a live (non-tombstone) copy is stored here."""
        item = self.replica.get_item(item_id)
        return item is not None and not item.deleted

    def __repr__(self) -> str:
        return f"EmulatedNode({self.name}, users={sorted(self._assigned_addresses)})"
