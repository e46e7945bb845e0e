"""Replica event callbacks.

The messaging application and the emulation's metrics collector both need
to observe what happens inside a replica — most importantly the moment an
item *matching the replica's filter* first arrives (a delivery, in DTN
terms). Rather than having the replica know about applications, it exposes
a small observer interface.

Observers must be cheap and must not mutate the replica re-entrantly during
a sync; they are notification hooks, not extension points (DTN routing
extension goes through :mod:`repro.replication.routing` instead).
"""

from __future__ import annotations

from typing import Protocol

from .items import Item


class ReplicaObserver(Protocol):
    """Receives notifications about a replica's store activity.

    All methods have default-compatible no-op semantics; implement only the
    ones you care about (see :class:`BaseReplicaObserver`).
    """

    def on_store(self, item: Item, matched_filter: bool) -> None:
        """An item version was written to a store.

        ``matched_filter`` is True when the item landed in the in-filter
        store (for the messaging app this is a *delivery* if the replica is
        a destination), False when it landed in the relay store.
        """

    def on_evict(self, item: Item) -> None:
        """A relayed item was evicted under storage pressure."""


class BaseReplicaObserver:
    """No-op observer; subclass and override what you need."""

    def on_store(self, item: Item, matched_filter: bool) -> None:  # noqa: D102
        pass

    def on_evict(self, item: Item) -> None:  # noqa: D102
        pass


class EvictionCounter(BaseReplicaObserver):
    """Counts the evictions of the replicas it observes: ``count`` in all,
    :meth:`drain` those not yet drained, for an executor to book."""

    def __init__(self) -> None:
        self.count = 0
        self._drained = 0

    def on_evict(self, item: Item) -> None:
        self.count += 1

    def drain(self) -> int:
        fresh, self._drained = self.count - self._drained, self.count
        return fresh


class ObserverList(BaseReplicaObserver):
    """Fans notifications out to a list of observers, in registration order."""

    def __init__(self) -> None:
        self._observers: list[ReplicaObserver] = []

    def register(self, observer: ReplicaObserver) -> None:
        self._observers.append(observer)

    def on_store(self, item: Item, matched_filter: bool) -> None:
        for observer in self._observers:
            observer.on_store(item, matched_filter)

    def on_evict(self, item: Item) -> None:
        for observer in self._observers:
            observer.on_evict(item)
