"""Shared test fixtures and factories."""

from __future__ import annotations

import itertools

import pytest

from repro.replication import (
    AddressFilter,
    Item,
    ItemId,
    Replica,
    ReplicaId,
    SyncEndpoint,
    Version,
)

_COUNTER = itertools.count()


def make_replica_id(name: str = "node") -> ReplicaId:
    return ReplicaId(name)


def make_version(replica: str = "origin", counter: int = 1) -> Version:
    return Version(ReplicaId(replica), counter)


def make_item(
    destination: str = "alice",
    source: str = "bob",
    payload: object = "hello",
    replica: str = "origin",
    counter: int | None = None,
    serial: int | None = None,
    **extra_attributes,
) -> Item:
    """A standalone message-like item with fresh identity."""
    unique = next(_COUNTER)
    origin = ReplicaId(replica)
    return Item(
        item_id=ItemId(origin, serial if serial is not None else unique),
        version=Version(origin, counter if counter is not None else unique + 1),
        payload=payload,
        attributes={
            "destination": destination,
            "source": source,
            **extra_attributes,
        },
    )


@pytest.fixture
def alice() -> Replica:
    return Replica(ReplicaId("alice"), AddressFilter("alice"))


@pytest.fixture
def bob() -> Replica:
    return Replica(ReplicaId("bob"), AddressFilter("bob"))


@pytest.fixture
def carol() -> Replica:
    return Replica(ReplicaId("carol"), AddressFilter("carol"))


def endpoint(replica: Replica, policy=None) -> SyncEndpoint:
    if policy is None:
        return SyncEndpoint(replica)
    return SyncEndpoint(replica, policy)
