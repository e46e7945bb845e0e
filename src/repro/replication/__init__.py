"""Peer-to-peer filtered replication (PFR) substrate.

This package is a from-scratch Python implementation of the externally
visible behaviour of Cimbiosys (Ramasubramanian et al., NSDI'09) as used by
"Peer-to-peer Data Replication Meets Delay Tolerant Networking"
(ICDCS 2011): versioned items, content-based filters, version-vector
knowledge, pairwise synchronisation with eventual filter consistency and
at-most-once delivery, and the pluggable DTN routing-policy extension from
Section V of the paper.

Typical use::

    from repro.replication import (
        Replica, ReplicaId, AddressFilter, SyncEndpoint, EncounterSession,
    )

    alice = Replica(ReplicaId("alice"), AddressFilter("alice"))
    bob = Replica(ReplicaId("bob"), AddressFilter("bob"))
    alice.create_item("hi bob", {"destination": "bob"})
    EncounterSession(first=SyncEndpoint(alice), second=SyncEndpoint(bob)).run()
    assert any(i.payload == "hi bob" for i in bob.stored_items())
"""

from .codec import (
    CodecError,
    decode_batch_entry,
    decode_batch_frame,
    decode_filter,
    decode_item,
    decode_knowledge,
    decode_sync_request,
    encode_batch_entry,
    encode_batch_frame,
    encode_filter,
    encode_item,
    encode_knowledge,
    encode_sync_request,
    knowledge_wire_size,
    register_routing_codec,
    wire_size,
)
from .integrity import (
    VIOLATION_CHECKSUM_MISMATCH,
    VIOLATION_KINDS,
    VIOLATION_KNOWLEDGE_FABRICATION,
    VIOLATION_MALFORMED_ENTRY,
    VIOLATION_REPLAY,
    VIOLATION_VERSION_CONFLICT,
    ProtocolViolation,
    frame_checksum,
    item_checksum,
)
from .peer_health import (
    HEALTHY,
    PEER_STATES,
    QUARANTINED,
    SUSPECT,
    PeerHealthTracker,
    PeerRecord,
)
from .persistence import (
    checkpoint_lines,
    load_replica,
    replica_from_lines,
    save_replica,
)
from .errors import (
    DuplicateDeliveryError,
    InvalidFilterError,
    PolicyError,
    ReplicationError,
    SyncProtocolError,
    UnknownItemError,
)
from .events import BaseReplicaObserver, ObserverList, ReplicaObserver
from .filters import (
    AddressFilter,
    AllFilter,
    AndFilter,
    AttributeFilter,
    Filter,
    MultiAddressFilter,
    NotFilter,
    NothingFilter,
    OrFilter,
)
from .ids import IdFactory, ItemId, ReplicaId, Version
from .items import (
    ATTR_CREATED_AT,
    ATTR_DESTINATION,
    ATTR_KIND,
    ATTR_SOURCE,
    KIND_ACK,
    KIND_MESSAGE,
    KIND_TOMBSTONE,
    Item,
)
from .replica import Replica
from .routing import (
    NORMAL_PRIORITY,
    DirectDeliveryPolicy,
    Priority,
    PriorityClass,
    RoutingPolicy,
    SyncContext,
)
from .session import (
    EncounterSession,
    SessionConfig,
    SyncSession,
    Transport,
    monotone_knowledge,
)
from .store import ItemStore, RelayStore
from .sync import (
    BatchEntry,
    SyncEndpoint,
    SyncRequest,
    SyncStats,
    build_batch,
    build_request,
    validate_request_knowledge,
)
from .versions import VersionVector

__all__ = [
    "ATTR_CREATED_AT",
    "ATTR_DESTINATION",
    "ATTR_KIND",
    "ATTR_SOURCE",
    "AddressFilter",
    "AllFilter",
    "AndFilter",
    "AttributeFilter",
    "BaseReplicaObserver",
    "BatchEntry",
    "CodecError",
    "DirectDeliveryPolicy",
    "DuplicateDeliveryError",
    "EncounterSession",
    "Filter",
    "HEALTHY",
    "IdFactory",
    "InvalidFilterError",
    "Item",
    "ItemId",
    "ItemStore",
    "KIND_ACK",
    "KIND_MESSAGE",
    "KIND_TOMBSTONE",
    "MultiAddressFilter",
    "NORMAL_PRIORITY",
    "NotFilter",
    "NothingFilter",
    "ObserverList",
    "OrFilter",
    "PEER_STATES",
    "PeerHealthTracker",
    "PeerRecord",
    "PolicyError",
    "Priority",
    "ProtocolViolation",
    "PriorityClass",
    "QUARANTINED",
    "RelayStore",
    "Replica",
    "ReplicaId",
    "ReplicaObserver",
    "ReplicationError",
    "RoutingPolicy",
    "SUSPECT",
    "SessionConfig",
    "SyncContext",
    "SyncEndpoint",
    "SyncProtocolError",
    "SyncRequest",
    "SyncSession",
    "SyncStats",
    "Transport",
    "UnknownItemError",
    "VIOLATION_CHECKSUM_MISMATCH",
    "VIOLATION_KINDS",
    "VIOLATION_KNOWLEDGE_FABRICATION",
    "VIOLATION_MALFORMED_ENTRY",
    "VIOLATION_REPLAY",
    "VIOLATION_VERSION_CONFLICT",
    "Version",
    "VersionVector",
    "build_batch",
    "build_request",
    "checkpoint_lines",
    "decode_batch_entry",
    "decode_batch_frame",
    "decode_filter",
    "decode_item",
    "decode_knowledge",
    "decode_sync_request",
    "encode_batch_entry",
    "encode_batch_frame",
    "encode_filter",
    "encode_item",
    "encode_knowledge",
    "encode_sync_request",
    "frame_checksum",
    "item_checksum",
    "knowledge_wire_size",
    "load_replica",
    "monotone_knowledge",
    "register_routing_codec",
    "replica_from_lines",
    "save_replica",
    "validate_request_knowledge",
    "wire_size",
]
