"""Unit tests for content checksums and typed protocol violations."""

import dataclasses

import pytest

from repro.replication.ids import ItemId, ReplicaId, Version
from repro.replication.integrity import (
    VIOLATION_CHECKSUM_MISMATCH,
    VIOLATION_KINDS,
    ProtocolViolation,
    frame_checksum,
    item_checksum,
)
from repro.replication.items import Item


def make_item(
    payload="hello",
    serial=1,
    counter=1,
    attributes=None,
    local_attributes=None,
    deleted=False,
):
    origin = ReplicaId("alice")
    return Item(
        item_id=ItemId(origin, serial),
        version=Version(origin, counter),
        payload=payload,
        attributes=attributes or {"destination": "bob"},
        local_attributes=local_attributes or {},
        deleted=deleted,
    )


class TestItemChecksum:
    def test_deterministic(self):
        assert item_checksum(make_item()) == item_checksum(make_item())

    def test_fixed_hex_length(self):
        digest = item_checksum(make_item())
        assert len(digest) == 16
        int(digest, 16)  # hex

    def test_payload_changes_checksum(self):
        assert item_checksum(make_item(payload="a")) != item_checksum(
            make_item(payload="b")
        )

    def test_attributes_change_checksum(self):
        assert item_checksum(
            make_item(attributes={"destination": "bob"})
        ) != item_checksum(make_item(attributes={"destination": "carol"}))

    def test_version_changes_checksum(self):
        assert item_checksum(make_item(counter=1)) != item_checksum(
            make_item(counter=2)
        )

    def test_deleted_flag_changes_checksum(self):
        assert item_checksum(make_item(deleted=False)) != item_checksum(
            make_item(deleted=True)
        )

    def test_local_attributes_excluded(self):
        """Relay hops legitimately rewrite host-local attributes (TTLs,
        copy budgets); the checksum must survive that."""
        plain = make_item()
        relayed = make_item(local_attributes={"ttl": 3, "hops": ("n1", "n2")})
        assert item_checksum(plain) == item_checksum(relayed)

    def test_non_json_payload_does_not_crash(self):
        exotic = make_item(payload=object())
        assert item_checksum(exotic) == item_checksum(make_item(payload=object()))
        assert exotic is not None

    def test_digests_are_pinned(self):
        """Literal digests computed at 1c9c458, when every call built its
        own encoder through ``json.dumps``: the hoisted module-level
        encoder must serialise byte for byte the same."""
        assert item_checksum(make_item()) == "1d12483a2cb46d88"
        assert (
            item_checksum(make_item(payload=None, deleted=True))
            == "fc854fdecff2278a"
        )
        # Not JSON-representable: goes through ``_opaque``.
        assert item_checksum(make_item(payload=object())) == "675a7f78d000358f"
        # Nested, unsorted keys, a float, a null and a non-ASCII string.
        assert (
            item_checksum(make_item(payload={"b": [1, 2.5, None], "a": "é"}))
            == "7bbea3e2ce312df9"
        )


class TestFrameChecksum:
    def test_deterministic(self):
        assert frame_checksum(["a", "b"]) == frame_checksum(["a", "b"])

    def test_order_sensitive(self):
        assert frame_checksum(["a", "b"]) != frame_checksum(["b", "a"])

    def test_accepts_generators(self):
        assert frame_checksum(iter(["a", "b"])) == frame_checksum(["a", "b"])


class TestProtocolViolation:
    def test_fields(self):
        violation = ProtocolViolation(
            kind=VIOLATION_CHECKSUM_MISMATCH,
            peer="mallory",
            observer="alice",
            detail="item x failed its checksum",
        )
        assert violation.kind in VIOLATION_KINDS
        assert violation.peer == "mallory"
        assert violation.observer == "alice"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown violation kind"):
            ProtocolViolation(kind="nonsense", peer="a", observer="b")

    def test_frozen(self):
        violation = ProtocolViolation(
            kind=VIOLATION_CHECKSUM_MISMATCH, peer="a", observer="b"
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            violation.peer = "c"
