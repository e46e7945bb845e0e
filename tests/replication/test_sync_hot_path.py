"""Tests for the version-indexed batch builder and its partial sort.

Two equivalences underpin the hot-path optimisation and both are load
bearing for reproducibility (the evaluation figures must not move):

* ``build_batch`` must offer exactly the stored items a full scan through
  ``knowledge.contains`` would (the randomized store histories live in
  ``tests/integration/test_sync_index_equivalence.py``);
* truncation under a bandwidth cap uses ``heapq.nsmallest`` and must pick
  exactly the prefix a stable full sort followed by a slice would — ties
  inside a priority band resolve by enumeration order either way.
"""

import random
from typing import Optional

import pytest

from repro.replication import (
    Replica,
    ReplicaId,
    SyncEndpoint,
    SyncSession,
    codec,
)
from repro.replication.filters import AddressFilter, AllFilter
from repro.replication.routing import (
    Priority,
    PriorityClass,
    RoutingPolicy,
    SyncContext,
)
from repro.replication.sync import BatchEntry, build_batch, build_request
from tests.conftest import make_item


class BandPolicy(RoutingPolicy):
    """Forwards everything, priority band taken from the item's ``band``
    attribute — many items share a band, producing the tie-heavy batches
    the truncation equivalence test needs."""

    name = "band"

    _BANDS = (PriorityClass.HIGH, PriorityClass.NORMAL, PriorityClass.LOW)

    def to_send(
        self, item, target_filter, context: SyncContext
    ) -> Optional[Priority]:
        return Priority(self._BANDS[item.attribute("band") % len(self._BANDS)])


def populated_source(n_items: int, seed: int = 0) -> SyncEndpoint:
    """A source holding ``n_items`` remote items, none addressed to 'target'."""
    rng = random.Random(seed)
    replica = Replica(ReplicaId("src"), AllFilter())
    for index in range(n_items):
        replica.apply_remote(
            make_item(destination=f"user-{index % 4}", band=rng.randrange(3))
        )
    return SyncEndpoint(replica, BandPolicy())


def target_request():
    target = SyncEndpoint(Replica(ReplicaId("target"), AddressFilter("target")))
    context = SyncContext(
        local=target.replica_id, remote=ReplicaId("src"), now=0.0
    )
    return build_request(target, context)


def source_context(source: SyncEndpoint) -> SyncContext:
    return SyncContext(
        local=source.replica_id, remote=ReplicaId("target"), now=0.0
    )


class TestTruncationPrefix:
    @pytest.mark.parametrize("seed", range(5))
    def test_nsmallest_picks_the_sort_then_slice_prefix(self, seed):
        source = populated_source(40, seed=seed)
        request = target_request()
        context = source_context(source)
        full, _ = build_batch(source, request, context)
        assert len(full) == 40
        # The uncapped batch is the stable full sort; every cap must yield
        # exactly its prefix, despite going through the partial sort.
        for cap in (1, 3, 7, 20, 39, 40, 100):
            capped, stats = build_batch(source, request, context, max_items=cap)
            assert capped == full[:cap]
            assert stats.truncated == max(0, len(full) - cap)

    def test_cap_zero_sends_nothing(self):
        source = populated_source(8)
        batch, stats = build_batch(
            source, target_request(), source_context(source), max_items=0
        )
        assert batch == []
        assert stats.truncated == 8


class TestIndexedCandidates:
    @pytest.mark.parametrize("seed", range(5))
    def test_partially_known_target_shrinks_candidates(self, seed):
        source = populated_source(20, seed=seed)
        request = target_request()
        context = source_context(source)
        # Target learns 12 of the items out of band.
        stored = list(source.replica.stored_items())
        for item in random.Random(seed).sample(stored, 12):
            request.knowledge.add(item.version)
        batch, stats = build_batch(source, request, context)
        assert stats.store_size == 20
        assert stats.candidates == 8
        assert stats.index_skipped == 12
        # BandPolicy forwards everything, so the batch is the brute-force
        # scan's answer in store order, stably sorted by priority band —
        # entry for entry, and its prefix under a cap.
        scanned = [
            item for item in stored if not request.knowledge.contains(item.version)
        ]
        expected = sorted(
            scanned,
            key=lambda item: source.policy.to_send(
                item, request.filter, context
            ).sort_key(),
        )
        assert [entry.item for entry in batch] == expected
        for cap in (3, 5):
            capped, capped_stats = build_batch(
                source, request, context, max_items=cap
            )
            assert [entry.item for entry in capped] == expected[:cap]
            assert capped_stats.truncated == 8 - cap


class TestKnowledgeSizeIsARead:
    def test_no_knowledge_encoding_across_100_sync_cycles(self, monkeypatch):
        """``metadata_bytes`` is charged at every sync; sizing the request
        must read the vector's running total, never encode it."""
        encode_knowledge = codec.encode_knowledge

        def encoded(vector):
            raise AssertionError("knowledge was encoded on the sync path")

        monkeypatch.setattr(codec, "encode_knowledge", encoded)
        left = SyncEndpoint(Replica(ReplicaId("left"), AllFilter()))
        right = SyncEndpoint(Replica(ReplicaId("right"), AllFilter()))
        for cycle in range(100):
            source, target = (left, right) if cycle % 2 else (right, left)
            source.replica.create_item(payload=cycle, attributes={})
            expected = codec.wire_size(
                encode_knowledge(target.replica.knowledge)
            )
            stats = SyncSession(source=source, target=target).run()
            assert stats.sent_total == 1
            assert stats.metadata_bytes == expected
        assert left.replica.knowledge == right.replica.knowledge


class TestSlottedHotPathTypes:
    def test_batch_entry_and_priority_have_no_dict(self):
        entry = BatchEntry(make_item(), True, Priority(PriorityClass.NORMAL))
        assert not hasattr(entry, "__dict__")
        assert not hasattr(entry.priority, "__dict__")

    def test_priority_stays_frozen(self):
        priority = Priority(PriorityClass.NORMAL)
        with pytest.raises(Exception):
            priority.cost = 1.0
