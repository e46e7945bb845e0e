"""Unit tests for the adversarial fault draws and their transport wiring."""

import random

import pytest

from repro.faults import (
    CORRUPTED_PAYLOAD,
    REPLAY_POOL_LIMIT,
    FaultConfig,
    FaultInjector,
    FaultyTransport,
)
from repro.faults.models import (
    FABRICATION_MAX_INFLATION,
    REPLAY_MAX_ENTRIES,
    inflate_by,
    mask,
    plan_replay,
)
from repro.replication import (
    AddressFilter,
    Replica,
    ReplicaId,
    SyncEndpoint,
)
from repro.replication.integrity import item_checksum
from repro.replication.ids import Version
from repro.replication.routing import SyncContext
from repro.replication.sync import BatchEntry, build_batch, build_request


def make_batch(count=3, source_name="bob", target_name="alice"):
    source = SyncEndpoint(
        Replica(ReplicaId(source_name), AddressFilter(source_name))
    )
    target = SyncEndpoint(
        Replica(ReplicaId(target_name), AddressFilter(target_name))
    )
    for i in range(count):
        source.replica.create_item(f"m{i}", {"destination": target_name})
    context = SyncContext(
        local=target.replica_id, remote=source.replica_id, now=0.0
    )
    request = build_request(target, context)
    batch, _ = build_batch(source, request, context)
    stamped = [
        BatchEntry(
            entry.item,
            entry.matched_filter,
            entry.priority,
            checksum=item_checksum(entry.item),
        )
        for entry in batch
    ]
    return stamped, source, target, request


class TestModels:
    @pytest.mark.parametrize(
        "draw",
        [
            lambda rng: mask(FaultConfig().corruption_probability, 5, rng),
            lambda rng: mask(FaultConfig().malformed_probability, 5, rng),
            lambda rng: plan_replay(FaultConfig(), 5, rng),
        ],
        ids=["corruption", "malformed", "replay"],
    )
    def test_zero_probability_draws_nothing(self, draw):
        rng = random.Random(1)
        before = rng.getstate()
        assert not any(draw(rng))
        assert rng.getstate() == before

    def test_fabrication_zero_probability_draws_nothing(self):
        rng = random.Random(1)
        before = rng.getstate()
        assert inflate_by(FaultConfig(), rng) == 0
        assert rng.getstate() == before

    def test_corruption_certain_hits_every_copy(self):
        assert mask(1.0, 4, random.Random(2)) == [True] * 4

    def test_replay_sample_is_sorted_in_range_and_bounded(self):
        config = FaultConfig(replay_probability=1.0)
        rng = random.Random(3)
        sizes = set()
        for _ in range(50):
            plan = plan_replay(config, 10, rng)
            assert plan == sorted(plan)
            assert 1 <= len(plan) <= REPLAY_MAX_ENTRIES
            assert all(0 <= index < 10 for index in plan)
            assert len(set(plan)) == len(plan)
            sizes.add(len(plan))
        assert max(sizes) == REPLAY_MAX_ENTRIES

    def test_replay_empty_pool_never_fires(self):
        config = FaultConfig(replay_probability=1.0)
        assert plan_replay(config, 0, random.Random(1)) == []

    def test_fabrication_inflation_bounded(self):
        config = FaultConfig(fabrication_probability=1.0)
        rng = random.Random(5)
        draws = {inflate_by(config, rng) for _ in range(100)}
        assert draws == set(range(1, FABRICATION_MAX_INFLATION + 1))


class TestConfig:
    def test_adversarial_probabilities_arm_the_config(self):
        for knob in (
            "corruption_probability",
            "replay_probability",
            "fabrication_probability",
            "malformed_probability",
        ):
            config = FaultConfig(**{knob: 0.1})
            assert config.enabled
            assert config.has_transport_faults

    def test_defaults_are_disarmed(self):
        config = FaultConfig()
        assert not config.enabled
        assert not config.has_transport_faults

    @pytest.mark.parametrize(
        "overrides",
        [
            {"corruption_probability": -0.1},
            {"replay_probability": 1.1},
            {"fabrication_probability": 2.0},
            {"malformed_probability": -1.0},
        ],
    )
    def test_invalid_values_rejected(self, overrides):
        with pytest.raises(ValueError):
            FaultConfig(**overrides)


class TestTransportPipeline:
    def test_corruption_damages_copies_but_keeps_checksums(self):
        batch, *_ = make_batch(3)
        transport = FaultyTransport(
            FaultConfig(corruption_probability=1.0),
            random.Random(1),
            source_id=ReplicaId("bob"),
        )
        outcome = transport.deliver(batch)
        assert len(outcome.delivered) == 3
        assert outcome.confirmed == []
        for original, wire in zip(batch, outcome.delivered):
            assert wire.item.payload == CORRUPTED_PAYLOAD
            assert wire.checksum == item_checksum(original.item)
            assert item_checksum(wire.item) != wire.checksum

    def test_malformed_frames_are_undecodable_garbage(self):
        batch, *_ = make_batch(2)
        transport = FaultyTransport(
            FaultConfig(malformed_probability=1.0),
            random.Random(1),
            source_id=ReplicaId("bob"),
        )
        outcome = transport.deliver(batch)
        assert outcome.delivered == [{"malformed-frame": 0}, {"malformed-frame": 1}]
        assert outcome.confirmed == []

    def test_replay_appends_pool_entries_after_genuine_stream(self):
        batch, *_ = make_batch(2)
        stale, *_ = make_batch(1, source_name="bob", target_name="carol")
        pool = list(stale)
        transport = FaultyTransport(
            FaultConfig(replay_probability=1.0),
            random.Random(1),
            replay_pool=pool,
            source_id=ReplicaId("bob"),
        )
        outcome = transport.deliver(batch)
        assert outcome.delivered[: len(batch)] == batch
        replayed = outcome.delivered[len(batch) :]
        assert replayed and all(entry in stale for entry in replayed)
        # The genuine deliveries were confirmed and fed back into the pool.
        assert outcome.confirmed == batch
        assert pool[-len(batch) :] == batch

    def test_replay_pool_is_bounded(self):
        pool = []
        transport = FaultyTransport(
            # Armed, but effectively never fires.
            FaultConfig(replay_probability=0.0001),
            random.Random(1),
            replay_pool=pool,
            source_id=ReplicaId("bob"),
        )
        for _ in range(10):
            batch, *_ = make_batch(5)
            transport.deliver(batch)
        assert len(pool) <= REPLAY_POOL_LIMIT

    def test_corrupt_request_inflates_only_a_copy(self):
        batch, source, target, request = make_batch(1)
        transport = FaultyTransport(
            FaultConfig(fabrication_probability=1.0),
            random.Random(1),
            source_id=source.replica_id,
        )
        before = request.knowledge.copy()
        tampered = transport.corrupt_request(request)
        assert tampered is not request
        claimed = max(
            tampered.knowledge.known_counter_prefix(source.replica_id),
            max(
                tampered.knowledge.extra_counters(source.replica_id),
                default=0,
            ),
        )
        assert 1 <= claimed <= FABRICATION_MAX_INFLATION
        # The original request object and vector are untouched.
        assert request.knowledge == before
        assert not request.knowledge.contains(Version(source.replica_id, 1))

    def test_injector_counts_channel_events(self):
        config = FaultConfig(
            corruption_probability=1.0, fabrication_probability=1.0
        )
        injector = FaultInjector(config, seed=3)
        transport = injector.transport("bob", "alice")
        batch, source, target, request = make_batch(2)
        assert transport.corrupt_request(request) is not request
        outcome = transport.deliver(batch)
        assert [wire.item.payload for wire in outcome.delivered] == [
            CORRUPTED_PAYLOAD
        ] * 2
        assert outcome.confirmed == []

    def test_a_minted_transport_fabricates_claims_about_its_source(self):
        batch, source, target, request = make_batch(1)
        injector = FaultInjector(FaultConfig(fabrication_probability=1.0), seed=1)
        tampered = injector.transport("bob", "alice").corrupt_request(request)
        assert not request.knowledge.contains(Version(source.replica_id, 1))
        assert tampered.knowledge.contains(Version(source.replica_id, 1))
        assert not tampered.knowledge.contains(Version(target.replica_id, 1))

    def test_replay_pools_are_per_directed_link(self):
        config = FaultConfig(replay_probability=1.0)
        injector = FaultInjector(config, seed=1)
        injector.transport("a", "b")
        injector.transport("b", "a")
        assert ("a", "b") in injector._replay_pools
        assert ("b", "a") in injector._replay_pools
        assert (
            injector._replay_pools[("a", "b")]
            is not injector._replay_pools[("b", "a")]
        )
