"""Tests for the relay store's pluggable eviction strategies."""

import pytest

from repro.replication.store import (
    EVICTION_STRATEGIES,
    RelayStore,
    evict_fifo,
    evict_oldest_created,
    evict_random,
)
from tests.conftest import make_item


class TestStrategySelection:
    def test_known_names(self):
        assert set(EVICTION_STRATEGIES) == {"fifo", "random", "oldest-created"}

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown eviction strategy"):
            RelayStore(capacity=1, strategy="coin-flip")


class TestFifo:
    def test_picks_earliest_arrival(self):
        items = [make_item() for _ in range(3)]
        assert evict_fifo(items) is items[0]

    def test_store_behaviour(self):
        evicted = []
        store = RelayStore(capacity=2, strategy="fifo", on_evict=evicted.append)
        items = [make_item() for _ in range(3)]
        for item in items:
            store.put(item)
        assert evicted == [items[0]]


class TestOldestCreated:
    def test_picks_oldest_timestamp(self):
        young = make_item(created_at=100.0)
        old = make_item(created_at=5.0)
        middle = make_item(created_at=50.0)
        assert evict_oldest_created([young, old, middle]) is old

    def test_missing_timestamp_counts_as_oldest(self):
        stamped = make_item(created_at=5.0)
        unstamped = make_item()
        assert evict_oldest_created([stamped, unstamped]) is unstamped

    def test_store_behaviour(self):
        evicted = []
        store = RelayStore(
            capacity=2, strategy="oldest-created", on_evict=evicted.append
        )
        newest = make_item(created_at=300.0)
        oldest = make_item(created_at=1.0)
        incoming = make_item(created_at=200.0)
        store.put(newest)
        store.put(oldest)
        store.put(incoming)
        assert evicted == [oldest]
        assert newest.item_id in store and incoming.item_id in store


class TestRandom:
    def test_deterministic_for_same_contents(self):
        items = [make_item() for _ in range(5)]
        assert evict_random(items) is evict_random(items)

    def test_victim_comes_from_candidates(self):
        items = [make_item() for _ in range(5)]
        assert evict_random(items) in items


class TestExperimentPlumbing:
    def test_config_validates_strategy(self):
        from repro.experiments.config import ExperimentConfig

        with pytest.raises(ValueError):
            ExperimentConfig(eviction_strategy="lifo")

    def test_strategy_reaches_node_replicas(self):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.scenario import build_scenario

        config = ExperimentConfig(
            scale=0.25,
            policy="epidemic",
            storage_limit=2,
            eviction_strategy="oldest-created",
        )
        scenario = build_scenario(config)
        node = next(iter(scenario.nodes.values()))
        assert node.replica._relay.strategy == "oldest-created"
