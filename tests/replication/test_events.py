"""Unit tests for replica observers."""

from repro.replication.events import (
    BaseReplicaObserver,
    EvictionCounter,
    ObserverList,
)
from tests.conftest import make_item


class Recorder(BaseReplicaObserver):
    def __init__(self):
        self.calls = []

    def on_store(self, item, matched_filter):
        self.calls.append(("store", item, matched_filter))

    def on_evict(self, item):
        self.calls.append(("evict", item))


class TestObserverList:
    def test_fans_out_in_registration_order(self):
        fanout = ObserverList()
        first, second = Recorder(), Recorder()
        fanout.register(first)
        fanout.register(second)
        item = make_item()
        fanout.on_store(item, True)
        assert first.calls == [("store", item, True)]
        assert second.calls == [("store", item, True)]

    def test_all_event_kinds_forwarded(self):
        fanout = ObserverList()
        recorder = Recorder()
        fanout.register(recorder)
        item = make_item()
        fanout.on_store(item, False)
        fanout.on_evict(item)
        assert [c[0] for c in recorder.calls] == ["store", "evict"]

    def test_base_observer_is_noop(self):
        base = BaseReplicaObserver()
        item = make_item()
        base.on_store(item, True)
        base.on_evict(item)  # nothing raised


class TestEvictionCounter:
    def test_drain_hands_over_each_eviction_once(self):
        counter = EvictionCounter()
        item = make_item()
        counter.on_evict(item)
        counter.on_evict(item)
        assert counter.drain() == 2
        assert counter.drain() == 0
        counter.on_evict(item)
        assert counter.drain() == 1
        # The running total is not drained.
        assert counter.count == 3

    def test_ignores_stores(self):
        counter = EvictionCounter()
        counter.on_store(make_item(), True)
        assert (counter.count, counter.drain()) == (0, 0)
