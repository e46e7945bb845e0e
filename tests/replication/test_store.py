"""Unit tests for the item store and the capped relay store."""

import pytest

from repro.replication.errors import UnknownItemError
from repro.replication.store import ItemStore, RelayStore
from tests.conftest import make_item


class TestItemStore:
    def test_put_and_get(self):
        store = ItemStore()
        item = make_item()
        store.put(item)
        assert store.get(item.item_id) == item
        assert item.item_id in store
        assert len(store) == 1

    def test_get_missing_returns_none(self):
        assert ItemStore().get(make_item().item_id) is None

    def test_put_replaces_same_id(self):
        store = ItemStore()
        item = make_item()
        newer = item.with_local(marker=True)
        store.put(item)
        store.put(newer)
        assert len(store) == 1
        assert store.get(item.item_id).local("marker") is True

    def test_replacement_moves_to_back_of_fifo(self):
        store = ItemStore()
        first, second = make_item(), make_item()
        store.put(first)
        store.put(second)
        store.put(first.with_local(marker=True))  # re-insert
        assert store.oldest().item_id == second.item_id

    def test_update_in_place_keeps_fifo_position(self):
        store = ItemStore()
        first, second = make_item(), make_item()
        store.put(first)
        store.put(second)
        store.update_in_place(first.with_local(marker=True))
        assert store.oldest().item_id == first.item_id
        assert store.get(first.item_id).local("marker") is True

    def test_update_in_place_missing_raises(self):
        with pytest.raises(UnknownItemError):
            ItemStore().update_in_place(make_item())

    def test_remove(self):
        store = ItemStore()
        item = make_item()
        store.put(item)
        removed = store.remove(item.item_id)
        assert removed == item
        assert len(store) == 0

    def test_remove_missing_raises(self):
        with pytest.raises(UnknownItemError):
            ItemStore().remove(make_item().item_id)

    def test_discard_is_silent(self):
        assert ItemStore().discard(make_item().item_id) is None

    def test_iteration_snapshot_is_safe_during_mutation(self):
        store = ItemStore()
        items = [make_item() for _ in range(3)]
        for item in items:
            store.put(item)
        seen = []
        for item in store:
            seen.append(item)
            store.discard(item.item_id)
        assert len(seen) == 3

    def test_oldest_empty(self):
        assert ItemStore().oldest() is None

    def test_clear(self):
        store = ItemStore()
        store.put(make_item())
        store.clear()
        assert len(store) == 0


class TestRelayStore:
    def test_unbounded_by_default(self):
        store = RelayStore()
        for _ in range(100):
            assert store.put(make_item())
        assert len(store) == 100

    def test_capacity_zero_refuses_everything(self):
        store = RelayStore(capacity=0)
        assert not store.put(make_item())
        assert len(store) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            RelayStore(capacity=-1)

    def test_fifo_eviction_at_capacity(self):
        evicted = []
        store = RelayStore(capacity=2, on_evict=evicted.append)
        items = [make_item() for _ in range(3)]
        for item in items:
            store.put(item)
        assert len(store) == 2
        assert evicted == [items[0]]
        assert items[0].item_id not in store
        assert items[2].item_id in store

    def test_replacing_held_item_does_not_evict(self):
        store = RelayStore(capacity=2)
        first, second = make_item(), make_item()
        store.put(first)
        store.put(second)
        store.put(first.with_local(marker=True))
        assert len(store) == 2
        assert second.item_id in store

    def test_update_in_place(self):
        store = RelayStore(capacity=2)
        item = make_item()
        store.put(item)
        store.update_in_place(item.with_local(marker=1))
        assert store.get(item.item_id).local("marker") == 1

    def test_eviction_order_is_arrival_order(self):
        evicted = []
        store = RelayStore(capacity=1, on_evict=evicted.append)
        a, b, c = make_item(), make_item(), make_item()
        store.put(a)
        store.put(b)
        store.put(c)
        assert [e.item_id for e in evicted] == [a.item_id, b.item_id]
