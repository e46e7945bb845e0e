"""The fixed point and the checkpoint are written an item at a time.

``replica_fixed_point`` and ``save_replica`` never build a replica's
whole state before serializing it. On the converged state of a short run
of every registered policy, the checkpoint must be the
``repro.replica-state.v2`` layout (one head line, then one canonical
JSON line per stored item, store by store in FIFO order), the fixed
point must be what that checkpoint holds, in item-id order, its text
form must be exactly its canonical JSON, and the checkpoint must still
be written all or nothing.
"""

import json
import math
import os

import pytest

from repro.api import available_policies
from repro.experiments import ExperimentConfig, build_scenario
from repro.experiments.parity import (
    fixed_point_cut,
    fixed_point_text,
    replica_fixed_point,
)
from repro.replication import persistence
from repro.replication.codec import encode_item
from repro.replication.persistence import (
    checkpoint_lines,
    load_replica,
    replica_from_lines,
    replica_stores,
    save_replica,
)

STORE_KEYS = ("in_filter", "outbox", "relay")
HEAD_KEYS = {
    "format",
    "replica",
    "filter",
    "relay_capacity",
    "relay_eviction",
    "knowledge",
    "ids",
    "counts",
    "policy_state",
}


def canonical(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def read_checkpoint(text):
    """(head, {store: [item, ...]}) of a checkpoint's text, parsed with
    ``json.loads`` line by line."""
    lines = text.split("\n")
    assert lines.pop() == "", "every line ends with a newline"
    head = json.loads(lines[0])
    stores, position = {}, 1
    for key in STORE_KEYS:
        count = head["counts"][key]
        chunk = lines[position : position + count]
        stores[key] = [json.loads(line) for line in chunk]
        position += count
    assert position == len(lines)
    return head, stores


def checkpoint_fixed_point(replica):
    """The fixed point as the checkpoint defines it: its knowledge, then
    one canonical JSON string per stored item, in item-id order (an id
    is ``[origin, serial]``, which sorts as the ``ItemId`` does)."""
    head, stores = read_checkpoint("".join(checkpoint_lines(replica)))
    return {
        "knowledge": head["knowledge"],
        "stores": {
            key: [
                canonical(item)
                for item in sorted(stores[key], key=lambda item: tuple(item["id"]))
            ]
            for key in STORE_KEYS
        },
    }


#: Payloads the text form escapes twice: once in the item's own canonical
#: JSON, again as a string inside the fixed point's.
AWKWARD = ['say "hi"', "back\\slash", "bell\x07 nul\x00 tab\t", "é 日本 \U0001f600"]


def with_awkward_copies(replica):
    """A copy of ``replica`` that also holds copies with awkward payloads
    and attributes, a tombstone and a copy with ``local`` attributes."""
    copy, _ = replica_from_lines(checkpoint_lines(replica))
    made = [
        copy.create_item(payload, {"destination": payload, "note\n": [payload]})
        for payload in AWKWARD
    ]
    copy.delete_item(made[0].item_id)
    copy.adjust_local(made[1].with_local(ttl=3, hops=("a", "\u00e9")))
    return copy


@pytest.fixture(scope="module", params=available_policies())
def converged(request):
    scenario = build_scenario(ExperimentConfig(scale=0.25, policy=request.param))
    scenario.emulator.run()
    nodes = list(scenario.nodes.values())
    assert sum(node.replica.stored_count for node in nodes) > 0
    return nodes


class TestFixedPoint:
    def test_is_what_the_checkpoint_holds(self, converged):
        for node in converged:
            replica = node.replica
            assert replica_fixed_point(replica) == checkpoint_fixed_point(replica)

    def test_text_is_its_canonical_json(self, converged):
        for node in converged:
            replica = node.replica
            text = "".join(fixed_point_text(fixed_point_cut(replica)))
            assert text == canonical(replica_fixed_point(replica))

    def test_text_escapes_awkward_copies_twice(self, converged):
        replica = with_awkward_copies(converged[0].replica)
        items = list(replica.stored_items())
        assert any(item.deleted for item in items)
        assert any(item.local_attributes for item in items)
        text = "".join(fixed_point_text(fixed_point_cut(replica)))
        assert text.isascii()
        assert text == canonical(replica_fixed_point(replica))
        assert replica_fixed_point(replica) == checkpoint_fixed_point(replica)
        stored = [
            json.loads(line)["payload"]
            for key in STORE_KEYS
            for line in json.loads(text)["stores"][key]
        ]
        assert set(AWKWARD[1:]) <= set(stored)


class TestCheckpoint:
    def test_writes_the_v2_layout(self, converged, tmp_path):
        path = tmp_path / "node.json"
        for node in converged:
            replica = node.replica
            policy_state = node.policy.persistent_state()
            for bundled in (policy_state, None):
                save_replica(replica, path, policy_state=bundled)
                text = path.read_text()
                assert text == "".join(checkpoint_lines(replica, bundled))
                head, stores = read_checkpoint(text)
                assert set(head) == HEAD_KEYS
                assert head["format"] == "repro.replica-state.v2"
                assert head["replica"] == replica.replica_id.name
                assert head["policy_state"] == json.loads(json.dumps(bundled))
                expected = replica_stores(replica)
                counts = {key: len(expected[key]) for key in STORE_KEYS}
                assert head["counts"] == counts
                lines = text.splitlines(keepends=True)
                assert lines[0] == canonical(head) + "\n"
                # Item lines follow the head store by store, FIFO order.
                assert lines[1:] == [
                    canonical(encode_item(item)) + "\n"
                    for key in STORE_KEYS
                    for item in expected[key]
                ]

    def test_reloads_to_an_equal_fixed_point(self, converged, tmp_path):
        path = tmp_path / "node.json"
        for node in converged:
            policy_state = node.policy.persistent_state()
            save_replica(node.replica, path, policy_state=policy_state)
            restored, restored_policy = load_replica(path)
            assert replica_fixed_point(restored) == replica_fixed_point(node.replica)
            assert restored_policy == json.loads(json.dumps(policy_state))


def test_an_unusual_policy_state_round_trips_through_the_head_line(
    tmp_path, converged
):
    replica = converged[0].replica
    policy_state = {
        "é": [1, 2.5, -0.0, 10**30, None, True],
        "b": {"z": math.inf, "a": "日本\n", "n": -math.inf},
        "a": [],
    }
    path = tmp_path / "node.json"
    save_replica(replica, path, policy_state=policy_state)
    head_line = path.read_text().split("\n", 1)[0]
    assert head_line.isascii()
    assert json.loads(head_line)["policy_state"] == policy_state
    _, restored = load_replica(path)
    assert restored == policy_state
    assert canonical(restored) == canonical(policy_state)
    assert math.copysign(1.0, restored["é"][2]) == -1.0
    assert restored["é"][3] == 10**30 and isinstance(restored["é"][3], int)


class TestAllOrNothing:
    def test_temp_file_then_fsync_then_replace(self, converged, tmp_path, monkeypatch):
        replica = converged[0].replica
        path = tmp_path / "node.json"
        path.write_text("old")
        calls = []
        fsync, replace = os.fsync, os.replace

        def recorded_fsync(fd):
            calls.append(("fsync", path.read_text()))
            fsync(fd)

        def recorded_replace(source, target):
            calls.append(("replace", str(source), str(target)))
            replace(source, target)

        monkeypatch.setattr(persistence.os, "fsync", recorded_fsync)
        monkeypatch.setattr(persistence.os, "replace", recorded_replace)
        save_replica(replica, path)
        temp = str(path.with_name(path.name + ".tmp"))
        # The target still holds the old file while the new one is synced.
        assert calls == [("fsync", "old"), ("replace", temp, str(path))]
        assert path.read_text() == "".join(checkpoint_lines(replica))

    def test_an_item_that_fails_to_encode_leaves_the_old_file(self, tmp_path):
        scenario = build_scenario(ExperimentConfig(scale=0.25, policy="epidemic"))
        replica = next(iter(scenario.nodes.values())).replica
        replica.create_item("fine", {"destination": "x"})
        path = tmp_path / "node.json"
        save_replica(replica, path)
        before = path.read_bytes()
        replica.create_item(object(), {"destination": "x"})
        with pytest.raises(TypeError):
            save_replica(replica, path)
        assert path.read_bytes() == before
