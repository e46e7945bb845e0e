"""The fixed point and the checkpoint are written an item at a time.

``replica_fixed_point`` and ``save_replica`` no longer build a replica's
whole ``replica_to_state`` tree before serializing it. Each must still
produce exactly what the tree-building definitions kept here produce, on
the converged state of a short run of every registered policy, and the
checkpoint must still be written all or nothing.
"""

import json
import math
import os

import pytest

from repro.api import available_policies
from repro.experiments import ExperimentConfig, build_scenario
from repro.experiments.parity import replica_fixed_point
from repro.replication import persistence
from repro.replication.persistence import (
    load_replica,
    replica_to_state,
    save_replica,
)

STORE_KEYS = ("in_filter", "outbox", "relay")


def tree_fixed_point(replica):
    """The fixed point as defined before: the state tree, then one
    canonical JSON string per stored item, sorted."""
    state = replica_to_state(replica)
    return {
        "knowledge": state["knowledge"],
        "stores": {
            key: sorted(
                json.dumps(item, sort_keys=True, separators=(",", ":"))
                for item in state[key]
            )
            for key in STORE_KEYS
        },
    }


def tree_checkpoint(replica, policy_state):
    """The checkpoint file as written before: one ``json.dumps``."""
    document = {"replica_state": replica_to_state(replica)}
    if policy_state is not None:
        document["policy_state"] = policy_state
    return json.dumps(document, sort_keys=True).encode("utf-8")


@pytest.fixture(scope="module", params=available_policies())
def converged(request):
    scenario = build_scenario(ExperimentConfig(scale=0.25, policy=request.param))
    scenario.emulator.run()
    nodes = list(scenario.nodes.values())
    assert sum(node.replica.stored_count for node in nodes) > 0
    return nodes


class TestFixedPoint:
    def test_is_the_state_tree_definition(self, converged):
        for node in converged:
            assert replica_fixed_point(node.replica) == tree_fixed_point(node.replica)


class TestCheckpoint:
    def test_writes_the_bytes_of_one_json_dumps(self, converged, tmp_path):
        path = tmp_path / "node.json"
        for node in converged:
            policy_state = node.policy.persistent_state()
            save_replica(node.replica, path, policy_state=policy_state)
            assert path.read_bytes() == tree_checkpoint(node.replica, policy_state)
            save_replica(node.replica, path)
            assert path.read_bytes() == tree_checkpoint(node.replica, None)

    def test_reloads_to_an_equal_fixed_point(self, converged, tmp_path):
        path = tmp_path / "node.json"
        for node in converged:
            policy_state = node.policy.persistent_state()
            save_replica(node.replica, path, policy_state=policy_state)
            restored, restored_policy = load_replica(path)
            assert replica_fixed_point(restored) == replica_fixed_point(node.replica)
            assert restored_policy == json.loads(json.dumps(policy_state))


def test_an_unusual_policy_state_is_encoded_as_json_dumps_does(tmp_path, converged):
    replica = converged[0].replica
    policy_state = {
        "é": [1, 2.5, -0.0, 10**30, None, True],
        "b": {"z": math.inf, "a": "日本\n", "n": -math.inf},
        "a": [],
    }
    path = tmp_path / "node.json"
    save_replica(replica, path, policy_state=policy_state)
    assert path.read_bytes() == tree_checkpoint(replica, policy_state)


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
        assert path.read_bytes() == tree_checkpoint(replica, None)

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
