"""Crash-restart recovery: kill a node mid-experiment, restore it from its
checkpoint through save_replica/load_replica, and the restored replica
reconverges to exactly the store contents of an uninterrupted run."""

import pytest

from repro.dtn import EpidemicPolicy, ProphetPolicy
from repro.emulation.encounters import Encounter, EncounterTrace
from repro.emulation.network import Emulator, Injection
from repro.emulation.node import EmulatedNode
from repro.faults import FaultConfig
from repro.replication import (
    AddressFilter,
    EncounterSession,
    Replica,
    ReplicaId,
    SyncEndpoint,
    load_replica,
    save_replica,
)


def host(name, policy_factory=EpidemicPolicy):
    replica = Replica(ReplicaId(name), AddressFilter(name))
    policy = policy_factory()
    policy.bind(replica, lambda: frozenset({name}))
    return replica, SyncEndpoint(replica, policy)


def store_fingerprint(replica):
    """Canonical view of a replica's contents for equality assertions."""
    return sorted(
        (str(item.item_id), str(item.version), item.payload, item.deleted)
        for item in replica.stored_items()
    )


#: (time, a, b) encounter schedule shared by both runs.
SCHEDULE = [
    (100.0, "alice", "bob"),
    (200.0, "bob", "carol"),
    (300.0, "alice", "bob"),
    (400.0, "alice", "carol"),
    (500.0, "bob", "carol"),
    (600.0, "alice", "bob"),
]


def run_schedule(policy_factory, crash_after=None, checkpoint_dir=None):
    """Run the shared schedule; optionally crash+restore bob mid-way.

    ``crash_after`` is the number of encounters after which bob is killed
    and rebuilt from a checkpoint written via ``save_replica``.
    """
    replicas, endpoints = {}, {}
    for name in ("alice", "bob", "carol"):
        replicas[name], endpoints[name] = host(name, policy_factory)
    for i in range(4):
        replicas["alice"].create_item(f"a->c {i}", {"destination": "carol"})
        replicas["carol"].create_item(f"c->b {i}", {"destination": "bob"})

    for index, (now, a, b) in enumerate(SCHEDULE):
        if index == crash_after:
            path = checkpoint_dir / "bob.checkpoint.json"
            save_replica(
                replicas["bob"],
                path,
                policy_state=endpoints["bob"].policy.persistent_state(),
            )
            # The in-memory replica is gone; only the checkpoint survives.
            restored, policy_state = load_replica(path)
            policy = policy_factory()
            policy.bind(restored, lambda: frozenset({"bob"}))
            policy.restore_state(policy_state or {})
            replicas["bob"] = restored
            endpoints["bob"] = SyncEndpoint(restored, policy)
        EncounterSession(
            first=endpoints[a],
            second=endpoints[b],
            now=now,
        ).run()
    return replicas


@pytest.mark.parametrize("policy_factory", [EpidemicPolicy, ProphetPolicy])
@pytest.mark.parametrize("crash_after", [1, 2, 4])
def test_restored_replica_reconverges(tmp_path, policy_factory, crash_after):
    baseline = run_schedule(policy_factory)
    crashed = run_schedule(
        policy_factory, crash_after=crash_after, checkpoint_dir=tmp_path
    )
    for name in ("alice", "bob", "carol"):
        assert store_fingerprint(crashed[name]) == store_fingerprint(
            baseline[name]
        ), f"{name} diverged after bob's crash at encounter {crash_after}"
    assert crashed["bob"].knowledge == baseline["bob"].knowledge


def test_restart_does_not_double_deliver(tmp_path):
    """The checkpointed knowledge blocks re-delivery after the restore."""
    sender, sender_ep = host("alice")
    receiver, receiver_ep = host("bob")
    sender.create_item("m", {"destination": "bob"})
    EncounterSession(first=sender_ep, second=receiver_ep, now=0.0).run()

    path = tmp_path / "bob.json"
    save_replica(receiver, path)
    restored, _ = load_replica(path)
    policy = EpidemicPolicy()
    policy.bind(restored, lambda: frozenset({"bob"}))
    stats = EncounterSession(
        first=sender_ep,
        second=SyncEndpoint(restored, policy),
        now=1.0,
    ).run()
    assert sum(s.sent_total for s in stats) == 0
    assert restored.in_filter_count == 1


class TestEmulatorCrashFault:
    """The same property end-to-end through the emulator's crash fault."""

    def make(self, faults, fault_seed=0):
        trace = EncounterTrace(
            [
                Encounter(3600.0 + i * 300.0, a, b)
                for i, (a, b) in enumerate(
                    [("a", "b"), ("b", "c"), ("a", "c")] * 8
                )
            ]
        )
        nodes = {
            name: EmulatedNode(name, EpidemicPolicy()) for name in ("a", "b", "c")
        }
        injections = [
            Injection(3600.0 + i * 500.0, "a", "c", f"m{i}") for i in range(6)
        ]
        return Emulator(
            trace, nodes, injections=injections, faults=faults, fault_seed=fault_seed
        )

    def test_crashes_do_not_change_final_stores(self):
        clean = self.make(None)
        clean.run()
        crashy = self.make(FaultConfig(crash_probability=0.4), fault_seed=13)
        metrics = crashy.run()
        assert metrics.crashes > 0
        for name in ("a", "b", "c"):
            assert store_fingerprint(
                crashy.nodes[name].replica
            ) == store_fingerprint(clean.nodes[name].replica)
        assert metrics.delivered == clean.metrics.delivered
