"""The randomized invariant-test harness.

Many seeded mini-scenarios, each with a random topology, workload, and
*mixed* fault schedule (drops, mid-batch truncations, duplicated
deliveries, crash-restarts). After the faulty phase, faults stop and a
fault-free healing phase runs full pairwise encounter sweeps. The paper's
two substrate guarantees must hold as executable properties:

* **eventual filter consistency** — once faults stop and connectivity
  resumes, every message reaches the node whose filter selects it;
* **at-most-once delivery** — no node's application observes the same
  message twice, ever (including across crash-restarts), and duplicated
  transmissions are absorbed as redundant receptions.

Plus the structural coverage invariant: every stored item's version is
covered by its replica's knowledge at all times.
"""

import itertools
import random

import pytest

from repro.dtn import EpidemicPolicy, FirstContactPolicy, SprayAndWaitPolicy
from repro.emulation.encounters import SECONDS_PER_DAY, Encounter, EncounterTrace
from repro.emulation.network import Emulator, Injection
from repro.emulation.node import EmulatedNode
from repro.faults import FaultConfig
from repro.replication.session import EncounterSession

SEEDS = range(24)


def build_world(seed, policy_factory=EpidemicPolicy):
    """One random mini-scenario: topology, workload, and fault mix."""
    rng = random.Random(seed)
    n_nodes = rng.randint(3, 6)
    names = [f"n{i}" for i in range(n_nodes)]
    nodes = {name: EmulatedNode(name, policy_factory()) for name in names}

    n_encounters = rng.randint(30, 60)
    window = 12 * 3600.0
    encounters = []
    for _ in range(n_encounters):
        a, b = rng.sample(names, 2)
        encounters.append(Encounter(1800.0 + rng.random() * window, a, b))
    trace = EncounterTrace(sorted(encounters))

    n_messages = rng.randint(8, 16)
    injections = []
    for i in range(n_messages):
        source, destination = rng.sample(names, 2)
        injections.append(
            Injection(rng.random() * window, source, destination, f"m{i}")
        )

    faults = FaultConfig(
        encounter_drop_probability=rng.uniform(0.0, 0.35),
        truncation_probability=rng.uniform(0.1, 0.8),
        duplication_probability=rng.uniform(0.0, 0.5),
        crash_probability=rng.uniform(0.0, 0.2),
    )
    emulator = Emulator(
        trace,
        nodes,
        injections=injections,
        faults=faults,
        fault_seed=seed * 7919 + 1,
        seed=seed,
    )
    return emulator, nodes, names


def attach_delivery_counters(emulator):
    """Count every application-level delivery event per (node, message).

    Returns the counts plus a re-wire hook: a crash-restart replaces a
    node's app (dropping the counter callback), so after the faulty phase
    the caller re-attaches counters to apps that were replaced — and only
    to those, to avoid counting one delivery through two callbacks.
    """
    counts = {}
    wired_apps = {}

    def wire(node):
        if wired_apps.get(node.name) is node.app:
            return
        wired_apps[node.name] = node.app

        def on_delivery(message, _node=node):
            key = (_node.name, message.message_id)
            counts[key] = counts.get(key, 0) + 1

        node.app.on_delivery(on_delivery)

    for node in emulator.nodes.values():
        wire(node)
    return counts, wire


def assert_knowledge_covers_stores(nodes):
    for node in nodes.values():
        for item in node.replica.stored_items():
            assert node.replica.knowledge.contains(item.version), (
                f"{node.name} stores {item.item_id} without knowing "
                f"{item.version}"
            )


def heal(nodes, names, start_time):
    """Fault-free full-mesh sweeps until every pair has synced repeatedly."""
    now = start_time
    for _ in range(len(names) + 1):
        for a, b in itertools.combinations(names, 2):
            EncounterSession(
                first=nodes[a].endpoint,
                second=nodes[b].endpoint,
                now=now,
            ).run()
            now += 60.0
    return now


def run_scenario_and_assert_invariants(seed, policy_factory=EpidemicPolicy):
    emulator, nodes, names = build_world(seed, policy_factory)
    delivery_counts, wire = attach_delivery_counters(emulator)

    # Faulty phase. Crash-restarts replace a node's app, dropping our
    # counter; re-wire after the run ends (the emulator re-wires its own
    # plumbing the same way) — the restored delivery log still guards
    # against double counting in the healing phase.
    emulator.run()
    for node in nodes.values():
        wire(node)
    assert_knowledge_covers_stores(nodes)

    # Healing phase: faults stop, connectivity resumes.
    heal(nodes, names, start_time=SECONDS_PER_DAY + 1.0)
    assert_knowledge_covers_stores(nodes)

    # Eventual filter consistency: every injected message reached the node
    # whose filter selects it (bus addressing: the destination node).
    for record in emulator.metrics.records.values():
        destination = nodes[record.destination]
        assert destination.app.has_received(record.message_id), (
            f"seed {seed}: {record.message_id} never delivered to "
            f"{record.destination} after faults stopped"
        )
        assert destination.holds_message(record.message_id)

    # At-most-once: no (node, message) delivery event fired twice.
    for (node_name, message_id), count in delivery_counts.items():
        assert count == 1, (
            f"seed {seed}: {node_name} observed {message_id} {count} times"
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_invariants_hold_after_faults_stop(seed):
    run_scenario_and_assert_invariants(seed)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize(
    "policy_factory", [FirstContactPolicy, SprayAndWaitPolicy]
)
def test_invariants_hold_for_copy_constrained_policies(policy_factory, seed):
    """First Contact holds one copy per message and Spray-and-Wait a fixed
    budget, so a sent-confirmation bug (expunging or halving for entries
    the transport lost) destroys messages outright — exactly what the
    epidemic-only harness could never catch."""
    run_scenario_and_assert_invariants(seed, policy_factory)


@pytest.mark.parametrize("seed", [0, 5, 11, 17])
def test_pairwise_knowledge_converges_after_healing(seed):
    """After healing sweeps, all replicas share identical knowledge."""
    emulator, nodes, names = build_world(seed)
    emulator.run()
    heal(nodes, names, start_time=SECONDS_PER_DAY + 1.0)
    vectors = [nodes[name].replica.knowledge for name in names]
    assert all(vector == vectors[0] for vector in vectors[1:])


@pytest.mark.parametrize("seed", [2, 9])
def test_redundant_deliveries_never_double_apply(seed):
    """Duplicated transmissions are absorbed: the redundant counter moves,
    but store contents stay exactly one copy per item."""
    emulator, nodes, names = build_world(seed)
    metrics = emulator.run()
    if metrics.redundant_transmissions == 0:
        pytest.skip("this seed's schedule produced no duplications")
    for node in nodes.values():
        ids = [str(item.item_id) for item in node.replica.stored_items()]
        assert len(ids) == len(set(ids))
