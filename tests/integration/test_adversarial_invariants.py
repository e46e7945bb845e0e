"""Invariant harness for the adversarial fault models.

The acceptance property from the hardened-sync work: with all four
adversarial models armed at p=0.2 over a randomized ~200-encounter
schedule, every honest replica still converges to its filter-consistent
item set once faults stop, no application observes a message twice, and
no replica's version vector ever regresses (the emulator asserts
monotonicity around every encounter and raises if it breaks).

A second round mixes the adversarial models with the PR-1 transport
faults (truncation, duplication, crashes) — corruption quarantines must
compose with interrupted-sync resume and crash-restart recovery.
"""

import itertools
import random

import pytest

from repro.dtn import EpidemicPolicy
from repro.emulation.encounters import SECONDS_PER_DAY, Encounter, EncounterTrace
from repro.emulation.network import Emulator, Injection
from repro.emulation.node import EmulatedNode
from repro.faults import FaultConfig

from .test_fault_invariants import (
    assert_knowledge_covers_stores,
    attach_delivery_counters,
    heal,
)

ADVERSARIAL_P = 0.2


def build_adversarial_world(seed, mix_transport_faults=False):
    """A random mini-scenario under the four adversarial models at p=0.2.

    ~200 encounters (the acceptance schedule) across 4-6 nodes within one
    simulated day. ``mix_transport_faults`` additionally arms the PR-1
    channel faults so both fault families interact in one run.
    """
    rng = random.Random(seed)
    n_nodes = rng.randint(4, 6)
    names = [f"n{i}" for i in range(n_nodes)]
    nodes = {name: EmulatedNode(name, EpidemicPolicy()) for name in names}

    n_encounters = rng.randint(190, 210)
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

    knobs = dict(
        corruption_probability=ADVERSARIAL_P,
        replay_probability=ADVERSARIAL_P,
        fabrication_probability=ADVERSARIAL_P,
        malformed_probability=ADVERSARIAL_P,
    )
    if mix_transport_faults:
        knobs.update(
            truncation_probability=rng.uniform(0.1, 0.5),
            duplication_probability=rng.uniform(0.0, 0.4),
            crash_probability=rng.uniform(0.0, 0.15),
        )
    emulator = Emulator(
        trace,
        nodes,
        injections=injections,
        faults=FaultConfig(**knobs),
        fault_seed=seed * 6271 + 5,
        seed=seed,
    )
    return emulator, nodes, names


def run_adversarial_scenario(seed, mix_transport_faults=False):
    emulator, nodes, names = build_adversarial_world(
        seed, mix_transport_faults=mix_transport_faults
    )
    delivery_counts, wire = attach_delivery_counters(emulator)

    # Faulty phase: the emulator itself asserts knowledge monotonicity
    # around every encounter (SyncProtocolError on regression).
    emulator.run()
    for node in nodes.values():
        wire(node)
    assert_knowledge_covers_stores(nodes)

    # Healing phase: faults stop, connectivity resumes (direct pairwise
    # encounters, bypassing the emulator and its quarantine gate — a
    # quarantined-by-mistake peer must not be able to block convergence).
    heal(nodes, names, start_time=SECONDS_PER_DAY + 1.0)
    assert_knowledge_covers_stores(nodes)

    # Eventual filter consistency despite corruption/replay/fabrication.
    for record in emulator.metrics.records.values():
        destination = nodes[record.destination]
        assert destination.app.has_received(record.message_id), (
            f"seed {seed}: {record.message_id} never delivered to "
            f"{record.destination} after adversarial faults stopped"
        )

    # At-most-once delivery: replays and duplicated corruption retries
    # must never surface one message twice to an application.
    for (node_name, message_id), count in delivery_counts.items():
        assert count == 1, (
            f"seed {seed}: {node_name} observed {message_id} {count} times"
        )
    return emulator


@pytest.mark.parametrize("seed", range(10))
def test_invariants_hold_under_adversarial_faults(seed):
    run_adversarial_scenario(seed)


@pytest.mark.parametrize("seed", range(8))
def test_invariants_hold_when_mixed_with_transport_faults(seed):
    run_adversarial_scenario(seed, mix_transport_faults=True)


def test_adversarial_schedule_actually_fires_and_is_observed():
    """Guard against a silently disarmed harness: over the acceptance
    schedule the models must fire and the hardened path must see them."""
    emulator = run_adversarial_scenario(0)
    metrics = emulator.metrics
    violations = metrics.protocol_violations
    assert violations.get("checksum-mismatch", 0) > 0
    assert violations.get("malformed-entry", 0) > 0
    assert violations.get("knowledge-fabrication", 0) > 0
    assert metrics.rejected_knowledge > 0
    assert metrics.quarantined_entries > 0
    assert sum(metrics.protocol_violations.values()) > 0
    summary = metrics.summary()
    assert summary["quarantined_entries"] == float(metrics.quarantined_entries)
    assert summary["protocol_violations"] > 0.0


def test_knowledge_converges_after_adversarial_healing():
    for seed in (1, 4, 7):
        emulator, nodes, names = build_adversarial_world(seed)
        emulator.run()
        heal(nodes, names, start_time=SECONDS_PER_DAY + 1.0)
        vectors = [nodes[name].replica.knowledge for name in names]
        assert all(vector == vectors[0] for vector in vectors[1:])


def test_peer_health_reacts_to_sustained_misbehaviour():
    """With every channel poisoned at p=0.2 for 200 encounters, at least
    one observer should have escalated some peer out of healthy."""
    fired = 0
    for seed in range(4):
        emulator = run_adversarial_scenario(seed)
        transitions = emulator.metrics.peer_health_transitions
        fired += sum(transitions.values())
        for tracker in emulator.peer_health.values():
            for peer in tracker.peers():
                assert tracker.state(peer) in (
                    "healthy",
                    "suspect",
                    "quarantined",
                )
    assert fired > 0
