"""Randomized equivalence harness for the version-indexed sync hot path.

Companion to ``test_fault_invariants``: many seeded mini-scenarios with
random topologies and workloads, here stressing the *enumeration* layer.
One executable property must hold throughout:

* **index/scan equivalence** — at every point, for every (holder, peer)
  pair, ``items_unknown_to(knowledge)`` returns exactly what a brute-force
  scan of the stores through ``knowledge.contains`` returns, the same item
  objects in the same order, under random authoring, relaying, capped-store
  evictions, expunges, deletions, crash-restarts, and day-boundary
  address reassignments that move items between stores.
"""

import itertools
import random

import pytest

from repro.dtn import EpidemicPolicy
from repro.emulation.node import EmulatedNode
from repro.replication.session import EncounterSession

SEEDS = range(16)


def assert_index_matches_scan(nodes, context=""):
    """Every holder's index enumeration equals the reference scan against
    every peer's knowledge (and against its own, the fully-known case)."""
    for holder in nodes.values():
        for peer in nodes.values():
            knowledge = peer.replica.knowledge
            indexed = holder.replica.items_unknown_to(knowledge)
            scanned = [
                item
                for item in holder.replica.stored_items()
                if not knowledge.contains(item.version)
            ]
            # Identity too: ``Item`` equality sees only ``(item_id,
            # version)``, and a stale copy would carry old per-copy state.
            assert indexed == scanned and all(
                a is b for a, b in zip(indexed, scanned)
            ), (
                f"{context}: {holder.name}'s index diverges from the scan "
                f"against {peer.name}'s knowledge: {indexed!r} != {scanned!r}"
            )


def build_world(rng):
    n_nodes = rng.randint(3, 6)
    names = [f"n{i}" for i in range(n_nodes)]
    nodes = {
        name: EmulatedNode(
            name,
            EpidemicPolicy(),
            # Small caps on some nodes force relay-store evictions;
            # delete-on-receipt exercises tombstone authoring + expunge.
            relay_capacity=rng.choice([None, None, 2, 4]),
            delete_on_receipt=rng.random() < 0.3,
        )
        for name in names
    }
    return nodes, names


@pytest.mark.parametrize("seed", SEEDS)
def test_index_matches_scan_under_churn(seed):
    """Random interleaving of sends, updates, expunges, crash-restarts,
    and encounters; the index must track the reference scan throughout."""
    rng = random.Random(seed)
    nodes, names = build_world(rng)
    now = 0.0
    sent = 0
    for step in range(rng.randint(50, 90)):
        now += 60.0
        action = rng.random()
        if action < 0.30:
            source = rng.choice(names)
            destination = rng.choice([n for n in names if n != source])
            nodes[source].send(source, destination, f"m{sent}", now)
            sent += 1
        elif action < 0.38:
            holder = nodes[rng.choice(names)]
            held = [
                item
                for item in holder.replica.stored_items()
                if not item.deleted
            ]
            if held:
                holder.replica.expunge(rng.choice(held).item_id)
        elif action < 0.46 and step > 5:
            nodes[rng.choice(names)].crash_restart()
        else:
            a, b = rng.sample(names, 2)
            EncounterSession(
                first=nodes[a].endpoint,
                second=nodes[b].endpoint,
                now=now,
            ).run()

        if step % 6 == 0:
            assert_index_matches_scan(nodes, f"seed {seed}, step {step}")
    assert_index_matches_scan(nodes, f"seed {seed}, final")


@pytest.mark.parametrize("seed", range(8))
def test_day_boundary_reassignment_keeps_index_and_delivery(seed):
    """Users are re-distributed over nodes (the paper's day boundary);
    filters are rebuilt, items move between stores, and the new day's
    syncs must still enumerate by index and deliver to today's hosts."""
    rng = random.Random(seed * 31 + 7)
    names = [f"n{i}" for i in range(4)]
    users = [f"u{i}" for i in range(6)]
    nodes = {name: EmulatedNode(name, EpidemicPolicy()) for name in names}

    def reassign():
        assignment = {name: set() for name in names}
        for user in users:
            assignment[rng.choice(names)].add(user)
        for name in names:
            nodes[name].assign_addresses(assignment[name])
        return assignment

    def sweep(start):
        now = start
        for _ in range(len(names) + 1):
            for a, b in itertools.combinations(names, 2):
                EncounterSession(
                    first=nodes[a].endpoint,
                    second=nodes[b].endpoint,
                    now=now,
                ).run()
                now += 60.0
        return now

    reassign()
    now = 0.0
    for user in users:
        host = rng.choice(names)
        nodes[host].send(host, user, f"mail for {user}", now)
    now = sweep(now + 60.0)

    for day in range(2, 5):
        assignment = reassign()  # day boundary: new filters everywhere
        for user in users:
            host = rng.choice(names)
            nodes[host].send(host, user, f"day-{day} mail for {user}", now)
        now = sweep(now + 60.0)
        assert_index_matches_scan(nodes, f"seed {seed}, day {day}")
        # Eventual filter consistency across the reassignment: each user's
        # mail reached whichever node hosts the user today.
        for name, hosted in assignment.items():
            for user in hosted:
                delivered = [
                    item
                    for item in nodes[name].replica.stored_items()
                    if item.attribute("destination") == user
                ]
                assert delivered, (
                    f"seed {seed}, day {day}: {name} hosts {user} but holds "
                    "none of their mail after full sweeps"
                )
