"""Microbenchmarks of the replication substrate itself.

Not a paper figure — these quantify the substrate costs the paper argues
are low: knowledge (version-vector) operations that scale with replica
count rather than item count, and pairwise sync throughput.
"""

import random

from repro.dtn import EpidemicPolicy
from repro.replication import (
    AddressFilter,
    Replica,
    ReplicaId,
    SyncEndpoint,
    SyncSession,
    VersionVector,
)
from repro.replication.ids import Version


def test_version_vector_add_and_contains(benchmark):
    replicas = [ReplicaId(f"r{i}") for i in range(35)]
    rng = random.Random(1)
    versions = [
        Version(rng.choice(replicas), rng.randint(1, 500)) for _ in range(2000)
    ]

    def build_and_probe():
        vector = VersionVector.empty()
        for version in versions:
            vector.add(version)
        hits = sum(1 for version in versions if vector.contains(version))
        return hits

    assert benchmark(build_and_probe) == len(versions)


def test_version_vector_merge(benchmark):
    rng = random.Random(2)
    replicas = [ReplicaId(f"r{i}") for i in range(35)]

    def make_vector():
        return VersionVector.from_versions(
            Version(rng.choice(replicas), rng.randint(1, 300))
            for _ in range(400)
        )

    left, right = make_vector(), make_vector()
    merged = benchmark(lambda: left.merged(right))
    assert merged.dominates(left) and merged.dominates(right)


def test_sync_throughput_500_items(benchmark):
    """One full sync moving 500 fresh messages between two replicas."""

    def run_sync():
        source = Replica(ReplicaId("src"), AddressFilter("src"))
        target = Replica(ReplicaId("dst"), AddressFilter("dst"))
        for i in range(500):
            source.create_item(f"m{i}", {"destination": "dst"})
        stats = SyncSession(
            source=SyncEndpoint(source),
            target=SyncEndpoint(target),
        ).run()
        return stats.sent_total

    assert benchmark(run_sync) == 500


def test_no_op_sync_after_convergence(benchmark):
    """Re-syncing converged replicas is cheap: the knowledge exchange
    filters everything out without transferring a single item."""
    source = Replica(ReplicaId("src"), AddressFilter("src"))
    target = Replica(ReplicaId("dst"), AddressFilter("dst"))
    for i in range(500):
        source.create_item(f"m{i}", {"destination": "dst"})
    SyncSession(source=SyncEndpoint(source), target=SyncEndpoint(target)).run()

    stats = benchmark(
        lambda: SyncSession(
            source=SyncEndpoint(source),
            target=SyncEndpoint(target),
        ).run()
    )
    assert stats.sent_total == 0


def test_epidemic_policy_decision_rate(benchmark):
    """Per-item forwarding decisions are the hot loop of every emulation."""
    replica = Replica(ReplicaId("a"), AddressFilter("a"))
    policy = EpidemicPolicy().bind(replica)
    items = [
        replica.create_item(f"m{i}", {"destination": f"d{i % 7}"})
        for i in range(300)
    ]
    target_filter = AddressFilter("b")
    from repro.replication import SyncContext

    context = SyncContext(ReplicaId("a"), ReplicaId("b"), 0.0)

    def decide_all():
        return sum(
            1
            for item in items
            if policy.to_send(
                replica.get_item(item.item_id), target_filter, context
            )
            is not None
        )

    assert benchmark(decide_all) == 300
