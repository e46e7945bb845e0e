"""Metadata-overhead measurements: the paper's "compact knowledge" claim.

"Knowledge is represented in a compact form, as a version vector, with
size proportional to the number of replicas rather than the number of
items in the system." This test measures exactly that, in wire
bytes, using the codec: knowledge size as the message count grows (flat)
versus as the replica count grows (linear), plus the per-sync metadata
cost in the full vehicular scenario.
"""

from repro.experiments.report import render_series_table
from repro.replication import (
    AddressFilter,
    Replica,
    ReplicaId,
    SyncEndpoint,
    SyncSession,
    knowledge_wire_size,
)


def knowledge_bytes_vs_messages(message_counts):
    """One replica authoring N messages: knowledge bytes stay flat."""
    points = []
    for count in message_counts:
        replica = Replica(ReplicaId("solo"), AddressFilter("solo"))
        for i in range(count):
            replica.create_item(f"m{i}", {"destination": "elsewhere"})
        points.append((count, float(knowledge_wire_size(replica.knowledge))))
    return points


def knowledge_bytes_vs_replicas(replica_counts, messages_per_replica=20):
    """N replicas, all fully synced: knowledge bytes grow with N."""
    points = []
    for count in replica_counts:
        replicas = [
            Replica(ReplicaId(f"r{i:03d}"), AddressFilter(f"r{i:03d}"))
            for i in range(count)
        ]
        for replica in replicas:
            for i in range(messages_per_replica):
                replica.create_item(f"m{i}", {"destination": "elsewhere"})
        # Everyone learns everyone's versions via a sink that floods back.
        hub = replicas[0]
        for other in replicas[1:]:
            hub.knowledge.merge(other.knowledge)
        points.append((count, float(knowledge_wire_size(hub.knowledge))))
    return points


def test_knowledge_size_flat_in_messages(check_results):
    points = knowledge_bytes_vs_messages((10, 100, 1000, 5000))
    check_results(
        "metadata_messages",
        render_series_table(
            "Knowledge wire size (bytes) vs messages authored at one replica",
            "messages",
            {"bytes": points},
            value_format="{:8.0f}",
        ),
    )
    sizes = dict(points)
    # 500x more messages, same one-entry footprint (only the prefix
    # integer gains digits).
    assert sizes[5000] <= sizes[10] + 4


def test_knowledge_size_linear_in_replicas(check_results):
    points = knowledge_bytes_vs_replicas((5, 10, 20, 40))
    check_results(
        "metadata_replicas",
        render_series_table(
            "Knowledge wire size (bytes) vs number of replicas (fully synced)",
            "replicas",
            {"bytes": points},
            value_format="{:8.0f}",
        ),
    )
    sizes = dict(points)
    assert sizes[40] > sizes[5]
    # Roughly linear: doubling replicas roughly doubles bytes (±40%).
    ratio = sizes[40] / sizes[20]
    assert 1.4 <= ratio <= 2.6


def test_sync_metadata_cost_is_bounded():
    """A no-op sync between converged replicas costs only the knowledge
    exchange — bytes proportional to replicas, regardless of the 500
    messages in their stores."""
    source = Replica(ReplicaId("src"), AddressFilter("src"))
    target = Replica(ReplicaId("dst"), AddressFilter("dst"))
    for i in range(500):
        source.create_item(f"m{i}", {"destination": "dst"})
    SyncSession(source=SyncEndpoint(source), target=SyncEndpoint(target)).run()
    SyncSession(source=SyncEndpoint(source), target=SyncEndpoint(target)).run()
    # Two replicas' worth of entries, not 500 items.
    assert knowledge_wire_size(target.knowledge) < 100
