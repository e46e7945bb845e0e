"""Metadata-overhead measurements: the paper's "compact knowledge" claim.

"Knowledge is represented in a compact form, as a version vector, with
size proportional to the number of replicas rather than the number of
items in the system." This benchmark measures exactly that, in wire
bytes, using the codec: knowledge size as the message count grows (flat)
versus as the replica count grows (linear), plus the per-sync metadata
cost in the full vehicular scenario.
"""

from repro.experiments.report import render_series_table
from repro.replication import (
    AddressFilter,
    KnowledgeDigest,
    Replica,
    ReplicaId,
    SyncEndpoint,
    SyncSession,
    build_batch,
    knowledge_wire_size,
)
from repro.replication.filters import MultiAddressFilter
from repro.replication.ids import Version
from repro.replication.routing import SyncContext
from repro.replication.sync import SyncRequest
from repro.replication.versions import VersionVector

from repro.dtn.epidemic import EpidemicPolicy


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


def test_knowledge_size_flat_in_messages(benchmark, report):
    counts = (10, 100, 1000, 5000)
    points = benchmark.pedantic(
        knowledge_bytes_vs_messages, args=(counts,), rounds=1, iterations=1
    )
    report(
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


def test_knowledge_size_linear_in_replicas(benchmark, report):
    counts = (5, 10, 20, 40)
    points = benchmark.pedantic(
        knowledge_bytes_vs_replicas, args=(counts,), rounds=1, iterations=1
    )
    report(
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


def digest_vs_exact_bytes(version_counts, fp_rate=0.1):
    """Fragmented knowledge (every other counter known): exact bytes per
    version vs digest bytes per version, as the version count grows."""
    author = ReplicaId("author")
    points = []
    for count in version_counts:
        vector = VersionVector.empty()
        for index in range(count):
            vector.add(Version(author, 2 * index + 1))
        digest = KnowledgeDigest.build(vector, fp_rate, salt=count)
        points.append(
            (count, float(knowledge_wire_size(vector)), float(digest.wire_size()))
        )
    return points


def test_digest_reduces_fragmented_knowledge_bytes(benchmark, report):
    """The knowledge-digest tentpole claim (docs/protocol.md §8): on
    fragmented knowledge the Bloom digest beats the exact encoding by
    ≥5× at the 5000-version point."""
    counts = (500, 1000, 2500, 5000)
    points = benchmark.pedantic(
        digest_vs_exact_bytes, args=(counts,), rounds=1, iterations=1
    )
    report(
        "metadata_digest",
        render_series_table(
            "Fragmented knowledge wire size (bytes): exact vector vs Bloom digest",
            "versions",
            {
                "exact": [(count, exact) for count, exact, _ in points],
                "digest": [(count, digest) for count, _, digest in points],
            },
            value_format="{:8.0f}",
        ),
    )
    by_count = {count: (exact, digest) for count, exact, digest in points}
    exact_5k, digest_5k = by_count[5000]
    assert exact_5k / digest_5k >= 5.0


def test_digest_accounting_matches_hand_computed_expectations():
    """Pin `digest_suppressed` and `fp_resend` on a tiny fixture against
    independent re-derivation: suppressed must equal the number of stored
    unknown versions the digest (wrongly or rightly) claims, and a later
    send of a suppressed version must count exactly once as an FP."""
    source = Replica(ReplicaId("src"), MultiAddressFilter(own_address="src"))
    endpoint = SyncEndpoint(source, EpidemicPolicy().bind(source))
    items = [
        source.create_item(f"m{i}", {"destination": "dst", "source": "src"})
        for i in range(8)
    ]
    target_knowledge = VersionVector.empty()
    for counter in range(1, 40):
        target_knowledge.add(Version(ReplicaId("elsewhere"), counter))
    context = SyncContext(
        local=source.replica_id, remote=ReplicaId("dst"), now=0.0
    )

    def contact(salt):
        digest = KnowledgeDigest.build(target_knowledge, 0.25, salt)
        request = SyncRequest(
            target_id=ReplicaId("dst"),
            knowledge=VersionVector.empty(),
            filter=AddressFilter("dst"),
            routing_state=None,
            digest=digest,
        )
        batch, stats = build_batch(endpoint, request, context)
        # Independent re-derivation of the suppression count: stored item
        # versions the digest claims as known (all are actually unknown
        # to the fixture's target, so every claim is a false positive).
        expected = sum(digest.might_contain(item.version) for item in items)
        assert stats.digest_suppressed == expected
        sent = {entry.item.version for entry in batch}
        assert len(sent) == len(items) - expected  # suppressed ∪ sent = store
        return expected, sent, stats

    suppressed_first = None
    for salt in range(1000):
        expected, sent, stats = contact(salt)
        if expected:
            suppressed_first = {
                item.version for item in items if item.version not in sent
            }
            assert stats.fp_resend == 0  # nothing was suppressed before
            break
    assert suppressed_first, "no salt produced an FP at rate 0.25"

    for salt in range(1000, 2000):
        digest = KnowledgeDigest.build(target_knowledge, 0.25, salt)
        if not any(digest.might_contain(item.version) for item in items):
            # A wholly FP-free salt: every stored item goes out, and each
            # previously suppressed version counts as exactly one proven
            # FP re-send.
            _, sent_second, stats = contact(salt)
            assert suppressed_first <= sent_second
            assert stats.fp_resend == len(suppressed_first)
            break
    else:
        raise AssertionError("no salt cleared the FPs at rate 0.25")

    # A third contact sending the same versions proves nothing new.
    _, _, stats = contact(salt + 1)
    assert stats.fp_resend == 0


def test_sync_metadata_cost_is_bounded(benchmark):
    """A no-op sync between converged replicas costs only the knowledge
    exchange — bytes proportional to replicas, regardless of the 500
    messages in their stores."""
    source = Replica(ReplicaId("src"), AddressFilter("src"))
    target = Replica(ReplicaId("dst"), AddressFilter("dst"))
    for i in range(500):
        source.create_item(f"m{i}", {"destination": "dst"})
    SyncSession(source=SyncEndpoint(source), target=SyncEndpoint(target)).run()

    def converged_sync_overhead():
        SyncSession(
            source=SyncEndpoint(source),
            target=SyncEndpoint(target),
        ).run()
        return knowledge_wire_size(target.knowledge)

    overhead = benchmark(converged_sync_overhead)
    assert overhead < 100  # two replicas' worth of entries, not 500 items
