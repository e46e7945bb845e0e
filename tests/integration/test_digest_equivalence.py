"""Digest-on vs digest-off differential harness (docs/protocol.md §8).

The knowledge-digest mode claims to be a pure wire optimisation with a
bounded, recoverable error mode: under any (scenario, fault schedule), a
population syncing with digests must converge to the *same* final replica
state as one syncing with exact knowledge — same stores, same knowledge,
same delivered set — with false positives costing only deferred
transmissions, never lost deliveries or duplicate deliveries.

The harness replays identically seeded populations through both modes.
Mid-run states legitimately diverge (an FP defers an item; the fault
injector's RNG stream shifts with the request shape), so the comparison
happens after a *convergence tail*: fault-free rounds of all-pairs
encounters, first in digest mode (each round re-offers suppressed items
under fresh salts — the geometric-decay recovery path the design relies
on), then in exact mode until every replica's knowledge is identical.
Only the final fixed point is compared, byte for byte.

Three channel regimes, ≥20 seeded workloads total: clean channels,
faulty channels (truncation/duplication/corruption/replay), and
adversarial channels (fabrication armed — which in digest mode tampers
with the digest itself: saturated restamped bitmaps and bit-flips under
stale checksums, both of which must land in quarantine counters, never
crash or poison state).
"""

import random
from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

import pytest

from repro.dtn.epidemic import EpidemicPolicy
from repro.faults import FaultConfig, FaultInjector
from repro.replication import (
    DigestConfig,
    EncounterSession,
    KnowledgeDigest,
    Replica,
    ReplicaId,
    SessionConfig,
    SyncEndpoint,
    VIOLATION_DIGEST,
    VIOLATION_KNOWLEDGE_FABRICATION,
    build_batch,
)
from repro.replication.filters import MultiAddressFilter
from repro.replication.ids import Version
from repro.replication.routing import SyncContext
from repro.replication.sync import SyncRequest
from repro.replication.versions import VersionVector

NODES = 6
ITEMS = 24
ENCOUNTERS = 80

#: Coarse FP budget so suppressions actually happen at this scale.
DIGEST = DigestConfig(fp_rate=0.1, force=True)

FAULTY = FaultConfig(
    truncation_probability=0.15,
    duplication_probability=0.1,
    corruption_probability=0.1,
    replay_probability=0.1,
)

ADVERSARIAL = FaultConfig(
    corruption_probability=0.1,
    malformed_probability=0.05,
    fabrication_probability=0.3,
)

CLEAN_SEEDS = list(range(10))
FAULTY_SEEDS = [100, 101, 102, 103, 104]
ADVERSARIAL_SEEDS = [200, 201, 202, 203, 204]


@dataclass
class Outcome:
    """The final fixed point of one run, plus its running counters."""

    stores: Tuple = ()
    knowledge: Tuple = ()
    delivered: Tuple = ()
    transmissions: int = 0
    digest_syncs: int = 0
    suppressed: int = 0
    fp_resends: int = 0
    violation_kinds: List[str] = field(default_factory=list)
    digest_tail_rounds: int = 0
    exact_tail_rounds: int = 0


def _population() -> List[SyncEndpoint]:
    endpoints = []
    for index in range(NODES):
        name = f"dg-{index:02d}"
        replica = Replica(ReplicaId(name), MultiAddressFilter(own_address=name))
        endpoints.append(SyncEndpoint(replica, EpidemicPolicy().bind(replica)))
    return endpoints


def _schedule(seed: int):
    rng = random.Random(seed)
    events = []
    for step in range(ENCOUNTERS):
        if step < ITEMS:
            author = rng.randrange(NODES)
            destination = (author + 1 + rng.randrange(NODES - 1)) % NODES
            events.append(("author", author, destination))
        a = rng.randrange(NODES)
        b = (a + 1 + rng.randrange(NODES - 1)) % NODES
        events.append(("meet", a, b))
    return events


def _knowledge_fingerprint(endpoint: SyncEndpoint) -> Tuple:
    knowledge = endpoint.replica.knowledge
    return tuple(
        (
            replica.name,
            knowledge.known_counter_prefix(replica),
            tuple(sorted(knowledge.extra_counters(replica))),
        )
        for replica in sorted(knowledge.replicas(), key=lambda r: r.name)
    )


def _converged(endpoints: List[SyncEndpoint]) -> bool:
    fingerprints = {_knowledge_fingerprint(endpoint) for endpoint in endpoints}
    return len(fingerprints) == 1


def _all_pairs():
    return [(a, b) for a in range(NODES) for b in range(a + 1, NODES)]


def _tail(
    endpoints: List[SyncEndpoint],
    now: float,
    digest: Optional[DigestConfig],
    max_rounds: int,
) -> Tuple[int, float, List]:
    """Fault-free all-pairs rounds until knowledge is uniform."""
    collected = []
    for round_index in range(max_rounds):
        if _converged(endpoints):
            return round_index, now, collected
        for a, b in _all_pairs():
            now += 1.0
            collected.extend(
                EncounterSession(
                    first=endpoints[a],
                    second=endpoints[b],
                    now=now,
                    config=SessionConfig(digest=digest),
                ).run()
            )
    return max_rounds, now, collected


def _run(seed: int, digest: Optional[DigestConfig], faults) -> Outcome:
    endpoints = _population()
    injector = FaultInjector(faults, seed=seed + 1) if faults else None
    outcome = Outcome()
    all_stats = []

    factory = None
    if injector is not None:
        def factory(source_id, target_id):
            return injector.transport(source_id.name, target_id.name)

    now = 0.0
    for event in _schedule(seed):
        kind, a, b = event
        if kind == "author":
            endpoints[a].replica.create_item(
                payload=f"p{a}-{b}",
                attributes={
                    "destination": f"dg-{b:02d}",
                    "source": f"dg-{a:02d}",
                },
            )
            continue
        now += 1.0
        all_stats.extend(
            EncounterSession(
                first=endpoints[a],
                second=endpoints[b],
                now=now,
                config=SessionConfig(digest=digest),
                transport_factory=factory,
            ).run()
        )

    # Convergence tail, fault-free. The digest leg first (re-offers under
    # fresh salts — the recovery path under test), then exact mode pins
    # the fixed point deterministically.
    if digest is not None:
        outcome.digest_tail_rounds, now, tail_stats = _tail(
            endpoints, now, digest, max_rounds=8
        )
        all_stats.extend(tail_stats)
    outcome.exact_tail_rounds, now, tail_stats = _tail(
        endpoints, now, None, max_rounds=10
    )
    all_stats.extend(tail_stats)
    assert _converged(endpoints), "population failed to converge"

    for stats in all_stats:
        outcome.transmissions += stats.sent_total
        outcome.digest_syncs += 1 if stats.digest_used else 0
        outcome.suppressed += stats.digest_suppressed
        outcome.fp_resends += stats.fp_resend
        outcome.violation_kinds.extend(v.kind for v in stats.violations)

    outcome.stores = tuple(
        tuple(
            sorted(
                (str(item.item_id), str(item.version), repr(item.payload))
                for item in endpoint.replica.stored_items()
            )
        )
        for endpoint in endpoints
    )
    outcome.knowledge = tuple(
        _knowledge_fingerprint(endpoint) for endpoint in endpoints
    )
    outcome.delivered = tuple(
        tuple(
            sorted(
                str(item.item_id)
                for item in endpoint.replica.stored_items()
                if item.attributes.get("destination") == endpoint.replica_id.name
            )
        )
        for endpoint in endpoints
    )
    return outcome


def _assert_same_fixed_point(digest_on: Outcome, digest_off: Outcome) -> None:
    assert digest_on.stores == digest_off.stores
    assert digest_on.knowledge == digest_off.knowledge
    assert digest_on.delivered == digest_off.delivered


@pytest.mark.parametrize("seed", CLEAN_SEEDS)
def test_clean_channels_reach_identical_fixed_point(seed):
    digest_on = _run(seed, DIGEST, faults=None)
    digest_off = _run(seed, None, faults=None)
    _assert_same_fixed_point(digest_on, digest_off)
    assert digest_on.digest_syncs > 0  # the digest path actually ran
    assert not digest_on.violation_kinds  # clean channels: nothing rejected
    assert not digest_off.violation_kinds


@pytest.mark.parametrize("seed", FAULTY_SEEDS)
def test_faulty_channels_reach_identical_fixed_point(seed):
    digest_on = _run(seed, DIGEST, faults=FAULTY)
    digest_off = _run(seed, None, faults=FAULTY)
    _assert_same_fixed_point(digest_on, digest_off)
    assert digest_on.digest_syncs > 0


@pytest.mark.parametrize("seed", ADVERSARIAL_SEEDS)
def test_adversarial_channels_reach_identical_fixed_point(seed):
    digest_on = _run(seed, DIGEST, faults=ADVERSARIAL)
    digest_off = _run(seed, None, faults=ADVERSARIAL)
    _assert_same_fixed_point(digest_on, digest_off)
    assert digest_on.digest_syncs > 0


def test_adversarial_digest_tampering_lands_in_quarantine():
    """Across the adversarial corpus, tampered digests must surface as
    typed violations (both shapes: transit damage and consistent
    fabrication) — and never anything worse than a rejected request."""
    kinds = set()
    for seed in ADVERSARIAL_SEEDS:
        kinds.update(_run(seed, DIGEST, faults=ADVERSARIAL).violation_kinds)
    assert VIOLATION_DIGEST in kinds
    assert VIOLATION_KNOWLEDGE_FABRICATION in kinds


def test_suppression_machinery_exercised_across_corpus():
    """The corpus must actually exercise the FP path it claims to test:
    across the clean seeds, digests suppress and at least one certain FP
    is proven by a re-send."""
    total_suppressed = 0
    total_resends = 0
    for seed in CLEAN_SEEDS:
        outcome = _run(seed, DIGEST, faults=None)
        total_suppressed += outcome.suppressed
        total_resends += outcome.fp_resends
    assert total_suppressed > 0
    assert total_resends > 0


# -- targeted forced-FP scenario ----------------------------------------------


def _forced_fp_salt(
    vector, version: Version, fp_rate: float, want_fp: bool
) -> int:
    """Smallest salt whose digest of ``vector`` (mis)judges ``version``."""
    for salt in range(10_000):
        digest = KnowledgeDigest.build(vector, fp_rate, salt)
        if digest.might_contain(version) == want_fp:
            return salt
    raise AssertionError("no salt found — hashing is broken")


def test_forced_fp_defers_but_never_loses_the_item():
    """Deterministic two-node pin of the FP semantics: a false positive
    suppresses the item this contact (a transmission digest-off would
    have made), the ledger remembers it, and the next contact's fresh
    salt re-offers it — one `fp_resend`, zero lost deliveries, and at
    least as many sessions as the exact path needed."""
    source = Replica(ReplicaId("src"), MultiAddressFilter(own_address="src"))
    target = Replica(ReplicaId("dst"), MultiAddressFilter(own_address="dst"))
    item = source.create_item("hello", {"destination": "dst", "source": "src"})
    # Give the target enough knowledge that its digest has set bits.
    for counter in range(1, 30):
        target.knowledge.add(Version(ReplicaId("elsewhere"), counter))

    fp_rate = 0.25
    fp_salt = _forced_fp_salt(target.knowledge, item.version, fp_rate, True)
    ok_salt = _forced_fp_salt(target.knowledge, item.version, fp_rate, False)
    source_endpoint = SyncEndpoint(source, EpidemicPolicy().bind(source))
    context = SyncContext(
        local=source.replica_id, remote=target.replica_id, now=0.0
    )

    def request_with_salt(salt: int) -> SyncRequest:
        return SyncRequest(
            target_id=target.replica_id,
            knowledge=VersionVector.empty(),
            filter=target.filter,
            routing_state=None,
            digest=KnowledgeDigest.build(target.knowledge, fp_rate, salt),
        )

    # Contact 1: the FP salt suppresses the (unknown!) item.
    batch, stats = build_batch(source_endpoint, request_with_salt(fp_salt), context)
    assert [entry.item.version for entry in batch] == []
    assert stats.digest_used
    assert stats.digest_suppressed == 1
    assert stats.fp_resend == 0

    # Contact 2: a fresh salt clears the FP; the deferred item is sent and
    # the ledger proves the earlier suppression was a false positive.
    batch, stats = build_batch(source_endpoint, request_with_salt(ok_salt), context)
    assert [entry.item.version for entry in batch] == [item.version]
    assert stats.digest_suppressed == 0
    assert stats.fp_resend == 1

    # Same two contacts digest-off: the item goes out first time. The
    # digest run needed one extra session but never sent a duplicate and
    # never lost the delivery — transmissions are only ever added.
    exact_source = Replica(ReplicaId("src"), MultiAddressFilter(own_address="src"))
    exact_item = exact_source.create_item(
        "hello", {"destination": "dst", "source": "src"}
    )
    exact_endpoint = SyncEndpoint(exact_source, EpidemicPolicy().bind(exact_source))
    exact_request = SyncRequest(
        target_id=target.replica_id,
        knowledge=target.knowledge.copy(),
        filter=target.filter,
        routing_state=None,
    )
    exact_batch, exact_stats = build_batch(exact_endpoint, exact_request, context)
    assert [entry.item.version for entry in exact_batch] == [exact_item.version]
    assert not exact_stats.digest_used
    assert exact_stats.metadata_bytes > 0
