"""Cached-vs-uncached equivalence under randomized faulty channels.

The checksum cache claims to be a pure optimisation: for any (scenario,
fault schedule), a run with ``use_cache=True`` must be indistinguishable
from a run with ``use_cache=False`` in everything except how many hashes
were computed. This harness replays identically seeded populations and
fault injectors through both modes and compares the whole observable
surface: every per-sync counter and violation, every delivered checksum
(via a running digest of the delivered streams), final knowledge, final
store contents, and the injector's own fault counters.

Caching consumes no randomness, so the two fault schedules are identical
draw-for-draw — any divergence is a real behavioural difference, not
noise. The fault mix deliberately includes payload corruption and frame
replay: the two attacks a cache could plausibly soften.
"""

import hashlib
import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import pytest

from repro.dtn.epidemic import EpidemicPolicy
from repro.faults import FaultConfig, FaultInjector
from repro.replication import (
    EncounterSession,
    Replica,
    ReplicaId,
    SessionConfig,
    SyncEndpoint,
)
from repro.replication.filters import MultiAddressFilter

NODES = 8
ITEMS = 30
ENCOUNTERS = 120

FAULTS = FaultConfig(
    truncation_probability=0.1,
    duplication_probability=0.1,
    corruption_probability=0.15,
    replay_probability=0.1,
    malformed_probability=0.05,
    fabrication_probability=0.05,
)


@dataclass
class Fingerprint:
    """Everything observable about one run, comparable field by field."""

    sync_counters: List[Tuple] = field(default_factory=list)
    violations: List[Tuple] = field(default_factory=list)
    delivered_digest: str = ""
    knowledge: Tuple = ()
    stores: Tuple = ()
    fault_counters: Dict[str, int] = field(default_factory=dict)
    checksum_misses: int = 0
    checksum_hits: int = 0


class _TapTransport:
    """Wraps an injector transport, digesting the delivered stream."""

    def __init__(self, inner, digest) -> None:
        self._inner = inner
        self._digest = digest

    def corrupt_request(self, request):
        return self._inner.corrupt_request(request)

    def deliver(self, batch):
        outcome = self._inner.deliver(batch)
        for wire in outcome.delivered:
            if isinstance(wire, dict):
                self._digest.update(b"<garbage-frame>")
                continue
            record = (
                str(wire.item.item_id),
                str(wire.item.version),
                repr(wire.item.payload),
                wire.checksum,
            )
            self._digest.update(repr(record).encode())
        return outcome


def _population(seed: int) -> List[SyncEndpoint]:
    endpoints = []
    for index in range(NODES):
        name = f"eq-{index:02d}"
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


def _run(seed: int, use_cache: bool) -> Fingerprint:
    endpoints = _population(seed)
    injector = FaultInjector(FAULTS, seed=seed + 1)
    digest = hashlib.sha256()
    print_ = Fingerprint()

    def factory(source_id, target_id):
        inner = injector.transport(source_id.name, target_id.name)
        assert inner is not None  # the fault mix always arms the channel
        return _TapTransport(inner, digest)

    now = 0.0
    for event in _schedule(seed):
        kind, a, b = event
        if kind == "author":
            endpoints[a].replica.create_item(
                payload=f"p{a}-{b}-{now}",
                attributes={
                    "destination": f"eq-{b:02d}",
                    "source": f"eq-{a:02d}",
                },
            )
            continue
        now += 1.0
        stats_pair = EncounterSession(
            first=endpoints[a],
            second=endpoints[b],
            now=now,
            config=SessionConfig(use_cache=use_cache),
            transport_factory=factory,
        ).run()
        for stats in stats_pair:
            print_.sync_counters.append(
                (
                    stats.source.name,
                    stats.target.name,
                    stats.sent_total,
                    stats.received_total,
                    stats.redundant_received,
                    stats.lost_in_transit,
                    stats.quarantined_entries,
                    stats.rejected_knowledge,
                    stats.interrupted,
                )
            )
            print_.violations.extend(
                (v.kind, v.peer, v.observer) for v in stats.violations
            )
            print_.checksum_hits += stats.checksum_cache_hits
            print_.checksum_misses += stats.checksum_cache_misses
    print_.delivered_digest = digest.hexdigest()
    print_.knowledge = tuple(
        tuple(
            (replica.name, endpoint.replica.knowledge.known_counter_prefix(replica))
            for replica in endpoint.replica.knowledge.replicas()
        )
        for endpoint in endpoints
    )
    print_.stores = tuple(
        tuple(
            sorted(
                (str(item.item_id), str(item.version), repr(item.payload))
                for item in endpoint.replica.stored_items()
            )
        )
        for endpoint in endpoints
    )
    print_.fault_counters = injector.counters.as_dict()
    return print_


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_cached_and_uncached_runs_are_indistinguishable(seed):
    cached = _run(seed, use_cache=True)
    uncached = _run(seed, use_cache=False)
    assert cached.delivered_digest == uncached.delivered_digest
    assert cached.sync_counters == uncached.sync_counters
    assert cached.violations == uncached.violations
    assert cached.knowledge == uncached.knowledge
    assert cached.stores == uncached.stores
    assert cached.fault_counters == uncached.fault_counters


@pytest.mark.parametrize("seed", [0, 1])
def test_cache_actually_fires_under_faults(seed):
    """Guard against the trivial way to pass the equivalence test: a cache
    that never engages. The uncached leg must report zero cache activity
    and the cached leg real hits."""
    cached = _run(seed, use_cache=True)
    uncached = _run(seed, use_cache=False)
    assert uncached.checksum_hits == 0 and uncached.checksum_misses == 0
    assert cached.checksum_hits > 0


def test_corruption_is_caught_in_every_mode():
    """With corruption armed, both modes quarantine the same nonzero
    number of entries — the cache never admits a corrupted frame."""
    for seed in range(6):
        cached = _run(seed, use_cache=True)
        uncached = _run(seed, use_cache=False)
        quarantined_cached = sum(c[6] for c in cached.sync_counters)
        quarantined_uncached = sum(c[6] for c in uncached.sync_counters)
        assert quarantined_cached == quarantined_uncached
        if quarantined_cached:
            return
    pytest.fail("no seed produced a corrupted entry; fault mix too weak")
