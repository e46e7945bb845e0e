"""What one item costs to cross a hop — counted, not timed.

The paper's policies re-stamp per-copy state (Epidemic's TTL) on every
forwarded item at every hop, so the objects one transmission builds are
the per-item cost of the whole sync path: select → prepare → stamp →
verify → learn → store. This drives a small deterministic epidemic flood
over a duplicating loop-back (the shape of the benchmark's tiny
``substrate_flood``) with the constructors wrapped by counters, and pins
the count per transmitted item: one ``Item``, one knowledge entry, two
``BatchEntry`` (selection, stamped), and no ``dataclasses.replace``.
"""

import dataclasses
import random

from repro.dtn.epidemic import EpidemicPolicy
from repro.replication import (
    EncounterSession,
    MultiAddressFilter,
    Replica,
    ReplicaId,
    SyncEndpoint,
    items as items_module,
    session as session_module,
)
from repro.replication.items import Item
from repro.replication.sync import BatchEntry
from repro.replication.versions import _Entry

REPLICAS = 8
ITEMS = 300
ENCOUNTERS = 600
DUPLICATE_EVERY = 7
UNBOUNDED_TTL = 10**9


class _Delivery:
    truncated = False
    lost = 0

    def __init__(self, delivered):
        self.delivered = delivered


class _DuplicatingLoopback:
    """Intact and in order, every 7th entry handed over twice."""

    def __init__(self):
        self.carried = self.duplicates = 0

    def deliver(self, batch):
        delivered = []
        for entry in batch:
            delivered.append(entry)
            self.carried += 1
            if self.carried % DUPLICATE_EVERY == 0:
                delivered.append(entry)
                self.duplicates += 1
        return _Delivery(delivered)


def _name(index):
    return f"flood-{index}"


def _tape(seed):
    """Random pairs, then a chain sweep there and back so all converge."""
    rng = random.Random(seed)
    sweep = [(i, i + 1) for i in range(REPLICAS - 1)]
    drain = sweep + [(b, a) for a, b in reversed(sweep)]
    pairs = []
    for _ in range(ENCOUNTERS - len(drain)):
        a = rng.randrange(REPLICAS)
        b = rng.randrange(REPLICAS - 1)
        pairs.append((a, b + 1 if b >= a else b))
    authored_before = {}
    for _ in range(ITEMS):
        author = rng.randrange(REPLICAS)
        destination = (author + 1 + rng.randrange(REPLICAS - 1)) % REPLICAS
        authored_before.setdefault(
            rng.randrange(int(len(pairs) * 0.8)), []
        ).append((author, destination))
    return pairs + drain, authored_before


def _count_constructions(monkeypatch, counts, cls):
    original = cls.__init__

    def counted(self, *args, **kwargs):
        counts[cls.__name__] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counted)


def test_objects_built_per_transmitted_item(monkeypatch):
    counts = dict.fromkeys(("Item", "BatchEntry", "_Entry", "replace"), 0)
    for cls in (Item, BatchEntry, _Entry):
        _count_constructions(monkeypatch, counts, cls)

    def counted_replace(obj, **changes):
        counts["replace"] += 1
        return dataclasses.replace(obj, **changes)

    # ``replace`` as the two modules on the per-item path import it.
    monkeypatch.setattr(items_module, "replace", counted_replace)
    monkeypatch.setattr(session_module, "replace", counted_replace)

    endpoints = []
    for index in range(REPLICAS):
        replica = Replica(
            ReplicaId(_name(index)), MultiAddressFilter(own_address=_name(index))
        )
        policy = EpidemicPolicy(initial_ttl=UNBOUNDED_TTL).bind(replica)
        endpoints.append(SyncEndpoint(replica, policy))
    pairs, authored_before = _tape(seed=42)
    channel = _DuplicatingLoopback()
    sent = redundant = 0
    for index, (a, b) in enumerate(pairs):
        for author, destination in authored_before.get(index, ()):
            endpoints[author].replica.create_item(
                payload=f"m{index}",
                attributes={
                    "destination": _name(destination),
                    "source": _name(author),
                },
            )
        for stats in EncounterSession(
            first=endpoints[a],
            second=endpoints[b],
            now=float(index),
            transport_factory=lambda source, target: channel,
        ).run():
            sent += stats.sent_total
            redundant += stats.redundant_received

    # The flood did what the benchmark's does: every item reached every
    # other replica exactly once, and every duplicate was recognised.
    assert sent == ITEMS * (REPLICAS - 1)
    assert redundant == channel.duplicates > 0
    knowledge = [endpoint.replica.knowledge for endpoint in endpoints]
    assert all(vector == knowledge[0] for vector in knowledge)

    learned = sent + ITEMS  # every version learned: received or authored
    # One Item per hop (the re-stamped wire copy); an authored item is
    # built once and re-built once when it gets its initial TTL.
    assert counts["Item"] - 2 * ITEMS <= sent
    # One knowledge entry per learned version: no default, no re-build.
    assert counts["_Entry"] <= learned
    # The selection entry carries the prepared copy; stamping adds one.
    assert counts["BatchEntry"] <= 2 * sent
    # Only the per-sync ``replace(config, max_items=…)`` is left: nothing
    # that scales with items.
    assert counts["replace"] <= 2 * len(pairs)
