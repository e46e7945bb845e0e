"""Tests for the per-instance checksum memo on the sync path.

Stamping and verification both go through ``cached_item_checksum``, which
skips the hash only for the very object it was computed from. The seam to
attack is the receive side: a corrupted copy arrives under an *honest*
``(item_id, version)`` and an *honest* declared checksum (stamped before
the damage), so anything keyed on those alone would wave it through. The
memo is keyed on object identity instead, and must survive only
content-preserving derivations.

``item_checksum`` always computes; it is the specification every
assertion below compares against.
"""

import random
from dataclasses import replace

import pytest

from repro.dtn.epidemic import EpidemicPolicy
from repro.faults import FaultConfig, FaultInjector
from repro.replication import (
    AddressFilter,
    EncounterSession,
    MultiAddressFilter,
    Replica,
    ReplicaId,
    SyncEndpoint,
    SyncSession,
    Version,
)
from repro.replication.events import BaseReplicaObserver
from repro.replication.integrity import (
    VIOLATION_CHECKSUM_MISMATCH,
    cached_item_checksum,
    checksum_computations,
    item_checksum,
)
from repro.replication.items import CHECKSUM_MEMO_ATTRIBUTE
from repro.replication.routing import SyncContext
from repro.replication.sync import BatchEntry, SyncStats, apply_batch

CORRUPTED_PAYLOAD = "\x00<corrupted-in-transit>"


def replica(name):
    return Replica(ReplicaId(name), AddressFilter(name))


def memo_of(item):
    return getattr(item, CHECKSUM_MEMO_ATTRIBUTE, None)


def computations(fn):
    """How many real checksum computations ``fn()`` performed."""
    before = checksum_computations()
    fn()
    return checksum_computations() - before


def stamped_entry(payload="precious"):
    """One honest, stamped entry from bob for alice, plus both endpoints."""
    source = SyncEndpoint(replica("bob"))
    target = SyncEndpoint(replica("alice"))
    source.replica.create_item(payload, {"destination": "alice"})
    session = SyncSession(source=source, target=target)
    batch, _ = session.build_response(session.build_request())
    (entry,) = session.stamp(batch)
    return entry, source, target


def corrupted(entry):
    """What payload corruption does: damage the payload, keep the honest
    declared checksum. ``replace`` drops the instance memo, which is the
    property the receive path's soundness stands on."""
    return replace(entry, item=replace(entry.item, payload=CORRUPTED_PAYLOAD))


def receive(target, entries):
    stats = SyncStats(source=ReplicaId("bob"), target=target.replica_id)
    return apply_batch(target, entries, stats, tolerate_duplicates=True)


class TestSendSide:
    def test_stamp_hashes_once_per_stored_copy(self):
        source = SyncEndpoint(replica("bob"))
        target = SyncEndpoint(replica("alice"))
        source.replica.create_item("hello", {"destination": "alice"})
        session = SyncSession(source=source, target=target)
        batch, _ = session.build_response(session.build_request())
        assert computations(lambda: session.stamp(batch)) == 1
        # A re-offer of the same stored copy (interrupted transfer) is free.
        assert computations(lambda: session.stamp(batch)) == 0
        (entry,) = session.stamp(batch)
        assert entry.checksum == item_checksum(entry.item)


class TestReceiveSide:
    def test_corrupted_first_receipt_is_quarantined(self):
        entry, _, target = stamped_entry()
        corrupt = corrupted(entry)
        assert memo_of(corrupt.item) is None  # damage shed the memo
        stats = receive(target, [corrupt])
        assert stats.quarantined_entries == 1
        assert stats.received_total == 0
        assert [v.kind for v in stats.violations] == [VIOLATION_CHECKSUM_MISMATCH]
        assert target.replica.stored_count == 0

    def test_verified_object_does_not_cover_a_different_object(self):
        """After honestly verifying the true item, a corrupted copy under
        the same (id, version, declared checksum) must still be hashed."""
        entry, _, target = stamped_entry()
        assert receive(target, [entry]).received_total == 1
        corrupt = corrupted(entry)
        before = checksum_computations()
        stats = receive(target, [corrupt])
        assert checksum_computations() - before == 1
        assert [v.kind for v in stats.violations] == [VIOLATION_CHECKSUM_MISMATCH]
        assert target.replica.get_item(entry.item.item_id).payload == "precious"

    def test_channel_duplicate_verifies_without_recomputing(self):
        """The same delivered object seen again (a channel duplicate)."""
        entry, _, target = stamped_entry("fresh")
        before = checksum_computations()
        stats = receive(target, [entry, entry])
        assert checksum_computations() == before
        assert (stats.received_total, stats.redundant_received) == (1, 1)
        assert stats.quarantined_entries == 0

    def test_mismatch_is_never_remembered(self):
        """A refused entry leaves no trace that could later pass: what the
        memo binds to the corrupted object is its *actual* checksum."""
        entry, _, target = stamped_entry()
        corrupt = corrupted(entry)
        for _ in range(2):
            stats = receive(target, [corrupt])
            assert stats.quarantined_entries == 1
            assert stats.received_total == 0
        assert memo_of(corrupt.item) == item_checksum(corrupt.item)
        assert memo_of(corrupt.item) != corrupt.checksum
        assert target.replica.stored_count == 0


class TestMemoPropagation:
    def _item(self):
        alice = replica("alice")
        alice.create_item("hello", {"destination": "alice", "k": 1})
        return next(alice.stored_items())

    def test_content_preserving_derivations_carry_the_memo(self):
        item = self._item()
        checksum = cached_item_checksum(item)
        assert memo_of(item.with_local(ttl=3)) == checksum
        assert memo_of(item.with_local(ttl=3).without_local()) == checksum

    def test_content_changing_derivations_start_clean(self):
        item = self._item()
        cached_item_checksum(item)
        new_version = Version(item.version.replica, item.version.counter + 1)
        assert memo_of(item.with_version(new_version)) is None
        assert memo_of(item.with_version(new_version, payload="x")) is None
        assert memo_of(item.as_tombstone(new_version)) is None
        assert memo_of(replace(item, payload="other")) is None

    def test_with_local_noop_returns_self(self):
        item = self._item().with_local(ttl=5)
        assert item.with_local(ttl=5) is item
        assert item.with_local(absent=None) is item
        stripped = item.without_local()
        assert stripped.without_local() is stripped


class TestPolicyIdentityFastPaths:
    def test_epidemic_reships_a_correctly_stamped_copy_unchanged(self):
        from repro.dtn.epidemic import EpidemicPolicy, TTL_ATTRIBUTE

        alice = replica("alice")
        policy = EpidemicPolicy(initial_ttl=5).bind(alice)
        created = alice.create_item("m", {"destination": "zoe"})
        context = SyncContext(
            local=alice.replica_id, remote=ReplicaId("bob"), now=0.0
        )
        wire = created.without_local().with_local(**{TTL_ATTRIBUTE: 4})
        assert policy.prepare_outgoing(wire, context) is wire
        stale = created.without_local().with_local(**{TTL_ATTRIBUTE: 9})
        assert policy.prepare_outgoing(stale, context) is not stale

    def test_spray_wait_phase_ships_the_stored_single_copy_as_is(self):
        from repro.dtn.spray_wait import COPIES_ATTRIBUTE, SprayAndWaitPolicy

        alice = replica("alice")
        policy = SprayAndWaitPolicy(initial_copies=4).bind(alice)
        created = alice.create_item("m", {"destination": "zoe"})
        alice.adjust_local(created.with_local(**{COPIES_ATTRIBUTE: 1}))
        stored = alice.get_item(created.item_id)
        context = SyncContext(
            local=alice.replica_id, remote=ReplicaId("bob"), now=0.0
        )
        assert policy.prepare_outgoing(stored, context) is stored

    def test_maxprop_reships_an_already_recorded_hoplist_unchanged(self):
        from repro.dtn.maxprop import HOPLIST_ATTRIBUTE, MaxPropPolicy

        alice = replica("alice")
        policy = MaxPropPolicy().bind(alice)
        created = alice.create_item("m", {"destination": "zoe"})
        alice.adjust_local(
            created.with_local(**{HOPLIST_ATTRIBUTE: ("alice",)})
        )
        stored = alice.get_item(created.item_id)
        context = SyncContext(
            local=alice.replica_id, remote=ReplicaId("bob"), now=0.0
        )
        assert policy.prepare_outgoing(stored, context) is stored

    def test_identity_fast_path_preserves_the_checksum_memo(self):
        """The point of the fast path: a reshipped copy keeps its memo, so
        the next hop's stamping is free."""
        from repro.dtn.epidemic import EpidemicPolicy, TTL_ATTRIBUTE

        alice = replica("alice")
        policy = EpidemicPolicy(initial_ttl=5).bind(alice)
        created = alice.create_item("m", {"destination": "zoe"})
        wire = created.without_local().with_local(**{TTL_ATTRIBUTE: 4})
        checksum = cached_item_checksum(wire)
        context = SyncContext(
            local=alice.replica_id, remote=ReplicaId("bob"), now=0.0
        )
        assert memo_of(policy.prepare_outgoing(wire, context)) == checksum


# -- randomized faulty channel -------------------------------------------------

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


class _Tap:
    """Wraps an injector transport, keeping what it delivered."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.delivered = []

    def corrupt_request(self, request):
        return self._inner.corrupt_request(request)

    def deliver(self, batch):
        outcome = self._inner.deliver(batch)
        self.delivered.extend(outcome.delivered)
        return outcome


class _StoredMatchesSpec(BaseReplicaObserver):
    """Every copy of a version any replica stores hashes to what its
    author stored (the first store of a version is the authoring one)."""

    def __init__(self) -> None:
        self.truth = {}
        self.stores = 0

    def on_store(self, item, matched_filter):
        checksum = item_checksum(item)
        key = (item.item_id, item.version)
        assert self.truth.setdefault(key, checksum) == checksum
        self.stores += 1


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_memo_path_agrees_with_the_spec_under_a_faulty_channel(seed):
    """Corruption and replay are the two attacks a memo could plausibly
    soften. Per sync: exactly the delivered entries whose content fails
    ``item_checksum`` are quarantined as checksum mismatches, and nothing
    else is ever applied."""
    rng = random.Random(seed)
    injector = FaultInjector(FAULTS, seed=seed + 1)
    watch = _StoredMatchesSpec()
    endpoints = []
    for index in range(NODES):
        name = f"eq-{index:02d}"
        node = Replica(ReplicaId(name), MultiAddressFilter(own_address=name))
        node.register_observer(watch)
        endpoints.append(SyncEndpoint(node, EpidemicPolicy().bind(node)))
    taps = []

    def factory(source_id, target_id):
        taps.append(_Tap(injector.transport(source_id.name, target_id.name)))
        return taps[-1]

    mismatches = stamped = inspected = 0
    before = checksum_computations()
    for step in range(ENCOUNTERS):
        if step < ITEMS:
            author = rng.randrange(NODES)
            destination = (author + 1 + rng.randrange(NODES - 1)) % NODES
            endpoints[author].replica.create_item(
                payload=f"p{author}-{destination}-{step}",
                attributes={"destination": f"eq-{destination:02d}"},
            )
        a = rng.randrange(NODES)
        b = (a + 1 + rng.randrange(NODES - 1)) % NODES
        del taps[:]
        stats_pair = EncounterSession(
            first=endpoints[a],
            second=endpoints[b],
            now=float(step),
            transport_factory=factory,
        ).run()
        for stats, tap in zip(stats_pair, taps):
            entries = [e for e in tap.delivered if isinstance(e, BatchEntry)]
            inspected += len(entries)
            failing = [
                entry
                for entry in entries
                if item_checksum(entry.item) != entry.checksum
            ]
            quarantined = [
                violation
                for violation in stats.violations
                if violation.kind == VIOLATION_CHECKSUM_MISMATCH
            ]
            assert len(quarantined) == len(failing)
            mismatches += len(failing)
            stamped += stats.sent_total
    assert watch.stores > ITEMS
    assert mismatches > 0, "no corrupted entry delivered; fault mix too weak"
    # The memo engages: net of this test's own spec calls, the sync path
    # hashed fewer times than it stamped, let alone stamped and verified.
    on_sync_path = checksum_computations() - before - watch.stores - inspected
    assert on_sync_path < stamped
