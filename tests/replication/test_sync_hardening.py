"""Tests for the hardened receive path: quarantine, validation, retries.

Covers the regression the integrity layer exists for: a hand-corrupted
frame in an otherwise healthy batch is quarantined entry-by-entry (never
aborting the rest), the sender's knowledge of it stays unacknowledged so
the item retries at the next contact, and each misbehaviour is surfaced
as a typed :class:`ProtocolViolation`.
"""

from types import SimpleNamespace

from repro.replication import (
    AddressFilter,
    Replica,
    ReplicaId,
    RoutingPolicy,
    SyncEndpoint,
    SyncSession,
)
from repro.replication.codec import (
    decode_batch_frame,
    encode_batch_frame,
)
from repro.replication.integrity import (
    VIOLATION_CHECKSUM_MISMATCH,
    VIOLATION_KNOWLEDGE_FABRICATION,
    VIOLATION_MALFORMED_ENTRY,
    VIOLATION_REPLAY,
    VIOLATION_VERSION_CONFLICT,
    item_checksum,
)
from repro.replication.ids import Version
from repro.replication.routing import SyncContext
from repro.replication.sync import (
    BatchEntry,
    SyncStats,
    apply_batch,
    build_batch,
    build_request,
    validate_request_knowledge,
)


def replica(name):
    return Replica(ReplicaId(name), AddressFilter(name))


def endpoints(source_name="bob", target_name="alice"):
    source = SyncEndpoint(replica(source_name))
    target = SyncEndpoint(replica(target_name))
    return source, target


def build_for(source, target, tamper_request=None):
    """Run the protocol's first two steps by hand, returning the batch."""
    context = SyncContext(
        local=target.replica_id, remote=source.replica_id, now=0.0
    )
    request = build_request(target, context)
    if tamper_request is not None:
        request = tamper_request(request)
    return build_batch(source, request, context)


def stamped(batch):
    return [
        BatchEntry(
            entry.item,
            entry.matched_filter,
            entry.priority,
            checksum=item_checksum(entry.item),
        )
        for entry in batch
    ]


class TestHandCorruptedFrame:
    def test_corrupted_entry_is_quarantined_not_fatal(self):
        """The regression test: one wire frame with a flipped payload in a
        three-item batch — the victim is skipped, the rest are applied."""
        source, target = endpoints()
        for i in range(3):
            source.replica.create_item(f"m{i}", {"destination": "alice"})
        batch, stats = build_for(source, target)

        wire = encode_batch_frame(batch)
        wire["entries"][1]["item"]["payload"] = "tampered-in-transit"
        decoded = decode_batch_frame(wire)

        apply_batch(target, decoded, stats, tolerate_duplicates=True)
        assert stats.received_total == 2
        assert stats.quarantined_entries == 1
        kinds = [violation.kind for violation in stats.violations]
        assert kinds == [VIOLATION_CHECKSUM_MISMATCH]
        assert stats.violations[0].peer == "bob"
        assert stats.violations[0].observer == "alice"
        payloads = {
            item.payload for item in target.replica.stored_items()
        }
        assert payloads == {"m0", "m2"}

    def test_quarantined_version_not_acknowledged(self):
        """The target must not learn the corrupted item's version — the
        honest copy would otherwise never be offered again."""
        source, target = endpoints()
        source.replica.create_item("precious", {"destination": "alice"})
        batch, stats = build_for(source, target)
        victim = batch[0]
        corrupt = BatchEntry(
            victim.item,
            victim.matched_filter,
            victim.priority,
            checksum="0badc0ffee0badc0",
        )
        apply_batch(target, [corrupt], stats, tolerate_duplicates=True)
        assert not target.replica.knowledge.contains(victim.item.version)

    def test_quarantined_item_retries_at_next_contact(self):
        source, target = endpoints()
        source.replica.create_item("precious", {"destination": "alice"})
        batch, stats = build_for(source, target)
        corrupt = BatchEntry(
            batch[0].item,
            batch[0].matched_filter,
            batch[0].priority,
            checksum="0badc0ffee0badc0",
        )
        apply_batch(target, [corrupt], stats, tolerate_duplicates=True)
        assert target.replica.stored_count == 0

        # Next contact, clean channel: the same item is re-offered and lands.
        retry_stats = SyncSession(source=source, target=target).run()
        assert retry_stats.sent_total == 1
        assert [item.payload for item in retry_stats.delivered_items] == [
            "precious"
        ]

    def test_undecodable_frame_is_quarantined_per_entry(self):
        """apply_batch catches CodecError for the garbage frame and keeps
        going — satellite (a)'s contract."""
        source, target = endpoints()
        source.replica.create_item("real", {"destination": "alice"})
        batch, stats = build_for(source, target)
        garbage = {"malformed-frame": 0}
        apply_batch(
            target, [garbage] + list(batch), stats, tolerate_duplicates=True
        )
        assert stats.quarantined_entries == 1
        assert stats.received_total == 1
        assert [v.kind for v in stats.violations] == [VIOLATION_MALFORMED_ENTRY]


class TestReplayClassification:
    def test_replayed_frame_is_flagged(self):
        source, target = endpoints()
        source.replica.create_item("old", {"destination": "alice"})
        batch, stats = build_for(source, target)
        entries = stamped(batch)
        apply_batch(target, entries, stats, tolerate_duplicates=True)
        assert stats.received_total == 1

        # A later session replays the already-delivered frame: the version
        # was known before the batch began, so it is a replay, not a
        # channel duplicate.
        replay_stats = SyncStats(
            source=source.replica_id, target=target.replica_id
        )
        apply_batch(target, entries, replay_stats, tolerate_duplicates=True)
        assert replay_stats.redundant_received == 1
        assert [v.kind for v in replay_stats.violations] == [VIOLATION_REPLAY]
        assert replay_stats.quarantined_entries == 0  # absorbed, not fatal

    def test_channel_duplicate_is_not_a_replay(self):
        source, target = endpoints()
        source.replica.create_item("fresh", {"destination": "alice"})
        batch, stats = build_for(source, target)
        entries = stamped(batch)
        doubled = [entries[0], entries[0]]
        apply_batch(target, doubled, stats, tolerate_duplicates=True)
        assert stats.received_total == 1
        assert stats.redundant_received == 1
        assert stats.violations == []


class TestVersionConflict:
    def test_two_contents_for_one_version_quarantines_the_second(self):
        source, target = endpoints()
        source.replica.create_item("genuine", {"destination": "alice"})
        batch, stats = build_for(source, target)
        real = stamped(batch)[0]
        from dataclasses import replace

        forged_item = replace(real.item, payload="forged")
        forged = BatchEntry(
            forged_item,
            real.matched_filter,
            real.priority,
            checksum=item_checksum(forged_item),
        )
        apply_batch(target, [real, forged], stats, tolerate_duplicates=True)
        assert stats.received_total == 1
        assert stats.quarantined_entries == 1
        assert [v.kind for v in stats.violations] == [VIOLATION_VERSION_CONFLICT]
        payloads = [item.payload for item in target.replica.stored_items()]
        assert payloads == ["genuine"]


class TestKnowledgeValidation:
    def test_fabricated_claim_is_rejected_and_clamped(self):
        source, target = endpoints()
        source.replica.create_item("undelivered", {"destination": "alice"})

        def inflate(request):
            knowledge = request.knowledge.copy()
            # Claim the source's counters 1..5 — it only ever authored 1.
            for counter in range(1, 6):
                knowledge.add(Version(source.replica_id, counter))
            request.knowledge = knowledge
            return request

        batch, stats = build_for(source, target, tamper_request=inflate)
        assert stats.rejected_knowledge == 1
        violations = [
            v
            for v in stats.violations
            if v.kind == VIOLATION_KNOWLEDGE_FABRICATION
        ]
        assert len(violations) == 1
        assert violations[0].peer == "alice"
        assert violations[0].observer == "bob"
        # The claim on counter 1 sits inside the authored range, so it is
        # indistinguishable from honest state: the item is withheld for
        # this one session. The counters above the authored range are
        # clamped away, so they cannot mask anything that exists.
        assert batch == []

        # The tampering was transient (channel-level): the next honest
        # request carries real knowledge and the item is delivered.
        retry_stats = SyncSession(source=source, target=target).run()
        assert [item.payload for item in retry_stats.delivered_items] == [
            "undelivered"
        ]

    def test_clamped_knowledge_drops_only_unauthored_claims(self):
        source, target = endpoints()
        source.replica.create_item("one", {"destination": "alice"})
        context = SyncContext(
            local=target.replica_id, remote=source.replica_id, now=0.0
        )
        request = build_request(target, context)
        knowledge = request.knowledge.copy()
        for counter in range(1, 6):
            knowledge.add(Version(source.replica_id, counter))
        clamped = knowledge.clamped(source.replica_id, 1)
        assert clamped.contains(Version(source.replica_id, 1))
        for counter in range(2, 6):
            assert not clamped.contains(Version(source.replica_id, counter))
        # The unclamped vector is untouched (copy-on-write discipline).
        assert knowledge.contains(Version(source.replica_id, 5))

    def test_plausible_claim_passes_untouched(self):
        source, target = endpoints()
        source.replica.create_item("one", {"destination": "alice"})
        source.replica.create_item("two", {"destination": "alice"})

        def claim_first(request):
            knowledge = request.knowledge.copy()
            knowledge.add(Version(source.replica_id, 1))
            request.knowledge = knowledge
            return request

        batch, stats = build_for(source, target, tamper_request=claim_first)
        # Within the authored range: indistinguishable from honest state,
        # so no violation — the cost is only a delayed delivery of item 1.
        assert stats.rejected_knowledge == 0
        assert stats.violations == []
        assert [entry.item.payload for entry in batch] == ["two"]

    def test_target_vector_never_touched(self):
        source, target = endpoints()
        source.replica.create_item("x", {"destination": "alice"})
        context = SyncContext(
            local=target.replica_id, remote=source.replica_id, now=0.0
        )
        request = build_request(target, context)
        tampered = request.knowledge.copy()
        tampered.add(Version(source.replica_id, 99))
        request.knowledge = tampered
        stats = SyncStats(source=source.replica_id, target=target.replica_id)
        clamped = validate_request_knowledge(source, request, stats)
        assert not clamped.contains(Version(source.replica_id, 99))
        assert not target.replica.knowledge.contains(
            Version(source.replica_id, 99)
        )


class TestConfirmedDelivery:
    def test_policy_not_charged_for_corrupted_entries(self):
        """A transport that corrupts everything confirms nothing, so
        ``on_items_sent`` sees an empty hand-off."""
        from dataclasses import replace

        sent_batches = []

        class RecordingPolicy(RoutingPolicy):
            name = "recording"

            def to_send(self, item, target_filter, context):
                return None

            def prepare_outgoing(self, item, context):
                return item

            def on_items_sent(self, items, context):
                sent_batches.append(list(items))

        class CorruptEverything:
            def deliver(self, batch):
                delivered = [
                    replace(entry, item=replace(entry.item, payload="\x00junk"))
                    for entry in batch
                ]
                return SimpleNamespace(
                    delivered=delivered,
                    sent=len(batch),
                    truncated=False,
                    lost=0,
                    confirmed=[],
                )

        source, target = endpoints()
        source.policy = RecordingPolicy()
        source.replica.create_item("doomed", {"destination": "alice"})
        stats = SyncSession(
            source=source,
            target=target,
            transport=CorruptEverything(),
        ).run()
        assert stats.quarantined_entries == 1
        assert stats.received_total == 0
        assert sent_batches == [[]]

    def test_outgoing_entries_are_stamped_over_a_transport(self):
        captured = []

        class Passthrough:
            def deliver(self, batch):
                captured.extend(batch)
                return SimpleNamespace(
                    delivered=list(batch),
                    sent=len(batch),
                    truncated=False,
                    lost=0,
                    confirmed=list(batch),
                )

        source, target = endpoints()
        source.replica.create_item("hi", {"destination": "alice"})
        stats = SyncSession(
            source=source,
            target=target,
            transport=Passthrough(),
        ).run()
        assert captured
        for entry in captured:
            assert entry.checksum == item_checksum(entry.item)
        assert stats.received_total == 1
        assert stats.violations == []
