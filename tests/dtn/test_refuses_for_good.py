"""Which refusals stand: each policy's ``refuses_for_good``, and a sync
that parks a copy still sending it where its filter says it goes."""

from repro.churn.freeride import FreeRiderPolicy
from repro.dtn import (
    DirectDeliveryPolicy,
    EpidemicPolicy,
    MaxPropPolicy,
    ProphetPolicy,
    SprayAndWaitPolicy,
)
from repro.dtn.epidemic import TTL_ATTRIBUTE
from repro.dtn.spray_wait import COPIES_ATTRIBUTE
from repro.replication import AddressFilter, Replica, ReplicaId, SyncContext
from repro.replication.sync import SyncEndpoint, build_batch, build_request
from repro.replication.versions import VersionVector


def bound(policy, name="a"):
    replica = Replica(ReplicaId(name), AddressFilter(name))
    return replica, policy.bind(replica, lambda: frozenset({name}))


def ctx(remote="b"):
    return SyncContext(ReplicaId("a"), ReplicaId(remote), 0.0)


def stamped(replica, **local):
    item = replica.create_item("m", {"destination": "z"})
    replica.adjust_local(item.with_local(**local))
    return replica.get_item(item.item_id)


def test_a_budget_below_the_forwarded_floor_stands():
    replica, spray = bound(SprayAndWaitPolicy())
    assert spray.refuses_for_good(stamped(replica, **{COPIES_ATTRIBUTE: 1}))
    assert not spray.refuses_for_good(stamped(replica, **{COPIES_ATTRIBUTE: 2}))
    replica, epidemic = bound(EpidemicPolicy())
    assert epidemic.refuses_for_good(stamped(replica, **{TTL_ATTRIBUTE: 0}))
    assert not epidemic.refuses_for_good(stamped(replica, **{TTL_ATTRIBUTE: 1}))
    # Not stamped yet: ``to_send`` stamps it, so the refusal cannot stand.
    fresh = replica.create_item("m", {"destination": "z"})
    assert not epidemic.refuses_for_good(fresh)
    tombstone = replica.delete_item(fresh.item_id)
    assert epidemic.refuses_for_good(tombstone)


def test_maxprop_parks_an_acked_copy_only_outside_the_relay_store():
    replica, maxprop = bound(MaxPropPolicy())
    authored = replica.create_item("m", {"destination": "z"})  # outbox
    assert not maxprop.refuses_for_good(authored)
    maxprop.acks.add(authored.item_id)
    assert maxprop.refuses_for_good(authored)
    other = Replica(ReplicaId("o"), AddressFilter("o"))
    relayed = other.create_item("m", {"destination": "z"})
    replica.apply_remote(relayed)
    maxprop.acks.add(relayed.item_id)
    assert not maxprop.refuses_for_good(relayed)


def test_peer_dependent_policies_keep_the_default_and_wrappers_delegate():
    replica, prophet = bound(ProphetPolicy())
    item = replica.create_item("m", {"destination": "z"})
    assert not prophet.refuses_for_good(item)
    _, rider = bound(FreeRiderPolicy(DirectDeliveryPolicy()))
    assert rider.refuses_for_good(item)


def test_a_parked_wait_phase_copy_still_goes_to_its_destination():
    replica, spray = bound(SprayAndWaitPolicy())
    waiting = stamped(replica, **{COPIES_ATTRIBUTE: 1})
    source = SyncEndpoint(replica, spray)

    def batch_for(name):
        target = SyncEndpoint(Replica(ReplicaId(name), AddressFilter(name)))
        request = build_request(target, ctx(name))
        return build_batch(source, request, ctx(name))

    entries, stats = batch_for("b")
    assert entries == [] and stats.candidates == 1
    found, count = replica.sync_candidates(VersionVector.empty(), {"b"})
    assert found == [] and count == 1  # parked: out of b's walk
    entries, stats = batch_for("z")
    assert [entry.item for entry in entries] == [waiting]
    assert entries[0].matched_filter and stats.candidates == 1
