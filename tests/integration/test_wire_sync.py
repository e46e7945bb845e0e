"""Full sync sessions through the JSON wire format.

Runs the Figure-4 protocol with every message serialised to compact JSON
and parsed back between the two sides — proving the emulation's
object-passing shortcut changes nothing semantically, and that every
bundled policy's routing state survives the wire.
"""

import json

import pytest

from repro.dtn import (
    DirectDeliveryPolicy,
    EpidemicPolicy,
    MaxPropPolicy,
    ProphetPolicy,
    SprayAndWaitPolicy,
)
from repro.replication import (
    AddressFilter,
    Replica,
    ReplicaId,
    SyncContext,
    SyncEndpoint,
)
from repro.replication.codec import (
    decode_batch_frame,
    decode_sync_request,
    encode_batch_frame,
    encode_sync_request,
    wire_size,
)
from repro.replication.sync import apply_batch, build_batch, build_request


def sync_over_wire(source: SyncEndpoint, target: SyncEndpoint, now=0.0):
    """``SyncSession.run``, but with a JSON hop at each protocol step."""
    target_context = SyncContext(target.replica_id, source.replica_id, now)
    source_context = SyncContext(source.replica_id, target.replica_id, now)

    request = build_request(target, target_context)
    request_bytes = json.dumps(encode_sync_request(request)).encode()
    request = decode_sync_request(json.loads(request_bytes))

    batch, stats = build_batch(source, request, source_context)
    batch_bytes = json.dumps(encode_batch_frame(batch)).encode()
    received = decode_batch_frame(json.loads(batch_bytes))

    # The wire hop delivered everything; confirm the batch to the policy
    # (``SyncSession.run`` does this with the delivered entries).
    source.policy.on_items_sent([entry.item for entry in batch], source_context)
    apply_batch(target, received, stats)
    return stats, len(request_bytes), len(batch_bytes)


def host(name, policy_factory):
    replica = Replica(ReplicaId(name), AddressFilter(name))
    policy = policy_factory()
    policy.bind(replica, lambda: frozenset({name}))
    return replica, SyncEndpoint(replica, policy)


POLICIES = [
    DirectDeliveryPolicy,
    EpidemicPolicy,
    SprayAndWaitPolicy,
    ProphetPolicy,
    MaxPropPolicy,
]


@pytest.mark.parametrize("policy_factory", POLICIES)
def test_direct_delivery_over_wire(policy_factory):
    sender, sender_ep = host("alice", policy_factory)
    receiver, receiver_ep = host("bob", policy_factory)
    sender.create_item("hello", {"destination": "bob"})
    stats, _, _ = sync_over_wire(sender_ep, receiver_ep)
    assert stats.sent_matching == 1
    assert receiver.in_filter_count == 1


@pytest.mark.parametrize(
    "policy_factory", [EpidemicPolicy, SprayAndWaitPolicy, MaxPropPolicy]
)
def test_relay_chain_over_wire(policy_factory):
    sender, sender_ep = host("alice", policy_factory)
    mule, mule_ep = host("mule", policy_factory)
    receiver, receiver_ep = host("bob", policy_factory)
    item = sender.create_item("hop hop", {"destination": "bob"})
    sync_over_wire(sender_ep, mule_ep)
    assert mule.holds(item.item_id)
    sync_over_wire(mule_ep, receiver_ep)
    assert receiver.in_filter_count == 1


def test_prophet_state_influences_decisions_across_the_wire():
    """The target's P vector survives serialisation and actually changes
    the source's forwarding behaviour."""
    sender, sender_ep = host("alice", ProphetPolicy)
    knowing_relay, knowing_ep = host("relay", ProphetPolicy)
    dest, dest_ep = host("dst", ProphetPolicy)
    # The relay meets the destination (over the wire), gaining P[dst].
    sync_over_wire(knowing_ep, dest_ep)
    sync_over_wire(dest_ep, knowing_ep)
    item = sender.create_item("m", {"destination": "dst"})
    stats, _, _ = sync_over_wire(sender_ep, knowing_ep)
    assert stats.sent_relayed == 1
    assert knowing_relay.holds(item.item_id)


def test_maxprop_acks_survive_the_wire():
    src, src_ep = host("src", MaxPropPolicy)
    dst, dst_ep = host("dst", MaxPropPolicy)
    mule, mule_ep = host("mule", MaxPropPolicy)
    item = src.create_item("m", {"destination": "dst"})
    sync_over_wire(src_ep, mule_ep)
    sync_over_wire(mule_ep, dst_ep)
    assert dst.in_filter_count == 1
    # dst initiates a sync with the mule; its ack rides in the request.
    sync_over_wire(mule_ep, dst_ep)
    assert not mule.holds(item.item_id)


def test_request_size_scales_with_replicas_not_items():
    sender, sender_ep = host("alice", EpidemicPolicy)
    receiver, receiver_ep = host("bob", EpidemicPolicy)
    for i in range(50):
        sender.create_item(f"m{i}", {"destination": "bob"})
    _, small_request, _ = sync_over_wire(sender_ep, receiver_ep)

    # Now the receiver knows 50 item versions — its next request barely grows.
    sender2, sender2_ep = host("carol", EpidemicPolicy)
    sender2.create_item("one more", {"destination": "bob"})
    _, grown_request, _ = sync_over_wire(sender2_ep, receiver_ep)
    assert grown_request < small_request + 120
