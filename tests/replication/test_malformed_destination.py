"""A destination that is not one address is malformed input no filter matches.

A batch entry whose ``destination`` is a nested list decodes (the codec
checks shape, not the meaning of attributes) and carries a valid
checksum. Applying it must neither raise nor leave the target's
knowledge covering a version it does not hold: an acknowledged item that
was never stored would never be offered again.
"""

import json

import pytest

from repro.dtn import get_policy
from repro.messaging.message import Message
from repro.replication import (
    AddressFilter,
    MultiAddressFilter,
    Replica,
    ReplicaId,
    SyncEndpoint,
    SyncSession,
)
from repro.replication.codec import decode_batch_frame, encode_batch_frame
from repro.replication.routing import NORMAL_PRIORITY
from repro.replication.sync import BatchEntry
from tests.conftest import make_item

POLICIES = ("cimbiosys", "epidemic", "spray", "prophet", "maxprop", "first-contact")
TARGET_FILTERS = {
    "address": AddressFilter("x"),
    "multi-address": MultiAddressFilter("x", frozenset({"y"})),
}


def malformed_batch():
    """A checksummed one-entry batch frame, through JSON and back."""
    item = make_item(destination=[["x"]], replica="src")
    entry = BatchEntry(item, matched_filter=True, priority=NORMAL_PRIORITY)
    frame = json.loads(json.dumps(encode_batch_frame([entry])))
    return decode_batch_frame(frame)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("filter_name", sorted(TARGET_FILTERS))
def test_apply_stores_what_it_acknowledges(policy, filter_name):
    filter_ = TARGET_FILTERS[filter_name]
    replica = Replica(ReplicaId("x"), filter_)
    bound = get_policy(policy).bind(replica, lambda: frozenset({"x"}))
    session = SyncSession(
        target=SyncEndpoint(replica, bound), peer=ReplicaId("src")
    )
    [entry] = malformed_batch()
    session.apply([entry])
    if replica.knowledge.contains(entry.item.version):
        assert replica.holds(entry.item.item_id)
        assert Message.from_item(replica.get_item(entry.item.item_id)) is None
