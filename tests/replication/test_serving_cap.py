"""A source endpoint's serving cap: the most items it sends per sync.

A free rider differs from an honest node only in ``serves_at_most``; its
routing is the honest policy's. So a capped source must send exactly the
first entries of the batch an identically built uncapped source sends —
same items, same order, same priorities — with filter matches counted
against the cap like any other entry.
"""

import pytest

from repro.dtn import available_policies, get_policy
from repro.replication import (
    AddressFilter,
    EncounterSession,
    Replica,
    ReplicaId,
    SyncContext,
    SyncEndpoint,
)
from repro.replication.sync import build_batch, build_request

#: The source's own mail: two copies match the target's filter, the
#: rest are the policy's call, as is every copy relayed from ``far``.
DESTINATIONS = ("dst", "far", "z", "dst", "far", "y", "z")
RELAYED = ("y", "z", "q")


def host(name, policy):
    replica = Replica(ReplicaId(name), AddressFilter(name))
    bound = get_policy(policy).bind(replica, lambda: frozenset({name}))
    return replica, bound


def source(policy, serves_at_most=None):
    """The same source every call: it meets ``far`` once (routing
    history, relayed copies), then authors its own mail."""
    replica, bound = host("src", policy)
    far, far_policy = host("far", policy)
    for i, destination in enumerate(RELAYED):
        far.create_item(f"relayed{i}", {"destination": destination})
    EncounterSession(
        first=SyncEndpoint(replica, bound), second=SyncEndpoint(far, far_policy)
    ).run()
    for i, destination in enumerate(DESTINATIONS):
        replica.create_item(f"own{i}", {"destination": destination})
    return SyncEndpoint(replica, bound, serves_at_most)


def batch(policy, serves_at_most=None, max_items=None):
    """What a fresh source sends a fresh ``dst``, entry by entry."""
    src = source(policy, serves_at_most)
    target = SyncEndpoint(*host("dst", policy))
    src_id, dst_id = ReplicaId("src"), ReplicaId("dst")
    request = build_request(target, SyncContext(dst_id, src_id, 0.0))
    context = SyncContext(src_id, dst_id, 0.0)
    entries, stats = build_batch(src, request, context, max_items)
    assert stats.sent_total == len(entries)
    return [
        (
            entry.item.item_id,
            entry.item.version,
            dict(entry.item.attributes),
            entry.matched_filter,
            entry.priority,
        )
        for entry in entries
    ]


@pytest.mark.parametrize("policy", available_policies())
@pytest.mark.parametrize("cap", [0, 1, 3])
def test_a_capped_source_sends_the_uncapped_prefix(policy, cap):
    honest = batch(policy)
    assert sum(matched for *_, matched, _ in honest) == 2
    assert batch(policy, serves_at_most=cap) == honest[:cap]


@pytest.mark.parametrize("policy", available_policies())
def test_filter_matches_count_against_the_cap(policy):
    [(*_, matched, _)] = batch(policy, serves_at_most=1)
    assert matched


@pytest.mark.parametrize("policy", available_policies())
def test_no_cap_changes_nothing(policy):
    honest = batch(policy)
    assert batch(policy, serves_at_most=None) == honest
    assert batch(policy, serves_at_most=len(honest)) == honest


@pytest.mark.parametrize("policy", available_policies())
def test_the_tighter_of_session_and_endpoint_caps_wins(policy):
    honest = batch(policy)
    assert batch(policy, serves_at_most=3, max_items=1) == honest[:1]
    assert batch(policy, serves_at_most=1, max_items=3) == honest[:1]
    assert batch(policy, serves_at_most=None, max_items=2) == honest[:2]


def test_a_cap_of_zero_takes_but_never_gives():
    selfish, selfish_policy = host("selfish", "epidemic")
    honest, honest_policy = host("honest", "epidemic")
    selfish.create_item("from-selfish", {"destination": "honest"})
    honest.create_item("from-honest", {"destination": "selfish"})
    given, taken = EncounterSession(
        first=SyncEndpoint(selfish, selfish_policy, serves_at_most=0),
        second=SyncEndpoint(honest, honest_policy),
    ).run()
    assert (given.sent_total, taken.sent_total) == (0, 1)
    assert selfish.in_filter_count == 1
    assert honest.in_filter_count == 0
