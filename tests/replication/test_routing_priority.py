"""Unit tests for Priority ordering and the no-forwarding policy."""

from repro.replication.routing import (
    NORMAL_PRIORITY,
    DirectDeliveryPolicy,
    Priority,
    PriorityClass,
    SyncContext,
)
from repro.replication.filters import AddressFilter
from repro.replication.ids import ReplicaId
from repro.replication.replica import Replica
from repro.replication.sync import SyncEndpoint
from tests.conftest import make_item


def ctx() -> SyncContext:
    return SyncContext(ReplicaId("a"), ReplicaId("b"), 0.0)


class TestPriority:
    def test_higher_class_transmits_earlier(self):
        high = Priority(PriorityClass.HIGH)
        low = Priority(PriorityClass.LOW)
        assert high < low  # "<" = transmits earlier

    def test_filter_match_beats_every_policy_band(self):
        match = Priority(PriorityClass.FILTER_MATCH)
        for band in (PriorityClass.HIGHEST, PriorityClass.HIGH, PriorityClass.NORMAL):
            assert match < Priority(band)

    def test_lower_cost_wins_within_class(self):
        cheap = Priority(PriorityClass.NORMAL, 0.1)
        dear = Priority(PriorityClass.NORMAL, 0.9)
        assert cheap < dear

    def test_sort_key_sorts_batches_correctly(self):
        priorities = [
            Priority(PriorityClass.LOW, 0.0),
            Priority(PriorityClass.FILTER_MATCH),
            Priority(PriorityClass.NORMAL, 2.0),
            Priority(PriorityClass.NORMAL, 1.0),
        ]
        ordered = sorted(priorities, key=lambda p: p.sort_key())
        assert ordered[0].class_ == PriorityClass.FILTER_MATCH
        assert ordered[1] == Priority(PriorityClass.NORMAL, 1.0)
        assert ordered[-1].class_ == PriorityClass.LOW

    def test_equality(self):
        assert Priority(PriorityClass.NORMAL, 1.0) == Priority(
            PriorityClass.NORMAL, 1.0
        )

    def test_normal_priority_constant(self):
        assert NORMAL_PRIORITY.class_ == PriorityClass.NORMAL
        assert NORMAL_PRIORITY.cost == 0.0


class TestNullPolicy:
    """Unmodified Cimbiosys: :class:`DirectDeliveryPolicy` forwards nothing."""

    def test_never_sends(self):
        policy = DirectDeliveryPolicy()
        assert policy.to_send(make_item(), AddressFilter("x"), ctx()) is None

    def test_request_hooks_are_noops(self):
        policy = DirectDeliveryPolicy()
        assert policy.generate_req(ctx()) is None
        policy.process_req({"anything": 1}, ctx())  # must not raise

    def test_prepare_outgoing_strips_locals(self):
        policy = DirectDeliveryPolicy()
        item = make_item().with_local(ttl=3)
        assert policy.prepare_outgoing(item, ctx()).local("ttl") is None

    def test_name(self):
        assert DirectDeliveryPolicy.name == "cimbiosys"

    def test_is_the_sync_endpoints_default(self):
        policy = SyncEndpoint(Replica(ReplicaId("a"), AddressFilter("a"))).policy
        assert type(policy) is DirectDeliveryPolicy
        assert policy.name == "cimbiosys"
        assert policy.refuses_for_good(make_item())
