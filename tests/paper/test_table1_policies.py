"""Table I — behavioural verification of the four policy rows.

Rather than restating the table, this test *executes* each row: it
checks that the implemented policy maintains exactly the routing state the
row lists, adds exactly the described payload to sync requests, and
forwards by exactly the described rule.
"""

from repro.dtn import (
    EpidemicPolicy,
    MaxPropPolicy,
    MaxPropRequest,
    ProphetPolicy,
    ProphetRequest,
    SprayAndWaitPolicy,
)
from repro.dtn.epidemic import TTL_ATTRIBUTE
from repro.dtn.spray_wait import COPIES_ATTRIBUTE
from repro.replication import (
    AddressFilter,
    Replica,
    ReplicaId,
    SyncContext,
)
from repro.experiments.report import render_table_1


def ctx():
    return SyncContext(ReplicaId("a"), ReplicaId("b"), 0.0)


def bound(policy_cls, name="a", **kwargs):
    replica = Replica(ReplicaId(name), AddressFilter(name))
    return replica, policy_cls(**kwargs).bind(replica, lambda: frozenset({name}))


def verify_epidemic_row():
    replica, policy = bound(EpidemicPolicy)
    item = replica.create_item("m", {"destination": "z"})
    # Routing state: TTL per message (host-local attribute).
    assert policy.to_send(item, AddressFilter("b"), ctx()) is not None
    assert replica.get_item(item.item_id).local(TTL_ATTRIBUTE) == 10
    # Added to sync request: nothing.
    assert policy.generate_req(ctx()) is None
    # Forwarding rule: when TTL > 0.
    replica.adjust_local(item.with_local(**{TTL_ATTRIBUTE: 0}))
    assert policy.to_send(
        replica.get_item(item.item_id), AddressFilter("b"), ctx()
    ) is None


def verify_spray_row():
    replica, policy = bound(SprayAndWaitPolicy)
    item = replica.create_item("m", {"destination": "z"})
    # Routing state: copies per message; request payload: nothing.
    assert policy.generate_req(ctx()) is None
    assert policy.to_send(item, AddressFilter("b"), ctx()) is not None
    assert replica.get_item(item.item_id).local(COPIES_ATTRIBUTE) == 8
    # Forwarding rule: when copies >= 2.
    replica.adjust_local(item.with_local(**{COPIES_ATTRIBUTE: 1}))
    assert policy.to_send(
        replica.get_item(item.item_id), AddressFilter("b"), ctx()
    ) is None


def verify_prophet_row():
    replica, policy = bound(ProphetPolicy)
    # Routing state: P[d] vector; added to request: the target's P vector.
    request = policy.generate_req(ctx())
    assert isinstance(request, ProphetRequest)
    assert request.predictabilities == policy.predictabilities
    # Forwarding rule: dest messages when target P[dest] > source P[dest].
    item = replica.create_item("m", {"destination": "dst"})
    policy.process_req(
        ProphetRequest(
            addresses=frozenset({"b"}), predictabilities={"dst": 0.9}
        ),
        ctx(),
    )
    assert policy.to_send(item, AddressFilter("b"), ctx()) is not None
    policy.predictabilities["dst"] = 0.99
    assert policy.to_send(item, AddressFilter("b"), ctx()) is None


def verify_maxprop_row():
    replica, policy = bound(MaxPropPolicy)
    # Routing state + request payload: meeting probabilities for all pairs.
    policy.process_req(
        MaxPropRequest(
            node="b",
            addresses=frozenset({"b"}),
            vectors={"b": {"c": 1.0}},
        ),
        ctx(),
    )
    request = policy.generate_req(ctx())
    assert "a" in request.vectors and "b" in request.vectors
    # Forwarding rule: all messages, priority-ordered.
    item = replica.create_item("m", {"destination": "anywhere"})
    assert policy.to_send(item, AddressFilter("b"), ctx()) is not None


def test_table_1_rows_hold_behaviourally(check_results):
    verify_epidemic_row()
    verify_spray_row()
    verify_prophet_row()
    verify_maxprop_row()
    check_results("table1", render_table_1())
