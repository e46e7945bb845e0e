"""Property-based tests of per-policy invariants under random schedules."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtn import (
    COPIES_ATTRIBUTE,
    HOPLIST_ATTRIBUTE,
    TTL_ATTRIBUTE,
    EpidemicPolicy,
    MaxPropPolicy,
    ProphetPolicy,
    SprayAndWaitPolicy,
)
from repro.replication import (
    AddressFilter,
    EncounterSession,
    Replica,
    ReplicaId,
    SyncEndpoint,
)

N_NODES = 5

schedules = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=N_NODES - 1),
        st.integers(min_value=0, max_value=N_NODES - 1),
    ).filter(lambda pair: pair[0] != pair[1]),
    min_size=1,
    max_size=25,
)


def network(policy_factory):
    endpoints, replicas, policies = [], [], []
    for i in range(N_NODES):
        replica = Replica(ReplicaId(f"n{i}"), AddressFilter(f"n{i}"))
        policy = policy_factory()
        policy.bind(replica, lambda name=f"n{i}": frozenset({name}))
        endpoints.append(SyncEndpoint(replica, policy))
        replicas.append(replica)
        policies.append(policy)
    return replicas, endpoints, policies


@given(schedules, st.integers(min_value=1, max_value=6))
@settings(max_examples=40, deadline=None)
def test_epidemic_ttl_bounds_and_decreases(schedule, ttl):
    replicas, endpoints, _ = network(lambda: EpidemicPolicy(initial_ttl=ttl))
    item = replicas[0].create_item("x", {"destination": "none"})
    for step, (a, b) in enumerate(schedule):
        EncounterSession(
            first=endpoints[a],
            second=endpoints[b],
            now=float(step),
        ).run()
    for replica in replicas:
        stored = replica.get_item(item.item_id)
        if stored is None:
            continue
        value = stored.local(TTL_ATTRIBUTE)
        if value is not None:
            assert 0 <= value <= ttl


@given(schedules, st.integers(min_value=1, max_value=12))
@settings(max_examples=40, deadline=None)
def test_spray_budget_conserved(schedule, budget):
    replicas, endpoints, _ = network(
        lambda: SprayAndWaitPolicy(initial_copies=budget)
    )
    item = replicas[0].create_item("x", {"destination": "none"})
    for step, (a, b) in enumerate(schedule):
        EncounterSession(
            first=endpoints[a],
            second=endpoints[b],
            now=float(step),
        ).run()
        total = 0
        holders = 0
        for replica in replicas:
            stored = replica.get_item(item.item_id)
            if stored is None:
                continue
            holders += 1
            total += stored.local(COPIES_ATTRIBUTE, budget)
        assert total <= budget
        assert holders <= budget


@given(schedules)
@settings(max_examples=40, deadline=None)
def test_prophet_values_stay_in_unit_interval(schedule):
    replicas, endpoints, policies = network(ProphetPolicy)
    replicas[0].create_item("x", {"destination": "n1"})
    for step, (a, b) in enumerate(schedule):
        EncounterSession(
            first=endpoints[a],
            second=endpoints[b],
            now=float(step) * 600.0,
        ).run()
        for policy in policies:
            for value in policy.predictabilities.values():
                assert 0.0 <= value <= 1.0


@given(schedules)
@settings(max_examples=40, deadline=None)
def test_maxprop_distributions_normalised(schedule):
    replicas, endpoints, policies = network(MaxPropPolicy)
    replicas[0].create_item("x", {"destination": "n1"})
    for step, (a, b) in enumerate(schedule):
        EncounterSession(
            first=endpoints[a],
            second=endpoints[b],
            now=float(step),
        ).run()
    for policy in policies:
        vector = policy.own_vector()
        if vector:
            assert abs(sum(vector.values()) - 1.0) < 1e-9
            assert all(0.0 <= p <= 1.0 for p in vector.values())


@given(schedules)
@settings(max_examples=40, deadline=None)
def test_maxprop_hoplists_have_no_duplicates(schedule):
    replicas, endpoints, _ = network(MaxPropPolicy)
    item = replicas[0].create_item("x", {"destination": "none"})
    for step, (a, b) in enumerate(schedule):
        EncounterSession(
            first=endpoints[a],
            second=endpoints[b],
            now=float(step),
        ).run()
    for replica in replicas:
        stored = replica.get_item(item.item_id)
        if stored is None:
            continue
        hops = stored.local(HOPLIST_ATTRIBUTE, ())
        assert len(hops) == len(set(hops))


@given(schedules)
@settings(max_examples=30, deadline=None)
def test_maxprop_acks_eventually_clear_relay_buffers(schedule):
    """Once the destination holds the message, any relay that later talks
    to an ack-holder drops its copy."""
    replicas, endpoints, policies = network(MaxPropPolicy)
    item = replicas[0].create_item("x", {"destination": "n1"})
    # Direct delivery first, then the random schedule spreads acks.
    EncounterSession(first=endpoints[0], second=endpoints[1], now=0.0).run()
    assert replicas[1].holds(item.item_id)
    for step, (a, b) in enumerate(schedule, start=1):
        EncounterSession(
            first=endpoints[a],
            second=endpoints[b],
            now=float(step),
        ).run()
        for index, (replica, policy) in enumerate(zip(replicas, policies)):
            if item.item_id in policy.acks and index not in (0, 1):
                assert not replica.holds(item.item_id)
