"""Property-based tests of the substrate's delivery guarantees.

The two headline guarantees the paper inherits from the PFR substrate:

* **at-most-once delivery** — over arbitrary random sync schedules, no
  replica ever receives the same item version twice (the replica raises
  on violation, so simply running a random schedule is the test);
* **eventual filter consistency** — given a sync schedule that connects
  the network repeatedly, every message reaches every host whose filter
  selects it, no matter the relay policy.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtn import (
    DirectDeliveryPolicy,
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

policy_factories = st.sampled_from(
    [
        DirectDeliveryPolicy,
        lambda: EpidemicPolicy(initial_ttl=10),
        lambda: SprayAndWaitPolicy(initial_copies=8),
        ProphetPolicy,
        MaxPropPolicy,
    ]
)

# A message plan: (sender index, recipient index) pairs.
message_plans = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=N_NODES - 1),
        st.integers(min_value=0, max_value=N_NODES - 1),
    ).filter(lambda pair: pair[0] != pair[1]),
    min_size=1,
    max_size=8,
)

# A random encounter schedule as (a, b) index pairs.
schedules = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=N_NODES - 1),
        st.integers(min_value=0, max_value=N_NODES - 1),
    ).filter(lambda pair: pair[0] != pair[1]),
    max_size=30,
)


def build_network(policy_factory):
    endpoints = []
    replicas = []
    for i in range(N_NODES):
        replica = Replica(ReplicaId(f"n{i}"), AddressFilter(f"n{i}"))
        policy = policy_factory()
        bind = getattr(policy, "bind", None)
        if bind is not None:
            bind(replica, lambda name=f"n{i}": frozenset({name}))
        endpoints.append(SyncEndpoint(replica, policy))
        replicas.append(replica)
    return replicas, endpoints


@given(policy_factories, message_plans, schedules)
@settings(max_examples=40, deadline=None)
def test_at_most_once_under_random_schedules(policy_factory, plan, schedule):
    """apply_remote raises DuplicateDeliveryError on any repeat; a clean
    run of an arbitrary schedule is the assertion."""
    replicas, endpoints = build_network(policy_factory)
    for sender, recipient in plan:
        replicas[sender].create_item(
            f"{sender}->{recipient}", {"destination": f"n{recipient}"}
        )
    for step, (a, b) in enumerate(schedule):
        EncounterSession(
            first=endpoints[a],
            second=endpoints[b],
            now=float(step),
        ).run()


@given(policy_factories, message_plans, st.integers(min_value=0, max_value=2**16))
@settings(max_examples=30, deadline=None)
def test_eventual_delivery_on_connected_schedule(policy_factory, plan, seed):
    """Repeated random full-mixing rounds eventually deliver everything.

    Every policy guarantees delivery on direct sender→recipient contact at
    the latest, and each round includes every pair, so a handful of rounds
    must deliver every planned message exactly once.
    """
    replicas, endpoints = build_network(policy_factory)
    expected = {}
    for sender, recipient in plan:
        item = replicas[sender].create_item(
            "payload", {"destination": f"n{recipient}"}
        )
        expected.setdefault(recipient, set()).add(item.item_id)

    rng = random.Random(seed)
    pairs = [(i, j) for i in range(N_NODES) for j in range(i + 1, N_NODES)]
    now = 0.0
    for _ in range(3):
        rng.shuffle(pairs)
        for a, b in pairs:
            EncounterSession(
                first=endpoints[a],
                second=endpoints[b],
                now=now,
            ).run()
            now += 1.0

    for recipient, item_ids in expected.items():
        for item_id in item_ids:
            item = replicas[recipient].get_item(item_id)
            assert item is not None and not item.deleted


@given(message_plans, schedules)
@settings(max_examples=30, deadline=None)
def test_knowledge_monotonicity(plan, schedule):
    """A replica's knowledge only ever grows under syncing."""
    replicas, endpoints = build_network(lambda: EpidemicPolicy())
    for sender, recipient in plan:
        replicas[sender].create_item("x", {"destination": f"n{recipient}"})
    snapshots = [replica.knowledge.copy() for replica in replicas]
    for step, (a, b) in enumerate(schedule):
        EncounterSession(
            first=endpoints[a],
            second=endpoints[b],
            now=float(step),
        ).run()
        for replica, previous in zip(replicas, snapshots):
            assert replica.knowledge.dominates(previous)
        snapshots = [replica.knowledge.copy() for replica in replicas]


@given(schedules)
@settings(max_examples=30, deadline=None)
def test_stored_items_always_covered_by_knowledge(schedule):
    """Whatever a replica stores, its knowledge covers — the substrate
    never holds an item it could re-receive."""
    replicas, endpoints = build_network(lambda: EpidemicPolicy())
    replicas[0].create_item("x", {"destination": "n1"})
    replicas[2].create_item("y", {"destination": "n3"})
    for step, (a, b) in enumerate(schedule):
        EncounterSession(
            first=endpoints[a],
            second=endpoints[b],
            now=float(step),
        ).run()
    for replica in replicas:
        for item in replica.stored_items():
            assert replica.knowledge.contains(item.version)
