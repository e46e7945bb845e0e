"""Extension experiment: filter-tree vs random-gossip convergence.

The substrate is topology-independent: eventual filter consistency only
needs paths of pairwise syncs. This test compares the two canonical
topologies — a Cimbiosys filter tree (structured, two waves per round)
against uniform random pairwise gossip — on syncs-to-convergence and
item-copies moved, for the same all-pairs messaging workload.
"""

import random

from repro.replication import (
    AddressFilter,
    AllFilter,
    FilterTree,
    MultiAddressFilter,
    Replica,
    ReplicaId,
    SyncEndpoint,
    SyncSession,
)
from repro.replication.routing import NullRoutingPolicy

N_LEAVES = 8
LEAVES = [f"leaf{i}" for i in range(N_LEAVES)]


def seeded_workload(replicas):
    items = []
    for i, source in enumerate(LEAVES):
        destination = LEAVES[(i + 3) % N_LEAVES]
        items.append(
            replicas[source].create_item(f"{source}->{destination}", {"destination": destination})
        )
    return items


def converged(replicas, items):
    return all(
        replicas[item.attribute("destination")].holds(item.item_id)
        for item in items
    )


def run_tree():
    tree = FilterTree()
    tree.add_root(Replica(ReplicaId("root"), AllFilter()))
    for hub_index in range(2):
        hub_leaves = LEAVES[hub_index * 4 : hub_index * 4 + 4]
        hub_name = f"hub{hub_index}"
        tree.add_child(
            Replica(
                ReplicaId(hub_name),
                MultiAddressFilter(hub_name, frozenset(hub_leaves)),
            ),
            "root",
        )
        for leaf in hub_leaves:
            tree.add_child(Replica(ReplicaId(leaf), AddressFilter(leaf)), hub_name)
    replicas = {name: tree.replica_of(name) for name in tree.names()}
    items = seeded_workload(replicas)
    syncs = 0
    transfers = 0
    rounds = 0
    while not converged(replicas, items):
        stats = tree.sync_round(now=float(rounds))
        syncs += len(stats)
        transfers += sum(s.sent_total for s in stats)
        rounds += 1
        assert rounds < 10, "tree failed to converge"
    return {"syncs": syncs, "transfers": transfers, "rounds": rounds}


def run_gossip(seed=13):
    rng = random.Random(seed)
    replicas = {name: Replica(ReplicaId(name), AddressFilter(name)) for name in LEAVES}
    # Gossip needs forwarding to cross between leaves: use flooding relays.
    from repro.dtn import EpidemicPolicy

    endpoints = {
        name: SyncEndpoint(
            replica, EpidemicPolicy().bind(replica, lambda n=name: frozenset({n}))
        )
        for name, replica in replicas.items()
    }
    items = seeded_workload(replicas)
    syncs = 0
    transfers = 0
    while not converged(replicas, items):
        a, b = rng.sample(LEAVES, 2)
        stats = SyncSession(
            source=endpoints[a],
            target=endpoints[b],
            now=float(syncs),
        ).run()
        syncs += 1
        transfers += stats.sent_total
        assert syncs < 2000, "gossip failed to converge"
    return {"syncs": syncs, "transfers": transfers}


def test_ext_topology_comparison(check_results):
    tree_result, gossip_result = run_tree(), run_gossip()
    lines = [
        "Extension: filter-tree vs random epidemic gossip "
        f"({N_LEAVES} leaves, all-pairs-ish workload)",
        f"{'topology':>10} | {'syncs':>7} | {'item transfers':>15}",
        "-" * 40,
        f"{'tree':>10} | {tree_result['syncs']:>7} | {tree_result['transfers']:>15}",
        f"{'gossip':>10} | {gossip_result['syncs']:>7} | {gossip_result['transfers']:>15}",
    ]
    check_results("ext_topology", "\n".join(lines))

    # The structured tree converges in one or two global rounds…
    assert tree_result["rounds"] <= 2
    # …and needs far fewer sync sessions than blind gossip.
    assert tree_result["syncs"] < gossip_result["syncs"]
    # Gossip floods: it moves strictly more copies than the tree, whose
    # down-flow only enters interested subtrees.
    assert gossip_result["transfers"] > tree_result["transfers"]
