"""Quickstart: a DTN messaging system in a few lines of replication.

This walks the paper's core idea end to end:

1. messages are replicated items; a host's filter selects its own mail;
2. pairwise synchronisation delivers them with eventual consistency and
   at-most-once semantics — no DTN machinery written at all;
3. direct-only delivery is slow, so step 3 plugs in a DTN routing policy
   (Epidemic) and the same message flows through an intermediate relay.

Run:  python examples/quickstart.py
"""

from repro.dtn import EpidemicPolicy
from repro.messaging import MessagingApp
from repro.replication import (
    AddressFilter,
    EncounterSession,
    Replica,
    ReplicaId,
    SyncEndpoint,
)


def make_host(name: str, policy=None) -> tuple[Replica, MessagingApp, SyncEndpoint]:
    """One device: a replica whose filter selects mail addressed to it."""
    replica = Replica(ReplicaId(name), AddressFilter(name))
    app = MessagingApp(replica, lambda: frozenset({name}))
    if policy is None:
        endpoint = SyncEndpoint(replica)
    else:
        endpoint = SyncEndpoint(replica, policy.bind(replica))
    return replica, app, endpoint


def direct_delivery() -> None:
    print("== 1. Messaging on bare filtered replication ==")
    _, alice_app, alice_ep = make_host("alice")
    _, bob_app, bob_ep = make_host("bob")

    message = alice_app.send("bob", "hello from alice", now=0.0)
    print(f"alice sends {message.message_id} to bob")

    # Hosts sync opportunistically whenever they meet; one encounter is
    # two pairwise syncs with alternating roles.
    EncounterSession(first=alice_ep, second=bob_ep).run()
    print(f"bob received: {[m.body for m in bob_app.delivered_messages]}")

    # At-most-once delivery: meeting again transfers nothing.
    stats = EncounterSession(first=alice_ep, second=bob_ep).run()
    print(f"second encounter transferred {sum(s.sent_total for s in stats)} items")


def relayed_delivery() -> None:
    print("\n== 2. Without a routing policy, relays do not help ==")
    _, carol_app, carol_ep = make_host("carol")
    _, _, mule_ep = make_host("mule")
    _, dave_app, dave_ep = make_host("dave")

    carol_app.send("dave", "are you there?", now=0.0)
    # mule's filter rejects the item
    EncounterSession(first=carol_ep, second=mule_ep).run()
    EncounterSession(first=mule_ep, second=dave_ep).run()
    print(f"dave received: {[m.body for m in dave_app.delivered_messages]}")

    print("\n== 3. Plugging in a DTN routing policy (Epidemic) ==")
    _, erin_app, erin_ep = make_host("erin", EpidemicPolicy())
    _, _, relay_ep = make_host("relay", EpidemicPolicy())
    _, frank_app, frank_ep = make_host("frank", EpidemicPolicy())

    erin_app.send("frank", "via the relay", now=0.0)
    # relay now carries the message
    EncounterSession(first=erin_ep, second=relay_ep).run()
    # and hands it to frank
    EncounterSession(first=relay_ep, second=frank_ep).run()
    print(f"frank received: {[m.body for m in frank_app.delivered_messages]}")


if __name__ == "__main__":
    direct_delivery()
    relayed_delivery()
