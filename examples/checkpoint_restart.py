"""Checkpointing a host to disk and resuming mid-scenario.

Real DTN devices reboot. The replication substrate's state — stores,
knowledge, id counters — and the routing policy's state (paper §V-A:
policies "define persistent data structures which are serialized to disk")
both checkpoint to a JSON file and restore to a host that is
protocol-indistinguishable from the one that shut down: it refuses
messages it already received (at-most-once survives the restart) and
keeps PROPHET's learned predictabilities.

Run:  python examples/checkpoint_restart.py
"""

import tempfile

from repro.dtn import ProphetPolicy
from repro.messaging import MessagingApp
from repro.replication import (
    AddressFilter,
    EncounterSession,
    Replica,
    ReplicaId,
    SyncEndpoint,
    load_replica,
    save_replica,
)


def prophet_host(name: str):
    replica = Replica(ReplicaId(name), AddressFilter(name))
    policy = ProphetPolicy().bind(replica, lambda: frozenset({name}))
    app = MessagingApp(replica, lambda: frozenset({name}))
    return replica, policy, app, SyncEndpoint(replica, policy)


def main() -> None:
    relay_replica, relay_policy, _, relay_ep = prophet_host("relay")
    _, _, dst_app, dst_ep = prophet_host("dst")
    src_replica, _, src_app, src_ep = prophet_host("src")

    # The relay meets the destination, learning P[dst]; then receives a
    # message from the source, then a first message is delivered.
    EncounterSession(first=relay_ep, second=dst_ep, now=0.0).run()
    first = src_app.send("dst", "before the reboot", now=100.0)
    EncounterSession(first=src_ep, second=relay_ep, now=200.0).run()
    print(f"relay carries {first.message_id}: {relay_replica.holds(first.message_id)}")
    print(f"relay P[dst] = {relay_policy.predictability('dst'):.3f}")

    # ---- checkpoint and "reboot" --------------------------------------
    with tempfile.NamedTemporaryFile(suffix=".ckpt", delete=False) as handle:
        path = handle.name
    save_replica(relay_replica, path, policy_state=relay_policy.persistent_state())
    print(f"\ncheckpointed relay to {path}")

    restored_replica, policy_state = load_replica(path)
    restored_policy = ProphetPolicy().bind(
        restored_replica, lambda: frozenset({"relay"})
    )
    restored_policy.restore_state(policy_state)
    restored_ep = SyncEndpoint(restored_replica, restored_policy)
    print(
        f"restored: carries message = {restored_replica.holds(first.message_id)},"
        f" P[dst] = {restored_policy.predictability('dst'):.3f}"
    )

    # At-most-once survives the restart: the source has nothing new for us.
    stats = EncounterSession(first=src_ep, second=restored_ep, now=300.0).run()
    print(f"re-encounter with source transferred {sum(s.sent_total for s in stats)} items")

    # And the restored relay still routes: it hands the message to dst.
    EncounterSession(first=restored_ep, second=dst_ep, now=400.0).run()
    print(f"dst received after reboot: {[m.body for m in dst_app.delivered_messages]}")


if __name__ == "__main__":
    main()
