"""Identity-based forwarding with richer filters (the paper's §IV-B).

Beyond plain address lists, Section IV-B motivates two filter styles that
need no platform changes at all:

* a **device ensemble** — "a user who owns multiple devices could
  configure the filter on each device to request messages sent by or
  addressed to any of his devices. One device could then forward messages
  en route between other devices";
* a **buddy list** — relaying mail addressed to one's social contacts.

Both are just filter expressions over the replicated attributes. This
example builds Ana's phone/laptop/tablet ensemble, where each device's
filter selects messages *to or from* any of her devices, and shows her
phone ferrying a message from her laptop toward a friend it never meets
directly — plus the friend's device relaying for a buddy.

Run:  python examples/device_ensemble.py
"""

from repro.messaging import Message, MessagingApp
from repro.replication import (
    AddressFilter,
    AttributeFilter,
    EncounterSession,
    Filter,
    MultiAddressFilter,
    Replica,
    ReplicaId,
    SyncEndpoint,
)

ANA_DEVICES = ("ana-phone", "ana-laptop", "ana-tablet")


def ensemble_filter(own: str) -> Filter:
    """Mail addressed to me, or to/from any device in my ensemble."""
    addressed_to_ensemble = MultiAddressFilter(
        own, frozenset(d for d in ANA_DEVICES if d != own)
    )
    sent_by_ensemble: Filter = AttributeFilter("source", ANA_DEVICES[0])
    for device in ANA_DEVICES[1:]:
        sent_by_ensemble = sent_by_ensemble | AttributeFilter("source", device)
    return addressed_to_ensemble | sent_by_ensemble


def device(name: str, filter_: Filter):
    replica = Replica(ReplicaId(name), filter_)
    app = MessagingApp(replica, lambda: frozenset({name}))
    return replica, app, SyncEndpoint(replica)


def main() -> None:
    phone_r, phone_app, phone = device("ana-phone", ensemble_filter("ana-phone"))
    laptop_r, laptop_app, laptop = device(
        "ana-laptop", ensemble_filter("ana-laptop")
    )
    _, bea_app, bea = device("bea-phone", AddressFilter("bea-phone"))

    # Ana's laptop writes to Bea; the laptop never meets Bea's phone.
    message = laptop_app.send_from(
        "ana-laptop", "bea-phone", "coffee tomorrow?", now=0.0
    )
    # The phone's ensemble filter selects mail *sent by* ana-laptop, so
    # it picks the message up during a home sync...
    EncounterSession(first=laptop, second=phone).run()
    print(f"phone carries the laptop's message: {phone_r.holds(message.message_id)}")

    # ...and hands it over when Ana bumps into Bea downtown.
    EncounterSession(first=phone, second=bea).run()
    print(f"bea received: {[m.body for m in bea_app.delivered_messages]}")

    # Buddy-list relaying: Bea's phone also relays for her friend Carlos.
    _, _, carlos_relay = device(
        "bea-buddy-relay",
        MultiAddressFilter("bea-buddy-relay", frozenset({"carlos-phone"})),
    )
    _, carlos_app, carlos = device("carlos-phone", AddressFilter("carlos-phone"))
    note = phone_app.send_from(
        "ana-phone", "carlos-phone", "hi carlos, via bea's relay", now=10.0
    )
    EncounterSession(first=phone, second=carlos_relay).run()
    EncounterSession(first=carlos_relay, second=carlos).run()
    print(f"carlos received: {[m.body for m in carlos_app.delivered_messages]}")

    # Every hop used nothing but filters — no routing policy involved.


if __name__ == "__main__":
    main()
