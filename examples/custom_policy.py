"""Writing a custom DTN routing policy against the plug-in interface.

The paper's Section V argues that the three-method policy interface
(generate_req / process_req / to_send) is expressive enough for the whole
DTN routing literature. This example demonstrates by implementing a new
protocol not in the paper — **Two-Hop Relay** (Grossglauser & Tse): the
source hands copies to every host it meets, but relays forward only
directly to the destination. It needs ~20 lines.

The example then races Two-Hop against Epidemic and the direct baseline on
the same vehicular scenario.

Run:  python examples/custom_policy.py
"""

from typing import Optional

from repro.dtn import register_policy
from repro.experiments import ExperimentConfig, run_experiment
from repro.replication import Filter, Item, Priority, RoutingPolicy, SyncContext

#: Host-local marker: set on copies held by relays (not the source).
RELAYED_MARKER = "twohop.relayed"


class TwoHopRelayPolicy(RoutingPolicy):
    """Source sprays to everyone; relays only deliver directly.

    ``to_send`` is only consulted for items that do NOT match the target's
    filter, so a relay (which would only ever forward to the destination,
    i.e. a filter match handled by the platform) simply declines, while
    the source — identified by item authorship — hands a copy to anyone.
    """

    name = "two-hop"

    def to_send(
        self, item: Item, target_filter: Filter, context: SyncContext
    ) -> Optional[Priority]:
        if not self.is_routable_message(item):
            return None
        authored_here = item.version.replica == self.replica.replica_id
        if authored_here:
            return self.normal()
        return None  # relays wait for a direct encounter with the dest


def main() -> None:
    register_policy("two-hop", TwoHopRelayPolicy)

    print("policy      delivered  mean-delay  within-12h  transmissions")
    for policy in ("cimbiosys", "two-hop", "spray", "epidemic"):
        config = ExperimentConfig(scale=0.5, policy=policy)
        result = run_experiment(config)
        metrics = result.metrics
        mean_delay = metrics.mean_delay_hours()
        print(
            f"{policy:<11} {metrics.delivery_ratio:>8.0%}"
            f" {mean_delay if mean_delay else float('nan'):>9.1f}h"
            f" {metrics.fraction_delivered_within(12 * 3600):>10.0%}"
            f" {metrics.transmissions:>13}"
        )
    print(
        "\nTwo-hop relay sits between the direct baseline and full"
        " flooding on both delay and traffic — one screen of code, every"
        " substrate guarantee intact."
    )


if __name__ == "__main__":
    main()
