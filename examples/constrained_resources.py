"""Resource-constrained DTN routing (the paper's Section VI-D).

Repeats the policy comparison under the paper's two worst-case limits —
one message per encounter (bandwidth) and two relayed messages per node
with FIFO eviction (storage) — and prints how much of each policy's
advantage survives.

Run:  python examples/constrained_resources.py
"""

import tempfile

from repro.dtn.registry import PAPER_POLICY_ORDER
from repro.experiments import RunStore, policy_sweep

HOURS = 3600.0


def describe(title, results):
    print(f"\n{title}")
    print(f"{'policy':>12} {'delivered':>10} {'within 12h':>11} {'tx':>8} {'evictions':>10}")
    for policy in PAPER_POLICY_ORDER:
        metrics = results[policy].metrics
        print(
            f"{policy:>12} {metrics.delivery_ratio:>9.0%}"
            f" {metrics.fraction_delivered_within(12 * HOURS):>10.0%}"
            f" {metrics.transmissions:>8}"
            f" {metrics.evictions:>10}"
        )


def main() -> None:
    with tempfile.TemporaryDirectory() as root:
        store = RunStore(root)
        free = policy_sweep(0.5, store, PAPER_POLICY_ORDER)
        bandwidth = policy_sweep(0.5, store, PAPER_POLICY_ORDER, bandwidth_limit=1)
        storage = policy_sweep(0.5, store, PAPER_POLICY_ORDER, storage_limit=2)

    describe("Unconstrained (Figures 7/8 setting):", free)
    describe("Bandwidth-constrained — 1 message per encounter (Figure 9):", bandwidth)
    describe(
        "Storage-constrained — 2 relayed messages per node, FIFO (Figure 10):",
        storage,
    )

    print(
        "\nTakeaways (matching the paper): the baseline is untouched by the"
        " storage cap (it never relays); flooding policies lose the most"
        " under both caps but still beat the baseline; transmissions under"
        " the bandwidth cap are bounded by the number of encounters."
    )


if __name__ == "__main__":
    main()
