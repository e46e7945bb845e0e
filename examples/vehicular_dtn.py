"""Vehicular DTN: the paper's evaluation scenario, end to end.

Generates a DieselNet-like bus mobility trace and an Enron-like e-mail
workload, runs the messaging application over the replication substrate
under all five routing configurations, and prints the delay / delivery /
traffic / storage comparison — a miniature of Figures 7 and 8.

Run:  python examples/vehicular_dtn.py            (half-size, seconds)
      REPRO_SCALE=1.0 python examples/vehicular_dtn.py   (paper-size)
"""

import os
import tempfile

from repro.dtn.registry import PAPER_POLICY_ORDER
from repro.experiments import (
    ExperimentConfig,
    RunStore,
    policy_sweep,
    render_summary_rows,
)
from repro.experiments.report import render_series_table


def main() -> None:
    scale = float(os.environ.get("REPRO_SCALE", "0.5"))
    with tempfile.TemporaryDirectory() as root:
        results = policy_sweep(scale, RunStore(root), PAPER_POLICY_ORDER)

    summary = results["cimbiosys"].trace_summary
    print(
        f"Trace: {summary['encounters']:.0f} encounters, "
        f"{summary['hosts']:.0f} buses over {summary['days']:.0f} days "
        f"(~{summary['mean_hosts_per_day']:.0f} active/day)"
    )
    messages = ExperimentConfig(scale=scale).effective_messages
    print(f"Workload: {messages} messages injected over the first 8 days\n")

    print(
        render_summary_rows(
            {policy: result.summary() for policy, result in results.items()}
        )
    )

    print()
    print(
        render_series_table(
            "Delay CDF (fraction delivered within N hours)",
            "hours",
            {
                policy: result.delay_cdf_hours([0, 2, 4, 6, 8, 10, 12])
                for policy, result in results.items()
            },
            value_format="{:8.1f}",
        )
    )

    baseline = results["cimbiosys"].metrics
    epidemic = results["epidemic"].metrics
    print(
        f"\nDirect-only delivery averages "
        f"{baseline.mean_delay_hours():.1f} h; epidemic flooding cuts that "
        f"to {epidemic.mean_delay_hours():.1f} h at "
        f"{epidemic.transmissions / max(baseline.transmissions, 1):.0f}x "
        f"the transmissions."
    )


if __name__ == "__main__":
    main()
