"""Extension experiment: bus-addressed vs user-addressed delivery.

The paper's scenario pins each message to the recipient's
bus-of-the-injection-day (static filters). The library also supports
addressing the *user*, with node filters tracking the daily user→bus
assignment — mail can then be picked up by whatever bus the recipient
boards next, including via the filter-change promotion path. This
test quantifies the difference, which the paper's model cannot
express.
"""

from dataclasses import replace

from repro.experiments.config import ExperimentConfig
from repro.experiments.report import render_series_table
from repro.experiments.runner import run_experiment

from .conftest import SCALE

HOURS = 3600.0
POLICIES = ("cimbiosys", "epidemic")


def test_ext_addressing_modes(check_results):
    rows = {}
    for policy in POLICIES:
        for addressing in ("bus", "user"):
            config = replace(
                ExperimentConfig(scale=SCALE, policy=policy),
                addressing=addressing,
            )
            result = run_experiment(config)
            rows[(policy, addressing)] = result.metrics
    series = {
        f"{policy}/{addressing}": [
            (12.0, 100.0 * rows[(policy, addressing)].fraction_delivered_within(12 * HOURS)),
            (24.0, 100.0 * rows[(policy, addressing)].fraction_delivered_within(24 * HOURS)),
            (72.0, 100.0 * rows[(policy, addressing)].fraction_delivered_within(72 * HOURS)),
        ]
        for policy in POLICIES
        for addressing in ("bus", "user")
    }
    check_results(
        "ext_addressing",
        render_series_table(
            "Extension: % delivered within N hours — bus vs user addressing",
            "hours",
            series,
        ),
    )

    for policy in POLICIES:
        bus_metrics = rows[(policy, "bus")]
        user_metrics = rows[(policy, "user")]
        # Both modes run the identical trace/workload and deliver.
        assert bus_metrics.injected == user_metrics.injected
        assert user_metrics.delivered > 0
    # For the direct-only baseline, user addressing opens an extra
    # delivery channel (the recipient can board the holding bus), so
    # long-run delivery is at least as good as the static bus target.
    assert (
        rows[("cimbiosys", "user")].delivery_ratio
        >= rows[("cimbiosys", "bus")].delivery_ratio - 0.02
    )
