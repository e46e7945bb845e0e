"""Figure 9 — delay CDF under the bandwidth constraint.

The paper emulates scarce bandwidth by allowing only ONE message exchange
per encounter. Anchors: delays grow for everyone (the network becomes the
bottleneck); the DTN routing policies still deliver more than unmodified
Cimbiosys over the run; total transmissions are bounded by the encounter
count.
"""

from repro.dtn.registry import PAPER_POLICY_ORDER
from repro.experiments.figures import (
    FIGURE_TITLES,
    figure_7,
    figure_9,
    policy_sweep,
)
from repro.experiments.report import render_series_table

from .conftest import SCALE

BANDWIDTH_LIMIT = 1


def test_figure_9_bandwidth_constrained(store, check_results):
    curves = figure_9(SCALE, store, PAPER_POLICY_ORDER, BANDWIDTH_LIMIT)
    check_results(
        "fig9",
        render_series_table(
            FIGURE_TITLES["fig9"],
            "hours",
            curves,
        ),
    )

    unconstrained = figure_7(SCALE, store, PAPER_POLICY_ORDER)
    constrained_results = policy_sweep(
        SCALE, store, PAPER_POLICY_ORDER, bandwidth_limit=BANDWIDTH_LIMIT
    )

    for policy in PAPER_POLICY_ORDER:
        constrained_12h = dict(curves[policy])[12.0]
        free_12h = dict(unconstrained[policy]["hours"])[12.0]
        # The cap can only slow things down.
        assert constrained_12h <= free_12h + 1e-9

        # Hard bandwidth accounting: at most one transfer per encounter.
        metrics = constrained_results[policy].metrics
        assert metrics.transmissions <= metrics.encounters

    # DTN routing still delivers more than the baseline over the full run.
    baseline_ratio = constrained_results["cimbiosys"].metrics.delivery_ratio
    for policy in ("spray", "epidemic", "maxprop", "prophet"):
        assert (
            constrained_results[policy].metrics.delivery_ratio
            >= baseline_ratio - 0.02
        )

    # Under bandwidth pressure MaxProp's ordering pays: it does at least
    # as well as unordered flooding on delivery.
    assert (
        constrained_results["maxprop"].metrics.delivery_ratio
        >= constrained_results["epidemic"].metrics.delivery_ratio - 0.02
    )
