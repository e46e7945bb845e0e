"""Figure 10 — delay CDF under the storage constraint.

The paper caps each node at TWO stored messages, excluding messages for
which the node itself is the sender or the destination, with FIFO
eviction. Anchors: unmodified Cimbiosys is unaffected (it never relays);
the DTN policies lose some of their edge but still beat the baseline.
"""

from repro.dtn.registry import PAPER_POLICY_ORDER
from repro.experiments.figures import (
    FIGURE_TITLES,
    figure_7,
    figure_10,
    policy_sweep,
)
from repro.experiments.report import render_series_table

from .conftest import SCALE

STORAGE_LIMIT = 2


def test_figure_10_storage_constrained(store, check_results):
    curves = figure_10(SCALE, store, PAPER_POLICY_ORDER, STORAGE_LIMIT)
    check_results(
        "fig10",
        render_series_table(
            FIGURE_TITLES["fig10"],
            "hours",
            curves,
        ),
    )

    unconstrained = figure_7(SCALE, store, PAPER_POLICY_ORDER)
    free_results = policy_sweep(SCALE, store, PAPER_POLICY_ORDER)
    capped_results = policy_sweep(
        SCALE, store, PAPER_POLICY_ORDER, storage_limit=STORAGE_LIMIT
    )

    # Cimbiosys does not exploit relays, so the cap changes nothing.
    assert (
        capped_results["cimbiosys"].metrics.delays()
        == free_results["cimbiosys"].metrics.delays()
    )

    baseline_12h = dict(curves["cimbiosys"])[12.0]
    for policy in ("spray", "epidemic", "maxprop"):
        capped_12h = dict(curves[policy])[12.0]
        free_12h = dict(unconstrained[policy]["hours"])[12.0]
        # Still better than the baseline, but no better than unconstrained.
        assert capped_12h >= baseline_12h
        assert capped_12h <= free_12h + 1e-9

    # The cap actually binds: flooding policies suffer evictions.
    assert capped_results["epidemic"].metrics.evictions > 0
