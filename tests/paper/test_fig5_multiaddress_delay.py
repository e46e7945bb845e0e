"""Figure 5 — mean message delay vs addresses-in-filter (random/selected).

Paper anchors: the k = 0 baseline averages about 70 hours; a single
well-chosen relay address roughly halves that; delay keeps falling as k
grows; and choosing the most-encountered hosts ("selected") beats random
choice at small k, with the advantage vanishing as k approaches the
network size.
"""

from repro.experiments.figures import FIGURE_TITLES, figure_5
from repro.experiments.report import render_series_table

from .conftest import SCALE

K_VALUES = (0, 1, 2, 4, 8, 16)


def test_figure_5_multiaddress_mean_delay(store, check_results):
    series = figure_5(SCALE, store, K_VALUES)
    check_results(
        "fig5",
        render_series_table(
            FIGURE_TITLES["fig5"],
            "k",
            series,
        ),
    )

    random_delay = dict(series["random"])
    selected_delay = dict(series["selected"])

    # Multi-address filters accelerate delivery monotonically-ish: the
    # largest k always beats the baseline by a wide margin.
    assert selected_delay[16] < selected_delay[0]
    assert random_delay[16] < random_delay[0]

    # More relay addresses never hurt on the way up the curve.
    assert selected_delay[16] <= selected_delay[1]

    # A single selected address gives a measurable cut (the paper reports
    # ~50% on the real trace, whose meeting opportunities are far more
    # concentrated on the top partner than our synthetic trace's — see
    # EXPERIMENTS.md), and selected ≤ random for small k (trace-oracle
    # advantage).
    assert selected_delay[1] < 0.95 * selected_delay[0]
    assert selected_delay[1] <= random_delay[1] * 1.05

    # …and the two strategies converge for large k (both → flooding).
    gap_small = abs(selected_delay[1] - random_delay[1])
    gap_large = abs(selected_delay[16] - random_delay[16])
    assert gap_large <= max(gap_small, 0.25 * selected_delay[0])
