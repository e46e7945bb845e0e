"""Figure 6 — % messages delivered within 12 hours vs addresses-in-filter.

Paper anchors: basic Cimbiosys (k = 0) delivers roughly 30% within 12
hours (not everything, because not all buses meet on the same day);
delivery climbs as more addresses join the filter; selected ≥ random for
small k.
"""

from repro.experiments.figures import FIGURE_TITLES, figure_6
from repro.experiments.report import render_series_table

from .conftest import SCALE

K_VALUES = (0, 1, 2, 4, 8, 16)


def test_figure_6_multiaddress_delivery(store, check_results):
    series = figure_6(SCALE, store, K_VALUES)
    check_results(
        "fig6",
        render_series_table(
            FIGURE_TITLES["fig6"],
            "k",
            series,
        ),
    )

    random_pct = dict(series["random"])
    selected_pct = dict(series["selected"])

    # The baseline delivers some but far from all messages within 12 h.
    assert 10.0 <= selected_pct[0] <= 60.0

    # Delivery improves as addresses are added (paper's main point).
    assert selected_pct[16] > selected_pct[0]
    assert random_pct[16] > random_pct[0]
    assert selected_pct[16] >= selected_pct[2] >= selected_pct[0]

    # The selected strategy is at least as good as random at small k.
    assert selected_pct[1] >= random_pct[1] - 5.0
