"""Figure 7 — delay CDFs of the DTN routing policies, unconstrained.

Paper anchors:

* 7(a): at every delay bound below 12 hours, the DTN-policy curves sit
  above the unmodified-Cimbiosys curve; epidemic/maxprop are the highest.
* 7(b): letting the system run for days eventually delivers everything;
  extending the substrate with DTN routing compresses the worst-case
  delay by more than 2× (paper: >9 days → ~4 days for flooding policies).
* Epidemic and MaxProp have *identical* delay distributions because they
  differ only under bandwidth constraints.
"""

from repro.dtn.registry import PAPER_POLICY_ORDER
from repro.experiments.figures import FIGURE_TITLES, figure_7, policy_sweep
from repro.experiments.report import render_series_table

from .conftest import SCALE


def test_figure_7_delay_cdfs(store, check_results):
    curves = figure_7(SCALE, store, PAPER_POLICY_ORDER)
    check_results(
        "fig7a",
        render_series_table(
            FIGURE_TITLES["fig7a"],
            "hours",
            {policy: curves[policy]["hours"] for policy in PAPER_POLICY_ORDER},
        ),
    )
    check_results(
        "fig7b",
        render_series_table(
            FIGURE_TITLES["fig7b"],
            "days",
            {policy: curves[policy]["days"] for policy in PAPER_POLICY_ORDER},
        ),
    )

    at_12h = {
        policy: dict(curves[policy]["hours"])[12.0]
        for policy in PAPER_POLICY_ORDER
    }
    at_10d = {
        policy: dict(curves[policy]["days"])[10.0]
        for policy in PAPER_POLICY_ORDER
    }

    # (a) Every DTN policy beats the baseline within 12 hours.
    for policy in ("prophet", "spray", "epidemic", "maxprop"):
        assert at_12h[policy] > at_12h["cimbiosys"]

    # (a) Flooding tops the 12-hour chart.
    assert at_12h["epidemic"] == max(at_12h.values())

    # (b) DTN policies end far ahead of the baseline at 10 days.
    for policy in ("spray", "epidemic", "maxprop", "prophet"):
        assert at_10d[policy] >= at_10d["cimbiosys"]

    # (b) Epidemic ≡ MaxProp unconstrained — identical distributions.
    results = policy_sweep(SCALE, store, PAPER_POLICY_ORDER)
    assert (
        results["epidemic"].metrics.delays()
        == results["maxprop"].metrics.delays()
    )

    # (b) Flooding compresses the worst-case delay by a large factor
    # (paper: >9 days → ~4 days; the factor shrinks with the scenario).
    baseline_max = results["cimbiosys"].metrics.max_delay()
    epidemic_max = results["epidemic"].metrics.max_delay()
    assert epidemic_max < baseline_max / 1.5
