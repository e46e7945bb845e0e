"""Figure 8 — message copies stored in the network, per policy.

Paper anchors: unmodified Cimbiosys stores exactly two copies per
delivered message (sender + receiver) and the fewest overall; PROPHET and
Spray-and-Wait invest a few more copies for much better delay; flooding
policies store the most; Spray-and-Wait stands out at experiment end
because its copy budget bounds replication. Our MaxProp additionally
floods delivery acknowledgements (Section V-C4), which reclaims relay
buffers by the end of the run.
"""

from repro.dtn.registry import PAPER_POLICY_ORDER
from repro.experiments.figures import figure_8
from repro.experiments.report import render_figure_8

from .conftest import SCALE


def test_figure_8_stored_copies(store, check_results):
    copies = figure_8(SCALE, store, PAPER_POLICY_ORDER)
    check_results("fig8", render_figure_8(copies))

    at_delivery = {p: copies[p]["at_delivery"] for p in PAPER_POLICY_ORDER}
    at_end = {p: copies[p]["at_end"] for p in PAPER_POLICY_ORDER}

    # Baseline: sender + receiver only (≤ 2; exactly 2 except for
    # same-host sender/recipient pairs).
    assert at_delivery["cimbiosys"] <= 2.0
    assert at_delivery["cimbiosys"] == min(at_delivery.values())
    assert at_end["cimbiosys"] <= 2.0

    # Every DTN policy invests extra copies to cut delay.
    for policy in ("prophet", "spray", "epidemic", "maxprop"):
        assert at_delivery[policy] > at_delivery["cimbiosys"]

    # Flooding accumulates the most copies by the end of the experiment.
    assert at_end["epidemic"] == max(at_end.values())

    # Spray's end-state copies are bounded by its budget (8) + endpoints.
    assert at_end["spray"] <= 9.0
    assert at_end["spray"] < at_end["epidemic"]

    # MaxProp's flooded acks reclaim relay storage after delivery.
    assert at_end["maxprop"] < at_end["epidemic"]
