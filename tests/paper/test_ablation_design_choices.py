"""Ablations over system design choices called out in DESIGN.md.

* **Delete-on-receipt** (Section IV-A cleanup): quantifies the storage
  reclaimed when destinations delete received messages and the tombstone
  spreads — the substrate-native alternative to MaxProp's explicit acks.
* **Route stickiness** (trace generator): day-to-day schedule churn is
  the mechanism that defeats PROPHET's history on this workload (the
  paper's footnote 1); sweeping stickiness shows PROPHET's fortunes
  tracking predictability.
"""

from dataclasses import replace

from repro.experiments.config import ExperimentConfig
from repro.experiments.report import render_series_table
from repro.experiments.runner import run_experiment
from repro.traces.dieselnet import DieselNetConfig, generate_dieselnet_trace
from repro.traces.enron import generate_enron_model

from .conftest import SCALE

HOURS = 3600.0


def test_ablation_delete_on_receipt(check_results):
    rows = {}
    for policy in ("cimbiosys", "spray", "epidemic"):
        for delete in (False, True):
            config = replace(
                ExperimentConfig(scale=SCALE, policy=policy),
                delete_on_receipt=delete,
            )
            result = run_experiment(config)
            rows[(policy, delete)] = result.metrics
    series = {
        "keep": [
            (i, rows[(policy, False)].mean_copies_at_end() or 0.0)
            for i, policy in enumerate(("cimbiosys", "spray", "epidemic"))
        ],
        "delete-on-receipt": [
            (i, rows[(policy, True)].mean_copies_at_end() or 0.0)
            for i, policy in enumerate(("cimbiosys", "spray", "epidemic"))
        ],
    }
    check_results(
        "ablation_cleanup",
        render_series_table(
            "Ablation: end-state copies per message — destinations delete "
            "vs never delete (0=cimbiosys, 1=spray, 2=epidemic)",
            "policy#",
            series,
        ),
    )

    for policy in ("spray", "epidemic"):
        kept = rows[(policy, False)]
        cleaned = rows[(policy, True)]
        # Cleanup reclaims storage without changing delivery.
        assert cleaned.mean_copies_at_end() < kept.mean_copies_at_end()
        assert cleaned.delivered == kept.delivered


def test_ablation_route_stickiness_vs_prophet(check_results):
    """PROPHET's advantage over blind spraying grows with predictability."""
    series = {"prophet": [], "spray": []}
    for stickiness in (0.0, 0.3, 0.9):
        trace = generate_dieselnet_trace(
            DieselNetConfig(scale=SCALE, route_stickiness=stickiness)
        )
        model = generate_enron_model(
            n_users=ExperimentConfig(scale=SCALE).effective_users
        )
        for policy, points in series.items():
            config = ExperimentConfig(scale=SCALE, policy=policy)
            result = run_experiment(config, trace=trace, model=model)
            points.append(
                (stickiness, 100.0 * result.metrics.fraction_delivered_within(24 * HOURS))
            )
    check_results(
        "ablation_stickiness",
        render_series_table(
            "Ablation: %-within-24h vs route stickiness (schedule churn)",
            "stickiness",
            series,
        ),
    )
    # Both policies complete and deliver under every churn level; the
    # prophet-vs-spray gap is trace-dependent, so assert only sanity here
    # (the trend is pinned by results/ablation_stickiness.txt).
    for points in series.values():
        assert all(0.0 <= value <= 100.0 for _, value in points)
        assert all(value > 0.0 for _, value in points)
