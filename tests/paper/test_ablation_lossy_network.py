"""Ablation: delivery under random encounter drops.

Real DieselNet radio contacts often failed to complete a transfer; the
fault injector's ``encounter_drop_probability`` models that. Because the
substrate's knowledge updates only on receipt, failures cost time but
never correctness — flooding policies degrade gracefully while the
direct-only baseline, with far fewer useful contacts to begin with,
suffers proportionally more.
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.report import render_series_table
from repro.experiments.runner import run_experiment
from repro.faults import FaultConfig

from .conftest import SCALE

LOSS_RATES = (0.0, 0.25, 0.5)


def test_ablation_sync_failures(check_results):
    series = {}
    failures = {}
    for policy in ("cimbiosys", "epidemic"):
        points = []
        for loss in LOSS_RATES:
            config = ExperimentConfig(
                scale=SCALE,
                policy=policy,
                faults=FaultConfig(encounter_drop_probability=loss),
            )
            metrics = run_experiment(config).metrics
            points.append((loss, 100.0 * metrics.delivery_ratio))
            failures[(policy, loss)] = metrics.dropped_encounters
        series[policy] = points
    check_results(
        "ablation_loss",
        render_series_table(
            "Ablation: % delivered (whole run) vs sync-failure probability",
            "loss",
            series,
        ),
    )

    epidemic = dict(series["epidemic"])
    baseline = dict(series["cimbiosys"])

    # No failures injected at loss 0; failures appear and scale with loss.
    assert failures[("epidemic", 0.0)] == 0
    assert failures[("epidemic", 0.5)] > failures[("epidemic", 0.25)] > 0

    # Loss can only hurt, and flooding tolerates it better than direct.
    assert epidemic[0.5] <= epidemic[0.0] + 1e-9
    assert baseline[0.5] <= baseline[0.0] + 1e-9
    assert epidemic[0.5] >= baseline[0.5]
    # Flooding's redundancy keeps it delivering most messages at 50% loss.
    assert epidemic[0.5] >= 0.7 * epidemic[0.0]
