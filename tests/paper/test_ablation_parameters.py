"""Ablations over the protocol parameters of Table II.

Not figures from the paper — these sweep each policy's knob over the
shared scenario to show *why* the paper's chosen values are sensible:

* Epidemic TTL: 1 hop is nearly direct-delivery; the benefit saturates
  well before TTL = 10 (the Table II value is safely in the flat region).
* Spray-and-Wait copies: delivery improves with the budget at sub-linear
  cost growth; 8 captures most of the benefit.
* MaxProp hop threshold: governs how long fresh messages keep priority.
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.report import render_series_table
from repro.experiments.runner import run_experiment

from .conftest import SCALE

HOURS = 3600.0


def _sweep(policy, parameter, values):
    points_delivery = []
    points_traffic = []
    for value in values:
        config = ExperimentConfig(scale=SCALE, policy=policy).with_policy(
            policy, **{parameter: value}
        )
        result = run_experiment(config)
        metrics = result.metrics
        points_delivery.append(
            (value, 100.0 * metrics.fraction_delivered_within(12 * HOURS))
        )
        points_traffic.append((value, float(metrics.transmissions)))
    return points_delivery, points_traffic


def test_ablation_epidemic_ttl(check_results):
    delivery, traffic = _sweep("epidemic", "initial_ttl", (1, 2, 4, 10))
    check_results(
        "ablation_epidemic_ttl",
        render_series_table(
            "Ablation: Epidemic TTL vs %-within-12h and transmissions",
            "ttl",
            {"within12h%": delivery, "transmissions": traffic},
        ),
    )
    by_ttl = dict(delivery)
    # More hop budget never hurts delivery…
    assert by_ttl[10] >= by_ttl[1]
    # …and the paper's TTL=10 sits in the saturated region: going from 4
    # to 10 changes far less than going from 1 to 4.
    assert abs(by_ttl[10] - by_ttl[4]) <= max(5.0, abs(by_ttl[4] - by_ttl[1]))


def test_ablation_spray_copies(check_results):
    delivery, traffic = _sweep("spray", "initial_copies", (1, 2, 4, 8, 16))
    check_results(
        "ablation_spray_copies",
        render_series_table(
            "Ablation: Spray-and-Wait copy budget vs %-within-12h and transmissions",
            "copies",
            {"within12h%": delivery, "transmissions": traffic},
        ),
    )
    by_copies = dict(delivery)
    tx = dict(traffic)
    # A bigger budget delivers more, and traffic grows with the budget.
    assert by_copies[8] > by_copies[1]
    assert tx[16] > tx[2]
    # One copy = direct-ish delivery: the cheapest configuration.
    assert tx[1] == min(tx.values())


def test_ablation_maxprop_hop_threshold(check_results):
    delivery, traffic = _sweep("maxprop", "hop_threshold", (0, 3, 10))
    check_results(
        "ablation_maxprop_threshold",
        render_series_table(
            "Ablation: MaxProp hop-count priority threshold (unconstrained)",
            "threshold",
            {"within12h%": delivery, "transmissions": traffic},
        ),
    )
    by_threshold = dict(delivery)
    # Unconstrained, the threshold only affects ordering, so delivery is
    # essentially flat — the knob matters under bandwidth pressure.
    values_seen = list(by_threshold.values())
    assert max(values_seen) - min(values_seen) <= 10.0


def test_ablation_maxprop_threshold_under_bandwidth_cap(check_results):
    points = []
    for threshold in (0, 3, 10):
        config = (
            ExperimentConfig(scale=SCALE, policy="maxprop")
            .with_policy("maxprop", hop_threshold=threshold)
            .with_constraints(bandwidth_limit=1)
        )
        result = run_experiment(config)
        points.append((threshold, 100.0 * result.metrics.delivery_ratio))
    check_results(
        "ablation_maxprop_threshold_bw",
        render_series_table(
            "Ablation: MaxProp hop threshold under 1-message bandwidth cap",
            "threshold",
            {"delivered%": points},
        ),
    )
    # The constrained runs complete and deliver something at every value;
    # the exact optimum is trace-dependent.
    assert all(delivered > 0.0 for _, delivered in points)
