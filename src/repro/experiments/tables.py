"""The paper's tables as data.

* **Table I** — the qualitative summary of the four DTN routing policies:
  what routing state each host keeps, what the target adds to sync
  requests, and the source's forwarding rule. Kept as structured data so
  tests can assert that each implemented policy actually exhibits the
  behaviour its row describes.
* **Table II** — the protocol parameters used in the evaluation, re-exported
  from the policy registry (which is the single source of truth — the
  registry instantiates policies with exactly these values).
* **Measured tables** — :func:`measured_policy_table` aggregates stored
  run artifacts per policy, the data behind
  :func:`repro.experiments.report.render_measured_table`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.dtn.registry import TABLE_II_PARAMETERS

from .runner import ExperimentResult


@dataclass(frozen=True)
class PolicySummaryRow:
    """One row of Table I."""

    protocol: str
    routing_state: str
    added_to_sync_request: str
    source_forwarding_policy: str


TABLE_I: Tuple[PolicySummaryRow, ...] = (
    PolicySummaryRow(
        protocol="Epidemic",
        routing_state="TTL per message",
        added_to_sync_request="",
        source_forwarding_policy="When TTL > 0",
    ),
    PolicySummaryRow(
        protocol="Spray&Wait",
        routing_state="# copies per message",
        added_to_sync_request="",
        source_forwarding_policy="When # copies >= 2",
    ),
    PolicySummaryRow(
        protocol="PROPHET",
        routing_state="Vector of delivery predictabilities: P[d] for each dest d",
        added_to_sync_request="Target's P vector",
        source_forwarding_policy=(
            "Messages addressed to dest when target's P[dest] > source's"
        ),
    ),
    PolicySummaryRow(
        protocol="MaxProp",
        routing_state="Estimated meeting probabilities for all pairs",
        added_to_sync_request="Target's meeting probabilities",
        source_forwarding_policy=(
            "All messages, ordered by priority (modified Dijkstra calculation)"
        ),
    ),
)

#: Table II verbatim (name → parameter dict), sourced from the registry.
TABLE_II: Dict[str, Dict[str, object]] = {
    name: dict(parameters) for name, parameters in TABLE_II_PARAMETERS.items()
}

#: The values as printed in the paper, for cross-checking the registry.
TABLE_II_PAPER_VALUES: Dict[str, Dict[str, object]] = {
    "epidemic": {"initial_ttl": 10},
    "spray": {"initial_copies": 8},
    "prophet": {"p_init": 0.75, "beta": 0.25, "gamma": 0.98},
    "maxprop": {"hop_threshold": 3},
}

#: Metrics aggregated by :func:`measured_policy_table`.
MEASURED_METRICS: Tuple[str, ...] = (
    "delivery_ratio",
    "mean_delay_hours",
    "within_12h",
    "transmissions",
)


def measured_policy_table(store) -> Dict[str, Dict[str, float]]:
    """Per-policy metric means over every artifact in a run store.

    Reads completed runs back from their JSON artifacts (not live metric
    objects) and averages :data:`MEASURED_METRICS` per policy, across
    seeds and constraint settings; artifacts the store refuses are
    skipped, and so are NaN metrics (e.g. mean delay with zero
    deliveries), per metric. Returns
    ``{policy: {"runs": n, metric: mean, ...}}`` with policies sorted.
    """
    accumulated: Dict[str, Dict[str, list]] = {}
    counts: Dict[str, int] = {}
    for artifact in store.readable_artifacts():
        result = ExperimentResult.from_dict(artifact["result"])
        policy = result.config.policy
        counts[policy] = counts.get(policy, 0) + 1
        summary = result.summary()
        bucket = accumulated.setdefault(policy, {})
        for metric in MEASURED_METRICS:
            value = summary[metric]
            if not math.isnan(value):
                bucket.setdefault(metric, []).append(value)
    table: Dict[str, Dict[str, float]] = {}
    for policy in sorted(counts):
        row: Dict[str, float] = {"runs": float(counts[policy])}
        for metric in MEASURED_METRICS:
            values = accumulated[policy].get(metric, [])
            row[metric] = (
                sum(values) / len(values) if values else float("nan")
            )
        table[policy] = row
    return table
