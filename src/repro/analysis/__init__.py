"""Statistics and contact-graph analysis helpers."""

from .contacts import (
    TraceProfile,
    contact_counts,
    daily_degree,
    distinct_partners,
    encounter_concentration,
    inter_contact_summary,
    inter_contact_times,
    pair_coverage,
)
from .reachability import (
    delivery_oracle,
    earliest_delivery_time,
    foremost_arrival_times,
    reachable,
)
from .stats import mean, median, percentile

__all__ = [
    "TraceProfile",
    "contact_counts",
    "daily_degree",
    "delivery_oracle",
    "distinct_partners",
    "earliest_delivery_time",
    "encounter_concentration",
    "foremost_arrival_times",
    "inter_contact_summary",
    "inter_contact_times",
    "mean",
    "median",
    "pair_coverage",
    "reachable",
    "percentile",
]
