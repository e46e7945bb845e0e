"""Values no run sets are module constants, not keywords or fields.

Each constructor or generator below used to take these as keywords with
the default every run used; the defaults became constants of the same
value. Passing one now raises ``TypeError`` (even at its old default), so
a caller that still tunes one fails loudly instead of being ignored. An
eviction strategy is a name from ``EVICTION_STRATEGIES``, so a checkpoint
can always record it: a callable is refused like an unknown name.
"""

import pytest

from repro.churn.trust import ReciprocityLedger
from repro.dtn import EpidemicPolicy
from repro.emulation.node import EmulatedNode
from repro.faults.injector import ResumeTracker
from repro.replication import AddressFilter, Replica, ReplicaId
from repro.replication.peer_health import PeerHealthTracker
from repro.replication.store import EVICTION_STRATEGIES, RelayStore, evict_fifo
from repro.traces.dieselnet import DieselNetConfig
from repro.traces.enron import SyntheticEmailModel, generate_enron_model
from repro.traces.workload import WorkloadConfig

#: (builder, what it still needs, the removed keywords at their old defaults)
REMOVED = [
    (
        PeerHealthTracker,
        {},
        {
            "suspect_threshold": 3,
            "quarantine_threshold": 6,
            "backoff_base": 120.0,
            "backoff_factor": 2.0,
            "backoff_max": 3600.0,
            "jitter": 0.1,
            "recovery_probes": 2,
        },
    ),
    (ResumeTracker, {}, {"base": 60.0, "factor": 2.0, "maximum": 3600.0}),
    (ReciprocityLedger, {"nodes": ["a", "b"]}, {"min_taken": 25}),
    (
        DieselNetConfig,
        {},
        {
            "n_buses": 35,
            "n_routes": 8,
            "days": 17,
            "buses_per_day": 23,
            "window_start_hour": 8.0,
            "window_end_hour": 23.0,
            "same_route_rate": 45.0,
            "adjacent_route_rate": 0.6,
            "other_route_rate": 0.8,
            "shift_start_min": 8.0,
            "shift_start_max": 10.0,
            "short_shift_probability": 0.25,
            "short_shift_hours": (1.5, 4.0),
            "long_shift_hours": (6.0, 14.0),
        },
    ),
    (WorkloadConfig, {}, {"window_start_hour": 8.0, "interval_seconds": 120.0}),
    (
        generate_enron_model,
        {"n_users": 10},
        {
            "sender_exponent": 1.1,
            "recipient_exponent": 0.9,
            "mean_contacts": 6,
            "contact_locality": 0.8,
        },
    ),
    (
        SyntheticEmailModel,
        {
            "_users": ["a", "b"],
            "sender_weights": [1.0, 1.0],
            "recipient_weights": [1.0, 1.0],
            "contact_sets": {},
        },
        {"contact_locality": 0.8},
    ),
]


@pytest.mark.parametrize(
    "build, required, removed",
    [
        pytest.param(build, required, {key: value}, id=f"{build.__name__}.{key}")
        for build, required, keywords in REMOVED
        for key, value in keywords.items()
    ],
)
def test_a_removed_keyword_is_refused(build, required, removed):
    build(**required)
    with pytest.raises(TypeError):
        build(**required, **removed)


@pytest.mark.parametrize(
    "build",
    [
        lambda strategy: RelayStore(capacity=1, strategy=strategy),
        lambda strategy: Replica(
            ReplicaId("n"), AddressFilter("n"), relay_eviction=strategy
        ),
        lambda strategy: EmulatedNode("n", EpidemicPolicy(), relay_eviction=strategy),
    ],
    ids=["RelayStore", "Replica", "EmulatedNode"],
)
def test_an_eviction_strategy_is_a_name(build):
    for name in EVICTION_STRATEGIES:
        build(name)
    with pytest.raises(ValueError, match="unknown eviction strategy"):
        build(evict_fifo)
