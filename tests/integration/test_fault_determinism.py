"""Determinism regression: identical seed + fault config ⇒ byte-identical
metrics across two runs. Guards the seeded-RNG plumbing of the fault
subsystem (the injector must draw only from its own seeded stream, in a
schedule-determined order).

Two runs of the same code cannot see a change that moves one fault draw,
so :class:`TestPinnedFaultSchedules` also pins the sha256 of
``metrics.to_dict()`` for faulted runs on both engines. A digest that
moves means the fault schedule moved: that is a bug unless the change
meant to move it, and then the new digest comes with the explanation.
"""

import hashlib
import json

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.faults import FaultConfig

FAULTS = FaultConfig(
    encounter_drop_probability=0.15,
    truncation_probability=0.5,
    duplication_probability=0.25,
    crash_probability=0.05,
    retry_backoff_base=120.0,
)

CONFIG = ExperimentConfig(
    scale=0.25, policy="epidemic", faults=FAULTS, fault_seed=31
)


#: Every fault model armed (the CLI's all-flags mix).
ALL_MODELS = FaultConfig(
    encounter_drop_probability=0.1,
    truncation_probability=0.2,
    duplication_probability=0.2,
    crash_probability=0.05,
    corruption_probability=0.2,
    replay_probability=0.2,
    fabrication_probability=0.2,
    malformed_probability=0.2,
)
#: Truncation budgets in wire bytes, plus duplication.
BYTE_TRUNCATION = FaultConfig(
    truncation_probability=0.4,
    truncation_unit="bytes",
    duplication_probability=0.1,
)
#: The subset the columnar engine models: item truncation, duplication
#: and drop.
ITEM_TRUNCATION = FaultConfig(
    truncation_probability=0.3,
    truncation_min=1,
    truncation_max=3,
    duplication_probability=0.2,
    encounter_drop_probability=0.1,
)

PINNED = [
    ("object", "epidemic", ALL_MODELS,
     "b394f255c15803ca498f5740e7f7512d6c0a0814b47309d814b3b03187ff6551"),
    ("object", "prophet", ALL_MODELS,
     "e560073068ffdc4a47ec4287ff06f88518b637863c1dccc8743fa8c30fecf6dd"),
    ("object", "epidemic", BYTE_TRUNCATION,
     "20635081d88fa2e45f2eefdbffced376cebcaf24b621120b19dda7c8558cff2c"),
    ("object", "prophet", BYTE_TRUNCATION,
     "371be091a7e5f64a330a8f24b43d6d859c2fce876c228715cbfc9408733f5a76"),
    ("columnar", "epidemic", ITEM_TRUNCATION,
     "0c58a890f3d507d49f6b2712a7e3d059ec481c53272ab92545b7f48194bfe94d"),
    ("columnar", "spray", ITEM_TRUNCATION,
     "fe13923ab208c0bceee3656d95f33c89b0a59994d4a4ffa21f58a376e8526d5b"),
]


def summary_bytes(result):
    return json.dumps(result.summary(), sort_keys=True).encode()


def record_fingerprint(result):
    return [
        (
            str(record.message_id),
            record.injected_at,
            record.delivered_at,
            record.delivered_node,
            record.copies_at_delivery,
            record.copies_at_end,
        )
        for record in result.metrics.records.values()
    ]


class TestFaultDeterminism:
    def test_identical_runs_are_byte_identical(self):
        first = run_experiment(CONFIG)
        second = run_experiment(CONFIG)
        assert summary_bytes(first) == summary_bytes(second)
        assert record_fingerprint(first) == record_fingerprint(second)

    def test_faults_actually_fired(self):
        # The regression only means something if the schedule was non-trivial.
        metrics = run_experiment(CONFIG).metrics
        assert (
            metrics.dropped_encounters
            + metrics.interrupted_syncs
            + metrics.redundant_transmissions
            + metrics.crashes
        ) > 0

    def test_fault_seed_changes_schedule_only(self):
        baseline = run_experiment(CONFIG)
        shifted = run_experiment(
            ExperimentConfig(
                scale=0.25, policy="epidemic", faults=FAULTS, fault_seed=32
            )
        )
        # Same workload either way...
        assert baseline.metrics.injected == shifted.metrics.injected
        # ...but a different fault schedule.
        assert summary_bytes(baseline) != summary_bytes(shifted)


class TestPinnedFaultSchedules:
    @pytest.mark.parametrize(
        "engine, policy, faults, expected",
        PINNED,
        ids=[
            "object-epidemic-all",
            "object-prophet-all",
            "object-epidemic-bytes",
            "object-prophet-bytes",
            "columnar-epidemic-items",
            "columnar-spray-items",
        ],
    )
    def test_metrics_digest_is_pinned(self, engine, policy, faults, expected):
        config = ExperimentConfig(
            scale=0.25, policy=policy, faults=faults, fault_seed=23, engine=engine
        )
        dump = json.dumps(run_experiment(config).metrics.to_dict(), sort_keys=True)
        assert hashlib.sha256(dump.encode()).hexdigest() == expected
