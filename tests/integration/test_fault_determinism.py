"""Determinism regression: identical seed + fault config ⇒ byte-identical
metrics across two runs. Guards the seeded-RNG plumbing of the fault
subsystem (the injector must draw only from its own seeded stream, in a
schedule-determined order).

Two runs of the same code cannot see a change that moves one fault draw;
the identity table (``test_identity.py``) pins faulted runs on both
engines across commits.
"""

import json

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.faults import FaultConfig

FAULTS = FaultConfig(
    encounter_drop_probability=0.15,
    truncation_probability=0.5,
    duplication_probability=0.25,
    crash_probability=0.05,
)

CONFIG = ExperimentConfig(
    scale=0.25, policy="epidemic", faults=FAULTS, fault_seed=31
)


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

