"""Churn parity: a live swarm under node churn vs the emulator.

The acceptance bar for the churn subsystem (docs/churn.md): a swarm of
real ``repro serve`` processes whose orchestrator kills, respawns, and
gracefully drains nodes per the derived lifecycle schedule must reach
exactly the per-node fixed point the emulator computes for the same
config — including a crash that rejoins from its on-disk checkpoint, a
crash that rejoins amnesiac, a graceful leave with a final-sync handoff,
and a reciprocity-scored free rider.
"""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.parity import (
    check_churn_parity,
    compare_fixed_points,
    snapshot_emulator,
)
from repro.experiments.scenario import build_scenario
from repro.net.swarm import SwarmConfig, run_swarm

from .test_swarm_parity import live_comparable

#: Scale 0.25 = 8 hosts / 24 encounters / 4 days; churn seed 0 at these
#: fractions covers every lifecycle path: one late arrival, one
#: checkpoint rejoin, one amnesiac rejoin, one graceful leave (with
#: handoff), one free rider, plus the reciprocity gate armed.
CHURN = dict(
    seed=0,
    arrival_fraction=0.15,
    departure_fraction=0.15,
    crash_fraction=0.3,
    amnesia_probability=0.5,
    free_rider_fraction=0.15,
    reciprocity_threshold=0.4,
)
CONFIG = ExperimentConfig(scale=0.25, policy="epidemic").with_churn(**CHURN)


class TestChurnParity:
    def test_schedule_covers_both_rejoin_flavours(self):
        schedule = build_scenario(CONFIG).churn_schedule
        assert schedule.has_checkpoint_rejoin
        assert schedule.has_amnesiac_rejoin

    def test_swarm_matches_emulator_under_full_churn(self):
        emulator = build_scenario(CONFIG).emulator
        expected = emulator.run()
        emulator_points = snapshot_emulator(emulator)
        assert len(emulator_points) == 8  # one OS process per host
        report = run_swarm(SwarmConfig(experiment=CONFIG))
        parity = compare_fixed_points(emulator_points, report.fixed_points)
        assert parity.equal, f"diverged: {parity.detail}"
        # Kills, respawns and hand-offs included, the orchestrator books
        # what the emulator books.
        assert live_comparable(report.metrics) == live_comparable(expected)

        summary = report.metrics.summary()
        assert summary["churn_crashes"] == 2
        assert summary["churn_rejoins"] == 2
        assert summary["churn_amnesiac_rejoins"] == 1
        assert summary["churn_leaves"] == 1
        assert summary["churn_handoffs"] == 1
        assert summary["churn_arrivals"] == 1
        assert summary["node_hours_online"] > 0

        # The free rider's population-wide reciprocity score must sit
        # visibly below every honest node's.
        free_riders = set(
            build_scenario(CONFIG).churn_schedule.free_riders
        )
        scores = summary["reciprocity_scores"]
        honest_floor = min(
            score
            for name, score in scores.items()
            if name not in free_riders
        )
        for name in free_riders:
            assert scores[name] < honest_floor

    def test_a_storage_limit_books_the_evictions_of_processes_that_die(self):
        # Crashed, departed and respawned processes included: each node
        # reports its evictions with the reply to the directive that
        # caused them, so none dies with its process.
        config = ExperimentConfig(
            scale=0.25, policy="epidemic", storage_limit=3
        ).with_churn(**CHURN)
        expected = build_scenario(config).emulator.run()
        report = run_swarm(SwarmConfig(experiment=config))
        assert live_comparable(report.metrics) == live_comparable(expected)
        assert report.metrics.evictions > 0

    def test_gate_rejects_unarmed_configs(self):
        with pytest.raises(ValueError, match="armed ChurnConfig"):
            check_churn_parity(ExperimentConfig(scale=0.25))

    def test_gate_rejects_schedules_missing_a_rejoin_flavour(self):
        only_amnesiac = ExperimentConfig(scale=0.25).with_churn(
            seed=0, crash_fraction=0.3, amnesia_probability=1.0
        )
        with pytest.raises(ValueError, match="checkpoint rejoin"):
            check_churn_parity(only_amnesiac)
        only_checkpoint = ExperimentConfig(scale=0.25).with_churn(
            seed=0, crash_fraction=0.3, amnesia_probability=0.0
        )
        with pytest.raises(ValueError, match="amnesiac rejoin"):
            check_churn_parity(only_checkpoint)
