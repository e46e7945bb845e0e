"""Emulator-level churn: lifecycle gating, counters, and the
churn-disabled byte-identity guarantee."""

import pytest

from repro.churn.schedule import ARRIVE, CRASH, LEAVE, REJOIN
from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario import build_scenario
from repro.experiments.store import canonical_json

#: Scale 0.25 gives 8 hosts / 24 encounters / 4 days; churn seed 0 at
#: these fractions yields one arrival, two crash/rejoin cycles (one
#: checkpoint, one amnesiac), one graceful leave, and one free rider —
#: every lifecycle path in a run that takes a couple of seconds.
CHURN_KNOBS = dict(
    seed=0,
    arrival_fraction=0.15,
    departure_fraction=0.15,
    crash_fraction=0.3,
    amnesia_probability=0.5,
    free_rider_fraction=0.15,
    reciprocity_threshold=0.4,
)


def churn_config(**overrides):
    knobs = dict(CHURN_KNOBS)
    knobs.update(overrides)
    return ExperimentConfig(scale=0.25, policy="epidemic").with_churn(**knobs)


def run_scenario(config):
    scenario = build_scenario(config)
    metrics = scenario.emulator.run()
    return scenario, metrics


class TestChurnRun:
    def test_counters_match_the_schedule(self):
        scenario, metrics = run_scenario(churn_config())
        events = scenario.churn_schedule.events
        by_kind = lambda kind: sum(1 for e in events if e.kind == kind)
        assert metrics.churn is not None
        assert metrics.churn.churn_arrivals == by_kind(ARRIVE) == 1
        assert metrics.churn.churn_crashes == by_kind(CRASH) == 2
        assert metrics.churn.churn_rejoins == by_kind(REJOIN) == 2
        assert metrics.churn.churn_leaves == by_kind(LEAVE) == 1
        assert metrics.churn.churn_amnesiac_rejoins == 1

    def test_both_rejoin_flavours_are_exercised(self):
        scenario, _ = run_scenario(churn_config())
        schedule = scenario.churn_schedule
        assert schedule.has_checkpoint_rejoin
        assert schedule.has_amnesiac_rejoin

    def test_handoff_runs_for_the_graceful_leaver(self):
        _, metrics = run_scenario(churn_config())
        assert metrics.churn.churn_handoffs == 1

    def test_offline_nodes_skip_encounters(self):
        _, metrics = run_scenario(churn_config())
        # With a quarter of the population cycling offline, some trace
        # encounters must be skipped. Every trace encounter is either
        # run, skipped for an offline participant, or refused by the
        # reciprocity gate; the handoff is an extra, non-trace encounter.
        assert metrics.churn.churn_skipped_encounters > 0
        ran_from_trace = metrics.encounters - metrics.churn.churn_handoffs
        assert (
            ran_from_trace + metrics.churn.churn_skipped_encounters
            + metrics.churn.reciprocity_refusals == 24
        )

    def test_node_hours_are_positive_and_below_full_attendance(self):
        _, metrics = run_scenario(churn_config())
        summary = metrics.summary()
        span_hours = 4 * 24.0
        full_attendance = 8 * span_hours
        assert 0.0 < summary["node_hours_online"] < full_attendance

    def test_free_rider_reciprocity_diverges(self):
        scenario, metrics = run_scenario(churn_config())
        free_riders = set(scenario.churn_schedule.free_riders)
        assert free_riders
        scores = metrics.summary()["reciprocity_scores"]
        honest = {
            name: score
            for name, score in scores.items()
            if name not in free_riders
        }
        for name in free_riders:
            assert scores[name] < min(honest.values())

    def test_a_free_rider_serves_nothing(self):
        scenario, _ = run_scenario(churn_config())
        ledger = scenario.emulator.director.reciprocity
        free_riders = scenario.churn_schedule.free_riders
        assert free_riders
        for name in free_riders:
            assert scenario.emulator.nodes[name].serves_at_most == 0
            assert ledger._given[name] == 0
            assert ledger._taken[name] > 0

    def test_strangers_get_a_grace_window_of_25_items(self):
        scenario, _ = run_scenario(churn_config())
        ledger = scenario.emulator.director.reciprocity
        assert ledger.threshold == 0.4
        assert ledger.min_taken == 25

    def test_summary_has_the_lifecycle_block(self):
        _, metrics = run_scenario(churn_config())
        summary = metrics.summary()
        for key in (
            "churn_arrivals",
            "churn_leaves",
            "churn_crashes",
            "churn_rejoins",
            "churn_amnesiac_rejoins",
            "churn_handoffs",
            "churn_skipped_encounters",
            "churn_lost_injections",
            "reciprocity_refusals",
            "node_hours_online",
            "lost_to_departure",
            "reciprocity_scores",
        ):
            assert key in summary


class TestDeterminism:
    def test_same_config_same_metrics(self):
        _, first = run_scenario(churn_config())
        _, second = run_scenario(churn_config())
        assert canonical_json(first.to_dict()) == canonical_json(
            second.to_dict()
        )
        assert first.summary() == second.summary()

    def test_churn_seed_changes_the_run(self):
        _, first = run_scenario(churn_config(seed=0))
        _, second = run_scenario(churn_config(seed=4))
        assert first.summary() != second.summary()


class TestZeroChurnEquivalence:
    """Arming the subsystem with all-zero knobs must change nothing."""

    def test_disabled_config_runs_byte_identical_to_none(self):
        base = ExperimentConfig(scale=0.25, policy="epidemic")
        disarmed = base.with_churn()  # all fractions zero -> disabled
        _, plain = run_scenario(base)
        _, churned = run_scenario(disarmed)
        assert canonical_json(plain.to_dict()) == canonical_json(
            churned.to_dict()
        )
        assert plain.summary() == churned.summary()

    def test_no_churn_keys_leak_into_plain_artifacts(self):
        _, plain = run_scenario(ExperimentConfig(scale=0.25))
        assert plain.churn is None
        summary = plain.summary()
        assert "churn_arrivals" not in summary
        assert "reciprocity_scores" not in summary
        assert "churn" not in plain.to_dict()
