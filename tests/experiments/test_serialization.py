"""Round-trip tests for the repro.api serialization contract.

``to_dict → from_dict → to_dict`` must be a fixed point for every type
the sweep engine ships across process boundaries or persists as an
artifact: :class:`ExperimentConfig`, :class:`FaultConfig`,
:class:`MetricsCollector` (with delivered *and* undelivered records and
non-zero sync counters), and :class:`ExperimentResult`. A JSON hop is
included everywhere — artifacts live on disk as JSON, so survival of
``json.dumps``/``json.loads`` is part of the contract.
"""

import json

import pytest

from repro.churn import ChurnConfig
from repro.emulation.metrics import MessageRecord, MetricsCollector
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentResult, run_experiment
from repro.faults import FaultConfig
from repro.replication.ids import ItemId, ReplicaId
from repro.replication.sync import SyncStats


def json_hop(data):
    return json.loads(json.dumps(data))


class TestFaultConfigRoundTrip:
    def test_fixed_point(self):
        config = FaultConfig(
            encounter_drop_probability=0.1,
            truncation_probability=0.25,
            duplication_probability=0.05,
            crash_probability=0.01,
        )
        data = config.to_dict()
        rebuilt = FaultConfig.from_dict(json_hop(data))
        assert rebuilt == config
        assert rebuilt.to_dict() == data

    def test_unknown_field_named_in_error(self):
        # rng_streams was a field until 1.5.0: an artifact that still
        # carries it fails loudly rather than running with it ignored.
        for name, value in (("bogus_knob", 1.0), ("rng_streams", "per-link")):
            with pytest.raises(TypeError, match=name):
                FaultConfig.from_dict({name: value})

    def test_a_field_removed_in_1_10_is_refused(self):
        # An artifact stored before 1.10 still names these; its run is
        # not silently re-read as one with the fixed defaults.
        for name in (
            "truncation_min",
            "truncation_max",
            "truncation_unit",
            "retry_backoff_base",
            "retry_backoff_factor",
            "retry_backoff_max",
            "suspect_threshold",
            "quarantine_threshold",
            "quarantine_backoff_base",
            "quarantine_backoff_factor",
            "quarantine_backoff_max",
            "quarantine_jitter",
            "recovery_probes",
        ):
            with pytest.raises(TypeError, match=name):
                FaultConfig.from_dict({"truncation_probability": 0.5, name: 1})


class TestChurnConfigRoundTrip:
    def test_a_field_removed_in_1_10_is_refused(self):
        for name, value in (
            ("min_offline_days", 0.25),
            ("max_offline_days", 1.0),
            ("handoff", True),
            ("free_rider_mode", "receive-only"),
            ("free_rider_budget", 1),
            ("reciprocity_min_taken", 25),
        ):
            with pytest.raises(TypeError, match=name):
                ChurnConfig.from_dict({"crash_fraction": 0.5, name: value})


class TestExperimentConfigRoundTrip:
    def test_fixed_point_with_faults_and_parameters(self):
        config = ExperimentConfig(
            scale=0.25,
            policy="epidemic",
            policy_parameters={"initial_ttl": 5},
            addressing="user",
            filter_strategy="random",
            filter_k=2,
            bandwidth_limit=3,
            storage_limit=7,
            eviction_strategy="random",
            delete_on_receipt=True,
            faults=FaultConfig(truncation_probability=0.2),
            trace_seed=77,
        )
        data = config.to_dict()
        rebuilt = ExperimentConfig.from_dict(json_hop(data))
        assert rebuilt == config
        assert rebuilt.to_dict() == data

    def test_none_faults_stay_none(self):
        config = ExperimentConfig(scale=0.5)
        rebuilt = ExperimentConfig.from_dict(json_hop(config.to_dict()))
        assert rebuilt.faults is None
        assert rebuilt == config

    def test_validation_still_applies_on_load(self):
        data = ExperimentConfig(scale=0.5).to_dict()
        data["addressing"] = "pigeon"
        with pytest.raises(ValueError, match="addressing"):
            ExperimentConfig.from_dict(data)

    def test_unknown_field_named_in_error(self):
        data = ExperimentConfig(scale=0.5).to_dict()
        data["frob_level"] = 11
        with pytest.raises(TypeError, match="frob_level"):
            ExperimentConfig.from_dict(data)
        data = ExperimentConfig(scale=0.5).with_faults(
            encounter_drop_probability=0.1
        ).to_dict()
        data["faults"]["rng_streams"] = "per-link"
        with pytest.raises(TypeError, match="rng_streams"):
            ExperimentConfig.from_dict(data)


def _populated_collector() -> MetricsCollector:
    collector = MetricsCollector()
    origin = ReplicaId("bus-01")
    delivered = ItemId(origin, 0)
    undelivered = ItemId(origin, 1)
    collector.record_injection(delivered, "alice", "bob", 10.0, "bus-01")
    collector.record_injection(undelivered, "carol", "dave", 20.0, "bus-02")
    collector.record_delivery(delivered, 500.0, "bus-03", copies=4)
    collector.encounters += 1
    collector.record_sync(
        SyncStats(
            source=ReplicaId("bus-01"),
            target=ReplicaId("bus-02"),
            sent_total=3,
            sent_matching=2,
            sent_relayed=1,
            truncated=1,
            interrupted=True,
            store_size=9,
            candidates=4,
            index_skipped=5,
        )
    )
    collector.evictions += 1
    collector.resumed_pairs += 1
    collector.crashes += 1
    collector.end_time = 86400.0
    return collector


class TestMetricsRoundTrip:
    def test_message_record_fixed_point(self):
        record = MessageRecord(
            message_id=ItemId(ReplicaId("bus-07"), 3),
            source="alice",
            destination="bob",
            injected_at=12.5,
            injected_node="bus-07",
        )
        data = record.to_dict()
        rebuilt = MessageRecord.from_dict(json_hop(data))
        assert rebuilt == record
        assert rebuilt.to_dict() == data

    def test_collector_fixed_point_with_mixed_records(self):
        collector = _populated_collector()
        data = collector.to_dict()
        rebuilt = MetricsCollector.from_dict(json_hop(data))
        assert rebuilt.to_dict() == data
        assert rebuilt.records == collector.records
        # json text comparison so NaN metrics (no deliveries ended with
        # copies tracked here) compare equal.
        assert json.dumps(rebuilt.summary(), sort_keys=True) == json.dumps(
            collector.summary(), sort_keys=True
        )
        # Spot-check that the sync counters actually carried over.
        assert rebuilt.truncated_transmissions == 1
        assert rebuilt.interrupted_syncs == 1
        assert rebuilt.index_skipped == 5
        assert rebuilt.resumed_pairs == 1

    def test_serialized_records_are_sorted_by_message_id(self):
        collector = MetricsCollector()
        origin = ReplicaId("bus-01")
        for serial in (5, 2, 9):
            collector.record_injection(
                ItemId(origin, serial), "a", "b", float(serial), "bus-01"
            )
        serials = [
            entry["message_id"]["serial"]
            for entry in collector.to_dict()["records"]
        ]
        assert serials == sorted(serials)


class TestExperimentResultRoundTrip:
    def test_real_run_fixed_point(self):
        config = ExperimentConfig(scale=0.25, policy="spray")
        result = run_experiment(config)
        data = result.to_dict()
        rebuilt = ExperimentResult.from_dict(json_hop(data))
        assert rebuilt.to_dict() == data
        assert rebuilt.config == config
        assert rebuilt.summary() == result.summary()
        assert rebuilt.trace_summary == result.trace_summary

    def test_delay_curves_survive(self):
        result = run_experiment(ExperimentConfig(scale=0.25, policy="epidemic"))
        rebuilt = ExperimentResult.from_dict(json_hop(result.to_dict()))
        hours = [0.0, 6.0, 12.0]
        assert rebuilt.delay_cdf_hours(hours) == result.delay_cdf_hours(hours)

    def test_churn_run_keeps_its_lifecycle_block(self):
        config = ExperimentConfig(
            scale=0.25,
            policy="epidemic",
            churn=ChurnConfig(
                departure_fraction=0.2,
                crash_fraction=0.2,
                reciprocity_threshold=0.3,
            ),
        )
        result = run_experiment(config)
        data = result.to_dict()
        rebuilt = ExperimentResult.from_dict(json_hop(data))
        assert rebuilt.to_dict() == data
        # json text comparison so NaN metrics compare equal.
        assert json.dumps(rebuilt.summary(), sort_keys=True) == json.dumps(
            result.summary(), sort_keys=True
        )
        assert "churn_leaves" in rebuilt.summary()
        assert list(data["metrics"]["churn"]) == [
            "churn_arrivals",
            "churn_leaves",
            "churn_crashes",
            "churn_rejoins",
            "churn_amnesiac_rejoins",
            "churn_handoffs",
            "churn_skipped_encounters",
            "churn_lost_injections",
            "reciprocity_refusals",
            "node_seconds_online",
            "rejoin_recovery_seconds",
            "rejoin_recoveries",
            "lost_to_departure",
            "reciprocity_scores",
        ]

    def test_churn_free_dump_has_no_churn_block(self):
        result = run_experiment(ExperimentConfig(scale=0.25, policy="epidemic"))
        assert "churn" not in result.to_dict()["metrics"]
