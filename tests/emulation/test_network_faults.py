"""Emulator-level fault injection: wiring, counters, and determinism."""

from repro.dtn import EpidemicPolicy
from repro.emulation.encounters import Encounter, EncounterTrace
from repro.emulation.network import Emulator, Injection
from repro.emulation.node import EmulatedNode
from repro.faults import FaultConfig
from repro.replication import peer_health
from repro.replication.peer_health import PeerHealthTracker


def hour(h):
    return h * 3600.0


def make_emulator(faults, fault_seed=0, n_encounters=40, n_messages=5):
    trace = EncounterTrace(
        [Encounter(hour(9) + i * 120.0, "a", "b") for i in range(n_encounters)]
    )
    nodes = {name: EmulatedNode(name, EpidemicPolicy()) for name in ("a", "b")}
    # Injections are spread between encounters so non-empty batches keep
    # appearing throughout the run (each one a fresh fault opportunity).
    injections = [
        Injection(hour(9) + (i + 0.5) * 240.0, "a", "b", f"m{i}")
        for i in range(n_messages)
    ]
    return Emulator(
        trace, nodes, injections=injections, faults=faults, fault_seed=fault_seed
    )


class TestInjectorLifecycle:
    def test_no_faults_means_no_injector(self):
        assert make_emulator(None).fault_injector is None

    def test_disabled_config_means_no_injector(self):
        assert make_emulator(FaultConfig()).fault_injector is None

    def test_enabled_config_builds_injector(self):
        emulator = make_emulator(FaultConfig(truncation_probability=0.5))
        assert emulator.fault_injector is not None

    def test_every_node_judges_its_peers_by_the_fixed_thresholds(self):
        emulator = make_emulator(FaultConfig(corruption_probability=0.5))
        assert sorted(emulator.peer_health) == ["a", "b"]
        for tracker in emulator.peer_health.values():
            assert isinstance(tracker, PeerHealthTracker)
        assert (peer_health.SUSPECT_THRESHOLD, peer_health.QUARANTINE_THRESHOLD) == (3, 6)
        assert (
            peer_health.BACKOFF_BASE,
            peer_health.BACKOFF_FACTOR,
            peer_health.BACKOFF_MAX,
        ) == (120.0, 2.0, 3600.0)
        assert peer_health.JITTER == 0.1
        assert peer_health.RECOVERY_PROBES == 2


class TestEncounterDrops:
    def test_total_drop_blocks_everything(self):
        emulator = make_emulator(FaultConfig(encounter_drop_probability=1.0))
        metrics = emulator.run()
        assert metrics.encounters == 0
        assert metrics.dropped_encounters == 40
        assert metrics.delivered == 0

    def test_partial_drop_still_delivers(self):
        emulator = make_emulator(FaultConfig(encounter_drop_probability=0.5))
        metrics = emulator.run()
        assert metrics.dropped_encounters > 0
        assert metrics.encounters + metrics.dropped_encounters == 40
        assert metrics.delivered == 5


class TestTruncationAndResume:
    def test_truncations_counted_and_delivery_survives(self):
        emulator = make_emulator(
            FaultConfig(truncation_probability=0.6)
        )
        metrics = emulator.run()
        assert metrics.interrupted_syncs > 0
        assert metrics.lost_transmissions > 0
        assert metrics.resumed_pairs > 0
        assert metrics.delivered == 5

    def test_backoff_skips_encounters(self):
        # Every sync is cut, and the pair's backoff doubles from 60 s per
        # interruption: from the third it outlasts the 120 s between
        # encounters.
        emulator = make_emulator(FaultConfig(truncation_probability=1.0))
        metrics = emulator.run()
        assert metrics.backoff_skips > 0

    def test_duplication_counts_redundant_transmissions(self):
        emulator = make_emulator(FaultConfig(duplication_probability=1.0))
        metrics = emulator.run()
        assert metrics.redundant_transmissions > 0
        assert metrics.delivered == 5


class TestCrashRestart:
    def test_crashes_counted_and_nodes_survive(self):
        emulator = make_emulator(FaultConfig(crash_probability=0.3))
        metrics = emulator.run()
        assert metrics.crashes > 0
        assert metrics.delivered == 5

    def test_restart_preserves_store_and_knowledge(self):
        emulator = make_emulator(None, n_encounters=3)
        emulator.run()
        node = emulator.nodes["b"]
        items_before = sorted(
            (str(item.item_id), str(item.version))
            for item in node.replica.stored_items()
        )
        knowledge_before = node.replica.knowledge.copy()
        delivered_before = len(node.app.delivered_messages)

        emulator.restart_node("b")
        assert emulator.metrics.crashes == 1
        items_after = sorted(
            (str(item.item_id), str(item.version))
            for item in node.replica.stored_items()
        )
        assert items_after == items_before
        assert node.replica.knowledge == knowledge_before
        assert len(node.app.delivered_messages) == delivered_before

    def test_restarted_node_still_reports_metrics(self):
        # After a restart the emulator re-wires its delivery callback: a
        # message delivered post-restart must still reach the collector.
        trace = EncounterTrace([Encounter(hour(12), "a", "b")])
        nodes = {name: EmulatedNode(name, EpidemicPolicy()) for name in ("a", "b")}
        emulator = Emulator(
            trace,
            nodes,
            injections=[Injection(hour(9), "a", "b", "late")],
        )
        emulator.advance(hour(10))  # injection done, encounter not yet
        emulator.restart_node("b")
        assert emulator.run().delivered == 1


class TestFaultDeterminism:
    def test_same_fault_seed_same_outcome(self):
        config = FaultConfig(
            encounter_drop_probability=0.2,
            truncation_probability=0.5,
            duplication_probability=0.3,
            crash_probability=0.1,
        )
        first = make_emulator(config, fault_seed=11).run()
        second = make_emulator(config, fault_seed=11).run()
        assert first.summary() == second.summary()

    def test_different_fault_seed_changes_schedule(self):
        config = FaultConfig(truncation_probability=0.5)
        first = make_emulator(config, fault_seed=1).run()
        second = make_emulator(config, fault_seed=2).run()
        # The fault schedule differs; at least one traffic counter moves.
        assert (
            first.interrupted_syncs,
            first.lost_transmissions,
        ) != (second.interrupted_syncs, second.lost_transmissions)

    def test_fault_rng_does_not_perturb_base_run(self):
        # Arming faults must not change which side initiates encounters:
        # the drop-everything run still *attempts* the same 40 encounters.
        clean = make_emulator(None).run()
        faulty = make_emulator(FaultConfig(encounter_drop_probability=1.0)).run()
        assert clean.encounters == 40
        assert faulty.dropped_encounters == 40
