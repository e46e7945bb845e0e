"""Tests for the emulator's realism: encounter durations and dropped syncs."""

import pytest

from repro.dtn import DirectDeliveryPolicy, EpidemicPolicy
from repro.emulation.encounters import Encounter, EncounterTrace
from repro.emulation.network import Emulator, Injection
from repro.emulation.node import EmulatedNode
from repro.faults import FaultConfig


def nodes_for(names, policy=DirectDeliveryPolicy):
    return {name: EmulatedNode(name, policy()) for name in names}


def hour(h):
    return h * 3600.0


class TestEncounterDurations:
    def test_duration_field_defaults_to_zero(self):
        assert Encounter(10.0, "a", "b").duration == 0.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Encounter(10.0, "a", "b", duration=-1.0)

    def test_zero_duration_means_unlimited(self):
        trace = EncounterTrace([Encounter(hour(12), "a", "b")])
        emulator = Emulator(
            trace,
            nodes_for(["a", "b"]),
            injections=[
                Injection(hour(9) + i, "a", "b", f"m{i}") for i in range(5)
            ],
        )
        assert emulator.run().delivered == 5


class TestSyncFailures:
    def make_emulator(self, probability, seed=3):
        trace = EncounterTrace(
            [Encounter(hour(9) + i * 60.0, "a", "b") for i in range(50)]
        )
        return Emulator(
            trace,
            nodes_for(["a", "b"], EpidemicPolicy),
            injections=[Injection(hour(8), "a", "b", "m")],
            faults=FaultConfig(encounter_drop_probability=probability),
            fault_seed=seed,
        )

    def test_probability_validated(self):
        with pytest.raises(ValueError):
            self.make_emulator(1.5)

    def test_zero_probability_never_fails(self):
        emulator = self.make_emulator(0.0)
        emulator.run()
        assert emulator.metrics.dropped_encounters == 0
        assert emulator.metrics.encounters == 50

    def test_failures_drop_encounters_but_not_delivery(self):
        emulator = self.make_emulator(0.5)
        metrics = emulator.run()
        assert emulator.metrics.dropped_encounters > 0
        assert (
            emulator.metrics.dropped_encounters + metrics.encounters == 50
        )
        # With 50 opportunities, the message still gets through.
        assert metrics.delivered == 1

    def test_total_loss_blocks_delivery(self):
        emulator = self.make_emulator(1.0)
        metrics = emulator.run()
        assert metrics.encounters == 0
        assert metrics.delivered == 0

    def test_deterministic_given_seed(self):
        first = self.make_emulator(0.3, seed=9)
        first.run()
        second = self.make_emulator(0.3, seed=9)
        second.run()
        assert first.metrics.dropped_encounters == second.metrics.dropped_encounters
        assert first.metrics.transmissions == second.metrics.transmissions
