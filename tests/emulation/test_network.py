"""Unit tests for the emulator orchestration."""

import pytest

from repro.dtn import DirectDeliveryPolicy, EpidemicPolicy
from repro.emulation.encounters import SECONDS_PER_DAY, Encounter, EncounterTrace
from repro.emulation.network import Emulator, Injection
from repro.emulation.node import EmulatedNode
from repro.replication.errors import SyncProtocolError
from repro.replication.ids import ReplicaId, Version
from repro.replication.versions import VersionVector


def day_time(day, hour):
    return day * SECONDS_PER_DAY + hour * 3600.0


def make_nodes(names, policy_factory=DirectDeliveryPolicy, **kwargs):
    return {name: EmulatedNode(name, policy_factory(), **kwargs) for name in names}


class TestValidation:
    def test_unknown_trace_host_rejected(self):
        trace = EncounterTrace([Encounter(10.0, "a", "ghost")])
        with pytest.raises(ValueError, match="ghost"):
            Emulator(trace, make_nodes(["a"]))


class TestDirectDelivery:
    def test_message_delivered_on_direct_encounter(self):
        trace = EncounterTrace([Encounter(day_time(0, 11), "a", "b")])
        nodes = make_nodes(["a", "b"])
        emulator = Emulator(
            trace,
            nodes,
            injections=[Injection(day_time(0, 9), "a", "b", "hello")],
        )
        metrics = emulator.run()
        assert metrics.injected == 1
        assert metrics.delivered == 1
        assert metrics.delays() == [2 * 3600.0]

    def test_message_injected_after_encounter_misses_it(self):
        trace = EncounterTrace([Encounter(day_time(0, 9), "a", "b")])
        nodes = make_nodes(["a", "b"])
        emulator = Emulator(
            trace,
            nodes,
            injections=[Injection(day_time(0, 10), "a", "b", "late")],
        )
        metrics = emulator.run()
        assert metrics.delivered == 0

    def test_same_timestamp_injection_runs_before_encounter(self):
        moment = day_time(0, 9)
        trace = EncounterTrace([Encounter(moment, "a", "b")])
        emulator = Emulator(
            trace,
            make_nodes(["a", "b"]),
            injections=[Injection(moment, "a", "b", "simultaneous")],
        )
        metrics = emulator.run()
        assert metrics.delivered == 1

    def test_relay_chain_needs_forwarding_policy(self):
        trace = EncounterTrace(
            [
                Encounter(day_time(0, 9), "a", "mule"),
                Encounter(day_time(0, 10), "mule", "b"),
            ]
        )
        direct = Emulator(
            trace,
            make_nodes(["a", "mule", "b"]),
            injections=[Injection(day_time(0, 8), "a", "b", "x")],
        )
        assert direct.run().delivered == 0
        flooding = Emulator(
            trace,
            make_nodes(["a", "mule", "b"], EpidemicPolicy),
            injections=[Injection(day_time(0, 8), "a", "b", "x")],
        )
        assert flooding.run().delivered == 1


class TestUserAddressing:
    def test_injection_resolved_through_assignment(self):
        trace = EncounterTrace([Encounter(day_time(0, 11), "a", "b")])
        assignments = {
            0: {"a": frozenset({"alice"}), "b": frozenset({"bob"})}
        }
        emulator = Emulator(
            trace,
            make_nodes(["a", "b"]),
            injections=[Injection(day_time(0, 9), "alice", "bob", "hi")],
            assignments=assignments,
        )
        metrics = emulator.run()
        assert metrics.delivered == 1

    def test_unassigned_sender_is_skipped_and_reported(self):
        trace = EncounterTrace([Encounter(day_time(0, 11), "a", "b")])
        emulator = Emulator(
            trace,
            make_nodes(["a", "b"]),
            injections=[Injection(day_time(0, 9), "nobody", "bob", "hi")],
            assignments={0: {"a": frozenset(), "b": frozenset()}},
        )
        metrics = emulator.run()
        assert metrics.injected == 0
        assert len(emulator.skipped_injections) == 1

    def test_reassignment_delivers_relayed_mail_next_day(self):
        """user2 rides bus b on day 1; b already got the message on day 0."""
        trace = EncounterTrace(
            [
                Encounter(day_time(0, 11), "a", "b"),
                Encounter(day_time(1, 9), "b", "c"),
            ]
        )
        assignments = {
            0: {"a": frozenset({"user1"}), "b": frozenset(), "c": frozenset({"user2"})},
            1: {"a": frozenset(), "b": frozenset({"user2"}), "c": frozenset()},
        }
        emulator = Emulator(
            trace,
            make_nodes(["a", "b", "c"], EpidemicPolicy),
            injections=[Injection(day_time(0, 9), "user1", "user2", "hi")],
            assignments=assignments,
        )
        metrics = emulator.run()
        assert metrics.delivered == 1
        record = next(iter(metrics.records.values()))
        # Delivered at the day-1 boundary when user2 boards bus b.
        assert record.delivered_at == day_time(1, 0)
        assert record.delivered_node == "b"


class TestConstraints:
    def test_bandwidth_limit_caps_encounter_transfers(self):
        trace = EncounterTrace([Encounter(day_time(0, 12), "a", "b")])
        nodes = make_nodes(["a", "b"])
        injections = [
            Injection(day_time(0, 9) + i, "a", "b", f"m{i}") for i in range(4)
        ]
        emulator = Emulator(
            trace, nodes, injections=injections, bandwidth_limit=1
        )
        metrics = emulator.run()
        assert metrics.delivered == 1
        assert metrics.transmissions == 1

    def test_eviction_counted(self):
        trace = EncounterTrace(
            [Encounter(day_time(0, 10) + i, "src", "mule") for i in range(3)]
        )
        nodes = {
            "src": EmulatedNode("src", EpidemicPolicy()),
            "mule": EmulatedNode("mule", EpidemicPolicy(), relay_capacity=1),
        }
        injections = [
            Injection(day_time(0, 9), "src", "far", "m0"),
            Injection(day_time(0, 9) + 1, "src", "far", "m1"),
        ]
        emulator = Emulator(trace, nodes, injections=injections)
        metrics = emulator.run()
        assert metrics.evictions >= 1


class TestAccounting:
    def test_copies_counted_at_delivery_and_end(self):
        trace = EncounterTrace(
            [
                Encounter(day_time(0, 9), "a", "mule"),
                Encounter(day_time(0, 10), "mule", "b"),
            ]
        )
        nodes = make_nodes(["a", "mule", "b"], EpidemicPolicy)
        emulator = Emulator(
            trace,
            nodes,
            injections=[Injection(day_time(0, 8), "a", "b", "x")],
        )
        metrics = emulator.run()
        record = next(iter(metrics.records.values()))
        assert record.copies_at_delivery == 3  # a, mule, b
        assert record.copies_at_end == 3

    def test_encounters_and_syncs_counted(self):
        trace = EncounterTrace(
            [Encounter(day_time(0, 9 + i), "a", "b") for i in range(3)]
        )
        emulator = Emulator(trace, make_nodes(["a", "b"]))
        metrics = emulator.run()
        assert metrics.encounters == 3
        assert metrics.syncs == 6

    def test_deterministic_given_seed(self):
        def run(seed):
            trace = EncounterTrace(
                [Encounter(day_time(0, 9 + i), "a", "b") for i in range(3)]
            )
            emulator = Emulator(
                trace,
                make_nodes(["a", "b"], EpidemicPolicy),
                injections=[Injection(day_time(0, 8), "a", "b", "x")],
                seed=seed,
            )
            metrics = emulator.run()
            return metrics.summary()

        first = run(7)
        second = run(7)
        assert {k: v for k, v in first.items() if v == v} == {
            k: v for k, v in second.items() if v == v
        }


class TestKnowledgeGuard:
    """Both sync sites refuse to carry on past a regressed vector."""

    @staticmethod
    def emulator_with_a_forgetful_node(monkeypatch):
        nodes = make_nodes(["a", "b"])
        forgetful = nodes["a"]
        # A version nobody stores: the peer cannot sync it back, so
        # forgetting it mid-encounter stays a regression.
        forgetful.replica.knowledge.add(Version(ReplicaId("elsewhere"), 3))

        def forget_everything(context):
            forgetful.replica.knowledge = VersionVector.empty()

        monkeypatch.setattr(
            forgetful.policy, "on_encounter_start", forget_everything
        )
        trace = EncounterTrace([Encounter(day_time(0, 9), "a", "b")])
        return Emulator(trace, nodes)

    def test_regressed_vector_fails_the_encounter(self, monkeypatch):
        emulator = self.emulator_with_a_forgetful_node(monkeypatch)
        with pytest.raises(
            SyncProtocolError, match="'a' regressed during an encounter"
        ):
            emulator.run()
        assert emulator.metrics.encounters == 0

    def test_regressed_vector_fails_the_handoff(self, monkeypatch):
        emulator = self.emulator_with_a_forgetful_node(monkeypatch)
        with pytest.raises(
            SyncProtocolError, match="'a' regressed during a handoff"
        ):
            emulator._run_handoff("a", "b", day_time(0, 8))
