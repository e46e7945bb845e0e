"""Unit tests for scenario construction."""

from dataclasses import replace

import pytest

from repro.dtn import EpidemicPolicy
from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario import (
    build_inputs,
    build_scenario,
    expected_user_meetings,
)

SMALL = ExperimentConfig(scale=0.25)


class TestBuild:
    def test_one_node_per_trace_host(self):
        scenario = build_scenario(SMALL)
        assert set(scenario.nodes) == set(scenario.trace.hosts)

    def test_policy_applied_to_every_node(self):
        scenario = build_scenario(SMALL.with_policy("epidemic"))
        for node in scenario.nodes.values():
            assert isinstance(node.policy, EpidemicPolicy)

    def test_policy_instances_are_distinct(self):
        scenario = build_scenario(SMALL.with_policy("epidemic"))
        policies = [node.policy for node in scenario.nodes.values()]
        assert len(set(map(id, policies))) == len(policies)

    def test_injection_count_scales(self):
        scenario = build_scenario(SMALL)
        assert len(scenario.injections) == SMALL.effective_messages

    def test_storage_limit_reaches_replicas(self):
        scenario = build_scenario(SMALL.with_constraints(storage_limit=2))
        for node in scenario.nodes.values():
            assert node.replica._relay.capacity == 2

    def test_bandwidth_limit_reaches_emulator(self):
        scenario = build_scenario(SMALL.with_constraints(bandwidth_limit=1))
        assert scenario.emulator.bandwidth_limit == 1

    def test_bus_mode_has_no_emulator_assignments(self):
        scenario = build_scenario(SMALL)
        assert scenario.emulator.assignments == {}

    def test_user_mode_wires_assignments(self):
        scenario = build_scenario(replace(SMALL, addressing="user"))
        assert scenario.emulator.assignments

    def test_deterministic(self):
        a = build_scenario(SMALL)
        b = build_scenario(SMALL)
        assert a.injections == b.injections
        assert list(a.trace) == list(b.trace)


class TestFilterStrategies:
    def test_self_strategy_no_relays(self):
        scenario = build_scenario(SMALL)
        for node in scenario.nodes.values():
            assert node.static_relay_addresses == frozenset()

    def test_random_strategy_gives_k_bus_addresses(self):
        scenario = build_scenario(SMALL.with_filters("random", 2))
        buses = set(scenario.trace.hosts)
        for node in scenario.nodes.values():
            assert len(node.static_relay_addresses) == 2
            assert node.static_relay_addresses <= buses - {node.name}

    def test_selected_strategy_picks_most_met_buses(self):
        scenario = build_scenario(SMALL.with_filters("selected", 2))
        for name, node in scenario.nodes.items():
            counts = scenario.trace.meeting_counts_for(name)
            if len(counts) < 3:
                continue
            chosen_counts = [counts.get(b, 0) for b in node.static_relay_addresses]
            unchosen = [
                counts.get(b, 0)
                for b in scenario.trace.hosts
                if b != name and b not in node.static_relay_addresses
            ]
            assert min(chosen_counts) >= max(unchosen)

    def test_selected_user_mode_ranks_users(self):
        config = replace(
            SMALL.with_filters("selected", 3), addressing="user"
        )
        scenario = build_scenario(config)
        users = set(scenario.model.users)
        for node in scenario.nodes.values():
            assert node.static_relay_addresses <= users
            assert len(node.static_relay_addresses) == 3

    @pytest.mark.parametrize("strategy", ["random", "selected"])
    def test_k_beyond_the_population_relays_for_every_other_bus(self, strategy):
        inputs = build_inputs(SMALL.with_filters(strategy, 10_000))
        for host in inputs.trace.hosts:
            assert inputs.relay_sets[host] == inputs.trace.hosts - {host}

    @pytest.mark.parametrize("strategy", ["random", "selected"])
    def test_k_beyond_the_population_relays_for_every_user(self, strategy):
        config = replace(SMALL.with_filters(strategy, 10_000), addressing="user")
        inputs = build_inputs(config)
        for host in inputs.trace.hosts:
            assert inputs.relay_sets[host] == frozenset(inputs.model.users)

    def test_random_sets_follow_the_filter_seed(self):
        config = SMALL.with_filters("random", 2)
        first = build_inputs(config).relay_sets
        assert build_inputs(config).relay_sets == first
        reseeded = replace(config, filter_seed=config.filter_seed + 1)
        assert build_inputs(reseeded).relay_sets != first

    def test_selected_breaks_equal_meeting_counts_by_name(self):
        inputs = build_inputs(SMALL.with_filters("selected", 3))
        ties = 0
        for host, chosen in inputs.relay_sets.items():
            counts = inputs.trace.meeting_counts_for(host)
            for pick in chosen:
                for other in inputs.trace.hosts - chosen - {host}:
                    assert (-counts.get(pick, 0), pick) < (
                        -counts.get(other, 0), other
                    )
                    ties += counts.get(pick, 0) == counts.get(other, 0)
        assert ties  # the order is decided by name somewhere


class TestExpectedUserMeetings:
    def test_counts_meetings_with_hosting_bus(self):
        scenario = build_scenario(ExperimentConfig(scale=0.25))
        host = sorted(scenario.trace.hosts)[0]
        meetings = expected_user_meetings(
            scenario.trace, scenario.assignments, host
        )
        assert all(count > 0 for count in meetings.values())
        # Cross-check one user by hand.
        user, expected = next(iter(meetings.items()))
        total = 0
        for day, day_map in scenario.assignments.items():
            bus = next((b for b, us in day_map.items() if user in us), None)
            if bus is None:
                continue
            total += sum(
                1
                for e in scenario.trace.on_day(day)
                if {e.a, e.b} == {host, bus}
            )
        assert total == expected


class TestLiveBuildsOnlyWhatItRuns:
    """A ``repro serve`` builds its own node and the orchestrator none;
    neither builds an emulator (a count, so it cannot flake)."""

    @pytest.fixture
    def built(self, monkeypatch):
        from repro.emulation.network import Emulator
        from repro.emulation.node import EmulatedNode

        counts = {"nodes": 0, "emulators": 0, "count_copies": 0}

        def counting(cls, method, key):
            original = getattr(cls, method)

            def wrapper(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(cls, method, wrapper)

        counting(EmulatedNode, "__init__", "nodes")
        counting(Emulator, "__init__", "emulators")
        counting(Emulator, "count_copies", "count_copies")
        return counts

    def test_a_server_builds_one_node_and_no_emulator(self, built):
        from repro.net.server import NodeServer, ServeConfig

        name = build_scenario(SMALL).trace.host_names[0]
        built.update(nodes=0, emulators=0)
        server = NodeServer(
            ServeConfig(node=name, listen="unix:/unused", experiment=SMALL)
        )
        assert (built["nodes"], built["emulators"]) == (1, 0)
        # A message to the served node itself: one delivery, announced by
        # the server's own callback — no emulator's global copy count.
        reply = server._handle_directive(
            "inject",
            {"time": 1.0, "source": name, "destination": name, "body": "m"},
        )
        assert len(reply["deliveries"]) == 1
        assert built["count_copies"] == 0

    def test_the_orchestrator_builds_neither(self, built):
        from repro.net.swarm import SwarmConfig, _Swarm

        swarm = _Swarm(SwarmConfig(experiment=SMALL))
        swarm.cleanup_runtime_dir()
        assert (built["nodes"], built["emulators"]) == (0, 0)
