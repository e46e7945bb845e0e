"""Unit tests for the message-injection schedule."""

import pytest

from repro.emulation.encounters import SECONDS_PER_DAY, Encounter, EncounterTrace
from repro.traces.enron import generate_enron_model
from repro.traces.mapping import assign_users_daily, host_of
from repro.traces.workload import (
    INJECTION_INTERVAL_SECONDS,
    INJECTION_START_HOUR,
    WorkloadConfig,
    build_injection_schedule,
    injection_days_used,
)


def make_trace(days=10):
    encounters = []
    for day in range(days):
        encounters.append(
            Encounter(day * SECONDS_PER_DAY + 9 * 3600.0, "bus0", "bus1")
        )
        encounters.append(
            Encounter(day * SECONDS_PER_DAY + 11 * 3600.0, "bus1", "bus2")
        )
    return EncounterTrace(encounters)


MODEL = generate_enron_model(n_users=20, seed=3)


def make_schedule(**kwargs):
    trace = make_trace()
    assignments = assign_users_daily(trace, list(MODEL.users), seed=1)
    config = WorkloadConfig(**kwargs)
    return (
        build_injection_schedule(MODEL, assignments, config),
        assignments,
        config,
    )


class TestConfig:
    def test_rejects_bad_values(self):
        for kwargs in (
            {"target_total": 0},
            {"injection_days": 0},
            {"addressing": "pigeon"},
        ):
            with pytest.raises(ValueError):
                WorkloadConfig(**kwargs)


class TestSchedule:
    def test_total_count_hits_target(self):
        injections, _, _ = make_schedule(target_total=97)
        assert len(injections) == 97

    def test_default_matches_paper_490(self):
        injections, _, _ = make_schedule()
        assert len(injections) == 490

    def test_injections_limited_to_first_eight_days(self):
        injections, _, _ = make_schedule()
        assert max(injection_days_used(injections)) < 8

    def test_morning_window_and_interval(self):
        injections, _, _ = make_schedule(target_total=24)
        by_day = {}
        for injection in injections:
            by_day.setdefault(int(injection.time // SECONDS_PER_DAY), []).append(
                injection
            )
        for day, day_injections in by_day.items():
            times = sorted(i.time for i in day_injections)
            start = day * SECONDS_PER_DAY + INJECTION_START_HOUR * 3600.0
            assert times[0] == start
            deltas = [b - a for a, b in zip(times, times[1:])]
            assert all(d == INJECTION_INTERVAL_SECONDS for d in deltas)
        assert (INJECTION_START_HOUR, INJECTION_INTERVAL_SECONDS) == (8.0, 120.0)

    def test_deterministic(self):
        a, _, _ = make_schedule(target_total=50)
        b, _, _ = make_schedule(target_total=50)
        assert a == b


class TestBusAddressing:
    def test_source_and_destination_are_buses(self):
        injections, assignments, _ = make_schedule(target_total=40)
        buses = {"bus0", "bus1", "bus2"}
        for injection in injections:
            assert injection.source in buses
            assert injection.destination in buses

    def test_source_bus_hosted_a_sender_that_day(self):
        injections, assignments, _ = make_schedule(target_total=40)
        for injection in injections:
            day = int(injection.time // SECONDS_PER_DAY)
            assert assignments[day].get(injection.source)


class TestUserAddressing:
    def test_addresses_are_users(self):
        injections, assignments, _ = make_schedule(
            target_total=40, addressing="user"
        )
        users = set(MODEL.users)
        for injection in injections:
            assert injection.source in users
            assert injection.destination in users
            assert injection.source != injection.destination

    def test_sender_rides_a_bus_on_injection_day(self):
        injections, assignments, _ = make_schedule(
            target_total=40, addressing="user"
        )
        for injection in injections:
            day = int(injection.time // SECONDS_PER_DAY)
            assert host_of(assignments, day, injection.source) is not None


class TestErrors:
    def test_no_assigned_users_raises(self):
        with pytest.raises(ValueError, match="no injection day"):
            build_injection_schedule(MODEL, {}, WorkloadConfig())
