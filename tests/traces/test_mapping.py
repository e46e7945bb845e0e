"""Unit tests for daily user→bus assignment."""

import random

from repro.emulation.encounters import SECONDS_PER_DAY, Encounter, EncounterTrace
from repro.traces.mapping import assign_users_daily, host_of


def trace_two_days():
    return EncounterTrace(
        [
            Encounter(9 * 3600.0, "bus0", "bus1"),
            Encounter(10 * 3600.0, "bus1", "bus2"),
            Encounter(SECONDS_PER_DAY + 9 * 3600.0, "bus0", "bus2"),
        ]
    )


USERS = [f"u{i}" for i in range(7)]


class TestAssignment:
    def test_every_user_assigned_each_active_day(self):
        schedule = assign_users_daily(trace_two_days(), USERS, seed=1)
        for day in (0, 1):
            assert set().union(*schedule[day].values()) == set(USERS)

    def test_only_active_buses_get_users(self):
        schedule = assign_users_daily(trace_two_days(), USERS, seed=1)
        assert set(schedule[1]) == {"bus0", "bus2"}

    def test_distribution_is_balanced(self):
        schedule = assign_users_daily(trace_two_days(), USERS, seed=1)
        sizes = [len(users) for users in schedule[0].values()]
        assert max(sizes) - min(sizes) <= 1

    def test_each_user_on_exactly_one_bus(self):
        schedule = assign_users_daily(trace_two_days(), USERS, seed=1)
        day_map = schedule[0]
        seen = [user for users in day_map.values() for user in users]
        assert sorted(seen) == sorted(USERS)

    def test_deal_is_round_robin_over_buses_in_name_order(self):
        """With fewer users than buses (the metro shape) and with more:
        the k-th shuffled user rides bus ``k mod B``, the other buses
        ride empty, and the day's keys keep sorted bus order."""
        trace = EncounterTrace(
            Encounter(10.0, f"bus{i}", f"bus{i + 1}") for i in range(0, 8, 2)
        )
        buses = sorted(trace.hosts)
        for users in (USERS[:3], USERS + [f"v{i}" for i in range(12)]):
            day_map = assign_users_daily(trace, users, seed=5)[0]
            assert list(day_map) == buses
            shuffled = list(users)
            random.Random("5:0").shuffle(shuffled)
            for index, user in enumerate(shuffled):
                assert user in day_map[buses[index % len(buses)]]
            assert sum(len(riders) for riders in day_map.values()) == len(users)

    def test_deterministic_per_seed_and_day(self):
        a = assign_users_daily(trace_two_days(), USERS, seed=9)
        b = assign_users_daily(trace_two_days(), USERS, seed=9)
        assert a == b

    def test_different_seeds_differ(self):
        a = assign_users_daily(trace_two_days(), USERS, seed=1)
        b = assign_users_daily(trace_two_days(), USERS, seed=2)
        assert a != b

    def test_assignments_shuffle_across_days(self):
        schedule = assign_users_daily(trace_two_days(), USERS, seed=1)
        assert schedule[0] != schedule[1]


class TestLookups:
    def test_host_of(self):
        schedule = assign_users_daily(trace_two_days(), USERS, seed=1)
        for user in USERS:
            bus = host_of(schedule, 0, user)
            assert bus is not None
            assert user in schedule[0][bus]

    def test_host_of_missing_user(self):
        schedule = assign_users_daily(trace_two_days(), USERS, seed=1)
        assert host_of(schedule, 0, "stranger") is None

    def test_host_of_missing_day(self):
        schedule = assign_users_daily(trace_two_days(), USERS, seed=1)
        assert host_of(schedule, 99, "u0") is None

    def test_users_on_missing_day_empty(self):
        schedule = assign_users_daily(trace_two_days(), USERS, seed=1)
        assert set().union(*schedule.get(99, {}).values()) == set()
