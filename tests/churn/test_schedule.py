"""Churn schedule generation: determinism, role disjointness, windows."""

import random

from repro.churn import ChurnConfig, generate_churn_schedule
from repro.churn.schedule import (
    ARRIVE,
    CRASH,
    LEAVE,
    MAX_OFFLINE_DAYS,
    MIN_OFFLINE_DAYS,
    REJOIN,
)
from repro.emulation.encounters import SECONDS_PER_DAY, Encounter, EncounterTrace


def make_trace(n_hosts=10, encounters_per_day=6, days=4):
    """A dense-enough synthetic trace: every host meets several peers."""
    hosts = [f"h{i:02d}" for i in range(n_hosts)]
    rng = random.Random(99)
    events = []
    for day in range(days):
        for slot in range(encounters_per_day):
            a, b = rng.sample(hosts, 2)
            events.append(
                Encounter(day * SECONDS_PER_DAY + 3600.0 * (slot + 1), a, b)
            )
    return EncounterTrace(events)


def full_churn(seed=0):
    return ChurnConfig(
        seed=seed,
        arrival_fraction=0.2,
        departure_fraction=0.2,
        crash_fraction=0.3,
        amnesia_probability=0.5,
        free_rider_fraction=0.2,
    )


class TestDeterminism:
    def test_same_inputs_same_schedule(self):
        trace = make_trace()
        first = generate_churn_schedule(full_churn(), trace)
        second = generate_churn_schedule(full_churn(), trace)
        assert first == second

    def test_seed_changes_schedule(self):
        trace = make_trace()
        assert generate_churn_schedule(
            full_churn(seed=0), trace
        ) != generate_churn_schedule(full_churn(seed=1), trace)

    def test_events_sorted_by_time(self):
        schedule = generate_churn_schedule(full_churn(), make_trace())
        times = [event.time for event in schedule.events]
        assert times == sorted(times)


class TestRoles:
    def test_roles_are_disjoint(self):
        schedule = generate_churn_schedule(full_churn(), make_trace())
        arrivals = {e.node for e in schedule.events if e.kind == ARRIVE}
        leavers = {e.node for e in schedule.events if e.kind == LEAVE}
        crashers = {e.node for e in schedule.events if e.kind == CRASH}
        free_riders = set(schedule.free_riders)
        groups = [arrivals, leavers, crashers, free_riders]
        for i, left in enumerate(groups):
            for right in groups[i + 1 :]:
                assert not (left & right)

    def test_role_counts_follow_fractions(self):
        schedule = generate_churn_schedule(full_churn(), make_trace(n_hosts=10))
        assert len([e for e in schedule.events if e.kind == ARRIVE]) == 2
        assert len([e for e in schedule.events if e.kind == LEAVE]) == 2
        assert len([e for e in schedule.events if e.kind == CRASH]) == 3
        assert len(schedule.free_riders) == 2

    def test_initially_offline_is_exactly_the_arrivals(self):
        schedule = generate_churn_schedule(full_churn(), make_trace())
        arrivals = {e.node for e in schedule.events if e.kind == ARRIVE}
        assert set(schedule.initially_offline) == arrivals


class TestCrashRejoin:
    def test_every_crash_has_a_later_rejoin_inside_the_span(self):
        trace = make_trace()
        span = 4 * SECONDS_PER_DAY
        schedule = generate_churn_schedule(full_churn(), trace)
        crashes = {e.node: e.time for e in schedule.events if e.kind == CRASH}
        rejoins = {e.node: e.time for e in schedule.events if e.kind == REJOIN}
        assert set(crashes) == set(rejoins)
        for node, crashed_at in crashes.items():
            assert crashed_at < rejoins[node] < span

    def test_a_crashed_node_is_offline_a_quarter_day_to_a_day(self):
        span = 4 * SECONDS_PER_DAY
        config = ChurnConfig(crash_fraction=0.5)
        schedule = generate_churn_schedule(config, make_trace())
        crashes = {e.node: e.time for e in schedule.events if e.kind == CRASH}
        rejoins = {e.node: e.time for e in schedule.events if e.kind == REJOIN}
        assert crashes
        for node, crashed_at in crashes.items():
            offline = rejoins[node] - crashed_at
            assert rejoins[node] == span - 1.0 or (
                MIN_OFFLINE_DAYS * SECONDS_PER_DAY
                <= offline
                <= MAX_OFFLINE_DAYS * SECONDS_PER_DAY
            )

    def test_rejoin_flavour_flags(self):
        # amnesia_probability=1 -> all amnesiac; =0 -> all checkpoint.
        trace = make_trace()
        all_amnesiac = generate_churn_schedule(
            ChurnConfig(crash_fraction=0.3, amnesia_probability=1.0), trace
        )
        assert all_amnesiac.has_amnesiac_rejoin
        assert not all_amnesiac.has_checkpoint_rejoin
        all_checkpoint = generate_churn_schedule(
            ChurnConfig(crash_fraction=0.3, amnesia_probability=0.0), trace
        )
        assert all_checkpoint.has_checkpoint_rejoin
        assert not all_checkpoint.has_amnesiac_rejoin


class TestHandoff:
    def test_partner_only_on_leaves(self):
        schedule = generate_churn_schedule(full_churn(), make_trace())
        for event in schedule.events:
            if event.kind != LEAVE:
                assert event.partner is None

    def test_partner_is_a_trace_peer_of_the_leaver(self):
        trace = make_trace()
        met = {}
        for encounter in trace:
            met.setdefault(encounter.a, set()).add(encounter.b)
            met.setdefault(encounter.b, set()).add(encounter.a)
        schedule = generate_churn_schedule(full_churn(), trace)
        leaves = [e for e in schedule.events if e.kind == LEAVE]
        assert leaves
        for event in leaves:
            if event.partner is not None:
                assert event.partner in met[event.node]

    def test_partner_never_departed_before_the_leave(self):
        trace = make_trace()
        schedule = generate_churn_schedule(full_churn(), trace)
        gone_at = {
            e.node: e.time for e in schedule.events if e.kind == LEAVE
        }
        for event in schedule.events:
            if event.kind == LEAVE and event.partner is not None:
                partner_leave = gone_at.get(event.partner)
                assert partner_leave is None or partner_leave > event.time

    def test_every_leaver_hands_off(self):
        config = ChurnConfig(departure_fraction=0.3)
        schedule = generate_churn_schedule(config, make_trace())
        leaves = [e for e in schedule.events if e.kind == LEAVE]
        assert leaves
        assert all(e.partner is not None for e in leaves)

    def test_the_last_of_two_leavers_finds_no_partner_online(self):
        trace = EncounterTrace(
            [Encounter(3600.0 * hour, "a", "b") for hour in range(1, 49)]
        )
        schedule = generate_churn_schedule(
            ChurnConfig(departure_fraction=1.0), trace
        )
        first, last = [e for e in schedule.events if e.kind == LEAVE]
        assert first.time < last.time
        assert first.partner == last.node
        assert last.partner is None


class TestQueries:
    def test_events_for_filters_by_node(self):
        schedule = generate_churn_schedule(full_churn(), make_trace())
        crasher = next(e.node for e in schedule.events if e.kind == CRASH)
        kinds = [e.kind for e in schedule.events_for(crasher)]
        assert kinds == [CRASH, REJOIN]
