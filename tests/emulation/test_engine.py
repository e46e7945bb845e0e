"""The run's event schedule, the emulator's walk over it, and the one
end-time function (``repro.emulation.engine``)."""

from hypothesis import given, strategies as st

from repro.churn import ChurnSchedule, LifecycleEvent
from repro.dtn import EpidemicPolicy
from repro.emulation.columnar import ColumnarWorld
from repro.emulation.encounters import SECONDS_PER_DAY as DAY
from repro.emulation.encounters import Encounter, EncounterTrace
from repro.emulation.engine import (
    ASSIGN,
    ENCOUNTER,
    INJECT,
    LIFECYCLE,
    build_schedule,
)
from repro.emulation.network import Emulator, Injection
from repro.emulation.node import EmulatedNode


def churn(*events):
    return ChurnSchedule(
        events=tuple(events), free_riders=(), initially_offline=frozenset()
    )


def recording_emulator(trace, injections=()):
    """An emulator whose steps only log ``(clock, event)`` when they run."""
    nodes = {name: EmulatedNode(name, EpidemicPolicy()) for name in trace.hosts}
    emulator = Emulator(trace, nodes, injections=injections)
    ran = []
    emulator._inject = emulator._run_encounter = lambda event: ran.append(
        (emulator.now, event)
    )
    return emulator, ran


class TestScheduling:
    def test_events_run_in_time_order(self):
        trace = EncounterTrace([Encounter(5.0, "a", "b"), Encounter(1.0, "a", "b")])
        steps, _ = build_schedule(trace, [Injection(3.0, "a", "b")])
        assert [step.time for step in steps] == [1.0, 3.0, 5.0]

    def test_same_time_ordered_by_priority(self):
        steps, _ = build_schedule(
            EncounterTrace([Encounter(DAY, "a", "b")]),
            [Injection(DAY, "a", "b")],
            {1: {}},
            churn(LifecycleEvent(time=DAY, kind="crash", node="a")),
        )
        assert [step.kind for step in steps] == [ASSIGN, LIFECYCLE, INJECT, ENCOUNTER]

    def test_same_time_same_priority_fifo(self):
        injections = [Injection(1.0, "a", "b", tag) for tag in ("x", "z", "y")]
        events = [
            LifecycleEvent(time=0.0, kind=kind, node="b")
            for kind in ("crash", "rejoin")
        ]
        steps, _ = build_schedule(
            EncounterTrace([Encounter(1.0, "a", "c"), Encounter(1.0, "a", "b")]),
            injections,
            {0: {}},
            churn(*events),
        )
        # Day assignment, then lifecycle events in schedule order;
        # injections in workload order; encounters in trace order.
        assert [step.event for step in steps] == [
            0, *events, *injections,
            Encounter(1.0, "a", "b"), Encounter(1.0, "a", "c"),
        ]

    def test_clock_advances_with_events(self):
        emulator, ran = recording_emulator(
            EncounterTrace([Encounter(3.0, "a", "b")])
        )
        emulator.advance(3.0)
        assert ran == [(3.0, Encounter(3.0, "a", "b"))]
        assert emulator.now == 3.0

    @given(
        meetings=st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]),
                st.sampled_from(["ab", "ac", "bc"]),
            ),
            max_size=6,
        ),
        sends=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5]), max_size=5),
        days=st.sets(st.integers(0, 3)),
        lifecycle=st.lists(st.sampled_from([0.0, 1.0, 1.5]), max_size=4),
    )
    def test_schedule_is_the_tagged_sort(self, meetings, sends, days, lifecycle):
        trace = EncounterTrace(Encounter(t * DAY, *pair) for t, pair in meetings)
        injections = [Injection(t * DAY, "a", "b", n) for n, t in enumerate(sends)]
        events = [
            LifecycleEvent(time=t * DAY, kind="crash", node=f"n{n}")
            for n, t in enumerate(lifecycle)
        ]
        # The reference: tag every event (time, band, sequence), sort.
        tagged = [(day * DAY, 0, ASSIGN, day) for day in sorted(days)]
        tagged += [(event.time, 0, LIFECYCLE, event) for event in events]
        tagged += [(send.time, 1, INJECT, send) for send in injections]
        tagged += [(meeting.time, 2, ENCOUNTER, meeting) for meeting in trace]
        order = sorted(range(len(tagged)), key=lambda n: (*tagged[n][:2], n))

        steps, end = build_schedule(
            trace, injections, dict.fromkeys(days, {}), churn(*events)
        )
        assert steps == [(tagged[n][0], *tagged[n][2:]) for n in order]
        last_day = max([meeting.day for meeting in trace] + sorted(days) + [0])
        assert end == (last_day + 1) * DAY


class TestRunUntil:
    def test_until_stops_before_later_events(self):
        # The trace ends with day 0; the injection is due on day 2.
        emulator, ran = recording_emulator(
            EncounterTrace([Encounter(1.0, "a", "b")]),
            [Injection(2 * DAY, "a", "b")],
        )
        metrics = emulator.run()
        assert ran == [(1.0, Encounter(1.0, "a", "b"))]
        assert emulator.now == metrics.end_time == DAY

    def test_until_advances_clock_past_last_event(self):
        emulator, _ = recording_emulator(EncounterTrace([Encounter(1.0, "a", "b")]))
        assert emulator.advance(100.0) == emulator.now == 100.0

    def test_resume_after_until(self):
        emulator, ran = recording_emulator(
            EncounterTrace([Encounter(1.0, "a", "b"), Encounter(10.0, "a", "b")])
        )
        emulator.advance(5.0)
        assert [now for now, _ in ran] == [1.0]
        emulator.advance(20.0)
        emulator.advance(30.0)
        assert [now for now, _ in ran] == [1.0, 10.0]


def test_object_and_columnar_engines_end_together():
    # The last day holds a single encounter.
    trace = EncounterTrace(
        [Encounter(9 * 3600.0 + n, "a", "b") for n in range(3)]
        + [Encounter(2 * DAY + 9 * 3600.0, "a", "b")]
    )
    emulator, _ = recording_emulator(trace)
    world = ColumnarWorld(trace, [], policy="epidemic")
    assert emulator.run().end_time == world.run().end_time == 3 * DAY
