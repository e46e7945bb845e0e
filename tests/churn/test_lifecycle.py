"""LifecycleTracker: availability state, node-seconds, recovery latency;
and the collector's lifecycle counters the run director books with it."""

import pytest

from repro.churn.lifecycle import LifecycleTracker
from repro.churn.schedule import ChurnSchedule, LifecycleEvent
from repro.emulation.metrics import ChurnCounts, MetricsCollector


def make_tracker(nodes=("a", "b", "c"), initially_offline=()):
    schedule = ChurnSchedule(
        events=(),
        free_riders=(),
        initially_offline=frozenset(initially_offline),
    )
    return LifecycleTracker(nodes, schedule)


def event(kind, node, time=0.0, **kwargs):
    return LifecycleEvent(time=time, kind=kind, node=node, **kwargs)


class TestAvailability:
    def test_everyone_online_at_start_except_arrivals(self):
        tracker = make_tracker(initially_offline=["b"])
        assert tracker.online("a")
        assert not tracker.online("b")

    def test_unknown_names_count_as_online(self):
        assert make_tracker().online("stranger")

    def test_arrive_brings_node_up(self):
        tracker = make_tracker(initially_offline=["b"])
        tracker.apply(event("arrive", "b", 100.0), 100.0)
        assert tracker.online("b")

    def test_leave_is_permanent(self):
        tracker = make_tracker()
        tracker.apply(event("leave", "a", 50.0), 50.0)
        assert not tracker.online("a")
        assert tracker.departed == frozenset({"a"})

    def test_crash_then_rejoin_cycles_availability(self):
        tracker = make_tracker()
        tracker.apply(event("crash", "a", 10.0), 10.0)
        assert not tracker.online("a")
        tracker.apply(event("rejoin", "a", 20.0), 20.0)
        assert tracker.online("a")
        assert tracker.departed == frozenset()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown lifecycle"):
            make_tracker().apply(event("hibernate", "a"), 0.0)


class TestMetricsCounters:
    def test_each_kind_hits_its_counter(self):
        tracker = make_tracker(initially_offline=["c"])
        collector = MetricsCollector(churn=ChurnCounts())
        for lifecycle_event in (
            event("arrive", "c", 5.0),
            event("crash", "a", 10.0),
            event("rejoin", "a", 20.0, amnesiac=True),
            event("leave", "b", 30.0),
        ):
            tracker.apply(lifecycle_event, lifecycle_event.time)
            collector.record_lifecycle(lifecycle_event.kind, lifecycle_event.amnesiac)
        metrics = collector.churn
        assert metrics.churn_arrivals == 1
        assert metrics.churn_crashes == 1
        assert metrics.churn_rejoins == 1
        assert metrics.churn_amnesiac_rejoins == 1
        assert metrics.churn_leaves == 1


class TestNodeSeconds:
    def test_hand_computed_accounting(self):
        """Three nodes, one full-time, one late arrival, one crash window.

        a: online [0, 100]                      -> 100
        b: arrives at 40, online [40, 100]      -> 60
        c: crashes at 20, rejoins 70, [0,20]+[70,100] -> 50
        """
        tracker = make_tracker(
            nodes=("a", "b", "c"), initially_offline=["b"]
        )
        tracker.apply(event("crash", "c", 20.0), 20.0)
        tracker.apply(event("arrive", "b", 40.0), 40.0)
        tracker.apply(event("rejoin", "c", 70.0), 70.0)
        assert tracker.finalize(100.0) == pytest.approx(210.0)

    def test_departed_node_stops_accruing(self):
        tracker = make_tracker(nodes=("a", "b"))
        tracker.apply(event("leave", "a", 25.0), 25.0)
        assert tracker.finalize(100.0) == pytest.approx(125.0)


class TestRecoveryLatency:
    def test_first_encounter_after_rejoin_marks_recovery(self):
        tracker = make_tracker()
        tracker.apply(event("rejoin", "a", 100.0), 100.0)
        assert tracker.note_encounter("a", "b", 160.0) == [pytest.approx(60.0)]

    def test_recovery_recorded_once(self):
        tracker = make_tracker()
        tracker.apply(event("rejoin", "a", 100.0), 100.0)
        assert len(tracker.note_encounter("a", "b", 160.0)) == 1
        assert tracker.note_encounter("a", "c", 200.0) == []

    def test_never_rejoined_never_recovers(self):
        assert make_tracker().note_encounter("a", "b", 50.0) == []

    def test_the_collector_sums_the_latencies_it_is_handed(self):
        tracker = make_tracker()
        tracker.apply(event("rejoin", "a", 100.0), 100.0)
        tracker.apply(event("rejoin", "b", 130.0), 130.0)
        collector = MetricsCollector(churn=ChurnCounts())
        for latency in tracker.note_encounter("a", "b", 160.0):
            collector.record_rejoin_recovery(latency)
        assert collector.churn.rejoin_recoveries == 2
        assert collector.churn.rejoin_recovery_seconds == pytest.approx(90.0)
