"""LifecycleTracker: availability state, node-seconds, recovery latency."""

import pytest

from repro.churn.lifecycle import LifecycleTracker
from repro.churn.schedule import ChurnSchedule, LifecycleEvent
from repro.emulation.metrics import ChurnCounts


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
        tracker.apply(event("arrive", "b", 100.0), 100.0, ChurnCounts())
        assert tracker.online("b")

    def test_leave_is_permanent(self):
        tracker = make_tracker()
        tracker.apply(event("leave", "a", 50.0), 50.0, ChurnCounts())
        assert not tracker.online("a")
        assert tracker.departed == frozenset({"a"})

    def test_crash_then_rejoin_cycles_availability(self):
        tracker = make_tracker()
        metrics = ChurnCounts()
        tracker.apply(event("crash", "a", 10.0), 10.0, metrics)
        assert not tracker.online("a")
        tracker.apply(event("rejoin", "a", 20.0), 20.0, metrics)
        assert tracker.online("a")
        assert tracker.departed == frozenset()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown lifecycle"):
            make_tracker().apply(
                event("hibernate", "a"), 0.0, ChurnCounts()
            )


class TestMetricsCounters:
    def test_each_kind_hits_its_counter(self):
        tracker = make_tracker(initially_offline=["c"])
        metrics = ChurnCounts()
        tracker.apply(event("arrive", "c", 5.0), 5.0, metrics)
        tracker.apply(event("crash", "a", 10.0), 10.0, metrics)
        tracker.apply(event("rejoin", "a", 20.0, amnesiac=True), 20.0, metrics)
        tracker.apply(event("leave", "b", 30.0), 30.0, metrics)
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
        metrics = ChurnCounts()
        tracker.apply(event("crash", "c", 20.0), 20.0, metrics)
        tracker.apply(event("arrive", "b", 40.0), 40.0, metrics)
        tracker.apply(event("rejoin", "c", 70.0), 70.0, metrics)
        assert tracker.finalize(100.0) == pytest.approx(210.0)

    def test_departed_node_stops_accruing(self):
        tracker = make_tracker(nodes=("a", "b"))
        metrics = ChurnCounts()
        tracker.apply(event("leave", "a", 25.0), 25.0, metrics)
        assert tracker.finalize(100.0) == pytest.approx(125.0)


class TestRecoveryLatency:
    def test_first_encounter_after_rejoin_marks_recovery(self):
        tracker = make_tracker()
        metrics = ChurnCounts()
        tracker.apply(event("rejoin", "a", 100.0), 100.0, metrics)
        tracker.note_encounter("a", "b", 160.0, metrics)
        assert metrics.rejoin_recoveries == 1
        assert metrics.rejoin_recovery_seconds == pytest.approx(60.0)

    def test_recovery_recorded_once(self):
        tracker = make_tracker()
        metrics = ChurnCounts()
        tracker.apply(event("rejoin", "a", 100.0), 100.0, metrics)
        tracker.note_encounter("a", "b", 160.0, metrics)
        tracker.note_encounter("a", "c", 200.0, metrics)
        assert metrics.rejoin_recoveries == 1

    def test_never_rejoined_never_recovers(self):
        tracker = make_tracker()
        metrics = ChurnCounts()
        tracker.note_encounter("a", "b", 50.0, metrics)
        assert metrics.rejoin_recoveries == 0
