"""FaultInjector orchestration: seeding, decisions, and resume/backoff."""

from repro.faults import FaultConfig, FaultInjector, ResumeTracker, pair_key
from repro.faults.injector import RETRY_BASE, RETRY_FACTOR, RETRY_MAX


def injector(seed=0, **knobs):
    return FaultInjector(FaultConfig(**knobs), seed=seed)


class TestPairKey:
    def test_order_normalised(self):
        assert pair_key("b", "a") == ("a", "b") == pair_key("a", "b")


class TestDropDecisions:
    def test_no_model_never_drops(self):
        inj = injector(crash_probability=0.5)  # enabled, but no drop model
        before = inj.rng.getstate()
        assert not any(inj.should_drop_encounter() for _ in range(50))
        assert inj.rng.getstate() == before

    def test_certain_drop_counts(self):
        inj = injector(encounter_drop_probability=1.0)
        assert all(inj.should_drop_encounter() for _ in range(5))

    def test_same_seed_same_schedule(self):
        first = injector(seed=4, encounter_drop_probability=0.4)
        second = injector(seed=4, encounter_drop_probability=0.4)
        decisions_a = [first.should_drop_encounter() for _ in range(100)]
        decisions_b = [second.should_drop_encounter() for _ in range(100)]
        assert decisions_a == decisions_b


class TestTransportMinting:
    def test_none_without_transport_faults(self):
        assert injector(encounter_drop_probability=0.5).transport("a", "b") is None
        assert injector(crash_probability=0.5).transport("a", "b") is None

    def test_transport_when_truncation_armed(self):
        assert injector(truncation_probability=0.5).transport("a", "b") is not None

    def test_transport_when_duplication_armed(self):
        assert injector(duplication_probability=0.5).transport("a", "b") is not None


class TestCrashVictims:
    def test_stable_order_and_counting(self):
        inj = injector(crash_probability=1.0)
        assert inj.crash_victims(("zeta", "alpha")) == ["alpha", "zeta"]
        assert inj.crash_victims(["c", "b", "a"]) == ["a", "b", "c"]

    def test_no_model_no_victims(self):
        inj = injector(truncation_probability=1.0)
        before = inj.rng.getstate()
        assert inj.crash_victims(("a", "b")) == []
        assert inj.rng.getstate() == before


class TestResumeTracker:
    def test_unknown_pair_can_always_attempt(self):
        tracker = ResumeTracker()
        assert tracker.can_attempt(("a", "b"), 0.0)

    def test_interruption_opens_backoff_window(self):
        tracker = ResumeTracker()
        tracker.record_interruption(("a", "b"), now=100.0)
        assert not tracker.can_attempt(("a", "b"), 100.0 + RETRY_BASE - 1.0)
        assert tracker.can_attempt(("a", "b"), 100.0 + RETRY_BASE)

    def test_backoff_grows_exponentially_and_caps(self):
        assert (RETRY_BASE, RETRY_FACTOR, RETRY_MAX) == (60.0, 2.0, 3600.0)
        tracker = ResumeTracker()
        windows = [
            tracker.record_interruption(("a", "b"), now=100.0).next_attempt - 100.0
            for _ in range(8)
        ]
        # 60 · 2⁶ = 3 840 is past the hour: the seventh window is capped.
        assert windows == [60.0, 120.0, 240.0, 480.0, 960.0, 1920.0, 3600.0, 3600.0]

    def test_backoff_stays_at_cap_past_float_range(self):
        """2.0 ** 1024 overflows a float: the 1 025th interruption in a
        row used to raise OverflowError instead of waiting the cap."""
        tracker = ResumeTracker()
        for _ in range(2000):
            state = tracker.record_interruption(("a", "b"), now=0.0)
            assert state.next_attempt <= RETRY_MAX
        assert state.attempts == 2000
        assert state.next_attempt == RETRY_MAX

    def test_the_injector_backs_off_a_minute_doubling_to_an_hour(self):
        injector = FaultInjector(FaultConfig(truncation_probability=1.0))
        windows = [
            injector.tracker.record_interruption(("a", "b"), now=0.0).next_attempt
            for _ in range(8)
        ]
        assert windows == [60.0, 120.0, 240.0, 480.0, 960.0, 1920.0, 3600.0, 3600.0]

    def test_completion_clears_and_reports_resume(self):
        tracker = ResumeTracker()
        tracker.record_interruption(("a", "b"), now=0.0)
        assert not tracker.can_attempt(("a", "b"), 1.0)
        assert tracker.record_completion(("a", "b"))
        assert tracker.can_attempt(("a", "b"), 1.0)  # window cleared
        assert not tracker.record_completion(("a", "b"))  # second time: no


class TestEncounterOutcomeBookkeeping:
    def test_interruption_then_resume_cycle(self):
        inj = injector(truncation_probability=1.0)
        resumed = inj.note_encounter_outcome("a", "b", now=0.0, interrupted=True)
        assert not resumed
        # The fixed 60 s backoff window blocks the pair, then re-opens.
        assert not inj.encounter_allowed("a", "b", 59.0)
        assert inj.encounter_allowed("b", "a", 60.0)  # order-insensitive
        resumed = inj.note_encounter_outcome("a", "b", now=60.0, interrupted=False)
        assert resumed
        # The resume is counted once: the pair is no longer pending.
        assert not inj.note_encounter_outcome("a", "b", 61.0, interrupted=False)

    def test_completion_without_pending_is_not_a_resume(self):
        inj = injector(truncation_probability=1.0)
        assert not inj.note_encounter_outcome("a", "b", 0.0, interrupted=False)

    def test_repeated_interruptions_grow_attempts(self):
        inj = injector(truncation_probability=1.0)
        inj.note_encounter_outcome("a", "b", 0.0, interrupted=True)
        inj.note_encounter_outcome("a", "b", 60.0, interrupted=True)
        state = inj.tracker.record_interruption(pair_key("a", "b"), 180.0)
        assert state.attempts == 3
        assert state.next_attempt == 180.0 + 60.0 * 2.0**2
