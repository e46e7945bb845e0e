"""Unit tests for the per-peer health tracker (suspect/quarantine)."""

import pytest

from repro.replication.peer_health import (
    HEALTHY,
    QUARANTINED,
    SUSPECT,
    PeerHealthTracker,
)


def tracker(**overrides):
    knobs = dict(
        suspect_threshold=3,
        quarantine_threshold=6,
        backoff_base=100.0,
        backoff_factor=2.0,
        backoff_max=1000.0,
        jitter=0.0,
        recovery_probes=2,
        seed=7,
    )
    knobs.update(overrides)
    return PeerHealthTracker(**knobs)


class TestTransitions:
    def test_unknown_peer_is_healthy_and_allowed(self):
        t = tracker()
        assert t.state("mallory") == HEALTHY
        assert t.allowed("mallory", now=0.0)

    def test_strikes_accumulate_to_suspect(self):
        t = tracker()
        assert t.record_outcome("mallory", 2, now=0.0) == []
        assert t.state("mallory") == HEALTHY
        assert t.record_outcome("mallory", 1, now=1.0) == ["healthy->suspect"]
        assert t.state("mallory") == SUSPECT
        assert t.allowed("mallory", now=2.0)  # suspect still syncs

    def test_suspect_escalates_to_quarantine(self):
        t = tracker()
        t.record_outcome("mallory", 3, now=0.0)
        transitions = t.record_outcome("mallory", 3, now=1.0)
        assert transitions == ["suspect->quarantined"]
        assert t.state("mallory") == QUARANTINED
        assert not t.allowed("mallory", now=2.0)

    def test_one_terrible_encounter_chains_both_transitions(self):
        t = tracker()
        transitions = t.record_outcome("mallory", 10, now=0.0)
        assert transitions == ["healthy->suspect", "suspect->quarantined"]
        assert t.state("mallory") == QUARANTINED

    def test_suspect_recovers_after_clean_streak(self):
        t = tracker()
        t.record_outcome("mallory", 3, now=0.0)
        assert t.record_outcome("mallory", 0, now=1.0) == []
        assert t.state("mallory") == SUSPECT
        assert t.record_outcome("mallory", 0, now=2.0) == ["suspect->healthy"]
        assert t.state("mallory") == HEALTHY
        assert t.record("mallory").strikes == 0

    def test_violation_resets_clean_streak(self):
        t = tracker()
        t.record_outcome("mallory", 3, now=0.0)
        t.record_outcome("mallory", 0, now=1.0)
        t.record_outcome("mallory", 1, now=2.0)  # streak broken
        assert t.record_outcome("mallory", 0, now=3.0) == []
        assert t.state("mallory") == SUSPECT

    def test_peers_tracked_independently(self):
        t = tracker()
        t.record_outcome("mallory", 6, now=0.0)
        assert t.state("mallory") == QUARANTINED
        assert t.state("bob") == HEALTHY
        assert t.peers() == ["mallory"]


class TestQuarantineBackoff:
    def test_refused_until_backoff_expires(self):
        t = tracker()  # jitter=0 → exact delays
        t.record_outcome("mallory", 6, now=0.0)
        assert not t.allowed("mallory", now=99.0)
        assert t.allowed("mallory", now=100.0)  # base backoff = 100s
        assert t.record("mallory").probing

    def test_failed_probe_doubles_the_window(self):
        t = tracker()
        t.record_outcome("mallory", 6, now=0.0)
        assert t.allowed("mallory", now=100.0)
        transitions = t.record_outcome("mallory", 1, now=100.0)
        assert transitions == ["quarantined->quarantined"]
        record = t.record("mallory")
        assert record.next_probe == pytest.approx(100.0 + 200.0)
        assert not t.allowed("mallory", now=250.0)
        assert t.allowed("mallory", now=300.0)

    def test_backoff_is_capped(self):
        t = tracker()
        t.record_outcome("mallory", 6, now=0.0)
        now = 0.0
        for _ in range(6):  # drive the exponent far past the cap
            now = t.record("mallory").next_probe
            assert t.allowed("mallory", now)
            t.record_outcome("mallory", 1, now=now)
        record = t.record("mallory")
        assert record.next_probe - now == pytest.approx(1000.0)

    def test_backoff_stays_at_cap_past_float_range(self):
        """2.0 ** 1024 overflows a float: the 1 025th quarantine in a row
        used to raise OverflowError instead of waiting the cap."""
        t = tracker(jitter=0.1)
        t.record_outcome("mallory", 6, now=0.0)
        now = 0.0
        for _ in range(1099):
            now = t.record("mallory").next_probe
            assert t.allowed("mallory", now)
            t.record_outcome("mallory", 1, now=now)
        record = t.record("mallory")
        assert record.quarantines == 1100
        assert 900.0 <= record.next_probe - now <= 1100.0

    def test_recovery_probes_restore_health(self):
        t = tracker()
        t.record_outcome("mallory", 6, now=0.0)
        assert t.allowed("mallory", now=100.0)
        assert t.record_outcome("mallory", 0, now=100.0) == []
        assert t.allowed("mallory", now=160.0)
        transitions = t.record_outcome("mallory", 0, now=160.0)
        assert transitions == ["quarantined->healthy"]
        assert t.state("mallory") == HEALTHY
        assert t.record("mallory").strikes == 0

    def test_clean_outcomes_while_quarantined_without_probe_do_not_restore(self):
        t = tracker()
        t.record_outcome("mallory", 6, now=0.0)
        # Clean reports before any probe was granted must not clear the
        # quarantine (e.g. outcomes fed for the other peer direction).
        t.record_outcome("mallory", 0, now=1.0)
        t.record_outcome("mallory", 0, now=2.0)
        assert t.state("mallory") == QUARANTINED


class TestJitterDeterminism:
    def test_same_seed_same_backoff(self):
        a = tracker(jitter=0.2, seed=42)
        b = tracker(jitter=0.2, seed=42)
        a.record_outcome("mallory", 6, now=0.0)
        b.record_outcome("mallory", 6, now=0.0)
        assert a.record("mallory").next_probe == b.record("mallory").next_probe

    def test_different_seed_different_jitter(self):
        draws = set()
        for seed in range(8):
            t = tracker(jitter=0.2, seed=seed)
            t.record_outcome("mallory", 6, now=0.0)
            draws.add(t.record("mallory").next_probe)
        assert len(draws) > 1

    def test_jitter_bounded(self):
        for seed in range(16):
            t = tracker(jitter=0.1, seed=seed)
            t.record_outcome("mallory", 6, now=0.0)
            delay = t.record("mallory").next_probe
            assert 90.0 <= delay <= 110.0

    def test_rng_consumed_only_on_quarantine(self):
        """Strike-free and sub-quarantine traffic draws no randomness, so
        the backoff a peer eventually gets is independent of how much
        clean history preceded it."""
        quiet = tracker(jitter=0.3, seed=9)
        busy = tracker(jitter=0.3, seed=9)
        for i in range(50):
            busy.record_outcome("bob", 0, now=float(i))
            busy.record_outcome("carol", 1 if i % 10 == 0 else 0, now=float(i))
        quiet.record_outcome("mallory", 6, now=1000.0)
        busy.record_outcome("mallory", 6, now=1000.0)
        assert (
            quiet.record("mallory").next_probe
            == busy.record("mallory").next_probe
        )


class TestValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"suspect_threshold": 0},
            {"quarantine_threshold": 2},  # below suspect_threshold=3
            {"backoff_base": 0.0},
            {"backoff_factor": 0.5},
            {"backoff_max": 50.0},  # below base=100
            {"jitter": -0.1},
            {"jitter": 1.0},
            {"recovery_probes": 0},
        ],
    )
    def test_bad_knobs_rejected(self, overrides):
        with pytest.raises(ValueError):
            tracker(**overrides)
