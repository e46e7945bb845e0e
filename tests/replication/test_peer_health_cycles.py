"""PeerHealthTracker under sustained churn: repeated quarantine and
recovery cycles, backoff growth, and seeded-jitter determinism.

A crash-restarting peer looks exactly like this to its neighbours: a
burst of failures, a quiet window, clean contacts again — over and over.
The tracker must come back to healthy every time, keep its backoff curve
monotone until the cap, and stay bit-for-bit reproducible for a given
seed.
"""

import random

import pytest

from repro.replication.peer_health import (
    BACKOFF_BASE,
    BACKOFF_FACTOR,
    BACKOFF_MAX,
    HEALTHY,
    JITTER,
    QUARANTINE_THRESHOLD,
    QUARANTINED,
    RECOVERY_PROBES,
    SUSPECT,
    SUSPECT_THRESHOLD,
    PeerHealthTracker,
)

#: 120 s doubling: 120, 240, 480, 960, 1 920, then the 3 600 s cap.
NOMINAL = [120.0, 240.0, 480.0, 960.0, 1920.0, 3600.0, 3600.0]


def tracker(seed=0):
    return PeerHealthTracker(seed=seed)


def jittered(nominal, seed=0):
    """``nominal`` windows as a tracker seeded ``seed`` jitters them: one
    draw of a twin of its rng per quarantine."""
    twin = random.Random(seed)
    return [width * (1.0 + JITTER * (twin.random() * 2.0 - 1.0)) for width in nominal]


def quarantine(health, peer, now):
    """Push ``peer`` from healthy straight into quarantine at ``now``."""
    health.record_outcome(peer, QUARANTINE_THRESHOLD, now)
    assert health.state(peer) == QUARANTINED


def recover(health, peer, now):
    """Wait out the backoff, then pass the required clean probes."""
    release = health.record(peer).next_probe
    for i in range(RECOVERY_PROBES):
        when = max(now, release) + i
        assert health.allowed(peer, when)
        health.record_outcome(peer, 0, when)
    assert health.state(peer) == HEALTHY
    return max(now, release) + RECOVERY_PROBES


class TestRepeatedCycles:
    def test_three_full_crash_restart_cycles(self):
        health = tracker()
        now = 0.0
        for cycle in range(3):
            quarantine(health, "peer", now)
            now = recover(health, "peer", now)
            # Strikes reset on recovery: the peer starts each cycle clean.
            assert health.record("peer").strikes == 0
        assert health.record("peer").quarantines == 3

    def test_backoff_grows_per_quarantine_then_caps(self):
        assert NOMINAL == [
            min(BACKOFF_BASE * BACKOFF_FACTOR ** n, BACKOFF_MAX) for n in range(7)
        ]
        health = tracker()
        now = 0.0
        widths = []
        for _ in range(7):
            quarantine(health, "peer", now)
            widths.append(health.record("peer").next_probe - now)
            now = recover(health, "peer", now)
        # Widths are next_probe - now: equal up to the subtraction's rounding.
        assert widths == pytest.approx(jittered(NOMINAL), rel=1e-12)

    def test_refused_while_the_window_is_open(self):
        health = tracker()
        quarantine(health, "peer", 0.0)
        (width,) = jittered(NOMINAL[:1])
        assert not health.allowed("peer", width - 1.0)
        assert health.allowed("peer", width)

    def test_failed_probe_restarts_a_longer_window(self):
        health = tracker()
        quarantine(health, "peer", 0.0)
        release = health.record("peer").next_probe
        assert health.allowed("peer", release)
        health.record_outcome("peer", 1, release)  # dirty probe
        assert health.state("peer") == QUARANTINED
        assert (
            health.record("peer").next_probe
            == release + jittered(NOMINAL[:2])[1]
        )

    def test_one_clean_probe_is_not_enough(self):
        assert RECOVERY_PROBES == 2
        health = tracker()
        quarantine(health, "peer", 0.0)
        release = health.record("peer").next_probe
        health.allowed("peer", release)
        health.record_outcome("peer", 0, release)
        assert health.state("peer") == QUARANTINED

    def test_suspect_state_heals_without_quarantine(self):
        health = tracker()
        health.record_outcome("peer", SUSPECT_THRESHOLD, 0.0)
        assert health.state("peer") == SUSPECT
        health.record_outcome("peer", 0, 1.0)
        health.record_outcome("peer", 0, 2.0)
        assert health.state("peer") == HEALTHY


class TestJitterDeterminism:
    def cycle_windows(self, seed, cycles=4):
        health = tracker(seed=seed)
        now, widths = 0.0, []
        for _ in range(cycles):
            quarantine(health, "peer", now)
            widths.append(health.record("peer").next_probe - now)
            now = recover(health, "peer", now)
        return widths

    def test_same_seed_same_windows(self):
        assert self.cycle_windows(seed=7) == self.cycle_windows(seed=7)

    def test_different_seeds_differ(self):
        assert self.cycle_windows(seed=7) != self.cycle_windows(seed=8)

    def test_jitter_is_the_seeded_draw_within_its_band(self):
        widths = self.cycle_windows(seed=3)
        assert widths == pytest.approx(jittered(NOMINAL[:4], seed=3), rel=1e-12)
        for width, nominal in zip(widths, NOMINAL):
            assert abs(width - nominal) <= JITTER * nominal

    def test_clean_runs_draw_no_randomness(self):
        """The zero-fault guarantee: no quarantine, no RNG consumption."""
        health = tracker(seed=5)
        for i in range(50):
            health.record_outcome("peer", 0, float(i))
        # A first quarantine now must see the very first seeded draw.
        fresh = tracker(seed=5)
        quarantine(health, "peer", 100.0)
        quarantine(fresh, "other", 100.0)
        assert (
            health.record("peer").next_probe
            == fresh.record("other").next_probe
            == 100.0 + jittered(NOMINAL[:1], seed=5)[0]
        )
