"""PeerHealthTracker under sustained churn: repeated quarantine and
recovery cycles, backoff growth, and seeded-jitter determinism.

A crash-restarting peer looks exactly like this to its neighbours: a
burst of failures, a quiet window, clean contacts again — over and over.
The tracker must come back to healthy every time, keep its backoff curve
monotone until the cap, and stay bit-for-bit reproducible for a given
seed.
"""

import pytest

from repro.replication.peer_health import (
    HEALTHY,
    QUARANTINED,
    SUSPECT,
    PeerHealthTracker,
)


def tracker(**overrides):
    knobs = dict(
        suspect_threshold=2,
        quarantine_threshold=4,
        backoff_base=100.0,
        backoff_factor=2.0,
        backoff_max=800.0,
        jitter=0.0,
        recovery_probes=2,
    )
    knobs.update(overrides)
    return PeerHealthTracker(**knobs)


def quarantine(health, peer, now):
    """Push ``peer`` from healthy straight into quarantine at ``now``."""
    health.record_outcome(peer, health.quarantine_threshold, now)
    assert health.state(peer) == QUARANTINED


def recover(health, peer, now):
    """Wait out the backoff, then pass the required clean probes."""
    release = health.record(peer).next_probe
    for i in range(health.recovery_probes):
        when = max(now, release) + i
        assert health.allowed(peer, when)
        health.record_outcome(peer, 0, when)
    assert health.state(peer) == HEALTHY
    return max(now, release) + health.recovery_probes


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
        health = tracker()
        now = 0.0
        widths = []
        for _ in range(5):
            quarantine(health, "peer", now)
            widths.append(health.record("peer").next_probe - now)
            now = recover(health, "peer", now)
        # 100, 200, 400, 800, then clamped at backoff_max=800.
        assert widths == [100.0, 200.0, 400.0, 800.0, 800.0]

    def test_refused_while_the_window_is_open(self):
        health = tracker()
        quarantine(health, "peer", 0.0)
        assert not health.allowed("peer", 50.0)
        assert health.allowed("peer", 100.0)

    def test_failed_probe_restarts_a_longer_window(self):
        health = tracker()
        quarantine(health, "peer", 0.0)
        release = health.record("peer").next_probe
        assert health.allowed("peer", release)
        health.record_outcome("peer", 1, release)  # dirty probe
        assert health.state("peer") == QUARANTINED
        assert health.record("peer").next_probe - release == pytest.approx(
            200.0
        )

    def test_one_clean_probe_is_not_enough(self):
        health = tracker(recovery_probes=2)
        quarantine(health, "peer", 0.0)
        release = health.record("peer").next_probe
        health.allowed("peer", release)
        health.record_outcome("peer", 0, release)
        assert health.state("peer") == QUARANTINED

    def test_suspect_state_heals_without_quarantine(self):
        health = tracker()
        health.record_outcome("peer", 2, 0.0)
        assert health.state("peer") == SUSPECT
        health.record_outcome("peer", 0, 1.0)
        health.record_outcome("peer", 0, 2.0)
        assert health.state("peer") == HEALTHY


class TestJitterDeterminism:
    def cycle_windows(self, seed, cycles=4):
        health = tracker(jitter=0.2, seed=seed)
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

    def test_jitter_stays_within_its_band(self):
        for width, nominal in zip(
            self.cycle_windows(seed=3), [100.0, 200.0, 400.0, 800.0]
        ):
            assert nominal * 0.8 <= width <= nominal * 1.2

    def test_clean_runs_draw_no_randomness(self):
        """The zero-fault guarantee: no quarantine, no RNG consumption."""
        health = tracker(jitter=0.2, seed=5)
        for i in range(50):
            health.record_outcome("peer", 0, float(i))
        # A first quarantine now must see the very first seeded draw.
        fresh = tracker(jitter=0.2, seed=5)
        quarantine(health, "peer", 100.0)
        quarantine(fresh, "other", 100.0)
        assert (
            health.record("peer").next_probe
            == fresh.record("other").next_probe
        )
