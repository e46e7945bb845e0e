"""Per-peer health tracking: healthy → suspect → quarantined, and back.

A replica that keeps detecting protocol violations from the same peer —
corrupt payloads, replayed frames, fabricated knowledge — should stop
spending contact time on it. This module implements the three-state
tracker the emulator consults before each encounter:

* **healthy** — sync freely.
* **suspect** — the peer has accumulated ``suspect_threshold`` strikes;
  syncing continues, but the state is observable and a clean streak of
  ``recovery_probes`` encounters clears it back to healthy.
* **quarantined** — strikes reached ``quarantine_threshold``. Sync
  attempts are refused until an exponential-backoff window (with seeded
  jitter, so simultaneous quarantines do not re-probe in lockstep)
  expires; then the peer gets *recovery probes* — if ``recovery_probes``
  consecutive probe encounters come back clean, the peer is restored to
  healthy; one more violation re-quarantines it with a longer backoff.

The tracker is deliberately deterministic: jitter is drawn from its own
seeded RNG, and draws happen only when a quarantine is actually imposed,
so a run without violations consumes no randomness at all (the zero-fault
equivalence guarantee extends through this layer).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

HEALTHY = "healthy"
SUSPECT = "suspect"
QUARANTINED = "quarantined"

PEER_STATES = (HEALTHY, SUSPECT, QUARANTINED)


def capped_backoff(
    base: float, factor: float, retries: int, maximum: float
) -> float:
    """``min(base * factor ** retries, maximum)``, also once the power
    is too large for a float (``factor >= 1``: it is then past the cap)."""
    try:
        growth = factor ** retries
    except OverflowError:
        return maximum
    return min(base * growth, maximum)


@dataclass
class PeerRecord:
    """Everything the tracker knows about one peer."""

    state: str = HEALTHY
    strikes: int = 0
    clean_streak: int = 0
    quarantines: int = 0
    next_probe: float = 0.0
    probing: bool = False


class PeerHealthTracker:
    """One replica's view of its peers' trustworthiness.

    ``record_outcome(peer, strikes, now)`` is called once per completed
    encounter with the number of violations attributed to ``peer`` during
    it; ``allowed(peer, now)`` gates the *next* encounter. Both are O(1).
    """

    def __init__(
        self,
        suspect_threshold: int = 3,
        quarantine_threshold: int = 6,
        backoff_base: float = 120.0,
        backoff_factor: float = 2.0,
        backoff_max: float = 3600.0,
        jitter: float = 0.1,
        recovery_probes: int = 2,
        seed: int = 0,
    ) -> None:
        if suspect_threshold < 1:
            raise ValueError("suspect_threshold must be >= 1")
        if quarantine_threshold < suspect_threshold:
            raise ValueError(
                "quarantine_threshold must be >= suspect_threshold"
            )
        if backoff_base <= 0:
            raise ValueError("backoff_base must be positive")
        if backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if backoff_max < backoff_base:
            raise ValueError("backoff_max must be >= backoff_base")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if recovery_probes < 1:
            raise ValueError("recovery_probes must be >= 1")
        self.suspect_threshold = suspect_threshold
        self.quarantine_threshold = quarantine_threshold
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor
        self.backoff_max = backoff_max
        self.jitter = jitter
        self.recovery_probes = recovery_probes
        self._rng = random.Random(seed)
        self._peers: Dict[str, PeerRecord] = {}

    # -- queries --------------------------------------------------------------------

    def state(self, peer: str) -> str:
        record = self._peers.get(peer)
        return record.state if record is not None else HEALTHY

    def record(self, peer: str) -> PeerRecord:
        """The full record for ``peer`` (created healthy on first access)."""
        return self._peers.setdefault(peer, PeerRecord())

    def peers(self) -> List[str]:
        return sorted(self._peers)

    def allowed(self, peer: str, now: float) -> bool:
        """May we attempt a sync with ``peer`` at ``now``?

        Healthy and suspect peers are always allowed. A quarantined peer
        is refused until its backoff window expires; the first allowed
        attempt after expiry is a *recovery probe* (marked on the record
        so :meth:`record_outcome` knows clean results count toward
        restoration).
        """
        record = self._peers.get(peer)
        if record is None or record.state != QUARANTINED:
            return True
        if now >= record.next_probe:
            record.probing = True
            return True
        return False

    # -- updates --------------------------------------------------------------------

    def record_outcome(self, peer: str, strikes: int, now: float) -> List[str]:
        """Fold one encounter's violation count into ``peer``'s health.

        Returns the state transitions taken, as ``"from->to"`` labels (at
        most two per call — a single bad encounter can push a healthy peer
        through suspect straight into quarantine).
        """
        record = self.record(peer)
        transitions: List[str] = []
        if strikes > 0:
            record.clean_streak = 0
            record.strikes += strikes
            if record.state == QUARANTINED:
                if record.probing:
                    # Failed recovery probe: back to the penalty box, with
                    # a longer window.
                    record.probing = False
                    record.quarantines += 1
                    record.next_probe = now + self._backoff(record.quarantines)
                    transitions.append(f"{QUARANTINED}->{QUARANTINED}")
                return transitions
            if (
                record.state == HEALTHY
                and record.strikes >= self.suspect_threshold
            ):
                record.state = SUSPECT
                transitions.append(f"{HEALTHY}->{SUSPECT}")
            if (
                record.state == SUSPECT
                and record.strikes >= self.quarantine_threshold
            ):
                record.state = QUARANTINED
                record.probing = False
                record.quarantines += 1
                record.next_probe = now + self._backoff(record.quarantines)
                transitions.append(f"{SUSPECT}->{QUARANTINED}")
            return transitions

        record.clean_streak += 1
        if record.state == QUARANTINED:
            if record.probing and record.clean_streak >= self.recovery_probes:
                record.state = HEALTHY
                record.strikes = 0
                record.probing = False
                transitions.append(f"{QUARANTINED}->{HEALTHY}")
        elif record.state == SUSPECT:
            if record.clean_streak >= self.recovery_probes:
                record.state = HEALTHY
                record.strikes = 0
                transitions.append(f"{SUSPECT}->{HEALTHY}")
        return transitions

    def _backoff(self, quarantines: int) -> float:
        """The backoff delay for the ``quarantines``-th quarantine.

        Exponential in the number of quarantines, capped, then jittered by
        up to ±``jitter`` (one seeded RNG draw — the only randomness in
        the tracker, consumed exclusively when a quarantine is imposed).
        """
        delay = capped_backoff(
            self.backoff_base, self.backoff_factor, quarantines - 1, self.backoff_max
        )
        if self.jitter > 0.0:
            delay *= 1.0 + self.jitter * (self._rng.random() * 2.0 - 1.0)
        return delay
