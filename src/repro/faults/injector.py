"""The fault injector: seeded orchestration of every fault draw.

The injector owns its *own* :class:`random.Random`, separate from the
emulator's encounter-ordering RNG. That separation is the determinism
contract: arming or disarming faults never perturbs the base experiment's
random draws, and a (fault config, fault seed) pair replays an identical
fault schedule against an identical run.

Decision points, in the order the emulation consults them per encounter:

1. :meth:`encounter_allowed` — retry/backoff bookkeeping may veto the
   attempt (a recently interrupted pair waits out its backoff);
2. :meth:`should_drop_encounter` — Bernoulli whole-encounter loss;
3. :meth:`transport` — a per-session lossy channel (every armed
   channel fault) handed to the sync engine;
4. :meth:`note_encounter_outcome` — records interruptions (scheduling
   backoff) and completed resumes;
5. :meth:`crash_victims` — which participants crash after the encounter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.replication.ids import ReplicaId
from repro.replication.peer_health import capped_backoff

from .config import FaultConfig
from .models import fires
from .transport import FaultyTransport

#: A host pair, order-normalised so both sync directions share state.
Pair = Tuple[str, str]


#: An interrupted pair's n-th retry waits ``RETRY_BASE * RETRY_FACTOR **
#: (n - 1)`` seconds, capped at ``RETRY_MAX``: a minute doubling to an hour.
RETRY_BASE = 60.0
RETRY_FACTOR = 2.0
RETRY_MAX = 3600.0


def pair_key(a: str, b: str) -> Pair:
    return (a, b) if a <= b else (b, a)


@dataclass
class RetryState:
    """Backoff bookkeeping for one pair with an interrupted session."""

    attempts: int = 0
    next_attempt: float = 0.0


class ResumeTracker:
    """Tracks interrupted pairs and their exponential retry backoff.

    A pair enters the tracker when a sync between its hosts is truncated;
    while the backoff window is open, further attempts are skipped. The
    first completed (un-truncated) encounter after an interruption counts
    as that pair's *resume* — the substrate's knowledge exchange makes the
    resume implicit (only the undelivered suffix is re-offered), so the
    tracker's job is purely scheduling and accounting.
    """

    def __init__(self) -> None:
        self._pending: Dict[Pair, RetryState] = {}

    def can_attempt(self, pair: Pair, now: float) -> bool:
        state = self._pending.get(pair)
        return state is None or now >= state.next_attempt

    def record_interruption(self, pair: Pair, now: float) -> RetryState:
        state = self._pending.setdefault(pair, RetryState())
        state.attempts += 1
        state.next_attempt = now + capped_backoff(
            RETRY_BASE, RETRY_FACTOR, state.attempts - 1, RETRY_MAX
        )
        return state

    def record_completion(self, pair: Pair) -> bool:
        """Clear a pair after a full sync; True if this completed a resume."""
        return self._pending.pop(pair, None) is not None


class FaultInjector:
    """Binds a fault config, its RNG and the resume bookkeeping together."""

    def __init__(self, config: FaultConfig, seed: int = 0) -> None:
        self.config = config
        self.rng = random.Random(seed)
        self.tracker = ResumeTracker()
        #: Previously confirmed entries per *directed* link, feeding the
        #: replay model: a replayed frame can only contain what that link
        #: actually carried.
        self._replay_pools: Dict[Tuple[str, str], List[object]] = {}

    # -- per-encounter decision points --------------------------------------------

    def encounter_allowed(self, a: str, b: str, now: float) -> bool:
        """False while the pair's retry backoff window is still open."""
        return self.tracker.can_attempt(pair_key(a, b), now)

    def should_drop_encounter(self) -> bool:
        return fires(self.config.encounter_drop_probability, self.rng)

    def transport(self, source: str, target: str) -> Optional[FaultyTransport]:
        """A fresh lossy channel for one sync session from ``source`` to
        ``target`` (None = perfect). The replay model keys its pools by
        that directed link; the fabrication model tampers with claims
        about the source's own versions."""
        config = self.config
        if not config.has_transport_faults:
            return None
        pool: Optional[List[object]] = None
        if config.replay_probability > 0.0:
            pool = self._replay_pools.setdefault((source, target), [])
        return FaultyTransport(
            config, self.rng, source_id=ReplicaId(source), replay_pool=pool
        )

    def note_encounter_outcome(
        self, a: str, b: str, now: float, interrupted: bool
    ) -> bool:
        """Update resume bookkeeping; True when this encounter resumed a pair."""
        pair = pair_key(a, b)
        if interrupted:
            self.tracker.record_interruption(pair, now)
            return False
        return self.tracker.record_completion(pair)

    def crash_victims(self, participants: Sequence[str]) -> List[str]:
        """Which encounter participants crash afterwards (stable order)."""
        probability = self.config.crash_probability
        return [
            name for name in sorted(participants) if fires(probability, self.rng)
        ]
