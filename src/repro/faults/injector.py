"""The fault injector: seeded orchestration of every fault model.

The injector owns its *own* :class:`random.Random`, separate from the
emulator's encounter-ordering RNG. That separation is the determinism
contract: arming or disarming faults never perturbs the base experiment's
random draws, and a (fault config, fault seed) pair replays an identical
fault schedule against an identical run.

Decision points, in the order the emulation consults them per encounter:

1. :meth:`encounter_allowed` — retry/backoff bookkeeping may veto the
   attempt (a recently interrupted pair waits out its backoff);
2. :meth:`should_drop_encounter` — Bernoulli whole-encounter loss;
3. :meth:`transport` — a per-session lossy channel (truncation and
   duplication) handed to the sync engine;
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
from .models import (
    BatchTruncation,
    BernoulliEncounterDrop,
    CrashRestart,
    EntryDuplication,
    FrameReplay,
    KnowledgeFabrication,
    MalformedFrame,
    PayloadCorruption,
)
from .transport import FaultyTransport

#: A host pair, order-normalised so both sync directions share state.
Pair = Tuple[str, str]


def pair_key(a: str, b: str) -> Pair:
    return (a, b) if a <= b else (b, a)


@dataclass
class FaultCounters:
    """Everything the injector did, for metrics and for assertions."""

    dropped_encounters: int = 0
    backoff_skips: int = 0
    interrupted_syncs: int = 0
    resumed_pairs: int = 0
    crashes: int = 0
    corrupted_entries: int = 0
    malformed_entries: int = 0
    replayed_entries: int = 0
    fabricated_requests: int = 0

    def note(self, counter: str, amount: int = 1) -> None:
        """Increment one counter by name (the transport's callback)."""
        setattr(self, counter, getattr(self, counter) + amount)


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

    def __init__(
        self, base: float = 60.0, factor: float = 2.0, maximum: float = 3600.0
    ) -> None:
        self.base = base
        self.factor = factor
        self.maximum = maximum
        self._pending: Dict[Pair, RetryState] = {}

    def can_attempt(self, pair: Pair, now: float) -> bool:
        state = self._pending.get(pair)
        return state is None or now >= state.next_attempt

    def record_interruption(self, pair: Pair, now: float) -> RetryState:
        state = self._pending.setdefault(pair, RetryState())
        state.attempts += 1
        state.next_attempt = now + capped_backoff(
            self.base, self.factor, state.attempts - 1, self.maximum
        )
        return state

    def record_completion(self, pair: Pair) -> bool:
        """Clear a pair after a full sync; True if this completed a resume."""
        return self._pending.pop(pair, None) is not None

    def is_pending(self, pair: Pair) -> bool:
        return pair in self._pending

    @property
    def pending_pairs(self) -> List[Pair]:
        return sorted(self._pending)


class FaultInjector:
    """Binds fault models, RNG, counters, and resume bookkeeping together."""

    def __init__(self, config: FaultConfig, seed: int = 0) -> None:
        self.config = config
        self.rng = random.Random(seed)
        self.counters = FaultCounters()
        self.tracker = ResumeTracker(
            base=config.retry_backoff_base,
            factor=config.retry_backoff_factor,
            maximum=config.retry_backoff_max,
        )
        self._drop = (
            BernoulliEncounterDrop(config.encounter_drop_probability)
            if config.encounter_drop_probability > 0.0
            else None
        )
        self._truncation = (
            BatchTruncation(
                config.truncation_probability,
                minimum=config.truncation_min,
                maximum=config.truncation_max,
                unit=config.truncation_unit,
            )
            if config.truncation_probability > 0.0
            else None
        )
        self._duplication = (
            EntryDuplication(config.duplication_probability)
            if config.duplication_probability > 0.0
            else None
        )
        self._crash = (
            CrashRestart(config.crash_probability)
            if config.crash_probability > 0.0
            else None
        )
        self._corruption = (
            PayloadCorruption(config.corruption_probability)
            if config.corruption_probability > 0.0
            else None
        )
        self._malformed = (
            MalformedFrame(config.malformed_probability)
            if config.malformed_probability > 0.0
            else None
        )
        self._replay = (
            FrameReplay(config.replay_probability)
            if config.replay_probability > 0.0
            else None
        )
        self._fabrication = (
            KnowledgeFabrication(config.fabrication_probability)
            if config.fabrication_probability > 0.0
            else None
        )
        #: Previously confirmed entries per *directed* link, feeding the
        #: replay model: a replayed frame can only contain what that link
        #: actually carried.
        self._replay_pools: Dict[Tuple[str, str], List[object]] = {}

    # -- per-encounter decision points --------------------------------------------

    def encounter_allowed(self, a: str, b: str, now: float) -> bool:
        """False while the pair's retry backoff window is still open."""
        if self.tracker.can_attempt(pair_key(a, b), now):
            return True
        self.counters.backoff_skips += 1
        return False

    def should_drop_encounter(self) -> bool:
        if self._drop is not None and self._drop.should_drop(self.rng):
            self.counters.dropped_encounters += 1
            return True
        return False

    def transport(
        self, source: Optional[str] = None, target: Optional[str] = None
    ) -> Optional[FaultyTransport]:
        """A fresh lossy channel for one sync session (None = perfect).

        ``source``/``target`` name the session's directed link; they are
        required for the replay model (which keys its pools by link) and
        the fabrication model (which tampers with claims about the
        source's own versions), and optional otherwise — existing
        truncation/duplication-only callers keep working unchanged.
        """
        if all(
            model is None
            for model in (
                self._truncation,
                self._duplication,
                self._corruption,
                self._malformed,
                self._replay,
                self._fabrication,
            )
        ):
            return None
        pool: Optional[List[object]] = None
        if self._replay is not None and source is not None and target is not None:
            pool = self._replay_pools.setdefault((source, target), [])
        return FaultyTransport(
            self.rng,
            truncation=self._truncation,
            duplication=self._duplication,
            corruption=self._corruption,
            malformed=self._malformed,
            replay=self._replay,
            fabrication=self._fabrication,
            source_id=ReplicaId(source) if source is not None else None,
            replay_pool=pool,
            on_fault=self.counters.note,
        )

    def note_encounter_outcome(
        self, a: str, b: str, now: float, interrupted: bool
    ) -> bool:
        """Update resume bookkeeping; True when this encounter resumed a pair."""
        pair = pair_key(a, b)
        if interrupted:
            self.counters.interrupted_syncs += 1
            self.tracker.record_interruption(pair, now)
            return False
        if self.tracker.record_completion(pair):
            self.counters.resumed_pairs += 1
            return True
        return False

    def crash_victims(self, participants: Sequence[str]) -> List[str]:
        """Which encounter participants crash afterwards (stable order)."""
        if self._crash is None:
            return []
        victims = self._crash.pick_victims(sorted(participants), self.rng)
        self.counters.crashes += len(victims)
        return victims
