"""Seeded generation of a run's node-lifecycle schedule.

The schedule is derived from ``(ChurnConfig, EncounterTrace)`` alone, by
a dedicated :class:`random.Random` — arming churn never perturbs the
base experiment's draws, and every process that can see the config and
the trace (the emulator, the swarm orchestrator, each ``repro serve``
replica) derives the *identical* schedule independently. That shared
derivation is what makes emulator-vs-swarm churn parity possible.

Role assignment is a single seeded shuffle of the host list followed by
disjoint prefix slices (arrivals, then leavers, then crashers, then
free-riders), so no node ever holds two roles. Event times are placed
in windows chosen to keep the scenarios meaningful: arrivals land early
enough to participate, leaves late enough to have accumulated state
worth handing off, and crash/rejoin windows always close before the
trace span ends — both execution modes therefore replay the complete
schedule.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.emulation.encounters import SECONDS_PER_DAY, EncounterTrace

from .config import ChurnConfig

#: Lifecycle event kinds, in the order ties at one timestamp resolve.
ARRIVE = "arrive"
CRASH = "crash"
LEAVE = "leave"
REJOIN = "rejoin"

EVENT_KINDS = (ARRIVE, CRASH, LEAVE, REJOIN)

#: A crashed node stays offline for a uniform draw between these (days).
MIN_OFFLINE_DAYS = 0.25
MAX_OFFLINE_DAYS = 1.0


@dataclass(frozen=True)
class LifecycleEvent:
    """One scheduled change to a node's availability.

    ``partner`` is set only on graceful leaves: the best-connected
    online peer that receives the leaver's final sync (None when no peer
    the leaver ever met is online at the leave time).
    ``amnesiac`` is set only on rejoins: True means the node lost its
    persisted state and restarts empty (keeping only its identity).
    """

    time: float
    kind: str
    node: str
    partner: Optional[str] = None
    amnesiac: bool = False


@dataclass(frozen=True)
class ChurnSchedule:
    """The complete, immutable lifecycle plan for one run."""

    events: Tuple[LifecycleEvent, ...]
    free_riders: Tuple[str, ...]
    initially_offline: frozenset

    @property
    def has_checkpoint_rejoin(self) -> bool:
        """At least one crashed node rejoins with its persisted state."""
        return any(
            event.kind == REJOIN and not event.amnesiac
            for event in self.events
        )

    @property
    def has_amnesiac_rejoin(self) -> bool:
        """At least one crashed node rejoins having lost its state."""
        return any(
            event.kind == REJOIN and event.amnesiac for event in self.events
        )

    def events_for(self, node: str) -> Tuple[LifecycleEvent, ...]:
        return tuple(event for event in self.events if event.node == node)


def _offline_windows(
    events: List[LifecycleEvent], span: float
) -> Dict[str, List[Tuple[float, float]]]:
    """Per-node [start, end) intervals during which the node is offline."""
    windows: Dict[str, List[Tuple[float, float]]] = {}
    open_at: Dict[str, float] = {}
    for event in sorted(events, key=lambda e: (e.time, e.kind, e.node)):
        if event.kind == ARRIVE:
            windows.setdefault(event.node, []).append((0.0, event.time))
        elif event.kind in (LEAVE, CRASH):
            open_at[event.node] = event.time
        elif event.kind == REJOIN:
            start = open_at.pop(event.node, event.time)
            windows.setdefault(event.node, []).append((start, event.time))
    for node, start in open_at.items():
        windows.setdefault(node, []).append((start, span))
    return windows


def generate_churn_schedule(
    config: ChurnConfig, trace: EncounterTrace
) -> ChurnSchedule:
    """Derive the lifecycle schedule for ``trace`` under ``config``.

    Deterministic in ``(config, trace)``: the role shuffle and every
    time draw come from ``random.Random(config.seed)``, consumed in a
    fixed order (roles, then arrivals, then leaves, then crashes —
    each role's nodes in shuffle order).
    """
    hosts = sorted(trace.hosts)
    n = len(hosts)
    last_day = max(trace.days, default=0)
    span = float((last_day + 1) * SECONDS_PER_DAY)
    rng = random.Random(config.seed)

    shuffled = list(hosts)
    rng.shuffle(shuffled)
    n_arrive = int(n * config.arrival_fraction)
    n_leave = int(n * config.departure_fraction)
    n_crash = int(n * config.crash_fraction)
    n_free = int(n * config.free_rider_fraction)
    cursor = 0
    arrivals = shuffled[cursor : cursor + n_arrive]
    cursor += n_arrive
    leavers = shuffled[cursor : cursor + n_leave]
    cursor += n_leave
    crashers = shuffled[cursor : cursor + n_crash]
    cursor += n_crash
    free_riders = shuffled[cursor : cursor + n_free]

    events: List[LifecycleEvent] = []
    for node in arrivals:
        events.append(
            LifecycleEvent(
                time=rng.uniform(0.10, 0.50) * span, kind=ARRIVE, node=node
            )
        )
    leave_times: Dict[str, float] = {}
    for node in leavers:
        leave_times[node] = rng.uniform(0.55, 0.90) * span
    for node in crashers:
        crash_time = rng.uniform(0.15, 0.60) * span
        offline = rng.uniform(MIN_OFFLINE_DAYS, MAX_OFFLINE_DAYS)
        # Clamp the rejoin inside the trace span so both execution modes
        # (the emulator's run-until horizon and the swarm's replay of
        # every step) process the full schedule.
        rejoin_time = min(crash_time + offline * SECONDS_PER_DAY, span - 1.0)
        amnesiac = rng.random() < config.amnesia_probability
        events.append(LifecycleEvent(time=crash_time, kind=CRASH, node=node))
        events.append(
            LifecycleEvent(
                time=rejoin_time, kind=REJOIN, node=node, amnesiac=amnesiac
            )
        )

    # Handoff partners: the peer the leaver met most often in the trace,
    # restricted to peers that are online at the leave time (departed
    # and mid-crash peers can't take a final sync; unarrived peers
    # aren't there yet). Ties break alphabetically.
    provisional = list(events) + [
        LifecycleEvent(time=time, kind=LEAVE, node=node)
        for node, time in leave_times.items()
    ]
    windows = _offline_windows(provisional, span)

    def online_at(name: str, when: float) -> bool:
        return not any(
            start <= when < end for start, end in windows.get(name, ())
        )

    for node in leavers:
        when = leave_times[node]
        partner: Optional[str] = None
        candidates = sorted(
            trace.meeting_counts_for(node).items(),
            key=lambda pair: (-pair[1], pair[0]),
        )
        for peer, _count in candidates:
            if peer != node and online_at(peer, when):
                partner = peer
                break
        events.append(
            LifecycleEvent(time=when, kind=LEAVE, node=node, partner=partner)
        )

    events.sort(key=lambda event: (event.time, event.kind, event.node))
    return ChurnSchedule(
        events=tuple(events),
        free_riders=tuple(sorted(free_riders)),
        initially_offline=frozenset(arrivals),
    )
