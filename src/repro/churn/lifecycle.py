"""Run-time tracking of node availability under a churn schedule.

A :class:`LifecycleTracker` belongs to the run's
:class:`~repro.emulation.engine.RunDirector`, whichever executor performs
the run: the emulator restarts node objects, the swarm orchestrator kills
and respawns processes, and both report each
:class:`~repro.churn.schedule.LifecycleEvent` to the director. The
tracker answers "is this node online right now?", accrues node-seconds
online and hands back the rejoin latencies an encounter closes; the
director books the events and latencies in the run's collector — once,
so the two worlds' churn metrics are identical by construction.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from .schedule import ARRIVE, CRASH, LEAVE, REJOIN, ChurnSchedule, LifecycleEvent


class LifecycleTracker:
    """Availability state machine for every node in a churning run."""

    def __init__(self, nodes: Iterable[str], schedule: ChurnSchedule) -> None:
        self._online: Dict[str, bool] = {
            name: name not in schedule.initially_offline for name in nodes
        }
        #: When each currently-online node came up (for node-seconds).
        self._online_since: Dict[str, float] = {
            name: 0.0 for name, up in self._online.items() if up
        }
        #: Rejoined nodes that have not yet completed a post-rejoin
        #: encounter; value is the rejoin time (for recovery latency).
        self._awaiting_recovery: Dict[str, float] = {}
        self._departed: Set[str] = set()
        self._node_seconds = 0.0

    # -- queries --------------------------------------------------------------------

    def online(self, name: str) -> bool:
        """Is ``name`` up right now? Unknown names count as online."""
        return self._online.get(name, True)

    @property
    def departed(self) -> frozenset:
        """Nodes gone for good (graceful leavers)."""
        return frozenset(self._departed)

    # -- state changes --------------------------------------------------------------

    def apply(self, event: LifecycleEvent, now: float) -> None:
        """Fold one lifecycle event into availability state."""
        name = event.node
        if event.kind == ARRIVE:
            if not self._online.get(name, False):
                self._online[name] = True
                self._online_since[name] = now
        elif event.kind == LEAVE:
            self._go_offline(name, now)
            self._departed.add(name)
        elif event.kind == CRASH:
            self._go_offline(name, now)
        elif event.kind == REJOIN:
            if not self._online.get(name, False):
                self._online[name] = True
                self._online_since[name] = now
            self._awaiting_recovery[name] = now
        else:
            raise ValueError(f"unknown lifecycle event kind {event.kind!r}")

    def note_encounter(self, a: str, b: str, now: float) -> List[float]:
        """Record that an encounter between ``a`` and ``b`` completed.

        A rejoined node's first completed encounter marks its recovery;
        returns the latencies, rejoin to this contact, that it closed.
        """
        latencies = []
        for name in (a, b):
            rejoined_at = self._awaiting_recovery.pop(name, None)
            if rejoined_at is not None:
                latencies.append(now - rejoined_at)
        return latencies

    def finalize(self, end_time: float) -> float:
        """Close out availability accounting; returns total node-seconds."""
        for name, since in sorted(self._online_since.items()):
            if self._online.get(name, False):
                self._node_seconds += max(0.0, end_time - since)
        self._online_since = {
            name: end_time
            for name, up in self._online.items()
            if up
        }
        return self._node_seconds

    def _go_offline(self, name: str, now: float) -> None:
        if self._online.get(name, False):
            self._online[name] = False
            since = self._online_since.pop(name, 0.0)
            self._node_seconds += max(0.0, now - since)
