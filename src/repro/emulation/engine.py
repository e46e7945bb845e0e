"""What a run is: the event schedule and the run director.

The paper defines its experiment once (Section VI-A); this module is
that definition, free of any node, socket or process. The object
emulator (:mod:`repro.emulation.network`) performs each step as object
calls, the live swarm (:mod:`repro.net.swarm`) as awaited directives.

* :func:`build_schedule` fixes the **event order**. Experiments must be
  exactly reproducible from a seed, so ties are broken explicitly: steps
  run in ``(time, band, sequence)`` order, the band guaranteeing e.g.
  that a day's user reassignment precedes any encounter at its instant.
* :class:`RunDirector` owns every **decision and booking** around a step;
  an executor asks, performs the physical act, and reports back. It
  books through the collector's event methods
  (:class:`~repro.emulation.metrics.MetricsCollector`), which alone
  write a counter.

The columnar engine (:mod:`repro.emulation.columnar`) keeps its own
loop, a slice of the trace columns per gap between injections — a step
object per encounter is what it exists to avoid — and shares
:func:`end_time`, :func:`order_coins` and the collector's event methods.
"""

from __future__ import annotations

import random
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from .encounters import SECONDS_PER_DAY, Encounter, EncounterTrace
from .metrics import ChurnCounts, MetricsCollector

if TYPE_CHECKING:
    from repro.churn import ChurnConfig, ChurnSchedule, LifecycleEvent
    from repro.replication.ids import ItemId
    from repro.replication.sync import SyncStats

    from .network import Injection

#: day → node name → user addresses hosted that day.
AssignmentSchedule = Mapping[int, Mapping[str, FrozenSet[str]]]

#: Step kinds; a step's ``event`` is the day number, the ``LifecycleEvent``,
#: the ``Injection`` or the ``Encounter`` respectively.
ASSIGN = "assign"
LIFECYCLE = "lifecycle"
INJECT = "inject"
ENCOUNTER = "encounter"

#: Same-timestamp ordering bands (lower runs first): control (day
#: reassignments, then lifecycle events) < injections < encounters.
BAND = {ASSIGN: 0, LIFECYCLE: 0, INJECT: 1, ENCOUNTER: 2}


class Step(NamedTuple):
    """One scheduled event: when, which kind, and the domain object."""

    time: float
    kind: str
    event: Any


def order_coins(seed: int) -> Iterator[bool]:
    """One coin per trace encounter, True when its ``a`` sources the first
    sync (``random() < 0.5``); both engines order encounters by it."""
    return map((0.5).__gt__, iter(random.Random(seed).random, None))


def end_time(
    trace: EncounterTrace,
    assignments: Optional[AssignmentSchedule] = None,
) -> float:
    """When a run ends: the close of the last day that has an encounter
    or a reassignment (day 0's if there is neither)."""
    last_assignment_day = max(assignments or (), default=0)
    return max(trace.duration, (last_assignment_day + 1) * SECONDS_PER_DAY)


def build_schedule(
    trace: EncounterTrace,
    injections: Sequence["Injection"] = (),
    assignments: Optional[AssignmentSchedule] = None,
    churn_schedule: Optional["ChurnSchedule"] = None,
) -> Tuple[List[Step], float]:
    """Every step of a run in execution order, plus the run's end time.

    Sequence — the tie-break inside one ``(time, band)`` — is day
    assignments by day, then lifecycle events in schedule order, then
    injections in workload order, then encounters in trace order. An
    executor runs no step later than the end time.
    """
    steps = [
        Step(day * SECONDS_PER_DAY, ASSIGN, day)
        for day in sorted(assignments or ())
    ]
    if churn_schedule is not None:
        steps += [Step(event.time, LIFECYCLE, event) for event in churn_schedule.events]
    steps += [Step(injection.time, INJECT, injection) for injection in injections]
    steps += [Step(encounter.time, ENCOUNTER, encounter) for encounter in trace]
    # The sort is stable: steps equal on (time, band) keep the sequence
    # order they were appended in.
    steps.sort(key=lambda step: (step.time, BAND[step.kind]))
    return steps, end_time(trace, assignments)


class RunDirector:
    """The decisions and the bookkeeping of one run, free of any IO.

    Owns the run's collector, the user → node view, the encounter-order
    coin and — when churn is armed — the lifecycle tracker and the
    reciprocity ledger. Its methods decide and book but never touch a
    node or a process: the emulator's and the live swarm's metrics are
    identical by construction, not by two engines kept in step.
    """

    def __init__(
        self,
        nodes: Iterable[str],
        assignments: Optional[AssignmentSchedule] = None,
        churn: Optional["ChurnConfig"] = None,
        churn_schedule: Optional["ChurnSchedule"] = None,
        seed: int = 0,
    ) -> None:
        #: Node names in the executor's order (a dict: cheap membership).
        self.nodes: Dict[str, None] = dict.fromkeys(nodes)
        self.assignments = dict(assignments or {})
        # A churning run's collector carries a churn block.
        self.metrics = MetricsCollector(
            churn=None if churn_schedule is None else ChurnCounts()
        )
        self.skipped_injections: List["Injection"] = []
        self._orders = order_coins(seed)
        self._user_location: Dict[str, str] = {}
        self._current_day_map: Mapping[str, FrozenSet[str]] = {}
        self.lifecycle = None
        self.reciprocity = None
        if churn_schedule is not None:
            # Imported lazily: repro.emulation.__init__ pulls this module
            # in, and repro.churn imports emulation submodules — a
            # top-level import here would close that cycle mid-init.
            from repro.churn import LifecycleTracker, ReciprocityLedger

            assert churn is not None
            self.lifecycle = LifecycleTracker(sorted(self.nodes), churn_schedule)
            self.reciprocity = ReciprocityLedger(
                sorted(self.nodes), threshold=churn.reciprocity_threshold
            )

    def online(self, name: str) -> bool:
        return self.lifecycle is None or self.lifecycle.online(name)

    # -- day boundaries ------------------------------------------------------------

    def begin_day(self, day: int) -> Dict[str, FrozenSet[str]]:
        """Re-deal users at a day boundary: the user set of every online node.

        Offline nodes are left out — they keep their crash-time filter
        (their next restart restores exactly the persisted state) and get
        the current day's users when they rejoin.
        """
        day_map = self.assignments.get(day, {})
        self._current_day_map = day_map
        self._user_location = {
            user: name
            for name, users in day_map.items()
            for user in users
            if self.online(name)
        }
        return {
            name: frozenset(day_map.get(name, ()))
            for name in self.nodes
            if self.online(name)
        }

    # -- injections ----------------------------------------------------------------

    def sender_of(self, injection: "Injection") -> Optional[str]:
        """The node that authors ``injection``, or None when nobody does.

        The source may name a node directly (bus-addressed workloads) or
        a user, resolved through the current assignment.
        """
        if injection.source in self.nodes:
            name: Optional[str] = injection.source
        else:
            name = self._user_location.get(injection.source)
        if name is None:
            # The sender's user is not riding any bus right now; the
            # workload layer avoids this, but record rather than crash.
            self.skipped_injections.append(injection)
            return None
        if not self.online(name):
            # The sending node is down: the message is never born (its
            # app is not running), which is a real churn cost — counted,
            # not silently dropped.
            self.metrics.record_lost_injection()
            return None
        return name

    # -- encounters ----------------------------------------------------------------

    def encounter_roles(self, encounter: Encounter) -> Optional[Tuple[str, str]]:
        """``(first, second)`` — ``first`` sources the first sync — or None
        when the encounter does not happen (a churn skip or refusal,
        counted in the collector).

        The coin is drawn for *every* trace encounter before any gate, so
        a skipped encounter never shifts the draws of the ones after it.
        """
        order = next(self._orders)
        a, b = encounter.a, encounter.b
        if self.lifecycle is not None:
            if not (self.lifecycle.online(a) and self.lifecycle.online(b)):
                self.metrics.record_skipped_encounter("offline")
                return None
            if not self.reciprocity.admit(a, b):
                self.metrics.record_skipped_encounter("reciprocity")
                return None
        return (a, b) if order else (b, a)

    def book_encounter(
        self,
        a: str,
        b: str,
        stats: Sequence["SyncStats"],
        now: float,
        handoff: bool = False,
    ) -> None:
        """Book one finished encounter — or a graceful leaver's hand-off
        to its partner — from the stats of its syncs."""
        self.metrics.record_encounter(handoff)
        if self.lifecycle is not None:
            for latency in self.lifecycle.note_encounter(a, b, now):
                self.metrics.record_rejoin_recovery(latency)
            for sync_stats in stats:
                self.reciprocity.observe_sync(
                    sync_stats.source.name,
                    sync_stats.target.name,
                    sync_stats.sent_total,
                )
        for sync_stats in stats:
            self.metrics.record_sync(sync_stats)

    # -- lifecycle -----------------------------------------------------------------

    def apply_lifecycle(
        self, event: "LifecycleEvent", now: float
    ) -> Optional[FrozenSet[str]]:
        """Book a lifecycle event once the executor has performed it.

        A node that left or crashed stops hosting its users; one that
        arrived or rejoined hosts the current day's — returned, for the
        executor to assign (None for a node that went down).
        """
        name = event.node
        users = frozenset(self._current_day_map.get(name, ()))
        self.lifecycle.apply(event, now)
        self.metrics.record_lifecycle(event.kind, event.amnesiac)
        if event.kind in ("leave", "crash"):
            for user in users:
                if self._user_location.get(user) == name:
                    del self._user_location[user]
            return None
        for user in users:
            self._user_location[user] = name
        return users

    # -- end of run ----------------------------------------------------------------

    def finalize(self, now: float, copies: Callable[["ItemId"], int]) -> None:
        """Book the end of the run — ``copies(message_id)`` counts a
        message's live copies network-wide — and close the churn accounts."""
        self.metrics.record_end(now, copies)
        if self.lifecycle is not None:
            self.metrics.finalize_churn(
                self.lifecycle.finalize(now),
                self.lifecycle.departed,
                self.reciprocity.scores(),
            )
