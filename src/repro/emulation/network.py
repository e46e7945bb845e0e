"""The emulator: replays a trace against a population of emulated nodes.

This is the paper's experimental environment (Section VI-A) in simulated
time: "Each DTN application instance represents a different device and is
paired with a Cimbiosys replica. Whenever a host sends a message, the DTN
application simply inserts the message into the sending host's replica.
During an encounter between two hosts, we performed two syncs between the
corresponding replicas, alternating the source and target roles."

What a run *is* — the event order, who hosts whom, which side syncs
first, what gets booked — is defined once, in :mod:`repro.emulation.engine`.
The emulator walks that schedule and performs each step on in-process
node objects:

* **reassignments** (day boundaries, first): each node's hosted-user set is
  replaced — filters change, relayed mail can become delivered mail;
* **lifecycle events** (churn only): a node arrives, leaves after a final
  hand-off sync, crashes, or restarts from durable state;
* **injections**: a user's message enters the replica of whichever node
  currently hosts the user;
* **encounters**: two syncs with alternating roles, optionally capped by
  the Figure 9 bandwidth constraint.

What only a simulation can do also lives here: fault injection, peer
health, and the global view that counts a message's copies network-wide.

Everything is deterministic given the trace, the workload, and ``seed``
(used only to pick which side of an encounter initiates first).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.faults import FaultConfig, FaultInjector
from repro.replication.events import EvictionCounter
from repro.replication.peer_health import PeerHealthTracker
from repro.replication.session import (
    EncounterSession,
    SessionConfig,
    monotone_knowledge,
)

from .encounters import Encounter, EncounterTrace
from .engine import (
    ASSIGN,
    ENCOUNTER,
    INJECT,
    LIFECYCLE,
    AssignmentSchedule,
    RunDirector,
    Step,
    build_schedule,
    end_time,
)
from .metrics import MetricsCollector
from .node import EmulatedNode


@dataclass(frozen=True)
class Injection:
    """A message the workload injects: who sends what to whom, when."""

    time: float
    source: str
    destination: str
    body: object = None


class Emulator:
    """Wires trace + workload + nodes together and runs to completion."""

    def __init__(
        self,
        trace: EncounterTrace,
        nodes: Mapping[str, EmulatedNode],
        injections: Sequence[Injection] = (),
        assignments: Optional[AssignmentSchedule] = None,
        bandwidth_limit: Optional[int] = None,
        seed: int = 0,
        faults: Optional[FaultConfig] = None,
        fault_seed: int = 0,
        churn: Optional["ChurnConfig"] = None,
        churn_schedule: Optional["ChurnSchedule"] = None,
    ) -> None:
        """Realism knobs beyond the paper's Figure 9/10 limits:

        * ``faults`` + ``fault_seed`` arm the :mod:`repro.faults`
          subsystem: encounter drops, mid-batch truncation, duplicated
          delivery, crash-restarts, and the adversarial channel models
          (payload corruption, malformed frames, frame replay, knowledge
          fabrication), with retry/backoff bookkeeping for interrupted
          pairs and per-peer health tracking (suspect/quarantine with
          jittered backoff and recovery probes). The injector draws from
          its *own* RNG seeded by ``fault_seed``, so arming faults never
          perturbs the base experiment's random draws.
        * ``churn`` arms the :mod:`repro.churn` lifecycle model: late
          arrivals, graceful leaves with a final handoff sync, abrupt
          crashes with checkpoint or amnesiac rejoin, free-riding
          behaviours, and reciprocity-gated encounter admission. The
          schedule is derived from ``(churn, trace)`` alone (pass
          ``churn_schedule`` to reuse an already-derived one); arming
          churn consumes none of the base experiment's random draws.
        """
        self.trace = trace
        self.nodes: Dict[str, EmulatedNode] = dict(nodes)
        self.injections = list(injections)
        self.bandwidth_limit = bandwidth_limit
        self._session_config = SessionConfig(max_items=bandwidth_limit)
        self.churn = churn if churn is not None and churn.enabled else None
        self.churn_schedule = None
        if self.churn is not None:
            # Imported lazily: repro.emulation.__init__ pulls this module
            # in, and repro.churn imports emulation submodules — a
            # top-level import here would close that cycle mid-init.
            from repro.churn.schedule import generate_churn_schedule

            self.churn_schedule = (
                churn_schedule
                if churn_schedule is not None
                else generate_churn_schedule(self.churn, trace)
            )
        self.director = RunDirector(
            self.nodes,
            assignments,
            self.churn,
            self.churn_schedule,
            seed=seed,
        )
        self.assignments = self.director.assignments
        self.metrics = self.director.metrics
        #: The simulated clock, in seconds: the time of the step being
        #: run, or where the last :meth:`advance` stopped.
        self.now = 0.0
        self._steps: Optional[List[Step]] = None
        self._cursor = 0
        self.fault_injector: Optional[FaultInjector] = (
            FaultInjector(faults, seed=fault_seed)
            if faults is not None and faults.enabled
            else None
        )
        #: Per-node peer-health trackers (observer name → tracker). Only
        #: armed alongside the fault injector: with a perfect channel no
        #: protocol violations can occur, and keeping the trackers out of
        #: the zero-fault path preserves byte-identical behaviour.
        self.peer_health: Dict[str, PeerHealthTracker] = {}
        if self.fault_injector is not None:
            for name in sorted(nodes):
                self.peer_health[name] = PeerHealthTracker(
                    # Stable across Python processes (unlike hash()) and
                    # decorrelated from the injector's stream.
                    seed=zlib.crc32(name.encode("utf-8"))
                    ^ (fault_seed & 0xFFFFFFFF),
                )

        missing = self.trace.hosts - self.nodes.keys()
        if missing:
            raise ValueError(f"trace references unknown nodes: {sorted(missing)}")

        self._evictions = EvictionCounter()
        for node in self.nodes.values():
            self._wire_node(node)

    def _wire_node(self, node: EmulatedNode) -> None:
        """Attach metrics plumbing to a (possibly freshly restarted) node."""
        node.replica.register_observer(self._evictions)
        node.app.on_delivery(
            lambda message, _node=node: self._on_delivery(_node, message)
        )

    # -- event handlers ----------------------------------------------------------

    def _apply_assignment(self, day: int) -> None:
        for name, users in self.director.begin_day(day).items():
            self.nodes[name].assign_addresses(users)

    def _inject(self, injection: Injection) -> None:
        node_name = self.director.sender_of(injection)
        if node_name is None:
            return
        node = self.nodes[node_name]
        message = node.send(
            injection.source,
            injection.destination,
            injection.body,
            now=self.now,
        )
        self.metrics.record_injection(
            message.message_id,
            injection.source,
            injection.destination,
            self.now,
            node_name,
        )
        if node.app.has_received(message.message_id):
            # Sender and recipient share a host: the message matched the
            # local filter at creation, before the injection was recorded.
            self.metrics.record_delivery(
                message.message_id,
                self.now,
                node_name,
                self.count_copies(message.message_id),
            )

    def _run_encounter(self, encounter: Encounter) -> None:
        roles = self.director.encounter_roles(encounter)
        if roles is None:
            return
        # The fault gates come after the director's: a faulty channel is
        # a property of this simulation, not of the run being executed.
        injector = self.fault_injector
        now = self.now
        if injector is not None:
            if not injector.encounter_allowed(encounter.a, encounter.b, now):
                self.metrics.record_skipped_encounter("backoff")
                return
            if not self._peers_willing(encounter.a, encounter.b, now):
                self.metrics.record_skipped_encounter("quarantine")
                return
            if injector.should_drop_encounter():
                self.metrics.record_skipped_encounter("drop")
                return
        transport_factory = (
            (
                lambda source_id, target_id: injector.transport(
                    source_id.name, target_id.name
                )
            )
            if injector is not None
            else None
        )
        stats = self._run_session(
            *roles,
            now,
            during="an encounter",
            config=self._session_config,
            transport_factory=transport_factory,
        )
        if injector is not None:
            interrupted = any(sync_stats.interrupted for sync_stats in stats)
            resumed = injector.note_encounter_outcome(
                encounter.a, encounter.b, now, interrupted
            )
            if resumed:
                self.metrics.record_resumed_pair()
            self._record_peer_outcomes(encounter, stats, now)
            for victim in injector.crash_victims((encounter.a, encounter.b)):
                self.restart_node(victim)

    def _apply_lifecycle(self, event) -> None:
        """Perform one scheduled lifecycle event (arrive/leave/crash/rejoin)."""
        node = self.nodes[event.node]
        if event.kind == "leave" and event.partner is not None:
            # The graceful leaver's final handoff sync, run while both
            # sides are still up (the schedule guarantees the partner's
            # availability) — deliberate, so it bypasses the fault and
            # reciprocity gates and has fixed roles: leaver first.
            self._run_handoff(event.node, event.partner, self.now)
        if event.kind == "rejoin":
            if event.amnesiac:
                node.amnesiac_restart()
            else:
                # The node object was frozen in place at crash time, so
                # a crash_restart *now* is exactly a reboot from the
                # checkpoint it would have written back then.
                node.crash_restart()
            self._wire_node(node)
        users = self.director.apply_lifecycle(event, self.now)
        if users is not None:
            node.assign_addresses(users)

    def _run_handoff(self, leaver: str, partner: str, now: float) -> None:
        """Two syncs between the leaver and its handoff partner."""
        self._run_session(leaver, partner, now, during="a handoff", handoff=True)

    def _run_session(
        self,
        first: str,
        second: str,
        now: float,
        during: str,
        handoff: bool = False,
        config: Optional[SessionConfig] = None,
        transport_factory=None,
    ) -> Sequence:
        """Two syncs, ``first`` sourcing the first, under the
        monotone-knowledge check; booked as the swarm books them."""
        source, target = self.nodes[first], self.nodes[second]
        with monotone_knowledge(source.replica, target.replica, during=during):
            stats = EncounterSession(
                first=source.endpoint,
                second=target.endpoint,
                now=now,
                config=config,
                transport_factory=transport_factory,
            ).run()
        self.director.book_encounter(first, second, stats, now, handoff=handoff)
        return stats

    def _peers_willing(self, a: str, b: str, now: float) -> bool:
        """Do both participants accept the encounter right now?

        Both trackers are consulted without short-circuiting: ``allowed``
        has the side effect of opening a recovery probe when a quarantine
        backoff expires, and that bookkeeping must advance symmetrically
        regardless of which side refuses.
        """
        if not self.peer_health:
            return True
        a_willing = self.peer_health[a].allowed(b, now)
        b_willing = self.peer_health[b].allowed(a, now)
        return a_willing and b_willing

    def _record_peer_outcomes(self, encounter, stats, now: float) -> None:
        """Feed each side's observed violations into its health tracker.

        Both directions are seeded at zero strikes so a clean encounter
        counts toward recovery even when no items flowed.
        """
        if not self.peer_health:
            return
        strikes: Dict[Tuple[str, str], int] = {
            (encounter.a, encounter.b): 0,
            (encounter.b, encounter.a): 0,
        }
        for sync_stats in stats:
            for violation in sync_stats.violations:
                key = (violation.observer, violation.peer)
                strikes[key] = strikes.get(key, 0) + 1
        for observer, peer in sorted(strikes):
            tracker = self.peer_health.get(observer)
            if tracker is None:
                continue
            transitions = tracker.record_outcome(
                peer, strikes[(observer, peer)], now
            )
            for label in transitions:
                self.metrics.record_health_transition(label)

    def restart_node(self, name: str) -> EmulatedNode:
        """Crash-restart one node and re-attach the emulator's plumbing.

        The node rebuilds itself from durable state
        (:meth:`EmulatedNode.crash_restart`); the fresh replica and app
        then need the metrics observer and delivery callback re-wired.
        """
        node = self.nodes[name]
        node.crash_restart()
        self._wire_node(node)
        self.metrics.record_crash()
        return node

    def _on_delivery(self, node: EmulatedNode, message) -> None:
        copies = self.count_copies(message.message_id)
        self.metrics.record_delivery(
            message.message_id, self.now, node.name, copies
        )

    # -- queries -----------------------------------------------------------------------

    def count_copies(self, item_id) -> int:
        """Live (non-tombstone) copies of a message stored network-wide."""
        return sum(1 for node in self.nodes.values() if node.holds_message(item_id))

    @property
    def skipped_injections(self) -> Sequence[Injection]:
        return tuple(self.director.skipped_injections)

    # -- orchestration -----------------------------------------------------------------------

    def advance(self, until: float) -> float:
        """Run, in schedule order, every step not yet run that is due by
        ``until``; returns the clock.

        Resumable: a later call picks up where this one stopped. The
        clock is moved on to ``until`` even when the last step ran
        earlier, so duration-based metrics line up. The evictions the
        steps caused are booked on return.
        """
        if self._steps is None:
            self._steps, _ = build_schedule(
                self.trace, self.injections, self.assignments, self.churn_schedule
            )
        perform = {
            ASSIGN: self._apply_assignment,
            LIFECYCLE: self._apply_lifecycle,
            INJECT: self._inject,
            ENCOUNTER: self._run_encounter,
        }
        steps = self._steps
        while self._cursor < len(steps) and steps[self._cursor].time <= until:
            step = steps[self._cursor]
            self._cursor += 1
            self.now = step.time
            perform[step.kind](step.event)
        self.now = max(self.now, until)
        self.metrics.record_evictions(self._evictions.drain())
        return self.now

    def run(self) -> MetricsCollector:
        """Run the whole emulation and finalise metrics."""
        self.advance(end_time(self.trace, self.assignments))
        self.director.finalize(self.now, self.count_copies)
        return self.metrics
