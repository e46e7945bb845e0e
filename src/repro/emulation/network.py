"""The emulator: replays a trace against a population of emulated nodes.

This is the paper's experimental environment (Section VI-A) in simulated
time: "Each DTN application instance represents a different device and is
paired with a Cimbiosys replica. Whenever a host sends a message, the DTN
application simply inserts the message into the sending host's replica.
During an encounter between two hosts, we performed two syncs between the
corresponding replicas, alternating the source and target roles."

The emulator schedules three event kinds on the discrete-event engine:

* **reassignments** (day boundaries, first): each node's hosted-user set is
  replaced — filters change, relayed mail can become delivered mail;
* **injections**: a user's message enters the replica of whichever node
  currently hosts the user;
* **encounters**: two syncs with alternating roles, optionally capped by
  the Figure 9 bandwidth constraint.

Everything is deterministic given the trace, the workload, and ``seed``
(used only to pick which side of an encounter initiates first).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Sequence, Tuple

from repro.faults import FaultConfig, FaultInjector
from repro.replication.events import BaseReplicaObserver
from repro.replication.items import Item
from repro.replication.peer_health import PeerHealthTracker
from repro.replication.session import (
    EncounterSession,
    SessionConfig,
    monotone_knowledge,
)

from .encounters import SECONDS_PER_DAY, Encounter, EncounterTrace
from .engine import EventPriority, SimulationEngine
from .metrics import MetricsCollector
from .node import EmulatedNode


@dataclass(frozen=True)
class Injection:
    """A message the workload injects: who sends what to whom, when."""

    time: float
    source: str
    destination: str
    body: object = None


#: day → node name → user addresses hosted that day.
AssignmentSchedule = Mapping[int, Mapping[str, FrozenSet[str]]]


class _EvictionCounter(BaseReplicaObserver):
    def __init__(self, metrics: MetricsCollector) -> None:
        self._metrics = metrics

    def on_evict(self, item: Item) -> None:
        self._metrics.record_eviction()


class Emulator:
    """Wires trace + workload + nodes together and runs to completion."""

    def __init__(
        self,
        trace: EncounterTrace,
        nodes: Mapping[str, EmulatedNode],
        injections: Sequence[Injection] = (),
        assignments: Optional[AssignmentSchedule] = None,
        bandwidth_limit: Optional[int] = None,
        messages_per_second: Optional[float] = None,
        sync_failure_probability: float = 0.0,
        seed: int = 0,
        metrics: Optional[MetricsCollector] = None,
        faults: Optional[FaultConfig] = None,
        fault_seed: int = 0,
        churn: Optional["ChurnConfig"] = None,
        churn_schedule: Optional["ChurnSchedule"] = None,
    ) -> None:
        """Realism knobs beyond the paper's Figure 9/10 limits:

        * ``messages_per_second`` derives a per-encounter transfer budget
          from the encounter's radio-contact ``duration`` (encounters
          without a recorded duration stay unlimited); it composes with
          ``bandwidth_limit`` by taking the tighter of the two.
        * ``sync_failure_probability`` drops whole encounters at random
          (the radio contact happened but no sync completed), seeded and
          deterministic. The substrate's crash-safety makes this purely a
          performance effect, never a correctness one.
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
        if not 0.0 <= sync_failure_probability <= 1.0:
            raise ValueError("sync_failure_probability must be in [0, 1]")
        if messages_per_second is not None and messages_per_second <= 0:
            raise ValueError("messages_per_second must be positive")
        self.trace = trace
        self.nodes: Dict[str, EmulatedNode] = dict(nodes)
        self.injections = list(injections)
        self.assignments = dict(assignments or {})
        self.bandwidth_limit = bandwidth_limit
        self.messages_per_second = messages_per_second
        self.sync_failure_probability = sync_failure_probability
        self.failed_encounters = 0
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self.engine = SimulationEngine()
        self._rng = random.Random(seed)
        self._user_location: Dict[str, str] = {}
        self._current_day_map: Mapping[str, FrozenSet[str]] = {}
        self._skipped_injections: list[Injection] = []
        # Churn wiring (imported lazily: repro.emulation.__init__ pulls
        # this module in, and repro.churn imports emulation submodules —
        # a top-level import here would close that cycle mid-init).
        self.churn = churn if churn is not None and churn.enabled else None
        self.churn_schedule = None
        self.lifecycle = None
        self.reciprocity = None
        if self.churn is not None:
            from repro.churn.lifecycle import LifecycleTracker
            from repro.churn.schedule import generate_churn_schedule
            from repro.churn.trust import ReciprocityLedger

            self.churn_schedule = (
                churn_schedule
                if churn_schedule is not None
                else generate_churn_schedule(self.churn, trace)
            )
            self.lifecycle = LifecycleTracker(
                sorted(self.nodes), self.churn_schedule
            )
            self.reciprocity = ReciprocityLedger(
                sorted(self.nodes),
                threshold=self.churn.reciprocity_threshold,
                min_taken=self.churn.reciprocity_min_taken,
            )
            self.metrics.arm_churn()
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
            assert faults is not None
            for name in sorted(nodes):
                self.peer_health[name] = PeerHealthTracker(
                    suspect_threshold=faults.suspect_threshold,
                    quarantine_threshold=faults.quarantine_threshold,
                    backoff_base=faults.quarantine_backoff_base,
                    backoff_factor=faults.quarantine_backoff_factor,
                    backoff_max=faults.quarantine_backoff_max,
                    jitter=faults.quarantine_jitter,
                    recovery_probes=faults.recovery_probes,
                    # Stable across Python processes (unlike hash()) and
                    # decorrelated from the injector's stream.
                    seed=zlib.crc32(name.encode("utf-8"))
                    ^ (fault_seed & 0xFFFFFFFF),
                )

        missing = self.trace.hosts - self.nodes.keys()
        if missing:
            raise ValueError(f"trace references unknown nodes: {sorted(missing)}")

        self._eviction_counter = _EvictionCounter(self.metrics)
        for node in self.nodes.values():
            self._wire_node(node)

    def _wire_node(self, node: EmulatedNode) -> None:
        """Attach metrics plumbing to a (possibly freshly restarted) node."""
        node.replica.register_observer(self._eviction_counter)
        node.app.on_delivery(
            lambda message, _node=node: self._on_delivery(_node, message)
        )

    # -- event handlers ----------------------------------------------------------

    def _apply_assignment(self, day: int) -> None:
        day_map = self.assignments.get(day, {})
        self._current_day_map = day_map
        for name, node in self.nodes.items():
            if self.lifecycle is not None and not self.lifecycle.online(name):
                # Offline nodes keep their crash-time filter: their next
                # restart restores exactly the persisted state, and the
                # current day map is re-applied at rejoin time.
                continue
            users = frozenset(day_map.get(name, frozenset()))
            node.assign_addresses(users)
        self._user_location = {
            user: name
            for name, users in day_map.items()
            for user in users
            if self.lifecycle is None or self.lifecycle.online(name)
        }

    def _inject(self, injection: Injection) -> None:
        # The source may name a node directly (bus-addressed workloads) or
        # a user, resolved through the current assignment.
        if injection.source in self.nodes:
            node_name = injection.source
        else:
            node_name = self._user_location.get(injection.source)
        if node_name is None:
            # The sender's user is not riding any bus right now; the
            # workload layer avoids this, but record rather than crash.
            self._skipped_injections.append(injection)
            return
        if self.lifecycle is not None and not self.lifecycle.online(node_name):
            # The sending node is down: the message is never born (its
            # app is not running), which is a real churn cost — counted,
            # not silently dropped.
            self.metrics.record_churn_lost_injection()
            return
        node = self.nodes[node_name]
        message = node.send(
            injection.source,
            injection.destination,
            injection.body,
            now=self.engine.now,
        )
        self.metrics.record_injection(
            message.message_id,
            injection.source,
            injection.destination,
            self.engine.now,
            node_name,
        )
        if node.app.has_received(message.message_id):
            # Sender and recipient share a host: the message matched the
            # local filter at creation, before the injection was recorded.
            self.metrics.record_delivery(
                message.message_id,
                self.engine.now,
                node_name,
                self.count_copies(message.message_id),
            )

    def _encounter_budget(self, encounter: Encounter) -> Optional[int]:
        """The transfer budget for one encounter: the tighter of the flat
        Figure 9 cap and the duration-derived capacity."""
        budget = self.bandwidth_limit
        if self.messages_per_second is not None and encounter.duration > 0:
            by_duration = max(
                1, int(encounter.duration * self.messages_per_second)
            )
            budget = by_duration if budget is None else min(budget, by_duration)
        return budget

    def _run_encounter(self, encounter: Encounter) -> None:
        order = self._rng.random() < 0.5
        if (
            self.sync_failure_probability > 0.0
            and self._rng.random() < self.sync_failure_probability
        ):
            self.failed_encounters += 1
            return
        # Churn gating comes *after* the base draws above: the coin and
        # failure draw are consumed for every trace encounter in both
        # execution modes (the swarm pre-draws them in schedule order),
        # so skipping an encounter must not skip its draws.
        if self.lifecycle is not None:
            a_online = self.lifecycle.online(encounter.a)
            b_online = self.lifecycle.online(encounter.b)
            if not (a_online and b_online):
                self.metrics.record_churn_skip()
                return
            assert self.reciprocity is not None
            if not self.reciprocity.admit(encounter.a, encounter.b):
                self.metrics.record_reciprocity_refusal()
                return
        injector = self.fault_injector
        now = self.engine.now
        if injector is not None:
            if not injector.encounter_allowed(encounter.a, encounter.b, now):
                self.metrics.record_backoff_skip()
                return
            if not self._peers_willing(encounter.a, encounter.b, now):
                self.metrics.record_quarantine_skip()
                return
            if injector.should_drop_encounter(encounter.a, encounter.b):
                self.failed_encounters += 1
                self.metrics.record_dropped_encounter()
                return
        node_a = self.nodes[encounter.a]
        node_b = self.nodes[encounter.b]
        first, second = (node_a, node_b) if order else (node_b, node_a)
        transport_factory = (
            (
                lambda source_id, target_id: injector.transport(
                    source_id.name, target_id.name
                )
            )
            if injector is not None
            else None
        )
        with monotone_knowledge(
            node_a.replica, node_b.replica, during="an encounter"
        ):
            stats = EncounterSession(
                first=first.endpoint,
                second=second.endpoint,
                now=now,
                config=SessionConfig(
                    max_items=self._encounter_budget(encounter)
                ),
                transport_factory=transport_factory,
            ).run()
        self.metrics.record_encounter()
        self._observe_syncs(encounter.a, encounter.b, stats, now)
        if injector is not None:
            interrupted = any(sync_stats.interrupted for sync_stats in stats)
            resumed = injector.note_encounter_outcome(
                encounter.a, encounter.b, now, interrupted
            )
            if resumed:
                self.metrics.record_resumed_pair()
        for sync_stats in stats:
            self.metrics.record_sync(sync_stats)
        if injector is not None:
            self._record_peer_outcomes(encounter, stats, now)
            for victim in injector.crash_victims((encounter.a, encounter.b)):
                self.restart_node(victim)

    def _observe_syncs(self, a: str, b: str, stats, now: float) -> None:
        """Feed one completed encounter into the churn bookkeeping."""
        if self.lifecycle is None:
            return
        self.lifecycle.note_encounter(a, b, now, self.metrics)
        assert self.reciprocity is not None
        for sync_stats in stats:
            self.reciprocity.observe_sync(
                sync_stats.source.name, sync_stats.target.name,
                sync_stats.sent_total,
            )

    def _apply_lifecycle(self, event) -> None:
        """Apply one scheduled lifecycle event (arrive/leave/crash/rejoin)."""
        assert self.lifecycle is not None
        now = self.engine.now
        name = event.node
        node = self.nodes[name]
        if event.kind == "leave" and event.partner is not None:
            # The graceful leaver's final handoff sync, run while both
            # sides are still up (the schedule guarantees the partner's
            # availability) — deliberate, so it bypasses the fault and
            # reciprocity gates and has fixed roles: leaver first.
            self._run_handoff(name, event.partner, now)
        if event.kind in ("leave", "crash"):
            for user in node.assigned_addresses:
                if self._user_location.get(user) == name:
                    del self._user_location[user]
        if event.kind == "rejoin":
            if event.amnesiac:
                node.amnesiac_restart()
            else:
                # The node object was frozen in place at crash time, so
                # a crash_restart *now* is exactly a reboot from the
                # checkpoint it would have written back then.
                node.crash_restart()
            self._wire_node(node)
        self.lifecycle.apply(event, now, self.metrics)
        if event.kind in ("arrive", "rejoin"):
            users = frozenset(self._current_day_map.get(name, frozenset()))
            node.assign_addresses(users)
            for user in users:
                self._user_location[user] = name

    def _run_handoff(self, leaver: str, partner: str, now: float) -> None:
        """Two syncs between the leaver and its handoff partner."""
        first = self.nodes[leaver]
        second = self.nodes[partner]
        with monotone_knowledge(
            first.replica, second.replica, during="a handoff"
        ):
            stats = EncounterSession(
                first=first.endpoint,
                second=second.endpoint,
                now=now,
            ).run()
        self.metrics.record_encounter()
        self.metrics.record_churn_handoff()
        self._observe_syncs(leaver, partner, stats, now)
        for sync_stats in stats:
            self.metrics.record_sync(sync_stats)

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
            message.message_id, self.engine.now, node.name, copies
        )

    # -- queries -----------------------------------------------------------------------

    def count_copies(self, item_id) -> int:
        """Live (non-tombstone) copies of a message stored network-wide."""
        return sum(1 for node in self.nodes.values() if node.holds_message(item_id))

    @property
    def skipped_injections(self) -> Sequence[Injection]:
        return tuple(self._skipped_injections)

    def user_location(self, user: str) -> Optional[str]:
        return self._user_location.get(user)

    # -- orchestration -----------------------------------------------------------------------

    def schedule_all(self, extra_days: int = 0) -> float:
        """Queue every event; returns the simulation end time."""
        last_day = max(
            [encounter.day for encounter in self.trace]
            + list(self.assignments.keys())
            + [0],
        )
        end_time = (last_day + 1 + extra_days) * SECONDS_PER_DAY
        for day in sorted(self.assignments):
            self.engine.schedule(
                day * SECONDS_PER_DAY,
                lambda _day=day: self._apply_assignment(_day),
                EventPriority.CONTROL,
            )
        if self.churn_schedule is not None:
            for event in self.churn_schedule.events:
                self.engine.schedule(
                    event.time,
                    lambda _event=event: self._apply_lifecycle(_event),
                    EventPriority.CONTROL,
                )
        for injection in self.injections:
            self.engine.schedule(
                injection.time,
                lambda _injection=injection: self._inject(_injection),
                EventPriority.INJECT,
            )
        for encounter in self.trace:
            self.engine.schedule(
                encounter.time,
                lambda _encounter=encounter: self._run_encounter(_encounter),
                EventPriority.ENCOUNTER,
            )
        return end_time

    def run(self, extra_days: int = 0) -> MetricsCollector:
        """Run the whole emulation and finalise metrics."""
        end_time = self.schedule_all(extra_days=extra_days)
        self.engine.run(until=end_time)
        self.finalize()
        return self.metrics

    def finalize(self) -> None:
        """Stamp end-of-experiment state (copy counts) into the metrics."""
        self.metrics.end_time = self.engine.now
        for record in self.metrics.records.values():
            record.copies_at_end = self.count_copies(record.message_id)
        if self.lifecycle is not None:
            assert self.reciprocity is not None
            node_seconds = self.lifecycle.finalize(self.engine.now)
            self.metrics.finalize_churn(
                node_seconds,
                self.lifecycle.departed,
                self.reciprocity.scores(),
            )
