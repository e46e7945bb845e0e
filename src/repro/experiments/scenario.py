"""Canonical scenario construction: config → ready-to-run emulator.

Builds the paper's experimental scenario from an
:class:`~repro.experiments.config.ExperimentConfig`:

1. generate (or accept) the DieselNet-like encounter trace;
2. generate the Enron-like communication model and the daily user→bus
   assignments;
3. build the injection schedule (490 messages over the first 8 days);
4. create one emulated node per bus, with the configured routing policy,
   filter strategy, and storage constraint;
5. wire everything into an :class:`~repro.emulation.network.Emulator`.

Steps 1–3, the per-host relay sets and the churn schedule are the run's
*inputs* (:func:`build_inputs`): every executor starts from them.
:func:`build_scenario` adds every node and the emulator; the columnar
engine and the swarm orchestrator build no node, a ``repro serve``
process only its own (:func:`build_node`).

Two addressing modes are supported (``config.addressing``):

* **bus** (the paper's model, default): a message between two users is
  authored at the sender's bus-of-the-day and *addressed to the
  recipient's bus-of-the-day*; bus filters are static. The Figure 5/6
  filter strategies operate on bus addresses — ``selected`` picks "the k
  other hosts that a given host will encounter most in the trace",
  verbatim from the paper.
* **user**: messages are addressed to user addresses; the daily
  assignment schedule is applied to node filters, so relayed mail is
  delivered the moment its recipient boards a bus already carrying it.
  This exercises the substrate's dynamic-filter machinery; the ``selected``
  strategy then ranks *users* by expected meetings.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import compress, count, islice
from typing import Dict, FrozenSet, List, Optional, Sequence

from repro.churn import ChurnSchedule, generate_churn_schedule
from repro.dtn.registry import get_policy
from repro.emulation.encounters import SECONDS_PER_DAY, EncounterTrace
from repro.emulation.network import Emulator, Injection
from repro.emulation.node import EmulatedNode
from repro.traces.dieselnet import DieselNetConfig, generate_dieselnet_trace
from repro.traces.enron import EmailWorkloadModel, generate_enron_model
from repro.traces.mapping import AssignmentSchedule, assign_users_daily
from repro.traces.workload import WorkloadConfig, build_injection_schedule

from .config import ExperimentConfig


@dataclass
class ScenarioInputs:
    """What a run starts from, whichever executor performs it."""

    config: ExperimentConfig
    trace: EncounterTrace
    model: EmailWorkloadModel
    assignments: AssignmentSchedule
    injections: List[Injection]
    #: Host → its Figure 5/6 static relay addresses; a host left out
    #: (every host, under the ``self`` strategy) relays for nobody.
    relay_sets: Dict[str, FrozenSet[str]]
    #: Lifecycle schedule when churn is armed, else None. Derived here
    #: (not inside an executor) so the emulator, the orchestrator and
    #: every node server agree on the same arrivals/crashes/rejoins.
    churn_schedule: Optional[ChurnSchedule]

    @property
    def reassignments(self) -> Optional[AssignmentSchedule]:
        """The day-boundary reassignment events of the run.

        In bus mode filters are static; the assignment schedule only
        shaped the workload, so a run has no reassignment events.
        """
        return self.assignments if self.config.addressing == "user" else None


@dataclass
class Scenario(ScenarioInputs):
    """Everything needed to run (and re-run) one experiment on the object
    engine: the inputs, a node per host, and the emulator over them."""

    nodes: Dict[str, EmulatedNode]
    emulator: Emulator


def expected_user_meetings(
    trace: EncounterTrace, assignments: AssignmentSchedule, host: str
) -> Dict[str, int]:
    """For each user, how often ``host`` meets the bus carrying that user.

    The ``selected`` filter strategy's oracle in *user* addressing mode:
    encounters between ``host`` and the user's daily bus, summed over the
    trace; ``host``'s rows are found in C and no per-day trace is built.
    """
    names = trace.host_names
    me = bisect_left(names, host)
    if names[me : me + 1] != (host,):
        return {}
    by_day: Dict[int, Counter] = {}
    for mine, theirs in ((trace.a, trace.b), (trace.b, trace.a)):
        for row in compress(count(), map(me.__eq__, mine)):
            day = int(trace.times[row] // SECONDS_PER_DAY)
            by_day.setdefault(day, Counter())[names[theirs[row]]] += 1
    totals: Counter = Counter()
    for day, day_assignments in assignments.items():
        day_counts = by_day.get(day)
        if not day_counts:
            continue
        for bus, users in day_assignments.items():
            meetings = day_counts.get(bus, 0)
            if meetings:
                for user in users:
                    totals[user] += meetings
    return dict(totals)


def _bus_relay_sets(
    config: ExperimentConfig, trace: EncounterTrace, rng: random.Random
) -> Dict[str, FrozenSet[str]]:
    """Figure 5/6 relay sets in bus addressing mode, one per host.

    ``random`` samples positions among a host's n - 1 others, skipping its
    own: ``rng.sample`` reads only length and positions, so this draws what
    a list of the others drew. ``selected`` ranks the hosts this one meets
    by ``(-count, id)`` (ids follow names), then those it never meets."""
    names = trace.host_names
    k = min(config.filter_k, len(names) - 1)
    if config.filter_strategy == "random":
        others = range(len(names) - 1)
        return {
            host: frozenset(names[i + (i >= me)] for i in rng.sample(others, k))
            for me, host in enumerate(names)
        }
    # Every host's partner in each of its encounters: the trace read once.
    partners = [array("i") for _ in names]
    for a, b in zip(trace.a, trace.b):
        partners[a].append(b)
        partners[b].append(a)
    relay_sets = {}
    for me, host in enumerate(names):
        counts = Counter(partners[me])
        picked = sorted(counts, key=lambda other: (-counts[other], other))[:k]
        strangers = (i for i in range(len(names)) if i != me and i not in counts)
        picked.extend(islice(strangers, k - len(picked)))
        relay_sets[host] = frozenset(map(names.__getitem__, picked))
    return relay_sets


def _user_relay_addresses(
    host: str,
    config: ExperimentConfig,
    trace: EncounterTrace,
    assignments: AssignmentSchedule,
    all_users: Sequence[str],
    rng: random.Random,
) -> frozenset:
    """Figure 5/6 relay sets in user addressing mode."""
    k = min(config.filter_k, len(all_users))
    if config.filter_strategy == "random":
        return frozenset(rng.sample(list(all_users), k))
    meetings = expected_user_meetings(trace, assignments, host)
    ranked = sorted(all_users, key=lambda user: (-meetings.get(user, 0), user))
    return frozenset(ranked[:k])


def build_inputs(
    config: ExperimentConfig,
    trace: Optional[EncounterTrace] = None,
    model: Optional[EmailWorkloadModel] = None,
) -> ScenarioInputs:
    """Derive the inputs of the run ``config`` describes.

    A pre-built ``trace`` (e.g. parsed from real DieselNet data) and/or
    e-mail ``model`` (e.g. the real Enron pair list) may be supplied;
    otherwise the synthetic generators are used at the config's scale.
    """
    if trace is None:
        trace = generate_dieselnet_trace(
            DieselNetConfig(seed=config.trace_seed, scale=config.scale)
        )
    if model is None:
        model = generate_enron_model(
            n_users=config.effective_users, seed=config.email_seed
        )
    users = list(model.users)
    assignments = assign_users_daily(trace, users, seed=config.assignment_seed)
    injections = build_injection_schedule(
        model,
        assignments,
        WorkloadConfig(
            target_total=config.effective_messages,
            injection_days=config.injection_days,
            seed=config.workload_seed,
            addressing=config.addressing,
        ),
    )

    relay_sets: Dict[str, FrozenSet[str]] = {}
    if config.filter_strategy != "self" and config.filter_k != 0:
        # One rng, drawn in sorted-host order, whoever asks for the sets.
        filter_rng = random.Random(config.filter_seed)
        if config.addressing == "bus":
            relay_sets = _bus_relay_sets(config, trace, filter_rng)
        else:
            for host in trace.host_names:
                relay_sets[host] = _user_relay_addresses(
                    host, config, trace, assignments, users, filter_rng
                )

    churn = config.churn
    return ScenarioInputs(
        config=config,
        trace=trace,
        model=model,
        assignments=assignments,
        injections=injections,
        relay_sets=relay_sets,
        churn_schedule=(
            generate_churn_schedule(churn, trace)
            if churn is not None and churn.enabled
            else None
        ),
    )


def build_node(
    config: ExperimentConfig, inputs: ScenarioInputs, host: str
) -> EmulatedNode:
    """The emulated node for one host of ``inputs.trace``.

    A free rider routes with the same policy as every other node and
    differs only in serving nothing: its sync endpoint serves at most
    zero items.
    """
    schedule = inputs.churn_schedule
    free_rider = schedule is not None and host in schedule.free_riders
    # Names resolve through the registry; the policy classes' own
    # defaults are the Table II values.
    factory = partial(get_policy, config.policy, **config.policy_parameters)
    return EmulatedNode(
        name=host,
        policy=factory(),
        relay_capacity=config.storage_limit,
        relay_eviction=config.eviction_strategy,
        static_relay_addresses=inputs.relay_sets.get(host, frozenset()),
        delete_on_receipt=config.delete_on_receipt,
        policy_factory=factory,
        serves_at_most=0 if free_rider else None,
    )


def build_scenario(
    config: ExperimentConfig,
    trace: Optional[EncounterTrace] = None,
    model: Optional[EmailWorkloadModel] = None,
) -> Scenario:
    """Construct the full scenario for ``config``: its inputs
    (:func:`build_inputs`), every node, and the emulator over them."""
    inputs = build_inputs(config, trace, model)
    nodes = {
        host: build_node(config, inputs, host)
        for host in inputs.trace.host_names
    }
    emulator = Emulator(
        trace=inputs.trace,
        nodes=nodes,
        injections=inputs.injections,
        assignments=inputs.reassignments,
        bandwidth_limit=config.bandwidth_limit,
        seed=config.encounter_order_seed,
        faults=config.faults,
        fault_seed=config.fault_seed,
        churn=config.churn,
        churn_schedule=inputs.churn_schedule,
    )
    return Scenario(**vars(inputs), nodes=nodes, emulator=emulator)
