"""Convergence parity: the emulator and a live swarm must agree.

The live transport (:mod:`repro.net`) is only trustworthy if a trace
replayed against real processes reaches exactly the replication fixed
point the discrete-event emulator computes — same per-node holdings, same
per-node knowledge. This module defines that fixed point and the
comparison:

* :func:`replica_fixed_point` — a canonical, JSON-safe digest of one
  replica's converged state: its knowledge vector plus the content of all
  three stores (in-filter, outbox, relay), each item in its canonical
  wire encoding, in item-id order;
* :func:`fixed_point_cut` / :func:`fixed_point_text` — the same digest as
  canonical JSON text, one piece per item, from a cut taken once, so a
  node can write it without building it;
* :func:`emulator_fixed_points` — run a config through
  :func:`~repro.experiments.runner.run_experiment`'s machinery and
  snapshot every node;
* :func:`compare_fixed_points` / :class:`ParityReport` — the per-node
  diff, with enough detail to debug a divergence;
* :func:`check_convergence_parity` — the full harness: same config
  through the emulator and through a live unix-socket swarm, compared.

The fixed point deliberately covers *replicated* state only. Caches,
suppression ledgers, and metrics counters are implementation detail and
may legitimately differ (the live path, for instance, stamps checksums
where the emulator's perfect channel does not).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

from repro.emulation.network import Emulator
from repro.replication.codec import encode_item, encode_knowledge
from repro.replication.items import Item
from repro.replication.persistence import STORE_KEYS, replica_stores
from repro.replication.replica import Replica

from .config import ExperimentConfig
from .scenario import build_inputs, build_scenario
from .store import canonical_json


#: What a fixed point is made of: the encoded knowledge, and each store's
#: items in item-id order.
FixedPointCut = Tuple[Dict[str, List[int]], Dict[str, Sequence[Item]]]

_item_id = attrgetter("item_id")


def fixed_point_cut(replica: Replica) -> FixedPointCut:
    """The parts of ``replica``'s fixed point, taken now.

    Each store's ``items()`` tuple is sorted by :class:`ItemId` (unique
    within a store and totally ordered); items are immutable, so the cut
    keeps describing this instant while the replica moves on.
    """
    return encode_knowledge(replica.knowledge), {
        key: sorted(items, key=_item_id)
        for key, items in replica_stores(replica).items()
    }


def canonical_items(items: Iterable[Item]) -> Iterator[str]:
    """Each item's canonical wire encoding, as ``items`` orders them."""
    for item in items:
        yield canonical_json(encode_item(item))


def json_list_text(strings: Iterable[str]) -> Iterator[str]:
    """``canonical_json(list(strings))``, one piece per string."""
    separator = "["
    for string in strings:
        yield separator + canonical_json(string)
        separator = ","
    yield "[]" if separator == "[" else "]"


def fixed_point_text(cut: FixedPointCut) -> Iterator[str]:
    """``canonical_json`` of the fixed point ``cut`` describes, one piece
    per stored item, each encoded as it is yielded. Iterating it again
    encodes every item again: nothing but the cut is held."""
    knowledge, stores = cut
    yield '{"knowledge":' + canonical_json(knowledge) + ',"stores":'
    separator = "{"
    for key in sorted(stores):
        yield separator + canonical_json(key) + ":"
        yield from json_list_text(canonical_items(stores[key]))
        separator = ","
    yield "}}"


def replica_fixed_point(replica: Replica) -> Dict[str, Any]:
    """The canonical converged-state digest of one replica.

    Each store's contents are canonically encoded in item-id order, so
    two replicas holding the same items in different arrival orders
    compare equal — the fixed point is about what converged, not the
    path taken. :func:`fixed_point_text` of the same cut is this
    digest's canonical JSON.
    """
    knowledge, stores = fixed_point_cut(replica)
    return {
        "knowledge": knowledge,
        "stores": {key: list(canonical_items(items)) for key, items in stores.items()},
    }


def emulator_fixed_points(config: ExperimentConfig) -> Dict[str, Dict[str, Any]]:
    """Run ``config`` through the discrete-event emulator; snapshot nodes."""
    emulator = build_scenario(config).emulator
    emulator.run()
    return snapshot_emulator(emulator)


def snapshot_emulator(emulator: Emulator) -> Dict[str, Dict[str, Any]]:
    """Fixed points of an already-run emulator's nodes."""
    return {
        name: replica_fixed_point(node.replica)
        for name, node in sorted(emulator.nodes.items())
    }


@dataclass
class ParityReport:
    """The outcome of one emulator-vs-swarm comparison."""

    equal: bool
    mismatched_nodes: List[str] = field(default_factory=list)
    detail: Dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "equal": self.equal,
            "mismatched_nodes": list(self.mismatched_nodes),
            "detail": dict(self.detail),
        }


def _describe_difference(
    expected: Mapping[str, Any], actual: Mapping[str, Any]
) -> str:
    if expected.get("knowledge") != actual.get("knowledge"):
        return (
            f"knowledge differs: emulator {expected.get('knowledge')!r} "
            f"vs swarm {actual.get('knowledge')!r}"
        )
    for key in STORE_KEYS:
        left = expected.get("stores", {}).get(key, [])
        right = actual.get("stores", {}).get(key, [])
        if left != right:
            missing = sorted(set(left) - set(right))
            extra = sorted(set(right) - set(left))
            return (
                f"{key} store differs: {len(missing)} item(s) only in "
                f"emulator, {len(extra)} only in swarm"
            )
    return "structures differ"


def compare_fixed_points(
    emulator_points: Mapping[str, Mapping[str, Any]],
    swarm_points: Mapping[str, Mapping[str, Any]],
) -> ParityReport:
    """Diff two per-node fixed-point maps."""
    report = ParityReport(equal=True)
    for name in sorted(set(emulator_points) | set(swarm_points)):
        expected = emulator_points.get(name)
        actual = swarm_points.get(name)
        if expected is None or actual is None:
            report.equal = False
            report.mismatched_nodes.append(name)
            side = "emulator" if expected is None else "swarm"
            report.detail[name] = f"node missing from {side} run"
            continue
        if expected != actual:
            report.equal = False
            report.mismatched_nodes.append(name)
            report.detail[name] = _describe_difference(expected, actual)
    return report


def check_convergence_parity(
    config: ExperimentConfig, transport: str = "unix"
) -> ParityReport:
    """Run ``config`` through both worlds and compare the fixed points.

    Spawns a real swarm (one OS process per trace host, unix sockets by
    default), replays the same schedule the emulator executes, and
    asserts node-for-node state equality.
    """
    # Imported lazily: repro.net imports this module for the fixed-point
    # definition, and the experiments layer must stay importable without
    # the net layer loaded.
    from repro.net.swarm import SwarmConfig, run_swarm

    emulator_points = emulator_fixed_points(config)
    report = run_swarm(SwarmConfig(experiment=config, transport=transport))
    return compare_fixed_points(emulator_points, report.fixed_points)


def check_churn_parity(
    config: ExperimentConfig, transport: str = "unix"
) -> ParityReport:
    """Convergence parity for a *churning* scenario.

    Beyond :func:`check_convergence_parity`, this asserts the scenario
    actually exercises the lifecycle machinery before comparing: churn
    must be armed, and the derived schedule must contain at least one
    crash-restart that rejoins from its checkpoint AND at least one
    amnesiac rejoin — otherwise the gate would pass vacuously on a
    schedule that never kills a process.
    """
    if config.churn is None or not config.churn.enabled:
        raise ValueError("check_churn_parity needs an armed ChurnConfig")
    schedule = build_inputs(config).churn_schedule
    assert schedule is not None
    if not schedule.has_checkpoint_rejoin:
        raise ValueError(
            "churn schedule has no checkpoint rejoin; raise crash_fraction "
            "or lower amnesia_probability so the gate exercises one"
        )
    if not schedule.has_amnesiac_rejoin:
        raise ValueError(
            "churn schedule has no amnesiac rejoin; raise crash_fraction "
            "or amnesia_probability so the gate exercises one"
        )
    return check_convergence_parity(config, transport=transport)
