"""Convergence parity: the emulator and a live swarm must agree.

The live transport (:mod:`repro.net`) is only trustworthy if a trace
replayed against real processes reaches exactly the replication fixed
point the discrete-event emulator computes — same per-node holdings, same
per-node knowledge. This module defines that fixed point and the
comparison:

* :func:`replica_fixed_point` — a canonical, JSON-safe digest of one
  replica's converged state: its knowledge vector plus the content of all
  three stores (in-filter, outbox, relay), each item in its canonical
  wire encoding, order-independent;
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
from typing import Any, Dict, List, Mapping

from repro.emulation.network import Emulator
from repro.replication.codec import encode_item, encode_knowledge
from repro.replication.persistence import STORE_KEYS, replica_stores
from repro.replication.replica import Replica

from .config import ExperimentConfig
from .scenario import build_inputs, build_scenario
from .store import canonical_json


def replica_fixed_point(replica: Replica) -> Dict[str, Any]:
    """The canonical converged-state digest of one replica.

    Store contents are canonically encoded and *sorted*, so two replicas
    holding the same items in different arrival orders compare equal —
    the fixed point is about what converged, not the path taken. Each
    item is encoded as the list is built: no snapshot of the whole
    replica is held beside the digest.
    """
    return {
        "knowledge": encode_knowledge(replica.knowledge),
        "stores": {
            key: sorted(canonical_json(encode_item(item)) for item in items)
            for key, items in replica_stores(replica).items()
        },
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
