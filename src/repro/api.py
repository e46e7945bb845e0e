"""The supported public surface of :mod:`repro`, in one flat namespace.

``repro.api`` is a curated facade: everything re-exported here is covered
by the stability policy in ``docs/api.md``: a keyword that stays keeps
its meaning, and each removal is listed there with its release, with no
deprecation release first. Internal modules stay importable (this is
research code; poke at anything), but only the names below are *promised*.

Typical use::

    from repro.api import ExperimentConfig, RunStore, expand_grid, run_sweep

    grid = expand_grid(
        ExperimentConfig(scale=0.5),
        policies=["epidemic", "spray"],
        seeds=[0, 1, 2],
    )
    report = run_sweep(grid, store=RunStore("results/runs"), workers=4)

Groups:

* **Experiments** — :class:`ExperimentConfig`, :func:`run_experiment`,
  :class:`ExperimentResult`, :func:`configured_scale`.
* **Sweeps** — :func:`expand_grid`, :func:`run_sweep`,
  :class:`SweepEvent`, :class:`SweepReport`, :class:`RunOutcome`,
  :class:`RunStore`, :exc:`StoreError`, :func:`run_id_for`,
  :func:`config_digest`.
* **Metrics** — :class:`MetricsCollector`, :class:`MessageRecord`.
* **Policies** — :func:`get_policy`, :func:`register_policy`,
  :func:`available_policies`, :func:`default_parameters`,
  :data:`PAPER_POLICY_ORDER`.
* **Faults** — :class:`FaultConfig`.
* **Churn** — :class:`ChurnConfig` arms the node-lifecycle model
  (arrivals, graceful leaves with handoff, crash/rejoin, free riders,
  reciprocity-gated admission); :class:`ChurnSchedule` /
  :class:`LifecycleEvent` / :func:`generate_churn_schedule` expose the
  derived schedule, and :func:`check_churn_parity` the
  emulator-vs-swarm gate under churn (see ``docs/churn.md``).
* **Integrity** — :class:`ProtocolViolation`, :class:`PeerHealthTracker`
  (the hardened-sync layer; see ``docs/protocol.md`` §7).
* **Sync sessions** — the transport-agnostic sync flow:
  :class:`SyncSession` and :class:`EncounterSession` run the paper's
  Figure 4 exchange (one direction, or a full two-sync encounter) over
  any :class:`Transport`, configured by :class:`SessionConfig`. The
  emulator, the ``bench/`` harness, and the live network all drive
  these same objects.
* **Live swarm** — :func:`run_swarm` / :class:`SwarmConfig` replay a
  trace against real replica processes over unix or TCP sockets
  (``repro serve`` / ``repro swarm``), and
  :func:`check_convergence_parity` asserts a live swarm reaches the
  emulator's exact per-node fixed point (see ``docs/deployment.md``).
  ``run_swarm`` and its two classes resolve on first use: they bring
  asyncio and ssl (5 MB), which a run that opens no socket never needs.
* **Columnar engine** — select with ``ExperimentConfig(engine="columnar")``;
  :exc:`ColumnarUnsupportedError` and :func:`columnar_unsupported_reason`
  report configs outside the verified subset, :func:`comparable_metrics`
  is the engine-equivalence view of a metrics dict, and
  :class:`MetroConfig` / :func:`generate_metro_trace` build the
  city-scale metro-DieselNet traces it is benchmarked on (see
  ``docs/performance.md`` §7).
"""

from __future__ import annotations

from repro.dtn.registry import (
    PAPER_POLICY_ORDER,
    available_policies,
    default_parameters,
    get_policy,
    register_policy,
)
from repro.emulation.columnar import (
    ColumnarUnsupportedError,
    columnar_unsupported_reason,
    comparable_metrics,
)
from repro.emulation.metrics import MessageRecord, MetricsCollector
from repro.experiments.config import ExperimentConfig, configured_scale
from repro.experiments.runner import ExperimentResult, run_experiment
from repro.experiments.store import (
    RunStore,
    StoreError,
    config_digest,
    run_id_for,
)
from repro.experiments.sweep import (
    RunOutcome,
    SweepEvent,
    SweepReport,
    expand_grid,
    run_sweep,
)
from repro.churn import (
    ChurnConfig,
    ChurnSchedule,
    LifecycleEvent,
    generate_churn_schedule,
)
from repro.experiments.parity import (
    ParityReport,
    check_churn_parity,
    check_convergence_parity,
    compare_fixed_points,
    replica_fixed_point,
)
from repro.faults.config import FaultConfig
from repro.replication.integrity import ProtocolViolation
from repro.replication.peer_health import PeerHealthTracker
from repro.replication.session import (
    EncounterSession,
    SessionConfig,
    SyncSession,
    Transport,
)
from repro.traces.dieselnet import MetroConfig, generate_metro_trace

__all__ = [
    "ChurnConfig",
    "ChurnSchedule",
    "ColumnarUnsupportedError",
    "EncounterSession",
    "ExperimentConfig",
    "ExperimentResult",
    "FaultConfig",
    "LifecycleEvent",
    "MessageRecord",
    "MetricsCollector",
    "MetroConfig",
    "PAPER_POLICY_ORDER",
    "ParityReport",
    "PeerHealthTracker",
    "ProtocolViolation",
    "RunOutcome",
    "RunStore",
    "SessionConfig",
    "StoreError",
    "SwarmConfig",
    "SwarmReport",
    "SweepEvent",
    "SweepReport",
    "SyncSession",
    "Transport",
    "available_policies",
    "check_churn_parity",
    "check_convergence_parity",
    "columnar_unsupported_reason",
    "comparable_metrics",
    "compare_fixed_points",
    "config_digest",
    "configured_scale",
    "default_parameters",
    "expand_grid",
    "generate_churn_schedule",
    "generate_metro_trace",
    "get_policy",
    "register_policy",
    "replica_fixed_point",
    "run_experiment",
    "run_id_for",
    "run_swarm",
    "run_sweep",
]


def __getattr__(name: str) -> object:
    # PEP 562. Of ``__all__`` only ``SwarmConfig``, ``SwarmReport`` and
    # ``run_swarm`` are not bound above, so only they can get here.
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro.net import swarm

    return getattr(swarm, name)


def __dir__() -> list:
    return sorted(set(__all__).union(globals()))
