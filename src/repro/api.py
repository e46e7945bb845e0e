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
* **Columnar engine** — select with ``ExperimentConfig(engine="columnar")``;
  :exc:`ColumnarUnsupportedError` and :func:`columnar_unsupported_reason`
  report configs outside the verified subset, :func:`comparable_metrics`
  is the engine-equivalence view of a metrics dict, and
  :class:`MetroConfig` / :func:`generate_metro_trace` build the
  city-scale metro-DieselNet traces it is benchmarked on (see
  ``docs/performance.md`` §7).
"""

from repro import late_names

#: Every name loads from its home module on first use, so a process pays
#: only for the layers it touches: ``SyncSession`` does not bring the
#: sweep engine and ``multiprocessing``, nor ``run_swarm`` asyncio to a
#: run that opens no socket.
_HOMES = {
    "repro.churn": (
        "ChurnConfig", "ChurnSchedule", "LifecycleEvent", "generate_churn_schedule",
    ),
    "repro.dtn.registry": (
        "PAPER_POLICY_ORDER", "available_policies", "default_parameters",
        "get_policy", "register_policy",
    ),
    "repro.emulation.columnar": (
        "ColumnarUnsupportedError", "columnar_unsupported_reason", "comparable_metrics",
    ),
    "repro.emulation.metrics": ("MessageRecord", "MetricsCollector"),
    "repro.experiments.config": ("ExperimentConfig", "configured_scale"),
    "repro.experiments.parity": (
        "ParityReport", "check_churn_parity", "check_convergence_parity",
        "compare_fixed_points", "replica_fixed_point",
    ),
    "repro.experiments.runner": ("ExperimentResult", "run_experiment"),
    "repro.experiments.store": ("RunStore", "StoreError", "config_digest", "run_id_for"),
    "repro.experiments.sweep": (
        "RunOutcome", "SweepEvent", "SweepReport", "expand_grid", "run_sweep",
    ),
    "repro.faults.config": ("FaultConfig",),
    "repro.net.swarm": ("SwarmConfig", "SwarmReport", "run_swarm"),
    "repro.replication.integrity": ("ProtocolViolation",),
    "repro.replication.peer_health": ("PeerHealthTracker",),
    "repro.replication.session": (
        "EncounterSession", "SessionConfig", "SyncSession", "Transport",
    ),
    "repro.traces.dieselnet": ("MetroConfig", "generate_metro_trace"),
}
__getattr__, __dir__ = late_names(globals(), _HOMES)

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
