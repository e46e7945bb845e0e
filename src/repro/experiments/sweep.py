"""Process-parallel experiment sweeps over config grids.

The paper's evaluation is a grid — {policy × bandwidth cap × storage cap ×
seed} over the same DieselNet×Enron scenario — and every cell is an
independent, fully seeded emulation. This module turns that independence
into throughput:

* :func:`expand_grid` expands a base config and axis values into the list
  of :class:`~repro.experiments.config.ExperimentConfig` cells;
* :func:`run_sweep` fans the cells out to ``spawn`` worker processes,
  one process per run, under a parent-side watchdog (``timeout_s``)
  that kills overdue workers and settles hard-crashed ones. Workers
  never receive live replicas or emulators — only ``config.to_dict()``
  payloads — and rebuild the scenario on their side, so the engine is
  safe under every multiprocessing start method and never pays pickling
  costs proportional to simulation state;
* each completed run is written (atomically, by the parent, which is the
  store's single writer) into a content-addressed
  :class:`~repro.experiments.store.RunStore`, so an interrupted sweep
  resumes by skipping runs whose artifacts already exist and validate;
  the returned :class:`SweepReport` is the only record of failed runs;
* per-run lifecycle events, a finished run's summary with them, reach a
  progress callback as runs start and finish.

Because every run is deterministic from its config, a parallel sweep's
artifacts are byte-identical to a serial sweep's
(``tests/experiments/test_sweep.py`` asserts exactly that).
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from collections import deque
from dataclasses import dataclass, field, replace
from queue import Empty
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from .config import ExperimentConfig
from .runner import ExperimentResult, run_experiment
from .store import RunStore, StoreError, run_id_for

#: Progress callback: receives one :class:`SweepEvent` per lifecycle step.
ProgressCallback = Callable[["SweepEvent"], None]


@dataclass(frozen=True)
class SweepEvent:
    """One lifecycle event of one run inside a sweep.

    ``kind`` is ``"reused"`` (a valid artifact already existed),
    ``"started"``, ``"finished"``, or ``"failed"``. ``completed`` counts
    runs that have reached a terminal state so far, out of ``total``.
    A ``finished`` event's ``telemetry`` is the run's ``summary()``.
    Callbacks should be cheap (printing is fine).
    """

    kind: str
    run_id: str
    label: str
    completed: int
    total: int
    telemetry: Optional[Dict[str, float]] = None
    error: Optional[str] = None


@dataclass(frozen=True)
class RunOutcome:
    """Terminal state of one grid cell after a sweep."""

    run_id: str
    label: str
    status: str  # "completed" | "reused" | "failed"
    wall_clock_s: float
    summary: Optional[Dict[str, float]] = None
    error: Optional[str] = None


@dataclass
class SweepReport:
    """What :func:`run_sweep` returns: one outcome per grid cell."""

    store_root: str
    workers: int
    wall_clock_s: float
    outcomes: List[RunOutcome] = field(default_factory=list)

    def _count(self, status: str) -> int:
        return sum(1 for outcome in self.outcomes if outcome.status == status)

    @property
    def completed(self) -> int:
        return self._count("completed")

    @property
    def reused(self) -> int:
        return self._count("reused")

    @property
    def failed(self) -> int:
        return self._count("failed")


def seeded(config: ExperimentConfig, seed: int) -> ExperimentConfig:
    """The ``seed``-th replicate of ``config``.

    Offsets every determinism knob by ``seed`` so replicates draw
    independent traces, assignments, workloads, encounter orders, and
    fault schedules while staying fully reproducible. ``seed=0`` is
    ``config`` itself.
    """
    if seed == 0:
        return config
    return replace(
        config,
        trace_seed=config.trace_seed + seed,
        assignment_seed=config.assignment_seed + seed,
        workload_seed=config.workload_seed + seed,
        encounter_order_seed=config.encounter_order_seed + seed,
        email_seed=config.email_seed + seed,
        fault_seed=config.fault_seed + seed,
    )


def expand_grid(
    base: ExperimentConfig,
    policies: Sequence[str] = (),
    bandwidth_limits: Sequence[Optional[int]] = (),
    storage_limits: Sequence[Optional[int]] = (),
    seeds: Sequence[int] = (),
) -> List[ExperimentConfig]:
    """Expand axis values into the full config grid.

    Empty axes keep the base config's value, so
    ``expand_grid(base, policies=["epidemic", "spray"], seeds=[0, 1])`` is
    a 2×2 grid. Duplicate cells (identical configs) are dropped — they
    would content-address to the same artifact anyway.
    """
    cells: List[ExperimentConfig] = []
    seen = set()
    for policy in policies or (base.policy,):
        for bandwidth in bandwidth_limits or (base.bandwidth_limit,):
            for storage in storage_limits or (base.storage_limit,):
                for seed in seeds or (0,):
                    config = seeded(
                        replace(
                            base,
                            policy=policy,
                            bandwidth_limit=bandwidth,
                            storage_limit=storage,
                        ),
                        seed,
                    )
                    run_id = run_id_for(config)
                    if run_id in seen:
                        continue
                    seen.add(run_id)
                    cells.append(config)
    return cells


def filter_by_label(
    configs: Iterable[ExperimentConfig], needle: str
) -> List[ExperimentConfig]:
    """Keep configs whose label contains ``needle`` (case-insensitive)."""
    lowered = needle.lower()
    return [
        config for config in configs if lowered in config.label().lower()
    ]


# -- worker side ----------------------------------------------------------------------
#
# Everything below the parent hands to workers must be importable at
# module top level: ``spawn`` workers re-import this module and receive
# only picklable payloads (config dicts), never live simulation state.


def _execute(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one cell from its serialized config; never raises.

    Returns ``{"run_id", "wall_clock_s", "result"}`` on success or
    ``{"run_id", "wall_clock_s", "error"}`` with a formatted traceback on
    failure, so one broken cell fails its artifact, not the sweep.
    """
    run_id = payload["run_id"]
    started = time.perf_counter()
    try:
        config = ExperimentConfig.from_dict(payload["config"])
        result = run_experiment(config)
        return {
            "run_id": run_id,
            "wall_clock_s": time.perf_counter() - started,
            "result": result.to_dict(),
        }
    except Exception:
        return {
            "run_id": run_id,
            "wall_clock_s": time.perf_counter() - started,
            "error": traceback.format_exc(),
        }


def _worker_entry(payload: Dict[str, Any], queue: Any) -> None:
    """Process target: run one cell and ship its outcome back on the queue."""
    queue.put(_execute(payload))


# -- parent side ----------------------------------------------------------------------


def _reused_summary(store: RunStore, run_id: str) -> Optional[Dict[str, Any]]:
    """The summary of ``run_id``'s valid artifact, read once; None when
    there is none to reuse (missing, corrupt or failing validation)."""
    try:
        return store.load_result(run_id).summary()
    except StoreError:
        return None


def run_sweep(
    configs: Sequence[ExperimentConfig],
    store: Optional[RunStore] = None,
    workers: int = 1,
    resume: bool = True,
    progress: Optional[ProgressCallback] = None,
    timeout_s: Optional[float] = None,
) -> SweepReport:
    """Run every config, parallel across processes, into the store.

    * ``workers <= 1`` runs serially in-process (identical artifacts —
      runs are deterministic from their configs).
    * ``resume=True`` (default) skips configs whose artifacts already
      exist in the store and validate; ``False`` re-runs and overwrites.
    * ``progress`` receives a :class:`SweepEvent` per lifecycle step.
    * ``timeout_s`` arms the watchdog: each run gets that much wall
      clock, after which its worker process is killed and the run is
      reported as a ``failed`` outcome. It leaves no file, so a later
      resume of the same grid retries it. Setting a timeout forces the
      process path even for ``workers=1`` — a hung run can only be
      killed from outside its process.

    The store holds only completed runs' artifacts, so a killed sweep
    leaves behind everything resume needs.
    """
    if timeout_s is not None and timeout_s <= 0:
        raise ValueError("timeout_s must be positive")
    store = store if store is not None else RunStore()
    run_ids = [run_id_for(config) for config in configs]
    if len(set(run_ids)) != len(run_ids):
        raise ValueError("sweep grid contains duplicate configs")
    report = SweepReport(
        store_root=str(store.root), workers=workers, wall_clock_s=0.0
    )
    started = time.perf_counter()

    total = len(configs)
    terminal = 0

    def emit(kind: str, run_id: str, label: str, **extra: Any) -> None:
        if progress is not None:
            progress(
                SweepEvent(
                    kind=kind,
                    run_id=run_id,
                    label=label,
                    completed=terminal,
                    total=total,
                    **extra,
                )
            )

    pending: List[Dict[str, Any]] = []
    for config, run_id in zip(configs, run_ids):
        summary = _reused_summary(store, run_id) if resume else None
        if summary is not None:
            terminal += 1
            report.outcomes.append(
                RunOutcome(
                    run_id=run_id,
                    label=config.label(),
                    status="reused",
                    wall_clock_s=0.0,
                    summary=summary,
                )
            )
            emit("reused", run_id, config.label())
        else:
            pending.append(
                {
                    "run_id": run_id,
                    "label": config.label(),
                    "config": config.to_dict(),
                }
            )

    def settle(payload: Dict[str, Any], outcome_raw: Dict[str, Any]) -> None:
        """Parent-side completion: write the artifact, record the outcome."""
        nonlocal terminal
        terminal += 1
        run_id = payload["run_id"]
        label = payload["label"]
        if "error" in outcome_raw:
            report.outcomes.append(
                RunOutcome(
                    run_id=run_id,
                    label=label,
                    status="failed",
                    wall_clock_s=outcome_raw["wall_clock_s"],
                    error=outcome_raw["error"],
                )
            )
            emit("failed", run_id, label, error=outcome_raw["error"])
            return
        result = ExperimentResult.from_dict(outcome_raw["result"])
        store.save_result(result, wall_clock_s=outcome_raw["wall_clock_s"])
        summary = result.summary()
        report.outcomes.append(
            RunOutcome(
                run_id=run_id,
                label=label,
                status="completed",
                wall_clock_s=outcome_raw["wall_clock_s"],
                summary=summary,
            )
        )
        emit("finished", run_id, label, telemetry=summary)

    if timeout_s is None and (len(pending) <= 1 or workers <= 1):
        for payload in pending:
            emit("started", payload["run_id"], payload["label"])
            settle(payload, _execute(payload))
    elif pending:
        _run_parallel(
            pending,
            max(1, min(workers, len(pending))),
            emit,
            settle,
            timeout_s=timeout_s,
        )

    # Outcomes in grid order, matching ``configs`` — parallel completion
    # order is nondeterministic and should not leak into the report.
    order = {run_id: index for index, run_id in enumerate(run_ids)}
    report.outcomes.sort(key=lambda outcome: order[outcome.run_id])
    report.wall_clock_s = time.perf_counter() - started
    return report


#: Grace period after a worker process dies before declaring it crashed —
#: its result may still be in flight through the queue's feeder pipe.
_CRASH_GRACE_S = 1.0

#: Parent poll interval: how often the watchdog wakes to check deadlines
#: and dead workers while no results are arriving.
_POLL_INTERVAL_S = 0.05


def _run_parallel(
    pending: List[Dict[str, Any]],
    workers: int,
    emit: Callable[..., None],
    settle: Callable[[Dict[str, Any], Dict[str, Any]], None],
    timeout_s: Optional[float] = None,
    worker: Callable[[Dict[str, Any], Any], None] = _worker_entry,
) -> None:
    """Fan ``pending`` out process-per-run with a watchdog loop.

    ``spawn`` (not ``fork``) keeps workers honest: they prove the runs
    are reconstructible from serialized configs alone, and it sidesteps
    fork-safety hazards entirely. One process per run (rather than a
    long-lived pool) is what makes the watchdog sound — killing a hung or
    overdue run is ``terminate()`` on its own process, with no shared
    worker state to poison.

    A worker that exceeds ``timeout_s`` is terminated and settled as a
    failure; a worker that dies without reporting (hard crash, OOM kill)
    is detected by the liveness check and settled the same way after a
    short grace period for in-flight queue data. ``worker`` is the
    process target, parameterised for tests that need a misbehaving one.
    """
    ctx = multiprocessing.get_context("spawn")
    queue = ctx.Queue()
    waiting = deque(pending)
    live: Dict[str, Dict[str, Any]] = {}

    def reap(run_id: str, outcome_raw: Dict[str, Any]) -> None:
        # A late result can race a watchdog verdict; first settle wins.
        entry = live.pop(run_id, None)
        if entry is None:
            return
        entry["proc"].join(timeout=5.0)
        settle(entry["payload"], outcome_raw)

    try:
        while waiting or live:
            while waiting and len(live) < workers:
                payload = waiting.popleft()
                proc = ctx.Process(target=worker, args=(payload, queue))
                proc.daemon = True
                proc.start()
                now = time.monotonic()
                live[payload["run_id"]] = {
                    "proc": proc,
                    "payload": payload,
                    "deadline": (
                        now + timeout_s if timeout_s is not None else None
                    ),
                    "started": now,
                    "dead_since": None,
                }
                emit("started", payload["run_id"], payload["label"])
            try:
                outcome_raw = queue.get(timeout=_POLL_INTERVAL_S)
            except Empty:
                outcome_raw = None
            if outcome_raw is not None:
                reap(outcome_raw["run_id"], outcome_raw)
                continue
            now = time.monotonic()
            for run_id in list(live):
                entry = live[run_id]
                proc = entry["proc"]
                if entry["deadline"] is not None and now >= entry["deadline"]:
                    proc.terminate()
                    reap(
                        run_id,
                        {
                            "run_id": run_id,
                            "wall_clock_s": now - entry["started"],
                            "error": (
                                f"timed out after {timeout_s}s "
                                "(watchdog killed the worker)"
                            ),
                        },
                    )
                elif not proc.is_alive():
                    if entry["dead_since"] is None:
                        entry["dead_since"] = now
                    elif now - entry["dead_since"] >= _CRASH_GRACE_S:
                        reap(
                            run_id,
                            {
                                "run_id": run_id,
                                "wall_clock_s": now - entry["started"],
                                "error": (
                                    "worker crashed with exit code "
                                    f"{proc.exitcode} before reporting "
                                    "a result"
                                ),
                            },
                        )
    finally:
        for entry in live.values():
            entry["proc"].terminate()
        queue.close()
        queue.cancel_join_thread()
