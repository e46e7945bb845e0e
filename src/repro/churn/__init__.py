"""Node churn as a first-class scenario.

Real DTN deployments live with nodes that join late, leave for good,
crash without warning, and sometimes free-ride. This package models all
four as a seeded, declarative layer over the emulation and live-swarm
engines:

* :class:`ChurnConfig` — the frozen, validated knob set, carried on
  :class:`~repro.experiments.config.ExperimentConfig` (``churn=``);
* :func:`generate_churn_schedule` — a deterministic
  :class:`ChurnSchedule` of :class:`LifecycleEvent`\\ s derived from
  ``(config, trace)`` alone, so every process computes the same plan;
* :class:`LifecycleTracker` — run-time availability + recovery
  bookkeeping shared by the emulator and the swarm orchestrator;
* :class:`ReciprocityLedger` — per-pair transfer tallies, the
  tit-for-tat admission gate and the population-wide generosity scores.

A free rider routes with the same policy as an honest node; it only
serves nothing, a cap of zero items per sync set on its sync endpoint
(:attr:`~repro.replication.sync.SyncEndpoint.serves_at_most`).

See ``docs/churn.md`` for the model and its live-mode semantics.
"""

from .config import ChurnConfig
from .lifecycle import LifecycleTracker
from .schedule import (
    ARRIVE,
    CRASH,
    EVENT_KINDS,
    LEAVE,
    REJOIN,
    ChurnSchedule,
    LifecycleEvent,
    generate_churn_schedule,
)
from .trust import ReciprocityLedger

__all__ = [
    "ARRIVE",
    "CRASH",
    "EVENT_KINDS",
    "LEAVE",
    "REJOIN",
    "ChurnConfig",
    "ChurnSchedule",
    "LifecycleEvent",
    "LifecycleTracker",
    "ReciprocityLedger",
    "generate_churn_schedule",
]
