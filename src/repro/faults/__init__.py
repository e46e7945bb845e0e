"""Fault injection for the replication substrate and the emulation.

The paper's robustness claim — Cimbiosys-style batch ordering lets an
interrupted sync make durable, monotone progress — is only worth stating
if it survives actual faults. This package provides the faults:

* :class:`FaultConfig` — declarative, validated description of a failure
  environment (one probability per fault model);
* the fault draws in :mod:`repro.faults.models` — ``fires``, ``mask``,
  ``plan_cut``, ``plan_replay`` and ``inflate_by``, each a function of
  the config and the injector's rng;
* :class:`FaultyTransport` — the lossy channel the sync engine routes
  batches through;
* :class:`FaultInjector` — seeded orchestration with its own RNG stream
  (fault schedules never perturb the base experiment's randomness) and
  :class:`ResumeTracker` retry/backoff bookkeeping.

See ``docs/faults.md`` for the model-by-model description and
``tests/integration/test_fault_invariants.py`` for the randomized
harness that checks the substrate's guarantees under mixed fault
schedules.
"""

from .config import FaultConfig
from .injector import FaultInjector, Pair, ResumeTracker, RetryState, pair_key
from .transport import (
    CORRUPTED_PAYLOAD,
    REPLAY_POOL_LIMIT,
    DeliveryOutcome,
    FaultyTransport,
)

__all__ = [
    "CORRUPTED_PAYLOAD",
    "DeliveryOutcome",
    "FaultConfig",
    "FaultInjector",
    "FaultyTransport",
    "Pair",
    "REPLAY_POOL_LIMIT",
    "ResumeTracker",
    "RetryState",
    "pair_key",
]
