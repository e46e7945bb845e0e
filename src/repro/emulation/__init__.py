"""Trace-driven discrete-event emulation of the DTN messaging system.

Reproduces the paper's Section VI-A environment: many application+replica
instances in one process, encounters replayed from a mobility trace, two
syncs per encounter with alternating roles, optional bandwidth and storage
constraints, and delivery/traffic/storage metrics collection.
"""

from .encounters import SECONDS_PER_DAY, Encounter, EncounterTrace
from .engine import AssignmentSchedule
from .metrics import DAYS, HOURS, MessageRecord, MetricsCollector
from .network import Emulator, Injection
from .node import EmulatedNode

__all__ = [
    "AssignmentSchedule",
    "DAYS",
    "Emulator",
    "EmulatedNode",
    "Encounter",
    "EncounterTrace",
    "HOURS",
    "Injection",
    "MessageRecord",
    "MetricsCollector",
    "SECONDS_PER_DAY",
]
