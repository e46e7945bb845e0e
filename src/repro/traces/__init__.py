"""Mobility and workload traces: synthetic generators + real-data parsers.

The paper's evaluation is driven by the UMass DieselNet bus trace and the
Enron e-mail dataset; neither can ship with this reproduction, so each has
a statistics-matched synthetic generator and a parser for the real thing
(see DESIGN.md's substitution table).
"""

from .dieselnet import (
    DieselNetConfig,
    bus_name,
    route_schedule,
    format_trace_text,
    generate_dieselnet_trace,
    load_trace,
    parse_trace_text,
    save_trace,
)
from .enron import (
    EmailWorkloadModel,
    EmpiricalEmailModel,
    SyntheticEmailModel,
    generate_enron_model,
    parse_pairs_csv,
    user_name,
)
from .mapping import AssignmentSchedule, assign_users_daily, host_of
from .workload import WorkloadConfig, build_injection_schedule

__all__ = [
    "AssignmentSchedule",
    "DieselNetConfig",
    "EmailWorkloadModel",
    "EmpiricalEmailModel",
    "SyntheticEmailModel",
    "WorkloadConfig",
    "assign_users_daily",
    "build_injection_schedule",
    "bus_name",
    "route_schedule",
    "format_trace_text",
    "generate_dieselnet_trace",
    "generate_enron_model",
    "host_of",
    "load_trace",
    "parse_pairs_csv",
    "parse_trace_text",
    "save_trace",
    "user_name",
]
