"""Daily user → bus assignment (Section VI-A of the paper).

"For each day in our experimental run, the experiment uniformly distributes
e-mail users to the buses scheduled on that day." This module implements
that distribution deterministically: for every day of the trace, the user
population is shuffled with a day-specific seeded RNG and dealt round-robin
over the buses active that day, so each bus hosts ⌈U/B⌉ or ⌊U/B⌋ users.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, Mapping, Sequence

from repro.emulation.encounters import EncounterTrace

AssignmentSchedule = Dict[int, Dict[str, FrozenSet[str]]]


def assign_users_daily(
    trace: EncounterTrace,
    users: Sequence[str],
    seed: int = 0,
) -> AssignmentSchedule:
    """Build the day → bus → hosted-users schedule for a whole trace.

    Days with no active buses get no entry (no one rides). The same
    ``(seed, day)`` always produces the same assignment regardless of which
    other days exist, so sub-traces stay consistent with full traces.
    """
    schedule: AssignmentSchedule = {}
    # Each day's active ids are sorted, so its names come out sorted: no
    # per-day name set is built.
    for day, ids in trace.active_ids_by_day.items():
        buses = list(map(trace.host_names.__getitem__, ids))
        rng = random.Random(f"{seed}:{day}")
        shuffled = list(users)
        rng.shuffle(shuffled)
        # Round-robin deal: bus k gets every len(buses)-th user from k on;
        # buses past the last user share the one empty set.
        per_bus: Dict[str, FrozenSet[str]] = dict.fromkeys(buses, frozenset())
        for k, bus in enumerate(buses[: len(shuffled)]):
            per_bus[bus] = frozenset(shuffled[k :: len(buses)])
        schedule[day] = per_bus
    return schedule


def host_of(
    schedule: Mapping[int, Mapping[str, FrozenSet[str]]], day: int, user: str
) -> str | None:
    """The bus hosting ``user`` on ``day`` (None if not riding)."""
    for bus, assigned in schedule.get(day, {}).items():
        if user in assigned:
            return bus
    return None
