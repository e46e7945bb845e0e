"""Message-injection schedules (Section VI-A of the paper).

"Messages were injected during a two-hour period in the morning
(8:00am–10:00am) of each day, at two-minute intervals. Message injection is
stopped after the eighth day to allow for eventual convergence. A total of
490 messages were injected during each experiment."

:func:`build_injection_schedule` reproduces that: a target total of
messages spread over the first ``injection_days`` days of the trace at
fixed intervals starting at the window start, with (sender, recipient)
pairs drawn from an e-mail workload model. Senders are always users riding
a bus on the injection day (otherwise the message could not be submitted
to any replica); recipients are unrestricted, matching the paper — a
recipient not riding that day simply picks the message up on a later day.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Mapping

from repro.emulation.encounters import SECONDS_PER_DAY
from repro.emulation.network import Injection

from .enron import EmailWorkloadModel
from .mapping import host_of

#: Each injection day's messages start at 08:00, two minutes apart.
INJECTION_START_HOUR = 8.0
INJECTION_INTERVAL_SECONDS = 120.0


@dataclass(frozen=True)
class WorkloadConfig:
    """Parameters of the injection schedule; defaults match the paper.

    ``addressing`` selects how (sender, recipient) user pairs become
    injections:

    * ``"bus"`` (default, the paper's model): the message is authored at
      the bus carrying the sender that day and *addressed to the bus*
      carrying the recipient that day — "messages sent between users are
      routed through a network of vehicular nodes". Filters stay static.
    * ``"user"``: the message is addressed to the recipient's user
      address; delivery happens when it reaches whichever bus hosts the
      user at that moment (requires the emulator to apply the daily
      assignment schedule so filters track users). A richer model than
      the paper's, exercised by the library's dynamic-filter support.
    """

    target_total: int = 490
    injection_days: int = 8
    seed: int = 99
    addressing: str = "bus"

    def __post_init__(self) -> None:
        if self.target_total < 1:
            raise ValueError("target_total must be >= 1")
        if self.injection_days < 1:
            raise ValueError("injection_days must be >= 1")
        if self.addressing not in ("bus", "user"):
            raise ValueError("addressing must be 'bus' or 'user'")


class WorkloadError(ValueError):
    """No injection day has a rider to send (too small a scale)."""


def build_injection_schedule(
    model: EmailWorkloadModel,
    assignments: Mapping[int, Mapping[str, frozenset]],
    config: WorkloadConfig = WorkloadConfig(),
) -> List[Injection]:
    """Create the list of timed injections for an experiment.

    The total is dealt round-robin over the injection days that actually
    have riders; days without assignments are skipped (a bus-less day can
    carry no senders). Messages on one day are spaced
    :data:`INJECTION_INTERVAL_SECONDS` apart from :data:`INJECTION_START_HOUR`.
    """
    rng = random.Random(config.seed)
    # Each day's assignment inverted once (user → first bus listing them,
    # as host_of answers): host_of scans every active bus, and a metro
    # day has tens of thousands.
    bus_of: Dict[int, Dict[str, str]] = {day: {} for day in assignments}
    for day, buses in assignments.items():
        for bus, users in buses.items():
            for user in users:
                bus_of[day].setdefault(user, bus)
    candidate_days = [
        day
        for day in sorted(assignments)
        if day < config.injection_days and bus_of[day]
    ]
    if not candidate_days:
        raise WorkloadError("no injection day has any assigned users")

    per_day = {day: config.target_total // len(candidate_days) for day in candidate_days}
    for day in candidate_days[: config.target_total % len(candidate_days)]:
        per_day[day] += 1

    injections: List[Injection] = []
    sequence = 0
    for day in candidate_days:
        riders = bus_of[day]
        day_start = day * SECONDS_PER_DAY + INJECTION_START_HOUR * 3600.0
        for slot in range(per_day[day]):
            sender, recipient = model.draw_pair(rng)
            attempts = 0
            while sender not in riders:
                sender, recipient = model.draw_pair(rng)
                attempts += 1
                if attempts > 1000:
                    # Degenerate model/assignment combination: fall back to
                    # any rider as sender, keep the drawn recipient.
                    sender = sorted(riders)[0]
                    break
            if recipient == sender:
                others = [u for u in model.users if u != sender]
                recipient = rng.choice(others)
            time = day_start + slot * INJECTION_INTERVAL_SECONDS
            if config.addressing == "bus":
                source_bus = riders[sender]  # sender is a rider by choice
                destination_bus = riders.get(recipient)
                if destination_bus is None:
                    # Recipient not riding today: address the bus that will
                    # next host them; fall back to their user address.
                    destination_bus = _next_host(assignments, day, recipient)
                injections.append(
                    Injection(
                        time=time,
                        source=source_bus,
                        destination=destination_bus or recipient,
                        body=f"msg-{sequence:04d}",
                    )
                )
            else:
                injections.append(
                    Injection(
                        time=time,
                        source=sender,
                        destination=recipient,
                        body=f"msg-{sequence:04d}",
                    )
                )
            sequence += 1
    return injections


def _next_host(
    assignments: Mapping[int, Mapping[str, frozenset]], day: int, user: str
) -> str | None:
    """The bus that hosts ``user`` on the earliest day ≥ ``day``."""
    for later_day in sorted(d for d in assignments if d >= day):
        bus = host_of(assignments, later_day, user)
        if bus is not None:
            return bus
    return None
