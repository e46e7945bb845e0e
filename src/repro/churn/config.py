"""Configuration for the churn subsystem.

A :class:`ChurnConfig` declaratively describes the population dynamics
of a run: what fraction of nodes arrive late, leave gracefully (with a
final-sync handoff), crash and later rejoin (with or without their
persisted state), or free-ride, plus the trust threshold that gates
encounters on reciprocity. Like :class:`~repro.faults.config.FaultConfig`
it is frozen and fully validated at construction — a config plus its
seed is a complete, reproducible description of every lifecycle event
the run will see, in the emulator and in a live swarm alike.

All fractions default to ``0.0``: a default-constructed config is
*disabled* and a run given one behaves bit-for-bit like a run given no
churn config at all.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Mapping


@dataclass(frozen=True, kw_only=True)
class ChurnConfig:
    """Knobs for node lifecycle dynamics and trust/reciprocity scoring.

    Lifecycle roles (assigned to *disjoint* node subsets by a seeded
    shuffle, so one node never both leaves and crashes):

    * ``arrival_fraction`` — nodes absent at the start that join partway
      through the run (no state; a genuinely new participant).
    * ``departure_fraction`` — nodes that leave gracefully: a final
      *handoff* sync with their best-connected online peer, then gone
      for the rest of the run.
    * ``crash_fraction`` — nodes that die without warning mid-run and
      rejoin after an offline window of a quarter of a day to a day.
      With probability ``amnesia_probability`` the rejoin is *amnesiac*
      — local state was lost and the node restarts empty; otherwise it
      restores its persisted checkpoint
      (:mod:`repro.replication.persistence`).
    * ``free_rider_fraction`` — nodes present the whole run that take
      every item offered and serve none.

    Trust: when ``reciprocity_threshold`` is positive, every node
    scores its peers by items-received over items-given (add-one
    smoothed, see :meth:`~repro.churn.trust.ReciprocityLedger.reciprocity`)
    and refuses encounters with peers scoring below the threshold —
    after a grace window of 25 items, so strangers are not refused
    before any history exists.
    """

    seed: int = 0
    arrival_fraction: float = 0.0
    departure_fraction: float = 0.0
    crash_fraction: float = 0.0
    amnesia_probability: float = 0.5
    free_rider_fraction: float = 0.0
    reciprocity_threshold: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "arrival_fraction",
            "departure_fraction",
            "crash_fraction",
            "free_rider_fraction",
            "amnesia_probability",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        role_total = (
            self.arrival_fraction
            + self.departure_fraction
            + self.crash_fraction
            + self.free_rider_fraction
        )
        if role_total > 1.0:
            raise ValueError(
                "lifecycle roles are disjoint: arrival + departure + crash "
                f"+ free-rider fractions must sum to <= 1, got {role_total}"
            )
        if self.reciprocity_threshold < 0.0:
            raise ValueError("reciprocity_threshold must be >= 0")

    @property
    def enabled(self) -> bool:
        """True when the config can actually change a run's behaviour."""
        return (
            self.arrival_fraction > 0.0
            or self.departure_fraction > 0.0
            or self.crash_fraction > 0.0
            or self.free_rider_fraction > 0.0
            or self.reciprocity_threshold > 0.0
        )

    # -- serialization (the repro.api round-trip contract) ------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict; ``from_dict(to_dict())`` reconstructs exactly."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ChurnConfig":
        """Rebuild a config serialized by :meth:`to_dict`.

        Unknown keys raise :class:`TypeError` naming the offending field
        (via the keyword-only constructor), so a stale artifact fails
        loudly instead of silently dropping a knob.
        """
        return cls(**dict(data))
