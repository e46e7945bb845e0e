"""Configuration for the fault-injection subsystem.

A :class:`FaultConfig` is a complete, declarative description of the
failure environment an emulation runs in: which fault models are armed
and how often each one fires. Like
:class:`~repro.experiments.config.ExperimentConfig` it is frozen and
fully validated at construction, so a config plus a seed is a
reproducible description of every fault the run will see. What happens
after a fault (the retry backoff of an interrupted pair, the peer-health
thresholds) is fixed: see ``docs/faults.md``.

All probabilities default to ``0.0`` — a default-constructed config is
*disabled* and an emulator given one behaves bit-for-bit like an emulator
given no fault config at all (the zero-fault equivalence guarantee,
enforced by ``tests/integration/test_zero_fault_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Mapping


@dataclass(frozen=True, kw_only=True)
class FaultConfig:
    """How often each fault model fires.

    Fault models (each armed when its probability is positive):

    * ``encounter_drop_probability`` — Bernoulli drop of a whole
      encounter: the radio contact happened but no sync ran.
    * ``truncation_probability`` — per sync session, cut the batch after
      ``K`` delivered entries, ``K`` drawn uniformly from ``[0, n - 1]``
      for a batch of ``n``; the target keeps the prefix.
    * ``duplication_probability`` — per delivered batch entry, the
      transport delivers a second copy immediately after the first
      (link-layer retransmission without acknowledgement).
    * ``crash_probability`` — per encounter participant, the node crashes
      after the encounter and restarts from durable state via the
      persistence layer.

    Adversarial models (content-level misbehaviour; see
    ``docs/faults.md``):

    * ``corruption_probability`` — per delivered copy, the payload is
      corrupted in transit (the checksum catches it at the receiver).
    * ``replay_probability`` — per sync session, previously delivered
      entries from the same link are re-delivered.
    * ``fabrication_probability`` — per sync session, the sync request's
      knowledge is inflated to claim versions the target never received.
    * ``malformed_probability`` — per delivered copy, the entry is
      replaced by an undecodable garbage frame.
    """

    encounter_drop_probability: float = 0.0
    truncation_probability: float = 0.0
    duplication_probability: float = 0.0
    crash_probability: float = 0.0
    corruption_probability: float = 0.0
    replay_probability: float = 0.0
    fabrication_probability: float = 0.0
    malformed_probability: float = 0.0

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")

    @property
    def enabled(self) -> bool:
        """True when at least one fault model can actually fire."""
        return any(probability > 0.0 for probability in vars(self).values())

    @property
    def has_transport_faults(self) -> bool:
        """True when any per-session channel fault is armed (the sync
        engine then routes batches through a :class:`FaultyTransport`)."""
        return any(
            probability > 0.0
            for probability in (
                self.truncation_probability,
                self.duplication_probability,
                self.corruption_probability,
                self.replay_probability,
                self.fabrication_probability,
                self.malformed_probability,
            )
        )

    # -- serialization (the repro.api round-trip contract) ------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict; ``from_dict(to_dict())`` reconstructs exactly."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultConfig":
        """Rebuild a config serialized by :meth:`to_dict`.

        Unknown keys raise :class:`TypeError` naming the offending field
        (via the keyword-only constructor), so a stale artifact fails
        loudly instead of silently dropping a knob.
        """
        return cls(**dict(data))
