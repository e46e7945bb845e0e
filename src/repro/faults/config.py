"""Configuration for the fault-injection subsystem.

A :class:`FaultConfig` is a complete, declarative description of the
failure environment an emulation runs in: which fault models are armed,
how aggressive each one is, and how interrupted sessions back off before
retrying. Like :class:`~repro.experiments.config.ExperimentConfig` it is
frozen and fully validated at construction, so a config plus a seed is a
reproducible description of every fault the run will see.

All probabilities default to ``0.0`` — a default-constructed config is
*disabled* and an emulator given one behaves bit-for-bit like an emulator
given no fault config at all (the zero-fault equivalence guarantee,
enforced by ``tests/integration/test_zero_fault_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Mapping, Optional


#: Truncation budgets may be expressed in batch entries or in wire bytes.
TRUNCATION_UNITS = ("items", "bytes")


@dataclass(frozen=True, kw_only=True)
class FaultConfig:
    """Knobs for every fault model plus the retry/backoff policy.

    Fault models (each armed when its probability is positive):

    * ``encounter_drop_probability`` — Bernoulli drop of a whole
      encounter: the radio contact happened but no sync ran.
    * ``truncation_probability`` — per sync session, cut the batch after
      ``K`` delivered entries (or bytes), ``K`` drawn uniformly from
      ``[truncation_min, truncation_max]``; the target keeps the prefix.
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

    Retry/backoff bookkeeping (applies to interrupted sessions):

    * ``retry_backoff_base`` — seconds to wait before re-attempting a
      pair whose last sync was truncated.
    * ``retry_backoff_factor`` — exponential growth per consecutive
      interruption.
    * ``retry_backoff_max`` — cap on the computed delay.

    Peer-health policy (consumed by
    :class:`repro.replication.peer_health.PeerHealthTracker`): a peer
    accumulating ``suspect_threshold`` violation strikes turns suspect,
    ``quarantine_threshold`` turns quarantined; quarantined peers wait
    out an exponential backoff (``quarantine_backoff_*`` with
    ``quarantine_jitter``) before ``recovery_probes`` consecutive clean
    probe encounters restore them to healthy.
    """

    encounter_drop_probability: float = 0.0
    truncation_probability: float = 0.0
    truncation_min: int = 0
    truncation_max: Optional[int] = None
    truncation_unit: str = "items"
    duplication_probability: float = 0.0
    crash_probability: float = 0.0
    corruption_probability: float = 0.0
    replay_probability: float = 0.0
    fabrication_probability: float = 0.0
    malformed_probability: float = 0.0
    retry_backoff_base: float = 60.0
    retry_backoff_factor: float = 2.0
    retry_backoff_max: float = 3600.0
    suspect_threshold: int = 3
    quarantine_threshold: int = 6
    quarantine_backoff_base: float = 120.0
    quarantine_backoff_factor: float = 2.0
    quarantine_backoff_max: float = 3600.0
    quarantine_jitter: float = 0.1
    recovery_probes: int = 2

    def __post_init__(self) -> None:
        for name in (
            "encounter_drop_probability",
            "truncation_probability",
            "duplication_probability",
            "crash_probability",
            "corruption_probability",
            "replay_probability",
            "fabrication_probability",
            "malformed_probability",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        if self.truncation_unit not in TRUNCATION_UNITS:
            raise ValueError(
                f"truncation_unit must be one of {TRUNCATION_UNITS}, "
                f"got {self.truncation_unit!r}"
            )
        if self.truncation_min < 0:
            raise ValueError("truncation_min must be >= 0")
        if self.truncation_max is not None and self.truncation_max < self.truncation_min:
            raise ValueError("truncation_max must be >= truncation_min or None")
        if self.retry_backoff_base <= 0:
            raise ValueError("retry_backoff_base must be positive")
        if self.retry_backoff_factor < 1.0:
            raise ValueError("retry_backoff_factor must be >= 1")
        if self.retry_backoff_max < self.retry_backoff_base:
            raise ValueError("retry_backoff_max must be >= retry_backoff_base")
        if self.suspect_threshold < 1:
            raise ValueError("suspect_threshold must be >= 1")
        if self.quarantine_threshold < self.suspect_threshold:
            raise ValueError(
                "quarantine_threshold must be >= suspect_threshold"
            )
        if self.quarantine_backoff_base <= 0:
            raise ValueError("quarantine_backoff_base must be positive")
        if self.quarantine_backoff_factor < 1.0:
            raise ValueError("quarantine_backoff_factor must be >= 1")
        if self.quarantine_backoff_max < self.quarantine_backoff_base:
            raise ValueError(
                "quarantine_backoff_max must be >= quarantine_backoff_base"
            )
        if not 0.0 <= self.quarantine_jitter < 1.0:
            raise ValueError("quarantine_jitter must be in [0, 1)")
        if self.recovery_probes < 1:
            raise ValueError("recovery_probes must be >= 1")

    @property
    def enabled(self) -> bool:
        """True when at least one fault model can actually fire."""
        return any(
            probability > 0.0
            for probability in (
                self.encounter_drop_probability,
                self.truncation_probability,
                self.duplication_probability,
                self.crash_probability,
                self.corruption_probability,
                self.replay_probability,
                self.fabrication_probability,
                self.malformed_probability,
            )
        )

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
