"""Experiment configuration.

One :class:`ExperimentConfig` fully determines one emulation run: the
mobility trace (synthetic DieselNet parameters or an externally supplied
trace), the e-mail workload, the routing policy and its parameters, the
filter-population strategy (for the Figure 5/6 multi-address experiments),
and the resource constraints (Figures 9/10). Everything is seeded, so a
config is a complete, reproducible description of a run.

``scale`` shrinks the scenario uniformly (fewer days/buses/messages) so
tests and default benchmark runs finish quickly; ``scale=1.0`` is the
paper's full scenario. The environment variable ``REPRO_SCALE`` overrides
the default scale used by the figure harnesses.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Mapping, Optional

from repro.churn.config import ChurnConfig
from repro.faults import FaultConfig

#: Default scale used by the figure benchmarks; override with REPRO_SCALE.
DEFAULT_SCALE = 0.5


def configured_scale() -> float:
    """The scale requested via the ``REPRO_SCALE`` env var (default 0.5)."""
    raw = os.environ.get("REPRO_SCALE")
    if raw is None:
        return DEFAULT_SCALE
    value = float(raw)
    if not 0.0 < value <= 1.0:
        raise ValueError("REPRO_SCALE must be in (0, 1]")
    return value


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """Full description of one emulation run.

    Construct with keyword arguments only (positional arguments raise
    :class:`TypeError`). Configs round-trip through :meth:`to_dict` /
    :meth:`from_dict`, which is what lets sweep workers rebuild scenarios
    from serialized configs and lets the artifact store content-address
    runs by config digest.
    """

    # Scenario shape (scaled by ``scale``; 1.0 = the paper's numbers).
    scale: float = 1.0
    trace_seed: int = 42
    n_users: int = 100
    target_messages: int = 490
    injection_days: int = 8

    # Routing.
    policy: str = "cimbiosys"
    policy_parameters: Dict[str, Any] = field(default_factory=dict)

    # How messages are addressed: "bus" = to the node hosting the
    # recipient on the injection day (the paper's model, static filters);
    # "user" = to the recipient's own address, with filters tracking the
    # daily user→bus assignment (dynamic-filter extension mode).
    addressing: str = "bus"

    # Figure 5/6 filter strategy: "self", "random", or "selected", with k
    # extra relay addresses per host.
    filter_strategy: str = "self"
    filter_k: int = 0
    filter_seed: int = 17

    # Figure 9/10 constraints. ``eviction_strategy`` picks the relay
    # buffer's victim-selection rule when storage_limit binds: "fifo"
    # (the paper's Figure 10 choice), "random", or "oldest-created".
    bandwidth_limit: Optional[int] = None
    storage_limit: Optional[int] = None
    eviction_strategy: str = "fifo"

    # Section IV-A cleanup flow: "after a message is received and
    # processed, the destination node can simply delete the item, causing
    # it to be discarded by forwarding nodes". The paper's experiments
    # never delete (Fig. 8's worst case); enable to study the effect.
    delete_on_receipt: bool = False

    # Fault injection (repro.faults): None = perfect network, identical
    # to a config predating the fault subsystem. A disabled FaultConfig
    # (all probabilities zero) is also bit-for-bit equivalent to None.
    faults: Optional[FaultConfig] = None

    # Node churn (repro.churn): None = the fixed population of the
    # paper's evaluation, identical to a config predating the churn
    # subsystem. A disabled ChurnConfig (all fractions zero) is also
    # bit-for-bit equivalent to None.
    churn: Optional[ChurnConfig] = None

    # Emulation engine: "object" is the executable spec
    # (repro.emulation.network); "columnar" is the flat-array core for
    # city-scale runs (repro.emulation.columnar), equivalent on its
    # supported subset and loudly rejecting anything else.
    engine: str = "object"

    # Determinism knobs.
    assignment_seed: int = 5
    workload_seed: int = 99
    encounter_order_seed: int = 11
    email_seed: int = 7
    fault_seed: int = 23

    def __post_init__(self) -> None:
        if not 0.0 < self.scale <= 1.0:
            raise ValueError("scale must be in (0, 1]")
        if self.addressing not in ("bus", "user"):
            raise ValueError("addressing must be 'bus' or 'user'")
        if self.filter_strategy not in ("self", "random", "selected"):
            raise ValueError(
                "filter_strategy must be 'self', 'random', or 'selected'"
            )
        if self.filter_strategy == "self" and self.filter_k != 0:
            raise ValueError("filter_k must be 0 with the 'self' strategy")
        if self.filter_k < 0:
            raise ValueError("filter_k must be >= 0")
        if self.bandwidth_limit is not None and self.bandwidth_limit < 0:
            raise ValueError("bandwidth_limit must be >= 0 or None")
        if self.eviction_strategy not in ("fifo", "random", "oldest-created"):
            raise ValueError(
                "eviction_strategy must be 'fifo', 'random', or 'oldest-created'"
            )
        if self.storage_limit is not None and self.storage_limit < 0:
            raise ValueError("storage_limit must be >= 0 or None")
        if self.engine not in ("object", "columnar"):
            raise ValueError("engine must be 'object' or 'columnar'")

    @property
    def effective_users(self) -> int:
        return max(6, int(round(self.n_users * self.scale)))

    @property
    def effective_messages(self) -> int:
        return max(10, int(round(self.target_messages * self.scale)))

    def with_policy(self, policy: str, **parameters: Any) -> "ExperimentConfig":
        return replace(self, policy=policy, policy_parameters=dict(parameters))

    def with_filters(self, strategy: str, k: int) -> "ExperimentConfig":
        return replace(self, filter_strategy=strategy, filter_k=k)

    def with_constraints(
        self,
        bandwidth_limit: Optional[int] = None,
        storage_limit: Optional[int] = None,
    ) -> "ExperimentConfig":
        return replace(
            self, bandwidth_limit=bandwidth_limit, storage_limit=storage_limit
        )

    def with_faults(self, **knobs: Any) -> "ExperimentConfig":
        """Arm the fault subsystem (knobs are FaultConfig fields)."""
        return replace(self, faults=FaultConfig(**knobs))

    def with_churn(self, **knobs: Any) -> "ExperimentConfig":
        """Arm the churn subsystem (knobs are ChurnConfig fields)."""
        return replace(self, churn=ChurnConfig(**knobs))

    def label(self) -> str:
        """A short human-readable tag for reports."""
        parts = [self.policy]
        if self.filter_strategy != "self":
            parts.append(f"{self.filter_strategy}+{self.filter_k}")
        if self.bandwidth_limit is not None:
            parts.append(f"bw={self.bandwidth_limit}")
        if self.storage_limit is not None:
            parts.append(f"store={self.storage_limit}")
        if self.faults is not None and self.faults.enabled:
            parts.append("faults")
        if self.churn is not None and self.churn.enabled:
            parts.append("churn")
        if self.engine != "object":
            parts.append(self.engine)
        if self.trace_seed != 42:
            parts.append(f"seed={self.trace_seed}")
        return " ".join(parts)

    # -- serialization (the repro.api round-trip contract) ------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict; ``from_dict(to_dict())`` reconstructs exactly.

        ``policy_parameters`` values must themselves be JSON-safe (they
        always are for the registered policies — Table II knobs are ints
        and floats). ``faults`` nests a :meth:`FaultConfig.to_dict` block
        or ``None``. ``churn`` nests a :meth:`ChurnConfig.to_dict` block
        when set and is *omitted entirely* when None — unlike ``faults``
        (whose None predates the content-addressed store), an
        always-present key would silently change the config digest, and
        therefore the run id, of every previously recorded artifact.
        """
        data: Dict[str, Any] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name == "policy_parameters":
                value = dict(value)
            elif spec.name == "faults":
                value = value.to_dict() if value is not None else None
            elif spec.name == "churn":
                if value is None:
                    continue
                value = value.to_dict()
            data[spec.name] = value
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentConfig":
        """Rebuild a config serialized by :meth:`to_dict`.

        Unknown keys raise :class:`TypeError` naming the offending field,
        so configs from a newer schema fail loudly.
        """
        payload = dict(data)
        faults = payload.get("faults")
        if isinstance(faults, Mapping):
            payload["faults"] = FaultConfig.from_dict(faults)
        churn = payload.get("churn")
        if isinstance(churn, Mapping):
            payload["churn"] = ChurnConfig.from_dict(churn)
        return cls(**payload)
