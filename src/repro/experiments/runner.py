"""Experiment execution: config in, measured result out."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.emulation.columnar import run_columnar
from repro.emulation.encounters import EncounterTrace
from repro.emulation.metrics import HOURS, MetricsCollector
from repro.traces.enron import EmailWorkloadModel

from .config import ExperimentConfig
from .scenario import Scenario, build_scenario


@dataclass
class ExperimentResult:
    """The outcome of one emulation run."""

    config: ExperimentConfig
    metrics: MetricsCollector
    trace_summary: Dict[str, float]

    @property
    def label(self) -> str:
        return self.config.label()

    def delay_cdf_hours(
        self, hour_points: Sequence[float]
    ) -> List[Tuple[float, float]]:
        """(hours, fraction delivered) pairs — the Figure 7/9/10 curves."""
        return [
            (hours, fraction)
            for (seconds, fraction), hours in zip(
                self.metrics.delay_cdf([h * HOURS for h in hour_points]),
                hour_points,
            )
        ]

    def summary(self) -> Dict[str, float]:
        return self.metrics.summary()

    # -- serialization (the repro.api round-trip contract) ------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict; ``from_dict(to_dict())`` reconstructs exactly.

        This is the payload the sweep engine ships from worker processes
        to the parent and the body of every run artifact in the store.
        """
        return {
            "config": self.config.to_dict(),
            "metrics": self.metrics.to_dict(),
            "trace_summary": dict(self.trace_summary),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentResult":
        return cls(
            config=ExperimentConfig.from_dict(data["config"]),
            metrics=MetricsCollector.from_dict(data["metrics"]),
            trace_summary=dict(data["trace_summary"]),
        )


def run_experiment(
    config: ExperimentConfig,
    trace: Optional[EncounterTrace] = None,
    model: Optional[EmailWorkloadModel] = None,
) -> ExperimentResult:
    """Build the scenario for ``config``, run it, and collect metrics.

    ``config.engine`` selects the emulation core: ``"object"`` (default)
    builds the full per-node object scenario; ``"columnar"`` runs the
    flat-array core (:mod:`repro.emulation.columnar`), which raises
    :class:`~repro.emulation.columnar.ColumnarUnsupportedError` for
    configurations outside its verified subset.
    """
    if config.engine == "columnar":
        metrics, trace_summary = run_columnar(config, trace=trace, model=model)
        return ExperimentResult(
            config=config, metrics=metrics, trace_summary=trace_summary
        )
    scenario = build_scenario(config, trace=trace, model=model)
    return run_scenario(scenario)


def run_scenario(scenario: Scenario) -> ExperimentResult:
    """Run a pre-built scenario (lets callers inspect or tweak it first)."""
    metrics = scenario.emulator.run()
    return ExperimentResult(
        config=scenario.config,
        metrics=metrics,
        trace_summary=scenario.trace.summary(),
    )
