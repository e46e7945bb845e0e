"""Per-figure reproduction harnesses.

A figure is a list of :class:`~repro.experiments.config.ExperimentConfig`
legs and a fold over their results. Every leg runs through
:func:`~repro.experiments.sweep.run_sweep` into a
:class:`~repro.experiments.store.RunStore` and is read back from its
artifact, so a leg runs once per store: Figures 5 and 6 share one
multi-address sweep and Figures 7 and 8 one policy sweep, exactly as in
the paper, and a leg ``repro sweep`` already ran is reused. ``tests/paper``
and ``repro figure`` render the folds as paper-style rows (see
:mod:`repro.experiments.report` for the renderer).
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.dtn.registry import PAPER_POLICY_ORDER
from repro.emulation.metrics import HOURS, MetricsCollector

from .config import ExperimentConfig
from .runner import ExperimentResult
from .store import RunStore, run_id_for
from .sweep import run_sweep

#: k values on the x-axis of Figures 5 and 6 ("Self" is k = 0).
FIGURE_5_K_VALUES: Tuple[int, ...] = (0, 1, 2, 4, 8, 16)

#: Hour points for the Figure 7(a)/9/10 CDFs.
CDF_HOURS: Tuple[float, ...] = tuple(float(h) for h in range(0, 13))

#: Day points for the Figure 7(b) CDF.
CDF_DAYS: Tuple[float, ...] = tuple(float(d) for d in range(1, 11))

#: The title line of each figure's rendered rows, by ``results/`` name;
#: Figure 8's is in :func:`~repro.experiments.report.render_figure_8`.
FIGURE_TITLES: Dict[str, str] = {
    "fig5": "Figure 5: average message delay (hours) vs addresses in filter",
    "fig6": "Figure 6: % messages delivered within 12 hours vs addresses in filter",
    "fig7a": "Figure 7(a): % delivered vs delay (hours), unconstrained",
    "fig7b": "Figure 7(b): % delivered vs delay (days), unconstrained",
    "fig9": "Figure 9: % delivered vs delay (hours), bandwidth-constrained "
    "(1 message per encounter)",
    "fig10": "Figure 10: % delivered vs delay (hours), storage-constrained "
    "(max 2 relayed messages per node, FIFO eviction)",
}

Key = TypeVar("Key", bound=Hashable)


def _run_legs(
    legs: Mapping[Key, ExperimentConfig], store: RunStore
) -> Dict[Key, ExperimentResult]:
    """Run each leg's config serially into ``store`` and read it back.

    Valid artifacts are reused, and legs with one config share one run
    (and one result object). Raises on a failed leg, with its error text.
    """
    run_ids = {key: run_id_for(config) for key, config in legs.items()}
    configs = dict(zip(run_ids.values(), legs.values()))
    for outcome in run_sweep(list(configs.values()), store=store).outcomes:
        if outcome.status == "failed":
            raise RuntimeError(
                f"figure leg {outcome.label} failed:\n{outcome.error}"
            )
    results = {run_id: store.load_result(run_id) for run_id in configs}
    return {key: results[run_id] for key, run_id in run_ids.items()}


def _percent_cdf(
    result: ExperimentResult, hour_points: Sequence[float]
) -> List[Tuple[float, float]]:
    """(hours, % delivered within them) at each of ``hour_points``."""
    return [
        (hours, 100.0 * fraction)
        for hours, fraction in result.delay_cdf_hours(hour_points)
    ]


# -- Figures 5 & 6: multi-address filters -------------------------------------------


def multiaddress_sweep(
    scale: float,
    store: RunStore,
    k_values: Sequence[int] = FIGURE_5_K_VALUES,
) -> Dict[Tuple[str, int], ExperimentResult]:
    """Run the unmodified-Cimbiosys multi-address experiments.

    Returns results keyed by (strategy, k); k = 0 is the shared "Self"
    baseline, stored under both strategies for convenient plotting.
    """
    base = ExperimentConfig(scale=scale, policy="cimbiosys")
    return _run_legs(
        {
            (strategy, k): base.with_filters(strategy, k) if k else base
            for strategy in ("random", "selected")
            for k in k_values
        },
        store,
    )


def _multiaddress_series(
    scale: float,
    store: RunStore,
    k_values: Sequence[int],
    value: Callable[[MetricsCollector], float],
) -> Dict[str, List[Tuple[int, float]]]:
    sweep = multiaddress_sweep(scale, store, k_values)
    return {
        strategy: [(k, value(sweep[(strategy, k)].metrics)) for k in k_values]
        for strategy in ("random", "selected")
    }


def figure_5(
    scale: float,
    store: RunStore,
    k_values: Sequence[int] = FIGURE_5_K_VALUES,
) -> Dict[str, List[Tuple[int, float]]]:
    """Mean message delay (hours) vs addresses-in-filter, per strategy."""

    def mean_hours(metrics: MetricsCollector) -> float:
        hours = metrics.mean_delay_hours()
        return hours if hours is not None else float("nan")

    return _multiaddress_series(scale, store, k_values, mean_hours)


def figure_6(
    scale: float,
    store: RunStore,
    k_values: Sequence[int] = FIGURE_5_K_VALUES,
) -> Dict[str, List[Tuple[int, float]]]:
    """% messages delivered within 12 hours vs addresses-in-filter."""
    return _multiaddress_series(
        scale,
        store,
        k_values,
        lambda metrics: 100.0 * metrics.fraction_delivered_within(12.0 * HOURS),
    )


# -- Figures 7–10: DTN routing policies -----------------------------------------------


def policy_sweep(
    scale: float,
    store: RunStore,
    policies: Sequence[str] = PAPER_POLICY_ORDER,
    bandwidth_limit: Optional[int] = None,
    storage_limit: Optional[int] = None,
) -> Dict[str, ExperimentResult]:
    """Run each routing policy over the paper's scenario at ``scale``."""
    return _run_legs(
        {
            policy: ExperimentConfig(scale=scale, policy=policy).with_constraints(
                bandwidth_limit=bandwidth_limit, storage_limit=storage_limit
            )
            for policy in policies
        },
        store,
    )


def figure_7(
    scale: float,
    store: RunStore,
    policies: Sequence[str] = PAPER_POLICY_ORDER,
) -> Dict[str, Dict[str, List[Tuple[float, float]]]]:
    """Delay CDFs, unconstrained: (a) 0–12 hours, (b) 1–10 days."""
    curves: Dict[str, Dict[str, List[Tuple[float, float]]]] = {}
    for policy, result in policy_sweep(scale, store, policies).items():
        by_day = _percent_cdf(result, [day * 24.0 for day in CDF_DAYS])
        curves[policy] = {
            "hours": _percent_cdf(result, CDF_HOURS),
            "days": [(day, value) for day, (_, value) in zip(CDF_DAYS, by_day)],
        }
    return curves


def figure_8(
    scale: float,
    store: RunStore,
    policies: Sequence[str] = PAPER_POLICY_ORDER,
) -> Dict[str, Dict[str, float]]:
    """Average stored copies per message, at delivery time and at the end.

    NaN where no message has the count, as in ``MetricsCollector.summary``.
    """
    copies: Dict[str, Dict[str, float]] = {}
    for policy, result in policy_sweep(scale, store, policies).items():
        summary = result.metrics.summary()
        copies[policy] = {
            "at_delivery": summary["mean_copies_at_delivery"],
            "at_end": summary["mean_copies_at_end"],
        }
    return copies


def figure_9(
    scale: float,
    store: RunStore,
    policies: Sequence[str] = PAPER_POLICY_ORDER,
    bandwidth_limit: int = 1,
) -> Dict[str, List[Tuple[float, float]]]:
    """Delay CDF (0–12 h) with the bandwidth cap (1 message per encounter)."""
    sweep = policy_sweep(scale, store, policies, bandwidth_limit=bandwidth_limit)
    return {
        policy: _percent_cdf(result, CDF_HOURS)
        for policy, result in sweep.items()
    }


def figure_10(
    scale: float,
    store: RunStore,
    policies: Sequence[str] = PAPER_POLICY_ORDER,
    storage_limit: int = 2,
) -> Dict[str, List[Tuple[float, float]]]:
    """Delay CDF (0–12 h) with the storage cap (2 relayed messages per node)."""
    sweep = policy_sweep(scale, store, policies, storage_limit=storage_limit)
    return {
        policy: _percent_cdf(result, CDF_HOURS)
        for policy, result in sweep.items()
    }
