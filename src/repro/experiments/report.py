"""Text rendering of figure/table data in paper-style rows.

Renderers take either structured data from the figure harnesses or a
:class:`~repro.experiments.store.RunStore` — reports over a completed
sweep are built from the JSON artifacts on disk, not from live metric
objects, so they can be regenerated at any time without re-running a
single emulation.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .runner import ExperimentResult
from .tables import TABLE_I, TABLE_II, measured_policy_table

#: Version of the JSON summary documents emitted by ``repro run --json``,
#: ``repro serve`` (status replies), and ``repro swarm``. Bump when a
#: consumer-visible key changes meaning or disappears; adding keys is
#: backward-compatible and needs no bump.
SUMMARY_SCHEMA_VERSION = 1


def run_summary_document(
    *,
    kind: str,
    label: str,
    scale: float,
    summary: Mapping[str, Any],
    fault_seed: Optional[int] = None,
    extra: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """The one shared, versioned summary document every entry point emits.

    ``kind`` says which entry point produced it (``"run"``, ``"serve"``,
    ``"swarm"``); the core keys (``schema``, ``kind``, ``label``,
    ``scale``, ``fault_seed``, ``summary``) are stable and identical
    across all of them, so a consumer parsing ``document["summary"]``
    works on any of the three. ``extra`` merges additional top-level
    keys but cannot shadow the core ones.
    """
    document: Dict[str, Any] = {
        "schema": SUMMARY_SCHEMA_VERSION,
        "kind": kind,
        "label": label,
        "scale": scale,
        "fault_seed": fault_seed,
        "summary": dict(summary),
    }
    if extra:
        for key, value in extra.items():
            if key in document:
                raise ValueError(
                    f"extra key {key!r} would shadow a core summary key"
                )
            document[key] = value
    return document


def render_series_table(
    title: str,
    x_label: str,
    series: Mapping[str, Sequence[Tuple[float, float]]],
    value_format: str = "{:8.2f}",
) -> str:
    """Render {series name: [(x, y), ...]} as an aligned text table."""
    lines = [title]
    names = list(series)
    xs: List[float] = []
    for points in series.values():
        for x, _ in points:
            if x not in xs:
                xs.append(x)
    xs.sort()
    header = f"{x_label:>12} | " + " | ".join(f"{name:>12}" for name in names)
    lines.append(header)
    lines.append("-" * len(header))
    lookup = {
        name: {x: y for x, y in points} for name, points in series.items()
    }
    for x in xs:
        cells = []
        for name in names:
            y = lookup[name].get(x)
            cells.append(
                f"{'—':>12}" if y is None else f"{value_format.format(y):>12}"
            )
        x_text = f"{x:g}"
        lines.append(f"{x_text:>12} | " + " | ".join(cells))
    return "\n".join(lines)


def render_figure_8(copies: Mapping[str, Mapping[str, float]]) -> str:
    """Render the Figure 8 bar data as rows."""
    lines = [
        "Figure 8: average copies of each message stored in the network",
        f"{'policy':>12} | {'at delivery':>12} | {'at end':>12}",
        "-" * 44,
    ]
    for policy, values in copies.items():
        lines.append(
            f"{policy:>12} | {values['at_delivery']:>12.2f} | "
            f"{values['at_end']:>12.2f}"
        )
    return "\n".join(lines)


def render_table_1() -> str:
    """Table I, as printed in the paper."""
    lines = ["Table I: summary of policies for DTN routing protocols", ""]
    for row in TABLE_I:
        lines.append(f"{row.protocol}:")
        lines.append(f"  routing state         : {row.routing_state}")
        lines.append(f"  added to sync request : {row.added_to_sync_request or '—'}")
        lines.append(f"  source forwarding     : {row.source_forwarding_policy}")
    return "\n".join(lines)


def render_table_2() -> str:
    """Table II, as printed in the paper."""
    lines = ["Table II: DTN protocol parameters", ""]
    for policy, parameters in TABLE_II.items():
        rendered = ", ".join(f"{k}={v}" for k, v in parameters.items())
        lines.append(f"  {policy:>10}: {rendered}")
    return "\n".join(lines)


def render_store_summary(store, label_filter: Optional[str] = None) -> str:
    """Headline metrics for every run artifact in a store, side by side.

    Reads the content-addressed artifacts (see ``docs/sweeps.md``), so a
    finished — or interrupted — sweep can be summarized without holding
    any live experiment state. Artifacts the store refuses are skipped;
    :func:`render_measured_table` counts them.
    """
    summaries: Dict[str, Mapping[str, float]] = {}
    for artifact in store.readable_artifacts():
        label = artifact["label"]
        if label_filter and label_filter.lower() not in label.lower():
            continue
        name = label if label not in summaries else artifact["run_id"]
        summaries[name] = ExperimentResult.from_dict(artifact["result"]).summary()
    if not summaries:
        return "(no run artifacts)"
    return render_summary_rows(summaries)


def render_measured_table(store) -> str:
    """Per-policy measured means over every stored replicate.

    The artifact-store counterpart of Table II: what the runs *measured*,
    aggregated per policy across seeds and constraint settings. Ends with
    a line counting the artifacts the store refused, if it refused any.
    """
    rows = measured_policy_table(store)
    # The table counts each artifact it read as one run of its policy.
    read = sum(int(row["runs"]) for row in rows.values())
    refused = len(store.list_run_ids()) - read
    skipped = [f"skipped {refused} unreadable run artifact(s)"] if refused else []
    if not rows:
        return "\n".join(["(no run artifacts)", *skipped])
    header = (
        f"{'policy':>12} | {'runs':>5} | {'delivery':>9} | "
        f"{'mean delay (h)':>14} | {'transmissions':>13}"
    )
    lines = [
        "Measured per-policy means (over stored run artifacts)",
        header,
        "-" * len(header),
    ]
    for policy, row in rows.items():
        lines.append(
            f"{policy:>12} | {row['runs']:>5.0f} | "
            f"{row['delivery_ratio']:>9.2f} | "
            f"{row['mean_delay_hours']:>14.2f} | "
            f"{row['transmissions']:>13.0f}"
        )
    return "\n".join(lines + skipped)


def render_summary_rows(summaries: Mapping[str, Mapping[str, float]]) -> str:
    """Side-by-side headline metrics for a set of runs."""
    keys = [
        "delivery_ratio",
        "mean_delay_hours",
        "max_delay_days",
        "within_12h",
        "transmissions",
        "mean_copies_at_delivery",
        "mean_copies_at_end",
    ]
    lines = [f"{'metric':>24} | " + " | ".join(f"{name:>11}" for name in summaries)]
    lines.append("-" * len(lines[0]))
    for key in keys:
        cells = []
        for summary in summaries.values():
            value = summary.get(key, float("nan"))
            cells.append(f"{value:>11.2f}")
        lines.append(f"{key:>24} | " + " | ".join(cells))
    return "\n".join(lines)
