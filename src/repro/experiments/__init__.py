"""Experiment harnesses reproducing the paper's evaluation (Section VI).

Beyond the per-figure harnesses this package hosts the sweep machinery:
:mod:`~repro.experiments.sweep` (process-parallel grid execution) and
:mod:`~repro.experiments.store` (content-addressed run artifacts).
The supported subset of these names is re-exported by :mod:`repro.api`.
"""

from repro import late_names

#: Every name loads from its home module on first use: a process that
#: builds and runs one scenario loads neither the figure harnesses nor
#: the sweep engine and ``multiprocessing``.
_HOMES = {
    "repro.experiments.config": ("DEFAULT_SCALE", "ExperimentConfig", "configured_scale"),
    "repro.experiments.figures": (
        "CDF_DAYS", "CDF_HOURS", "FIGURE_5_K_VALUES", "figure_5", "figure_6",
        "figure_7", "figure_8", "figure_9", "figure_10", "multiaddress_sweep",
        "policy_sweep",
    ),
    "repro.experiments.report": (
        "render_figure_8", "render_measured_table", "render_series_table",
        "render_store_summary", "render_summary_rows", "render_table_1",
        "render_table_2",
    ),
    "repro.experiments.runner": ("ExperimentResult", "run_experiment", "run_scenario"),
    "repro.experiments.scenario": ("Scenario", "build_scenario", "expected_user_meetings"),
    "repro.experiments.store": ("RunStore", "StoreError", "config_digest", "run_id_for"),
    "repro.experiments.sweep": (
        "RunOutcome", "SweepEvent", "SweepReport", "expand_grid", "filter_by_label",
        "run_sweep", "seeded",
    ),
    "repro.experiments.tables": (
        "TABLE_I", "TABLE_II", "TABLE_II_PAPER_VALUES", "PolicySummaryRow",
        "measured_policy_table",
    ),
}
__getattr__, __dir__ = late_names(globals(), _HOMES)

__all__ = [
    "CDF_DAYS",
    "CDF_HOURS",
    "DEFAULT_SCALE",
    "ExperimentConfig",
    "ExperimentResult",
    "FIGURE_5_K_VALUES",
    "PolicySummaryRow",
    "RunOutcome",
    "RunStore",
    "Scenario",
    "StoreError",
    "SweepEvent",
    "SweepReport",
    "TABLE_I",
    "TABLE_II",
    "TABLE_II_PAPER_VALUES",
    "build_scenario",
    "config_digest",
    "configured_scale",
    "expand_grid",
    "expected_user_meetings",
    "figure_10",
    "figure_5",
    "figure_6",
    "figure_7",
    "figure_8",
    "figure_9",
    "filter_by_label",
    "measured_policy_table",
    "multiaddress_sweep",
    "policy_sweep",
    "render_figure_8",
    "render_measured_table",
    "render_series_table",
    "render_store_summary",
    "render_summary_rows",
    "render_table_1",
    "render_table_2",
    "run_experiment",
    "run_id_for",
    "run_scenario",
    "run_sweep",
    "seeded",
]
