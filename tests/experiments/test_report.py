"""Unit tests for the text report renderers."""

import json

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.report import (
    render_figure_8,
    render_measured_table,
    render_series_table,
    render_store_summary,
    render_summary_rows,
    render_table_1,
    render_table_2,
)
from repro.experiments.runner import run_experiment
from repro.experiments.store import RunStore
from repro.experiments.tables import measured_policy_table

SKIPPED_ONE = "skipped 1 unreadable run artifact(s)"


class TestSeriesTable:
    def test_renders_all_series_and_points(self):
        text = render_series_table(
            "Figure X",
            "k",
            {"random": [(0, 70.0), (1, 35.0)], "selected": [(0, 70.0), (1, 30.0)]},
        )
        assert "Figure X" in text
        assert "random" in text and "selected" in text
        assert "35.00" in text and "30.00" in text

    def test_missing_points_rendered_as_dash(self):
        text = render_series_table(
            "t", "x", {"a": [(0, 1.0)], "b": [(1, 2.0)]}
        )
        assert "—" in text

    def test_x_values_sorted(self):
        text = render_series_table("t", "x", {"a": [(5, 1.0), (1, 2.0)]})
        lines = text.splitlines()
        assert lines[3].strip().startswith("1")


class TestFigure8Renderer:
    def test_rows_per_policy(self):
        text = render_figure_8(
            {"cimbiosys": {"at_delivery": 2.0, "at_end": 2.0}}
        )
        assert "cimbiosys" in text
        assert "2.00" in text


class TestTableRenderers:
    def test_table_1_lists_all_protocols(self):
        text = render_table_1()
        for protocol in ("Epidemic", "Spray&Wait", "PROPHET", "MaxProp"):
            assert protocol in text

    def test_table_2_lists_parameters(self):
        text = render_table_2()
        assert "initial_ttl=10" in text
        assert "gamma=0.98" in text


class TestSummaryRows:
    def test_side_by_side_columns(self):
        text = render_summary_rows(
            {
                "cimbiosys": {"delivery_ratio": 0.9, "mean_delay_hours": 70.0},
                "epidemic": {"delivery_ratio": 1.0, "mean_delay_hours": 4.0},
            }
        )
        assert "cimbiosys" in text and "epidemic" in text
        assert "delivery_ratio" in text


class TestStoreReports:
    """A report over a whole store skips the artifacts the store refuses."""

    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(ExperimentConfig(scale=0.25, policy="epidemic"))

    @pytest.fixture()
    def store(self, tmp_path, result):
        store = RunStore(tmp_path / "runs")
        store.save_result(result)
        return store

    @pytest.fixture()
    def stale_store(self, store):
        """The store plus a faulted artifact whose config names a knob
        that no longer exists, as one written before 1.10 does."""
        (path,) = store.root.glob("*.json")
        artifact = json.loads(path.read_text())
        artifact["result"]["config"]["faults"] = {
            "truncation_probability": 0.3,
            "truncation_min": 1,
        }
        (store.root / "epidemic-0123456789abcdef.json").write_text(
            json.dumps(artifact)
        )
        return store

    def test_the_summary_skips_a_refused_artifact(self, stale_store):
        text = render_store_summary(stale_store)
        assert "epidemic" in text and "delivery_ratio" in text

    def test_the_measured_table_skips_it_and_ends_saying_so(self, stale_store):
        assert measured_policy_table(stale_store)["epidemic"]["runs"] == 1
        lines = render_measured_table(stale_store).splitlines()
        assert lines[-1] == SKIPPED_ONE
        assert sum("skipped" in line for line in lines) == 1

    def test_nothing_extra_when_nothing_is_refused(self, store):
        assert "skipped" not in render_store_summary(store)
        assert "skipped" not in render_measured_table(store)
