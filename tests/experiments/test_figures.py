"""Small-scale smoke tests of the per-figure harnesses.

Full-shape assertions run in the benchmark suite at the configured scale;
here we run everything tiny and assert structure plus the cheap shape
facts that survive downscaling.
"""

import dataclasses

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import (
    CDF_HOURS,
    FIGURE_5_K_VALUES,
    figure_5,
    figure_6,
    figure_7,
    figure_8,
    figure_9,
    figure_10,
    multiaddress_sweep,
    policy_sweep,
)
from repro.experiments.runner import run_experiment
from repro.experiments.store import RunStore
from repro.experiments.sweep import run_sweep

SCALE = 0.25
K_VALUES = (0, 1, 2)
POLICIES = ("cimbiosys", "epidemic")


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    return RunStore(tmp_path_factory.mktemp("runs"))


class TestMultiAddressSweep:
    def test_k0_shared_between_strategies(self, store):
        sweep = multiaddress_sweep(SCALE, store, K_VALUES)
        assert sweep[("random", 0)] is sweep[("selected", 0)]

    def test_all_cells_present(self, store):
        sweep = multiaddress_sweep(SCALE, store, K_VALUES)
        assert set(sweep) == {
            (strategy, k)
            for strategy in ("random", "selected")
            for k in K_VALUES
        }


class TestFigure5:
    def test_series_structure(self, store):
        series = figure_5(SCALE, store, K_VALUES)
        assert set(series) == {"random", "selected"}
        for points in series.values():
            assert [k for k, _ in points] == list(K_VALUES)

    def test_filters_reduce_delay(self, store):
        series = figure_5(SCALE, store, K_VALUES)
        for points in series.values():
            delays = dict(points)
            assert delays[2] <= delays[0]


class TestFigure6:
    def test_delivery_percent_range(self, store):
        series = figure_6(SCALE, store, K_VALUES)
        for points in series.values():
            for _, percent in points:
                assert 0.0 <= percent <= 100.0

    def test_filters_improve_delivery(self, store):
        series = figure_6(SCALE, store, K_VALUES)
        for points in series.values():
            values = dict(points)
            assert values[2] >= values[0]


class TestPolicySweep:
    def test_results_keyed_by_policy(self, store):
        sweep = policy_sweep(SCALE, store, POLICIES)
        assert set(sweep) == set(POLICIES)

    def test_a_run_differing_in_any_field_is_not_reused(self, tmp_path):
        store = RunStore(tmp_path)
        config = ExperimentConfig(scale=SCALE, policy="epidemic")
        other = dataclasses.replace(config, workload_seed=config.workload_seed + 1)
        run_sweep([other], store=store)
        result = policy_sweep(SCALE, store, ("epidemic",))["epidemic"]
        assert result.config == config
        assert len(store.list_run_ids()) == 2
        fresh = run_experiment(config)
        assert result.metrics.to_dict() == fresh.metrics.to_dict()

    def test_a_failed_leg_raises_with_its_error(self, tmp_path):
        with pytest.raises(RuntimeError, match="no injection day"):
            policy_sweep(0.1, RunStore(tmp_path), POLICIES)
        assert RunStore(tmp_path).list_run_ids() == []


class TestFigure7:
    def test_curve_structure(self, store):
        curves = figure_7(SCALE, store, POLICIES)
        for policy in POLICIES:
            hours = curves[policy]["hours"]
            days = curves[policy]["days"]
            assert [h for h, _ in hours] == list(CDF_HOURS)
            assert [d for d, _ in days] == [float(d) for d in range(1, 11)]

    def test_epidemic_dominates_baseline(self, store):
        curves = figure_7(SCALE, store, POLICIES)
        baseline_12h = dict(curves["cimbiosys"]["hours"])[12.0]
        epidemic_12h = dict(curves["epidemic"]["hours"])[12.0]
        assert epidemic_12h >= baseline_12h


class TestFigure8:
    def test_copy_counts(self, store):
        copies = figure_8(SCALE, store, POLICIES)
        assert copies["cimbiosys"]["at_delivery"] == pytest.approx(2.0, abs=0.3)
        assert copies["epidemic"]["at_end"] > copies["cimbiosys"]["at_end"]


class TestConstrainedFigures:
    def test_figure_9_structure(self, store):
        curves = figure_9(SCALE, store, POLICIES)
        for policy in POLICIES:
            assert len(curves[policy]) == len(CDF_HOURS)

    def test_figure_10_structure(self, store):
        curves = figure_10(SCALE, store, POLICIES)
        for policy in POLICIES:
            fractions = [f for _, f in curves[policy]]
            assert fractions == sorted(fractions)

    def test_bandwidth_constraint_hurts_epidemic(self, store):
        unconstrained = dict(figure_7(SCALE, store, POLICIES)["epidemic"]["hours"])
        constrained = dict(figure_9(SCALE, store, POLICIES)["epidemic"])
        assert constrained[12.0] <= unconstrained[12.0]


class TestDefaults:
    def test_figure_5_k_values_match_paper(self):
        assert FIGURE_5_K_VALUES == (0, 1, 2, 4, 8, 16)
