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
    RESULT_CACHE,
    FIGURE_5_K_VALUES,
    SharedScenarioInputs,
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

K_VALUES = (0, 1, 2)
POLICIES = ("cimbiosys", "epidemic")


@pytest.fixture(scope="module")
def inputs():
    return SharedScenarioInputs.at_scale(0.25)


class TestMultiAddressSweep:
    def test_k0_shared_between_strategies(self, inputs):
        sweep = multiaddress_sweep(inputs, K_VALUES)
        assert sweep[("random", 0)] is sweep[("selected", 0)]

    def test_all_cells_present(self, inputs):
        sweep = multiaddress_sweep(inputs, K_VALUES)
        assert set(sweep) == {
            (strategy, k)
            for strategy in ("random", "selected")
            for k in K_VALUES
        }


class TestFigure5:
    def test_series_structure(self, inputs):
        series = figure_5(inputs, K_VALUES)
        assert set(series) == {"random", "selected"}
        for points in series.values():
            assert [k for k, _ in points] == list(K_VALUES)

    def test_filters_reduce_delay(self, inputs):
        series = figure_5(inputs, K_VALUES)
        for points in series.values():
            delays = dict(points)
            assert delays[2] <= delays[0]


class TestFigure6:
    def test_delivery_percent_range(self, inputs):
        series = figure_6(inputs, K_VALUES)
        for points in series.values():
            for _, percent in points:
                assert 0.0 <= percent <= 100.0

    def test_filters_improve_delivery(self, inputs):
        series = figure_6(inputs, K_VALUES)
        for points in series.values():
            values = dict(points)
            assert values[2] >= values[0]


class TestPolicySweep:
    def test_results_keyed_by_policy(self, inputs):
        sweep = policy_sweep(inputs, POLICIES)
        assert set(sweep) == set(POLICIES)

    def test_cache_reuses_runs(self, inputs):
        first = policy_sweep(inputs, POLICIES)
        second = policy_sweep(inputs, POLICIES)
        for policy in POLICIES:
            assert first[policy] is second[policy]


class TestResultCache:
    def test_configs_that_differ_in_any_field_do_not_share_a_run(self, inputs):
        config = ExperimentConfig(scale=inputs.scale, policy="epidemic")
        other = dataclasses.replace(config, workload_seed=config.workload_seed + 1)
        first = RESULT_CACHE.run(config, inputs)
        cached = RESULT_CACHE.run(other, inputs)
        assert cached is not first
        assert cached.config == other
        fresh = run_experiment(other, trace=inputs.trace, model=inputs.model)
        assert cached.metrics.to_dict() == fresh.metrics.to_dict()


class TestFigure7:
    def test_curve_structure(self, inputs):
        curves = figure_7(inputs, POLICIES)
        for policy in POLICIES:
            hours = curves[policy]["hours"]
            days = curves[policy]["days"]
            assert [h for h, _ in hours] == list(CDF_HOURS)
            assert [d for d, _ in days] == [float(d) for d in range(1, 11)]

    def test_epidemic_dominates_baseline(self, inputs):
        curves = figure_7(inputs, POLICIES)
        baseline_12h = dict(curves["cimbiosys"]["hours"])[12.0]
        epidemic_12h = dict(curves["epidemic"]["hours"])[12.0]
        assert epidemic_12h >= baseline_12h


class TestFigure8:
    def test_copy_counts(self, inputs):
        copies = figure_8(inputs, POLICIES)
        assert copies["cimbiosys"]["at_delivery"] == pytest.approx(2.0, abs=0.3)
        assert copies["epidemic"]["at_end"] > copies["cimbiosys"]["at_end"]


class TestConstrainedFigures:
    def test_figure_9_structure(self, inputs):
        curves = figure_9(inputs, POLICIES)
        for policy in POLICIES:
            assert len(curves[policy]) == len(CDF_HOURS)

    def test_figure_10_structure(self, inputs):
        curves = figure_10(inputs, POLICIES)
        for policy in POLICIES:
            fractions = [f for _, f in curves[policy]]
            assert fractions == sorted(fractions)

    def test_bandwidth_constraint_hurts_epidemic(self, inputs):
        unconstrained = dict(figure_7(inputs, POLICIES)["epidemic"]["hours"])
        constrained = dict(figure_9(inputs, POLICIES)["epidemic"])
        assert constrained[12.0] <= unconstrained[12.0]


class TestDefaults:
    def test_figure_5_k_values_match_paper(self):
        assert FIGURE_5_K_VALUES == (0, 1, 2, 4, 8, 16)
