"""Unit tests for statistics helpers."""

import math

import pytest

from repro.analysis.stats import mean, median, percentile


class TestMean:
    def test_basic(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_empty_is_nan(self):
        assert math.isnan(mean([]))


class TestPercentile:
    def test_endpoints(self):
        data = [1.0, 2.0, 3.0, 4.0]
        assert percentile(data, 0.0) == 1.0
        assert percentile(data, 1.0) == 4.0

    def test_interpolation(self):
        assert percentile([0.0, 10.0], 0.5) == 5.0

    def test_single_value(self):
        assert percentile([7.0], 0.9) == 7.0

    def test_empty_is_nan(self):
        assert math.isnan(percentile([], 0.5))

    def test_out_of_range_fraction(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)

    def test_median_helper(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
