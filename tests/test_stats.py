"""Tests for the statistical helpers."""

import math

import numpy as np
import pytest

from gtorder import (
    InvalidParameterError,
    binomial_margin,
    chi_square_uniformity,
)


class TestBinomialMargin:
    def test_worked_values(self):
        assert binomial_margin(300, 0.5, 3) == pytest.approx(3 * math.sqrt(0.25 / 300))
        assert binomial_margin(300, 0.5, 3) == pytest.approx(0.0866, abs=1e-4)
        assert binomial_margin(100, 0.1, 3) == pytest.approx(0.09)

    def test_degenerate_rates(self):
        assert binomial_margin(1000, 0.0, 3) == 0.0
        assert binomial_margin(1000, 1.0, 3) == 0.0

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            binomial_margin(0, 0.5, 3)
        with pytest.raises(InvalidParameterError):
            binomial_margin(10, 1.5, 3)


class TestChiSquareUniformity:
    def test_perfectly_uniform_counts(self):
        result = chi_square_uniformity([100] * 16)
        assert result.statistic == 0.0
        assert result.passed

    def test_extreme_deviation_fails(self):
        counts = [0] * 32
        counts[0] = 10_000
        counts = [c + 320 for c in counts]  # keep every expectation above 5
        result = chi_square_uniformity(counts)
        assert not result.passed

    def test_pinned_critical_value_for_32_categories(self):
        result = chi_square_uniformity([400] * 32)
        assert result.df == 31
        assert result.critical == pytest.approx(61.1, abs=0.05)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            chi_square_uniformity([10])
        with pytest.raises(InvalidParameterError):
            chi_square_uniformity([3, 3, 3])  # expected count below 5
        with pytest.raises(InvalidParameterError):
            chi_square_uniformity([100] * 12)  # df=11 is not pinned

    def test_calibration_on_true_uniform_data(self):
        # false-alarm probability is 0.001 per run; allow a 3-sigma count
        rng = np.random.default_rng(123)
        runs = 1000
        failures = 0
        for _ in range(runs):
            counts = rng.multinomial(3200, [1 / 16] * 16)
            failures += not chi_square_uniformity(counts.tolist()).passed
        limit = runs * 0.001 + 3 * math.sqrt(runs * 0.001)
        assert failures <= limit
