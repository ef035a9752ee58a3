"""Tests for the rank threshold test and its parameter derivation."""

import math

import numpy as np
import pytest

from gtorder import (
    InstanceOracle,
    InvalidParameterError,
    derive_params,
    make_instance,
    rank_at_most,
    reversed_view,
)


class TestDeriveParams:
    def test_worked_configuration(self):
        p = derive_params(100, 10, delta=0.5, epsilon=0.1)
        assert p.n_eff == 100
        assert p.sample_size == 10
        assert p.p_low == pytest.approx(1 - 0.95**10)
        assert p.p_high == pytest.approx(1 - 0.85**10)
        assert p.p_low == pytest.approx(0.40126, abs=1e-5)
        assert p.p_high == pytest.approx(0.80313, abs=1e-5)
        assert p.p_mid == pytest.approx(0.60220, abs=1e-5)

    def test_trial_count_formula(self):
        p = derive_params(100, 10, delta=0.5, epsilon=0.1)
        assert p.trials == math.ceil(8 * math.e**2 * math.log(10) / 0.25) == 545

    def test_trial_count_clamps_to_one(self):
        p = derive_params(100, 10, delta=0.5, epsilon=0.999999)
        assert p.trials == 1

    def test_padding_kicks_in_for_awkward_targets(self):
        p = derive_params(1000, 130.0, delta=0.1, epsilon=0.1)
        assert p.n_eff == 1040
        assert p.n_eff % 130 == 0
        assert p.sample_size == 8

    def test_sample_size_floor_of_two(self):
        p = derive_params(4, 2, delta=0.5, epsilon=0.1)
        assert p.sample_size == 2

    def test_fractional_targets_allowed(self):
        p = derive_params(2, 0.625, delta=0.2, epsilon=0.1)
        assert p.sample_size == max(2, math.ceil(2 / 0.625))
        assert 0 < p.p_low < p.p_mid < p.p_high < 1

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            derive_params(0, 1, 0.5, 0.1)
        with pytest.raises(InvalidParameterError):
            derive_params(100, 0, 0.5, 0.1)
        with pytest.raises(InvalidParameterError):
            derive_params(100, 51, 0.5, 0.1)  # callers reverse above n/2
        with pytest.raises(InvalidParameterError):
            derive_params(100, 10, 0.0, 0.1)
        with pytest.raises(InvalidParameterError):
            derive_params(100, 10, 1.0, 0.1)
        with pytest.raises(InvalidParameterError):
            derive_params(100, 10, 0.5, 0.0)
        with pytest.raises(InvalidParameterError):
            derive_params(100, 10, 0.5, 1.0)

    def test_threshold_separation_bound(self):
        # the decision gap stays above delta/(2e) across the valid range
        for n in (4, 10, 100, 1000, 5000):
            for r in (0.5, 1, 2, 2.5, n / 10, n / 4, n / 2):
                if not 0 < r <= n / 2:
                    continue
                for delta in (0.05, 0.1, 0.3, 0.5, 0.7, 0.9):
                    p = derive_params(n, float(r), delta, 0.1)
                    assert p.p_high - p.p_low > delta / (2 * math.e), (n, r, delta)


class TestRankAtMost:
    def test_exact_query_count(self):
        instance = make_instance(200, seed=4)
        oracle = InstanceOracle(instance)
        rng = np.random.default_rng(0)
        outcome = rank_at_most(oracle, 5, 20, 0.5, 0.2, rng)
        assert outcome.ledger.total == outcome.params.trials
        assert outcome.ledger.total == derive_params(200, 20, 0.5, 0.2).trials

    def test_extreme_ranks_decide_confidently(self):
        rng = np.random.default_rng(1)
        instance = make_instance(300, seed=6)
        oracle = InstanceOracle(instance)
        minimum = instance.element_with_rank(1)
        maximum = instance.element_with_rank(300)
        for _ in range(20):
            assert rank_at_most(oracle, minimum, 30, 0.5, 0.05, rng).answer is True
            assert rank_at_most(oracle, maximum, 30, 0.5, 0.05, rng).answer is False

    def test_error_rate_outside_the_band(self):
        # band is 20 +- 10; ranks 8 and 35 sit clearly outside it
        rng = np.random.default_rng(2)
        runs = 200
        margin = 3 * math.sqrt(0.2 * 0.8 / runs)
        for rank, truth in ((8, True), (35, False)):
            errors = 0
            for seed in range(runs):
                instance = make_instance(200, seed)
                x = instance.element_with_rank(rank)
                outcome = rank_at_most(InstanceOracle(instance), x, 20, 0.5, 0.2, rng)
                errors += outcome.answer is not truth
            assert errors / runs <= 0.2 + margin

    def test_positive_rate_matches_closed_form(self):
        rng = np.random.default_rng(3)
        instance = make_instance(100, seed=7)
        oracle = InstanceOracle(instance)
        for rank in (10, 50):
            x = instance.element_with_rank(rank)
            outcome = rank_at_most(oracle, x, 10, 0.5, 2e-3, rng)
            p = outcome.params
            expected = 1 - ((p.n_eff - rank) / p.n_eff) ** p.sample_size
            freq = outcome.positives / p.trials
            tolerance = 3 * math.sqrt(expected * (1 - expected) / p.trials)
            assert abs(freq - expected) <= tolerance

    def test_positive_probability_is_monotone_in_rank(self):
        # raising the true rank must not make "rank <= r" more likely
        rng = np.random.default_rng(4)
        runs = 300
        instance = make_instance(60, seed=8)
        oracle = InstanceOracle(instance)
        rates = []
        for rank in (5, 15, 25, 35):
            x = instance.element_with_rank(rank)
            yes = sum(
                rank_at_most(oracle, x, 15, 0.4, 0.3, rng).answer
                for _ in range(runs)
            )
            rates.append(yes / runs)
        slack = 3 * math.sqrt(0.5 * 0.5 / runs) * math.sqrt(2)
        for low, high in zip(rates, rates[1:]):
            assert high <= low + slack
        assert rates[0] > rates[-1]

    def test_targets_above_half_use_reversal(self):
        rng = np.random.default_rng(5)
        instance = make_instance(100, seed=9)
        oracle = InstanceOracle(instance)
        low = instance.element_with_rank(60)
        high = instance.element_with_rank(95)
        for _ in range(20):
            assert rank_at_most(oracle, low, 80, 0.5, 0.05, rng).answer is True
            assert rank_at_most(oracle, high, 80, 0.5, 0.05, rng).answer is False

    def test_reversed_runs_show_up_as_left_tests(self):
        rng = np.random.default_rng(6)
        oracle = InstanceOracle(make_instance(100, seed=10))
        outcome = rank_at_most(oracle, 3, 80, 0.5, 0.2, rng)
        assert outcome.ledger.right_count == 0
        assert outcome.ledger.left_count == outcome.params.trials

    @pytest.mark.parametrize("r", [130, 870])
    def test_one_draw_and_the_per_row_count(self, r):
        # the batch consumes the generator exactly as one (trials x
        # sample_size) draw and counts what a loop of single right tests
        # over the dummy-filtered rows counts; r=870 runs reversed
        n, x = 1000, 17
        oracle = InstanceOracle(make_instance(n, seed=11))
        rng = np.random.default_rng(12)
        outcome = rank_at_most(oracle, x, r, 0.3, 0.2, rng)
        p = outcome.params
        assert p.n_eff > n
        fresh = np.random.default_rng(12)
        samples = fresh.integers(0, p.n_eff, size=(p.trials, p.sample_size))
        assert rng.bit_generator.state == fresh.bit_generator.state
        right_test = oracle.right_test if r < n / 2 else reversed_view(oracle).right_test
        positives = 0
        for row in samples.tolist():
            if right_test(x, [v for v in row if v < n]):
                positives += 1
        assert outcome.positives == positives

    def test_parameter_validation(self):
        oracle = InstanceOracle(make_instance(10, seed=0))
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidParameterError):
            rank_at_most(oracle, 10, 3, 0.5, 0.1, rng)
        with pytest.raises(InvalidParameterError):
            rank_at_most(oracle, 0, 0, 0.5, 0.1, rng)
        with pytest.raises(InvalidParameterError):
            rank_at_most(oracle, 0, 10, 0.5, 0.1, rng)  # r must stay below n
        with pytest.raises(InvalidParameterError):
            rank_at_most(oracle, 0, 3, 1.5, 0.1, rng)
