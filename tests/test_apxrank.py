"""Tests for approximate rank determination."""

import numpy as np
import pytest

from gtorder import (
    InstanceOracle,
    InvalidParameterError,
    approximate_rank,
    binary_rank_search,
    derive_params,
    exact_rank,
    make_instance,
)


def ceil_log2(n):
    return (n - 1).bit_length()


class TestBinarySearch:
    def test_perfect_decider_finds_the_exact_rank(self):
        for n in range(1, 129):
            for true_rank in {1, min(2, n), max(n // 2, 1), max(n - 1, 1), n}:
                rank, calls = binary_rank_search(n, lambda m: true_rank <= m)
                assert rank == true_rank
                assert calls <= (ceil_log2(n) if n > 1 else 0)

    def test_terminates_for_arbitrary_answers(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3, 17, 100, 1000):
            for _ in range(20):
                answers = rng.integers(0, 2, size=64).astype(bool).tolist()
                it = iter(answers)
                rank, calls = binary_rank_search(n, lambda m: next(it))
                assert 1 <= rank <= n
                assert calls <= (ceil_log2(n) if n > 1 else 0)

    def test_output_is_a_pure_function_of_answers(self):
        script = [True, False, True, False, True, True, False, False, True, True]

        def replay():
            it = iter(script)
            return binary_rank_search(1000, lambda m: next(it))

        assert replay() == replay()


class TestApproximateRank:
    def test_single_element_universe(self):
        oracle = InstanceOracle(make_instance(1, seed=0))
        estimate = approximate_rank(oracle, 0, 0.3, 0.1, np.random.default_rng(0))
        assert estimate.rank == 1
        assert estimate.calls == 0
        assert estimate.ledger.total == 0

    def test_query_accounting(self):
        n = 256
        oracle = InstanceOracle(make_instance(n, seed=1))
        rng = np.random.default_rng(1)
        estimate = approximate_rank(oracle, 17, 0.4, 0.2, rng)
        per_call = derive_params(n, 1, 0.4, 0.2 / ceil_log2(n)).trials
        assert estimate.calls <= ceil_log2(n)
        assert estimate.ledger.total == estimate.calls * per_call

    def test_estimates_land_in_the_band(self):
        rng = np.random.default_rng(2)
        n, delta, epsilon = 256, 0.4, 0.2
        runs = 100
        violations = 0
        for seed in range(runs):
            instance = make_instance(n, seed)
            x = int(rng.integers(n))
            estimate = approximate_rank(InstanceOracle(instance), x, delta, epsilon, rng)
            band = delta * min(estimate.rank, n - estimate.rank)
            violations += abs(exact_rank(instance, x) - estimate.rank) > band
        margin = 3 * np.sqrt(epsilon * (1 - epsilon) / runs)
        assert violations / runs <= epsilon + margin

    def test_maximum_element_pins_to_n(self):
        # at the top edge the band collapses, so only rank n can satisfy it
        rng = np.random.default_rng(3)
        n, runs = 64, 50
        hits = 0
        for seed in range(runs):
            instance = make_instance(n, seed)
            x = instance.element_with_rank(n)
            hits += approximate_rank(InstanceOracle(instance), x, 0.3, 0.1, rng).rank == n
        margin = 3 * np.sqrt(0.1 * 0.9 / runs)
        assert hits / runs >= 0.9 - margin

    def test_top_ranks_are_not_pushed_out_of_their_band(self):
        # within 1/delta + 1 of the top a step up from the true rank leaves
        # the band; asking m rather than m + 1/2 there missed 5 of these
        # 300 estimates
        rng = np.random.default_rng(5)
        n, delta, epsilon = 256, 0.3, 0.1
        misses = 0
        for rank in range(n - 4, n + 1):
            for seed in range(60):
                instance = make_instance(n, seed)
                x = instance.element_with_rank(rank)
                estimate = approximate_rank(InstanceOracle(instance), x, delta, epsilon, rng)
                misses += abs(rank - estimate.rank) > delta * min(estimate.rank, n - estimate.rank)
        assert misses <= 2

    def test_per_step_band_violations_stay_within_budget(self):
        # instrument each midpoint decision against the true rank
        rng = np.random.default_rng(4)
        n, delta, epsilon = 128, 0.4, 0.4
        per_call = epsilon / ceil_log2(n)
        steps = 0
        violations = 0
        from gtorder import rank_at_most

        for seed in range(100):
            instance = make_instance(n, seed)
            oracle = InstanceOracle(instance)
            x = int(rng.integers(n))
            true_rank = exact_rank(instance, x)

            def decide(m):
                nonlocal steps, violations
                answer = rank_at_most(oracle, x, m, delta, per_call, rng).answer
                steps += 1
                if abs(true_rank - m) >= delta * min(m, n - m):
                    violations += answer is not (true_rank <= m)
                return answer

            binary_rank_search(n, decide)
        margin = 3 * np.sqrt(per_call * (1 - per_call) / steps)
        assert violations / steps <= per_call + margin

    def test_parameter_validation(self):
        oracle = InstanceOracle(make_instance(8, seed=0))
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidParameterError):
            approximate_rank(oracle, 8, 0.3, 0.1, rng)
        with pytest.raises(InvalidParameterError):
            approximate_rank(oracle, 0, 0.0, 0.1, rng)
        with pytest.raises(InvalidParameterError):
            approximate_rank(oracle, 0, 0.3, 1.0, rng)
