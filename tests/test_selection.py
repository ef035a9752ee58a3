"""Tests for candidate sampling and the approximate selection loop."""

import math

import numpy as np
import pytest

from gtorder import (
    CountingOracle,
    InstanceOracle,
    InvalidParameterError,
    approximate_select,
    derive_params,
    draw_candidate,
    exact_rank,
    make_instance,
    rank_at_most,
    reversed_view,
    select_params,
)
from gtorder.stats import binomial_margin


class TestSelectParams:
    def test_worked_round_budget(self):
        p = select_params(100, delta=0.5, epsilon=0.1)
        assert p.max_rounds == 128
        assert p.epsilon_round == pytest.approx(0.1 / 129)

    def test_worked_tolerances(self):
        p = select_params(100, delta=0.4, epsilon=0.1)
        assert p.delta_upper == pytest.approx(0.1 / 1.3)
        assert p.delta_lower == pytest.approx(0.1 / 0.7)

    def test_tolerance_lower_bounds_across_deltas(self):
        for delta in (0.05, 0.2, 0.4, 0.6, 0.8, 0.95):
            p = select_params(10, delta=delta, epsilon=0.2)
            assert p.delta_upper > delta / 8
            assert p.delta_lower > delta / 4
            assert p.epsilon_round * (p.max_rounds + 1) <= 0.2 + 1e-12

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            select_params(0, 0.5, 0.1)
        with pytest.raises(InvalidParameterError):
            select_params(3, 0.0, 0.1)
        with pytest.raises(InvalidParameterError):
            select_params(3, 0.5, 1.0)


class TestDrawCandidate:
    def test_branch_threshold(self):
        # at delta=0.5 the sampling branch applies up to about 0.316*n:
        # it spends queries on min-finding, the uniform branch spends none
        instance = make_instance(100, seed=1)
        rng = np.random.default_rng(0)
        below = CountingOracle(InstanceOracle(instance))
        draw_candidate(below, 100, 31, 0.5, rng)
        assert below.ledger.total > 0
        above = CountingOracle(InstanceOracle(instance))
        draw_candidate(above, 100, 32, 0.5, rng)
        assert above.ledger.total == 0

    def test_uniform_branch_covers_the_band_exactly(self):
        # n=100, k=50, delta=0.1: a uniform element hits (45, 55] with
        # probability exactly 1/10
        instance = make_instance(100, seed=2)
        oracle = InstanceOracle(instance)
        rng = np.random.default_rng(1)
        hits = 0
        draws = 4000
        for _ in range(draws):
            x = draw_candidate(oracle, 100, 50, 0.1, rng)
            hits += 45 < exact_rank(instance, x) <= 55
        assert abs(hits / draws - 0.1) <= binomial_margin(draws, 0.1, 3.0)

    def test_sampling_branch_hit_rate(self):
        instance = make_instance(600, seed=3)
        oracle = InstanceOracle(instance)
        rng = np.random.default_rng(2)
        hits = 0
        draws = 2000
        for _ in range(draws):
            x = draw_candidate(oracle, 600, 50, 0.6, rng)
            hits += 20 < exact_rank(instance, x) <= 80
        claimed = 0.6**2 / 4
        assert hits / draws >= claimed - binomial_margin(draws, claimed, 3.0)

    def test_never_returns_padding_ids(self):
        # k=2 pads 600 to 602; sampled dummy ids must never leak out
        instance = make_instance(600, seed=4)
        oracle = InstanceOracle(instance)
        rng = np.random.default_rng(3)
        for _ in range(2000):
            assert 0 <= draw_candidate(oracle, 600, 2, 0.9, rng) < 600

    def test_validation(self):
        oracle = InstanceOracle(make_instance(10, seed=0))
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidParameterError):
            draw_candidate(oracle, 10, 0, 0.5, rng)
        with pytest.raises(InvalidParameterError):
            draw_candidate(oracle, 10, 7, 0.5, rng)  # beyond ceil(n/2)
        with pytest.raises(InvalidParameterError):
            draw_candidate(oracle, 10, 3, 1.0, rng)


class TestApproximateSelect:
    def test_round_budget_and_not_found(self, monkeypatch):
        # with every screening test rejecting, the loop must exhaust its
        # round budget and report not-found rather than fail
        from types import SimpleNamespace

        import gtorder.selection as selection_module

        monkeypatch.setattr(
            selection_module, "rank_at_most",
            lambda oracle, x, r, delta, epsilon, rng: SimpleNamespace(answer=False),
        )
        oracle = InstanceOracle(make_instance(50, seed=0))
        rng = np.random.default_rng(0)
        outcome = approximate_select(oracle, 50, 10, 0.9, 0.5, rng)
        assert outcome.found is False
        assert outcome.element is None
        assert outcome.rounds_used == math.ceil(32 / 0.9**2)

    def test_two_element_band_collapses_to_exact(self):
        # |rank - 1| <= 0.5*min(1,1) forces rank exactly 1
        rng = np.random.default_rng(1)
        returned = 0
        for seed in range(20):
            instance = make_instance(2, seed)
            outcome = approximate_select(InstanceOracle(instance), 2, 1, 0.5, 0.01, rng)
            if outcome.found:
                returned += 1
                assert exact_rank(instance, outcome.element) == 1
        assert returned > 0

    def test_small_universes_run_every_target(self):
        # the upper screen's target k + 3/4*delta*k reaches n at n = 1,
        # at n = 3 with k = 2 and delta >= 2/3, and at n = 5 with k = 3
        # and delta >= 8/9; every rank is at most n, so that screen is
        # skipped, and a run at n = 1 asks the lower screen alone
        for n in range(1, 12):
            oracle = InstanceOracle(make_instance(n, seed=n))
            for k in range(1, n + 1):
                for delta in (0.3, 0.5, 0.7, 0.9, 0.99):
                    rng = np.random.default_rng(k)
                    outcome = approximate_select(oracle, n, k, delta, 0.3, rng)
                    assert outcome.found == (outcome.element is not None)
                    if n == 1:
                        p = select_params(1, delta, 0.3)
                        lower = derive_params(1, 1 - 0.75 * delta, p.delta_lower,
                                              p.epsilon_round)
                        assert (outcome.element, outcome.rounds_used) == (0, 1)
                        assert outcome.ledger.total <= lower.trials

    def test_ledger_matches_external_count(self):
        instance = make_instance(200, seed=5)
        outer = CountingOracle(InstanceOracle(instance))
        rng = np.random.default_rng(2)
        outcome = approximate_select(outer, 200, 40, 0.8, 0.5, rng)
        assert outcome.ledger.total == outer.ledger.total
        assert outcome.ledger.left_count == outer.ledger.left_count

    def test_small_scale_guarantee(self):
        rng = np.random.default_rng(3)
        n, k, delta = 200, 40, 0.8
        runs = 40
        returned = violations = 0
        for seed in range(runs):
            instance = make_instance(n, seed)
            outcome = approximate_select(InstanceOracle(instance), n, k, delta, 0.3, rng)
            if outcome.found:
                returned += 1
                offset = abs(exact_rank(instance, outcome.element) - k)
                violations += offset > delta * min(k, n - k)
        assert returned / runs >= 0.5 - binomial_margin(runs, 0.5, 3.0)
        assert violations <= 3

    def test_high_targets_run_reversed(self):
        rng = np.random.default_rng(4)
        n, k, delta = 200, 160, 0.8
        for seed in range(10):
            instance = make_instance(n, seed)
            outcome = approximate_select(InstanceOracle(instance), n, k, delta, 0.2, rng)
            if outcome.found:
                offset = abs(exact_rank(instance, outcome.element) - k)
                assert offset <= delta * min(k, n - k)

    def test_reversal_symmetry_of_return_rates(self):
        # rank k of the order and rank n-k+1 of its reverse are the same
        # element, so both runs should succeed about equally often
        rng = np.random.default_rng(5)
        n, k, delta, epsilon = 200, 40, 0.8, 0.5
        runs = 25
        returned = {"forward": 0, "mirrored": 0}
        for seed in range(runs):
            instance = make_instance(n, seed)
            oracle = InstanceOracle(instance)
            if approximate_select(oracle, n, k, delta, epsilon, rng).found:
                returned["forward"] += 1
            mirrored = approximate_select(reversed_view(oracle), n, n - k + 1,
                                          delta, epsilon, rng)
            if mirrored.found:
                returned["mirrored"] += 1
        p = (returned["forward"] + returned["mirrored"]) / (2 * runs)
        se = math.sqrt(max(p * (1 - p), 1e-9) * 2 / runs)
        z = abs(returned["forward"] - returned["mirrored"]) / (runs * se) if se else 0.0
        assert z < 3.0, returned

    def test_acceptance_screen_rates(self):
        # candidates inside half the band should pass both screening
        # tests; candidates far outside should fail at least one
        n, k, delta, epsilon = 200, 40, 0.8, 0.5
        params = select_params(k, delta, epsilon)
        hi = k + 0.75 * delta * k
        lo = k - 0.75 * delta * k
        instance = make_instance(n, seed=6)
        oracle = InstanceOracle(instance)
        rng = np.random.default_rng(6)

        def accepted(x):
            if not rank_at_most(oracle, x, hi, params.delta_upper,
                                params.epsilon_round, rng).answer:
                return False
            return not rank_at_most(oracle, x, lo, params.delta_lower,
                                    params.epsilon_round, rng).answer

        good_ranks = range(int(k - delta / 2 * k) + 1, int(k + delta / 2 * k))
        good = [accepted(instance.element_with_rank(r)) for r in good_ranks]
        assert sum(good) >= len(good) - 1, f"{sum(good)}/{len(good)} accepted"

        bad_ranks = [1, 2, 3, 4, 120, 150, 180, 200]  # beyond k +- delta*k
        bad = [accepted(instance.element_with_rank(r)) for r in bad_ranks]
        assert sum(bad) <= 1, f"{sum(bad)}/{len(bad)} slipped through"

    def test_validation(self):
        oracle = InstanceOracle(make_instance(10, seed=0))
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidParameterError):
            approximate_select(oracle, 10, 0, 0.5, 0.1, rng)
        with pytest.raises(InvalidParameterError):
            approximate_select(oracle, 10, 11, 0.5, 0.1, rng)
        with pytest.raises(InvalidParameterError):
            approximate_select(oracle, 10, 5, 0.5, 0.0, rng)

    def test_universe_must_be_the_oracles(self):
        # the screens rank a candidate among all oracle.size ids, so a
        # run over ids 0..n-1 with n < size would accept elements outside
        # the band of their rank among those n ids
        oracle = InstanceOracle(make_instance(1000, seed=7))
        rng = np.random.default_rng(0)
        for n in (500, 999, 1001):
            with pytest.raises(InvalidParameterError, match="oracle's size"):
                approximate_select(oracle, n, 50, 0.5, 0.1, rng)
        # the candidate draw ranks within 0..n-1 and keeps n < size
        assert 0 <= draw_candidate(oracle, 500, 50, 0.5, rng) < 500
