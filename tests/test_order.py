"""Tests for ground-truth instances and the brute-force rank reference."""

import numpy as np
import pytest

from gtorder import InvalidParameterError, exact_rank, make_instance
from gtorder.stats import chi_square_uniformity


def test_single_element_has_rank_one():
    instance = make_instance(1, seed=12345)
    assert exact_rank(instance, 0) == 1


def test_same_seed_same_instance():
    a = make_instance(5, seed=7)
    b = make_instance(5, seed=7)
    assert np.array_equal(a.ranks, b.ranks)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 255, 256, 1000, 4096])
def test_seed_sequence_seed_gives_the_integer_seeds_instance(n):
    drawn = np.random.default_rng(n).integers(0, 2**64, 4, dtype=np.uint64).tolist()
    for seed in [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, *range(2, 40, 7), *drawn]:
        ranks = make_instance(n, seed).ranks
        assert np.array_equal(make_instance(n, np.random.SeedSequence(seed)).ranks, ranks)
        reference = np.random.default_rng(seed).permutation(n) + 1
        assert np.array_equal(ranks, reference) and ranks.dtype == reference.dtype


def test_different_seeds_differ_eventually():
    ranks = {tuple(make_instance(6, seed=s).ranks) for s in range(20)}
    assert len(ranks) > 1


def test_zero_elements_rejected():
    with pytest.raises(InvalidParameterError):
        make_instance(0, seed=1)


def test_ranks_form_a_bijection():
    instance = make_instance(50, seed=3)
    assert sorted(instance.ranks) == list(range(1, 51))


def test_exact_rank_matches_linear_scan():
    # count the elements at or below x directly from the hidden order
    instance = make_instance(8, seed=21)
    for x in range(8):
        below = sum(
            1 for y in range(8) if instance.ranks[y] <= instance.ranks[x]
        )
        assert exact_rank(instance, x) == below


def test_exact_rank_extremes():
    instance = make_instance(12, seed=4)
    assert exact_rank(instance, instance.element_with_rank(1)) == 1
    assert exact_rank(instance, instance.element_with_rank(12)) == 12


def test_exact_rank_rejects_out_of_universe_ids():
    instance = make_instance(4, seed=0)
    with pytest.raises(InvalidParameterError):
        exact_rank(instance, 4)  # a dummy/padding id is not a real element
    with pytest.raises(InvalidParameterError):
        exact_rank(instance, -1)


def test_element_with_rank_roundtrip():
    instance = make_instance(30, seed=9)
    for r in (1, 2, 15, 30):
        assert exact_rank(instance, instance.element_with_rank(r)) == r
    with pytest.raises(InvalidParameterError):
        instance.element_with_rank(0)


def test_rank_of_fixed_element_is_uniform_across_seeds():
    # rank histogram of element 0 over many seeds should be uniform on 1..n
    n = 1000
    counts = [0] * n
    for seed in range(100_000):
        counts[exact_rank(make_instance(n, seed), 0) - 1] += 1
    result = chi_square_uniformity(counts)
    assert result.passed, f"chi-square {result.statistic:.1f} >= {result.critical:.1f}"
