"""Tests for Las Vegas min/max finding and the swap descent."""

import copy

import numpy as np
import pytest

from gtorder import (
    CountingOracle,
    GroupTestOracle,
    InstanceOracle,
    InvalidParameterError,
    exact_rank,
    make_instance,
    max_find,
    min_find,
    min_find_among,
    swap,
)
from gtorder.oracle import _descend, counted
from gtorder.stats import chi_square_uniformity
from gtorder.verify import _PerQueryOracle as PerLevelOracle


def ceil_log2(m):
    return (m - 1).bit_length()


class TestMinFind:
    def test_single_element_costs_nothing(self):
        instance = make_instance(1, seed=0)
        outcome = min_find(InstanceOracle(instance), 1, np.random.default_rng(0))
        assert outcome.element == 0
        assert outcome.iterations == 0
        assert outcome.ledger.total == 0

    def test_always_returns_the_minimum(self):
        rng = np.random.default_rng(42)
        for seed in range(1000):
            instance = make_instance(16, seed)
            outcome = min_find(InstanceOracle(instance), 16, rng)
            assert exact_rank(instance, outcome.element) == 1

    def test_query_count_is_determined_by_iterations(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 4, 9, 33, 100):
            per_swap = ceil_log2(n - 1)
            for seed in range(30):
                instance = make_instance(n, seed)
                outcome = min_find(InstanceOracle(instance), n, rng)
                expected = (outcome.iterations + 1) + outcome.iterations * per_swap
                assert outcome.ledger.total == expected

    def test_mean_iterations_match_direct_simulation(self):
        # simulate the rank process alone: the candidate's rank starts
        # uniform on 1..n and each round jumps uniformly below itself
        rng = np.random.default_rng(11)
        runs = 20_000

        def simulate(n):
            j = int(rng.integers(1, n + 1))
            count = 0
            while j > 1:
                count += 1
                j = int(rng.integers(1, j))
            return count

        for n in (2, 5, 16):
            simulated = sum(simulate(n) for _ in range(runs)) / runs
            observed = 0
            for seed in range(runs):
                instance = make_instance(n, seed)
                observed += min_find(InstanceOracle(instance), n, rng).iterations
            observed /= runs
            assert observed == pytest.approx(simulated, rel=0.05)

    def test_mean_iterations_grow_like_log_n(self):
        rng = np.random.default_rng(3)
        sizes = [16, 64, 256, 1024, 4096, 16384]
        means = []
        for n in sizes:
            runs = 300
            total = 0
            for seed in range(runs):
                instance = make_instance(n, seed + 50_000)
                total += min_find(InstanceOracle(instance), n, rng).iterations
            means.append(total / runs)
        slope = np.polyfit(np.log(sizes), means, 1)[0]
        assert 0.8 <= slope <= 1.2

    def test_rejects_bad_universe_sizes(self):
        oracle = InstanceOracle(make_instance(4, seed=0))
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidParameterError):
            min_find(oracle, 0, rng)
        with pytest.raises(InvalidParameterError):
            min_find(oracle, 5, rng)
        with pytest.raises(InvalidParameterError):
            min_find_among(oracle, [], rng)

    def test_rejects_ids_that_are_not_integers(self):
        oracle = InstanceOracle(make_instance(10, seed=0))
        rng = np.random.default_rng(0)
        for elements in ([1.5, 2.0], np.array([1.0, 2.0]), [[1, 2], [3, 4]], [True, False]):
            with pytest.raises(InvalidParameterError):
                min_find_among(oracle, elements, rng)

    def test_repeated_ids_are_named_not_blamed_on_the_oracle(self):
        instance = make_instance(10, seed=0)
        low, high = instance.element_with_rank(1), instance.element_with_rank(5)
        rng = np.random.default_rng(0)
        for elements in ([low, low, high], [low, low]):
            for oracle in (InstanceOracle(instance), PerLevelOracle(InstanceOracle(instance))):
                with pytest.raises(InvalidParameterError, match=f"repeats ids \\[{low}\\]"):
                    min_find_among(oracle, elements, rng)

    @pytest.mark.parametrize("n", [1000, 16000])
    def test_a_twin_of_the_minimum_raises_after_one_walk(self, n):
        # the walk breaks at the round that finds the twin, so the run
        # asks one condition test and one walk, not n + 1 rounds
        instance = make_instance(n, seed=n)
        low = instance.element_with_rank(1)
        elements = np.append(np.arange(n), low)
        calls = []

        class Logged(InstanceOracle):
            def test(self, u, V, left):
                calls.append("test")
                return super().test(u, V, left)

            def walk(self, u, arr, left):
                calls.append("walk")
                return super().walk(u, arr, left)

        for seed in range(5):
            calls.clear()
            with pytest.raises(InvalidParameterError, match=f"repeats ids \\[{low}\\]"):
                min_find_among(Logged(instance), elements, np.random.default_rng(seed))
            assert calls == ["test", "walk"]

    def test_an_inconsistent_oracle_is_named(self):
        # every test answers yes: the walk's second round ends where its
        # first did, so the run stops at once
        class AlwaysBelow(GroupTestOracle):
            size = 50

            def test(self, u, V, left):
                return True

        for oracle in (AlwaysBelow(), CountingOracle(AlwaysBelow())):
            with pytest.raises(RuntimeError, match="inconsistent"):
                min_find(oracle, 50, np.random.default_rng(0))

    def test_min_find_among_accepts_any_integer_dtype(self):
        instance = make_instance(40, seed=6)
        oracle = InstanceOracle(instance)
        subset = [instance.element_with_rank(r) for r in (7, 12, 30, 39)]
        for dtype in (np.uint8, np.int32, np.int64):
            outcome = min_find_among(oracle, np.array(subset, dtype=dtype),
                                     np.random.default_rng(1))
            assert outcome.element == subset[0]

    def test_min_find_among_a_subset(self):
        instance = make_instance(40, seed=6)
        oracle = InstanceOracle(instance)
        rng = np.random.default_rng(1)
        subset = [instance.element_with_rank(r) for r in (7, 12, 30, 39)]
        for _ in range(25):
            outcome = min_find_among(oracle, subset, rng)
            assert exact_rank(instance, outcome.element) == 7


class TestSwap:
    def test_singleton_returns_without_queries(self):
        oracle = CountingOracle(InstanceOracle(make_instance(10, seed=0)))
        result = swap(oracle, [3], 7, np.random.default_rng(0))
        assert result == 3
        assert oracle.ledger.total == 0

    def test_exact_query_count_at_1023(self):
        instance = make_instance(1024, seed=5)
        oracle = CountingOracle(InstanceOracle(instance))
        x = instance.element_with_rank(1024)
        rest = np.delete(np.arange(1024), x)  # 1023 candidates
        swap(oracle, rest, x, np.random.default_rng(0))
        assert oracle.ledger.total == 10

    def test_query_count_exact_for_every_size(self):
        rng = np.random.default_rng(2)
        instance = make_instance(70, seed=8)
        x = instance.element_with_rank(70)
        for m in range(1, 65):
            A = np.delete(np.arange(70), x)[:m]
            oracle = CountingOracle(InstanceOracle(instance))
            swap(oracle, A, x, rng)
            assert oracle.ledger.total == (ceil_log2(m) if m > 1 else 0)

    def test_returns_something_below_x(self):
        instance = make_instance(30, seed=9)
        oracle = InstanceOracle(instance)
        rng = np.random.default_rng(4)
        x = instance.element_with_rank(15)
        rest = np.delete(np.arange(30), x)
        for _ in range(200):
            result = swap(oracle, rest, x, rng)
            assert exact_rank(instance, result) < 15

    def test_uniform_over_everything_below(self):
        # with x included in the candidate set, ranks 1..8 are all eligible
        instance = make_instance(64, seed=31)
        oracle = InstanceOracle(instance)
        rng = np.random.default_rng(8)
        x = instance.element_with_rank(8)
        counts = [0] * 8
        for _ in range(4000):
            result = swap(oracle, np.arange(64), x, rng)
            counts[exact_rank(instance, result) - 1] += 1
        outcome = chi_square_uniformity(counts)
        assert outcome.passed, f"chi-square {outcome.statistic:.1f}"

    def test_violated_precondition_still_terminates(self):
        # no element below x: the descent completes at full cost and the
        # result is simply wrong, which the rank check exposes
        instance = make_instance(20, seed=12)
        x = instance.element_with_rank(1)
        rest = np.delete(np.arange(20), x)
        oracle = CountingOracle(InstanceOracle(instance))
        result = swap(oracle, rest, x, np.random.default_rng(3))
        assert oracle.ledger.total == ceil_log2(19)
        assert exact_rank(instance, result) > 1

    def test_empty_set_rejected(self):
        oracle = InstanceOracle(make_instance(4, seed=0))
        with pytest.raises(InvalidParameterError):
            swap(oracle, [], 0, np.random.default_rng(0))

    def test_rejects_sets_that_are_not_1d_integer_arrays(self):
        oracle = InstanceOracle(make_instance(10, seed=0))
        rng = np.random.default_rng(0)
        for A in ({1, 2, 3}, np.arange(4).reshape(2, 2), [1.5, 2.0], np.array(3)):
            with pytest.raises(InvalidParameterError):
                swap(oracle, A, 7, rng)

    @pytest.mark.parametrize("bad", [-1, 10])
    def test_out_of_range_ids_rejected(self, bad):
        oracle = InstanceOracle(make_instance(10, seed=0))
        for position in range(6):
            A = np.arange(6)
            A[position] = bad
            with pytest.raises(InvalidParameterError):
                swap(oracle, A, 7, np.random.default_rng(0))
        with pytest.raises(InvalidParameterError):
            swap(oracle, np.arange(6), bad, np.random.default_rng(0))

    @pytest.mark.parametrize("m", [2, 3, 17, 64, 1000])
    def test_draws_exactly_one_permutation(self, m):
        instance = make_instance(m + 1, seed=m)
        x = instance.element_with_rank(m // 2 + 1)
        A = np.delete(np.arange(m + 1), x)
        rng = np.random.default_rng(m)
        bare = np.random.default_rng(m)
        shuffled = bare.permutation(A)
        result = swap(InstanceOracle(instance), A, x, rng)
        assert rng.bit_generator.state == bare.bit_generator.state
        # the first shuffled element below x is the one returned
        assert result == next(v for v in shuffled if instance.ranks[v] <= instance.ranks[x])


def min_find_by_one_order(oracle, n, rng):
    """min_find's walk written out with single tests: one shuffle of the
    ids other than the start, then per round one swap over that order, a
    descent level by level (``_descend``) to the first id below x and x
    moved into its slot, and the condition test asked alone."""
    counting, ledger = counted(oracle)
    ids = np.arange(n, dtype=np.int64)
    start = int(rng.integers(n))
    x, order = int(ids[start]), np.delete(ids, start)
    iterations = 0
    if order.size and counting.test(x, order, False):
        order = rng.permutation(order)
        while True:
            p = _descend(counting, x, order, False)
            assert not any(oracle.test(int(v), [x], True) for v in order[:p])
            x, order[p] = int(order[p]), x
            iterations += 1
            if not counting.test(x, order, False):
                break
    return x, iterations, ledger


class TestSharedSwapCore:
    def test_arguments_are_read_only_to_swap_and_min_find_among(self):
        instance = make_instance(40, seed=8)
        oracle = InstanceOracle(instance)
        x = instance.element_with_rank(30)
        for dtype in (np.int64, np.int32, np.uint8):
            ids = np.delete(np.arange(40), x).astype(dtype)
            ids.flags.writeable = False
            kept = ids.copy()
            below = swap(oracle, ids, x, np.random.default_rng(2))
            assert instance.ranks[below] <= instance.ranks[x]
            outcome = min_find_among(oracle, ids, np.random.default_rng(2))
            assert instance.rank_of(outcome.element) == 1
            assert (ids == kept).all() and ids.dtype == dtype

    @pytest.mark.parametrize("n", [2, 3, 5, 17, 64, 65, 300, 1000])
    def test_min_find_matches_a_loop_of_public_swaps(self, n):
        for seed in range(10):
            oracle = InstanceOracle(make_instance(n, seed))
            rng = np.random.default_rng([n, seed])
            twin = copy.deepcopy(rng)
            outcome = min_find(oracle, n, rng)
            element, iterations, ledger = min_find_by_one_order(oracle, n, twin)
            assert (outcome.element, outcome.iterations, outcome.ledger) == (
                element, iterations, ledger)
            assert rng.bit_generator.state == twin.bit_generator.state


class TestOneCallPerRun:
    @pytest.mark.parametrize("find", [min_find, max_find])
    def test_fused_rounds_match_rounds_asked_test_by_test(self, find):
        for n in [*range(1, 71), 127, 128, 129, 1000, 4095, 4096]:
            instance = make_instance(n, seed=n)
            asked = CountingOracle(InstanceOracle(instance))
            rng = np.random.default_rng(n)
            twin = copy.deepcopy(rng)
            fused = find(InstanceOracle(instance), n, rng)
            per_level = find(PerLevelOracle(asked), n, twin)
            assert fused == per_level
            assert fused.ledger == asked.ledger
            assert rng.bit_generator.state == twin.bit_generator.state
            assert exact_rank(instance, fused.element) == (1 if find is min_find else n)

    def test_one_call_per_run(self):
        calls = []

        class Logged(InstanceOracle):
            def test(self, u, V, left):
                calls.append("test")
                return super().test(u, V, left)

            def walk(self, u, arr, left):
                calls.append("walk")
                return super().walk(u, arr, left)

        outcome = min_find(Logged(make_instance(300, 4)), 300, np.random.default_rng(4))
        assert outcome.iterations >= 2
        assert calls == ["test", "walk"]


class RecordingOracle(InstanceOracle):
    """Test double that logs every query for transcript comparison.

    Its walks take the base class's path, one single test per level and
    one per condition test, so the swap tests reach the log too.
    """

    walk = GroupTestOracle.walk

    def __init__(self, instance):
        super().__init__(instance)
        self.transcript = []

    def test(self, u, V, left):
        self.transcript.append(("L" if left else "R", u, tuple(np.sort(np.asarray(V)))))
        return super().test(u, V, left)


class TestMaxFind:
    def test_single_element(self):
        outcome = max_find(InstanceOracle(make_instance(1, seed=0)), 1,
                           np.random.default_rng(0))
        assert outcome.element == 0

    def test_always_returns_the_maximum(self):
        rng = np.random.default_rng(17)
        for seed in range(1000):
            instance = make_instance(16, seed)
            outcome = max_find(InstanceOracle(instance), 16, rng)
            assert exact_rank(instance, outcome.element) == 16

    def test_transcript_is_minfinds_with_directions_swapped(self):
        # max-finding an order is min-finding its mirror image, so on the
        # mirrored instance the same seed produces the same queries with
        # every direction flipped
        from gtorder.order import TotalOrderInstance

        instance = make_instance(24, seed=14)
        mirrored = TotalOrderInstance(n=24, ranks=24 + 1 - instance.ranks)
        a = RecordingOracle(mirrored)
        outcome = min_find(a, 24, np.random.default_rng(123))
        b = RecordingOracle(instance)
        max_find(b, 24, np.random.default_rng(123))
        flipped = [("L" if kind == "R" else "R", u, V) for kind, u, V in a.transcript]
        assert b.transcript == flipped
        # each round asks one condition test on all 23 others, and each
        # swap ceil(log2 23) = 5 descent tests on fewer ids
        assert outcome.iterations >= 1
        sizes = [len(V) for _, _, V in a.transcript]
        assert sizes.count(23) == outcome.iterations + 1
        assert len(sizes) == outcome.iterations + 1 + outcome.iterations * ceil_log2(23)
        assert outcome.ledger.total == len(sizes)
