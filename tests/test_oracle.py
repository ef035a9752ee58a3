"""Tests for group-test semantics and the oracle adapters."""

import itertools
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtorder import (
    CountingOracle,
    ExternalOracle,
    GroupTestOracle,
    InstanceOracle,
    InvalidParameterError,
    approximate_rank,
    approximate_select,
    exact_rank,
    make_instance,
    max_find,
    min_find,
    padded_view,
    rank_at_most,
    reversed_view,
)


def oracle_of(n, seed=0):
    return InstanceOracle(make_instance(n, seed))


class TestGroupTestSemantics:
    def test_empty_set_answers_false(self):
        oracle = oracle_of(5)
        assert oracle.right_test(2, []) is False
        assert oracle.left_test(2, []) is False
        assert oracle.right_test(2, np.array([], dtype=np.int64)) is False

    def test_reflexivity(self):
        oracle = oracle_of(5)
        for u in range(5):
            assert oracle.right_test(u, [u])
            assert oracle.left_test(u, [u])

    def test_direct_evaluation_against_ranks(self):
        instance = make_instance(5, seed=11)
        oracle = InstanceOracle(instance)
        u = instance.element_with_rank(3)
        above = [instance.element_with_rank(4), instance.element_with_rank(5)]
        assert oracle.right_test(u, above) is False
        assert oracle.left_test(u, above) is True

    def test_out_of_range_ids_rejected(self):
        oracle = oracle_of(4)
        with pytest.raises(InvalidParameterError):
            oracle.right_test(4, [0])
        with pytest.raises(InvalidParameterError):
            oracle.right_test(0, [1, 4])
        with pytest.raises(InvalidParameterError):
            oracle.left_test(0, [-1])
        with pytest.raises(InvalidParameterError):
            oracle.right_test(0, np.arange(100))  # vectorized path validates too

    def test_large_sets_use_the_same_semantics(self):
        instance = make_instance(300, seed=2)
        oracle = InstanceOracle(instance)
        minimum = instance.element_with_rank(1)
        everyone_else = np.delete(np.arange(300), minimum)
        assert oracle.right_test(minimum, everyone_else) is False
        assert oracle.left_test(minimum, everyone_else) is True

    @given(st.integers(2, 40), st.data())
    @settings(max_examples=60, deadline=None)
    def test_totality_on_nonempty_sets(self, n, data):
        oracle = oracle_of(n, seed=5)
        u = data.draw(st.integers(0, n - 1))
        V = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8))
        assert oracle.left_test(u, V) or oracle.right_test(u, V)

    def test_group_test_is_or_of_singletons_exhaustively(self):
        # every compound answer decomposes into singleton answers, n=16, |V|<=4
        n = 16
        oracle = oracle_of(n, seed=8)
        ids = range(n)
        for size in (1, 2, 3, 4):
            for V in itertools.combinations(ids, size):
                for u in ids:
                    assert oracle.right_test(u, V) == any(
                        oracle.right_test(u, [v]) for v in V
                    )
                    assert oracle.left_test(u, V) == any(
                        oracle.left_test(u, [v]) for v in V
                    )


class TestCountingAdapter:
    def test_counts_match_calls_made(self):
        class Recorder(InstanceOracle):
            calls = 0

            def left_test(self, u, V):
                Recorder.calls += 1
                return super().left_test(u, V)

            def right_test(self, u, V):
                Recorder.calls += 1
                return super().right_test(u, V)

        inner = Recorder(make_instance(10, seed=1))
        counting = CountingOracle(inner)
        rng = np.random.default_rng(0)
        lefts = rights = 0
        for _ in range(200):
            u = int(rng.integers(10))
            V = rng.integers(0, 10, size=int(rng.integers(1, 5))).tolist()
            if rng.integers(2):
                counting.left_test(u, V)
                lefts += 1
            else:
                counting.right_test(u, V)
                rights += 1
        assert counting.ledger.left_count == lefts
        assert counting.ledger.right_count == rights
        assert counting.ledger.total == Recorder.calls == 200


# each run takes an oracle and a generator and returns an outcome with a ledger
LEDGER_RUNS = {
    "minfind": lambda o, rng: min_find(o, 32, rng),
    "maxfind": lambda o, rng: max_find(o, 32, rng),
    "testle_low_target": lambda o, rng: rank_at_most(o, 5, 8, 0.5, 0.2, rng),
    "testle_high_target": lambda o, rng: rank_at_most(o, 5, 28, 0.5, 0.2, rng),
    "rank": lambda o, rng: approximate_rank(o, 5, 0.5, 0.3, rng),
    "select_low_target": lambda o, rng: approximate_select(o, 150, 30, 0.8, 0.3, rng),
    "select_high_target": lambda o, rng: approximate_select(o, 150, 120, 0.8, 0.3, rng),
}


class TestOneLedger:
    @pytest.mark.parametrize("name", sorted(LEDGER_RUNS))
    def test_ledger_counts_in_the_frame_of_the_given_oracle(self, name, monkeypatch):
        n = 150 if name.startswith("select") else 32
        outer = CountingOracle(oracle_of(n, seed=0))
        built = []
        original_init = CountingOracle.__init__

        def recording_init(self, inner):
            built.append(inner)
            original_init(self, inner)

        monkeypatch.setattr(CountingOracle, "__init__", recording_init)
        outcome = LEDGER_RUNS[name](outer, np.random.default_rng(0))
        assert outer.ledger.total > 0
        assert (outcome.ledger.left_count, outcome.ledger.right_count) == (
            outer.ledger.left_count, outer.ledger.right_count)
        assert built == []  # the caller's counting adapter is the only one

    def test_counted_reuses_an_adapter_under_one_reversal(self):
        from gtorder.oracle import counted

        counting = CountingOracle(oracle_of(8))
        assert counted(counting) == (counting, counting.ledger)
        flipped = reversed_view(counting)
        assert counted(flipped) == (flipped, counting.ledger)
        fresh, ledger = counted(reversed_view(oracle_of(8)))
        assert isinstance(fresh, CountingOracle) and ledger is fresh.ledger

    def test_each_call_reports_only_its_own_queries(self):
        outer = CountingOracle(oracle_of(32))
        rng = np.random.default_rng(1)
        first = min_find(outer, 32, rng)
        second = max_find(outer, 32, rng)
        assert first.ledger.total + second.ledger.total == outer.ledger.total
        assert first.ledger.left_count == second.ledger.right_count == 0


class TestReversedView:
    def test_double_reversal_answers_identically(self):
        for n in (1, 2, 7, 32):
            oracle = oracle_of(n, seed=n)
            double = reversed_view(reversed_view(oracle))
            rng = np.random.default_rng(n)
            for u in range(n):
                for v in range(n):
                    assert double.right_test(u, [v]) == oracle.right_test(u, [v])
            for _ in range(100):
                u = int(rng.integers(n))
                V = rng.integers(0, n, size=int(rng.integers(1, n + 1))).tolist()
                assert double.right_test(u, V) == oracle.right_test(u, V)
                assert double.left_test(u, V) == oracle.left_test(u, V)

    def test_reversed_right_is_original_left(self):
        n = 64
        oracle = oracle_of(n, seed=13)
        rev = reversed_view(oracle)
        rng = np.random.default_rng(13)
        for _ in range(100):
            u = int(rng.integers(n))
            V = rng.integers(0, n, size=int(rng.integers(1, 9))).tolist()
            assert rev.right_test(u, V) == oracle.left_test(u, V)
            assert rev.left_test(u, V) == oracle.right_test(u, V)

    def test_reversed_rank_is_mirrored(self):
        instance = make_instance(5, seed=3)
        rev = reversed_view(InstanceOracle(instance))
        x = instance.element_with_rank(2)
        rank_in_reverse = sum(rev.right_test(x, [y]) for y in range(5))
        assert rank_in_reverse == 4


class TestPaddedView:
    def test_no_padding_when_divisible(self):
        oracle = oracle_of(10)
        padded = padded_view(oracle, 5)
        assert padded.size == 10

    def test_padding_sizes_and_dummy_ranks(self):
        oracle = oracle_of(10, seed=17)
        padded = padded_view(oracle, 4)
        assert padded.size == 12
        for dummy, expected in ((10, 11), (11, 12)):
            rank = sum(padded.right_test(dummy, [y]) for y in range(12))
            assert rank == expected

    def test_dummies_above_every_real_element(self):
        oracle = oracle_of(10, seed=17)
        padded = padded_view(oracle, 4)
        for x in range(10):
            for dummy in (10, 11):
                assert padded.right_test(x, [dummy]) is False
                assert padded.left_test(x, [dummy]) is True

    def test_padding_preserves_real_ranks(self):
        for n in (3, 10, 23):
            instance = make_instance(n, seed=n)
            for divisor in (1, 2, 3, 7, 8):
                padded = padded_view(InstanceOracle(instance), divisor)
                for x in range(n):
                    rank = sum(padded.right_test(x, [y]) for y in range(padded.size))
                    assert rank == exact_rank(instance, x)

    def test_mixed_queries_with_dummy_subject(self):
        oracle = oracle_of(6, seed=2)
        padded = padded_view(oracle, 4)  # dummies 6, 7
        assert padded.right_test(6, [0, 7]) is True  # the real element is below
        assert padded.right_test(6, [7]) is False  # higher dummy is not
        assert padded.right_test(7, [6]) is True
        assert padded.left_test(6, [7]) is True
        assert padded.left_test(7, [6]) is False
        assert padded.left_test(7, [0, 1]) is False  # reals sit below dummies

    def test_invalid_divisor_rejected(self):
        with pytest.raises(InvalidParameterError):
            padded_view(oracle_of(4), 0)

    def test_padded_ids_validated(self):
        padded = padded_view(oracle_of(6), 4)
        with pytest.raises(InvalidParameterError):
            padded.right_test(0, [8])
        with pytest.raises(InvalidParameterError):
            padded.right_test(8, [0])


@given(st.integers(2, 24), st.data())
@settings(max_examples=60, deadline=None)
def test_adapters_agree_with_definitions(n, data):
    """Reversal and padding answer exactly per the rank definitions."""
    instance = make_instance(n, seed=99)
    oracle = InstanceOracle(instance)
    divisor = data.draw(st.integers(1, 6))
    padded = padded_view(reversed_view(oracle), divisor)
    size = padded.size

    def rank_in_view(e):
        # reversed real rank, dummies on top (ordered by id)
        return n - instance.rank_of(e) + 1 if e < n else e + 1

    u = data.draw(st.integers(0, size - 1))
    V = data.draw(st.lists(st.integers(0, size - 1), min_size=0, max_size=6))
    ru = rank_in_view(u)
    assert padded.right_test(u, V) == any(rank_in_view(v) <= ru for v in V)
    assert padded.left_test(u, V) == any(rank_in_view(v) >= ru for v in V)


class PerRowOracle(GroupTestOracle):
    """A user oracle that defines only the single tests, so batches take
    the base class's per-row path."""

    def __init__(self, inner):
        self._inner = inner
        self.size = inner.size

    def left_test(self, u, V):
        return self._inner.left_test(u, V)

    def right_test(self, u, V):
        return self._inner.right_test(u, V)


@st.composite
def batches(draw, n):
    """(u, rows, n_eff): a subject, a 2-D id array and a padded size."""
    n_eff = n + draw(st.integers(0, 6))
    trials = draw(st.integers(0, 6))
    width = draw(st.integers(1, 6))
    ids = draw(st.lists(st.integers(0, n_eff - 1), min_size=trials * width,
                        max_size=trials * width))
    u = draw(st.integers(0, n - 1))
    return u, np.array(ids, dtype=np.int64).reshape(trials, width), n_eff


def per_row(test, u, rows, n):
    """The reference answer: one single test per row, dummy ids dropped."""
    return [test(u, [v for v in row if v < n]) for row in rows.tolist()]


class TestBatches:
    @pytest.mark.parametrize("view", ["instance", "reversed", "per_row", "per_row_reversed"])
    @given(n=st.integers(1, 24), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_batch_matches_per_row_tests(self, view, n, data):
        oracle = oracle_of(n, seed=n)
        if view.startswith("per_row"):
            oracle = PerRowOracle(oracle)
        if view.endswith("reversed"):
            oracle = reversed_view(oracle)
        u, rows, n_eff = data.draw(batches(n))
        left = oracle.left_test_batch(u, rows, n_eff)
        right = oracle.right_test_batch(u, rows, n_eff)
        assert left.dtype == right.dtype == bool
        assert left.tolist() == per_row(oracle.left_test, u, rows, n)
        assert right.tolist() == per_row(oracle.right_test, u, rows, n)

    @given(n=st.integers(1, 24), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_counting_adds_one_query_per_row(self, n, data):
        counting = CountingOracle(oracle_of(n, seed=n))
        u, rows, n_eff = data.draw(batches(n))
        left = counting.left_test_batch(u, rows, n_eff)
        assert (counting.ledger.left_count, counting.ledger.right_count) == (len(rows), 0)
        right = counting.right_test_batch(u, rows, n_eff)
        assert (counting.ledger.left_count, counting.ledger.right_count) == (len(rows),) * 2
        assert left.tolist() == per_row(counting.left_test, u, rows, n)
        assert right.tolist() == per_row(counting.right_test, u, rows, n)

    @given(n=st.integers(1, 24), divisor=st.integers(1, 7), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_dummy_slots_follow_the_padding_law(self, n, divisor, data):
        # the threshold test asks right tests, directly or under reversal;
        # its dummy slots answer as padded_view's maximal dummies do
        n_eff = divisor * ((n + divisor - 1) // divisor)
        u, rows, _ = data.draw(batches(n))
        rows = rows % n_eff
        for view in (oracle_of(n, seed=n), reversed_view(oracle_of(n, seed=n))):
            padded = padded_view(view, divisor)
            assert view.right_test_batch(u, rows, n_eff).tolist() == [
                padded.right_test(u, row) for row in rows.tolist()]


@pytest.fixture(scope="module")
def remote24():
    command = [sys.executable, "-m", "gtorder.oracle_server", "--n", "24", "--seed", "24"]
    with ExternalOracle(command, 24) as remote:
        yield remote


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_external_batch_matches_builtin_per_row(remote24, data):
    builtin = oracle_of(24, seed=24)
    u, rows, n_eff = data.draw(batches(24))
    lines = []
    exchange = remote24._exchange
    remote24._exchange = lambda line: lines.append(line) or exchange(line)
    try:
        assert remote24.left_test_batch(u, rows, n_eff).tolist() == per_row(
            builtin.left_test, u, rows, 24)
        assert remote24.right_test_batch(u, rows, n_eff).tolist() == per_row(
            builtin.right_test, u, rows, 24)
    finally:
        del remote24._exchange
    # the reference server has the batch op: one line per non-empty batch
    assert [line.split()[0] for line in lines] == (["BL", "BR"] if rows.size else [])


BAD_BATCHES = {
    "negative_id": (1, [[0, -1]], 10),
    "id_at_n_eff": (1, [[0, 10]], 10),
    "u_negative": (-1, [[0, 1]], 10),
    "u_at_size": (8, [[0, 1]], 10),
    "u_dummy": (9, [[0, 1]], 10),
    "n_eff_below_size": (1, [[0, 1]], 7),
}


@pytest.mark.parametrize("path", ["vector", "per_row"])
@pytest.mark.parametrize("case", sorted(BAD_BATCHES))
def test_batch_validation(path, case):
    oracle = oracle_of(8)
    if path == "per_row":
        oracle = PerRowOracle(oracle)
    u, rows, n_eff = BAD_BATCHES[case]
    for test in (oracle.left_test_batch, oracle.right_test_batch):
        with pytest.raises(InvalidParameterError):
            test(u, np.array(rows), n_eff)
