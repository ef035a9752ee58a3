"""Tests for group-test semantics and the oracle adapters."""

import functools
import hashlib
import itertools
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gtorder import (
    CountingOracle,
    ExternalOracle,
    GroupTestOracle,
    InstanceOracle,
    InvalidParameterError,
    OracleRejectedError,
    QueryLedger,
    approximate_rank,
    approximate_select,
    derive_params,
    exact_rank,
    make_instance,
    max_find,
    min_find,
    min_find_among,
    rank_at_most,
    reversed_view,
)
from gtorder.oracle import _descend, _id_array
from gtorder.verify import _PerQueryOracle as PerRowOracle


def oracle_of(n, seed=0):
    return InstanceOracle(make_instance(n, seed))


def padded_rows(oracle, n_eff):
    """The oracle's left and right batch tests, each asked of one row over
    a universe padded to ``n_eff`` ids, as single tests."""
    return tuple(lambda u, V, batch=batch: bool(batch(u, np.asarray(V)[None, :], n_eff)[0])
                 for batch in directions(oracle.test_batch))


def directions(method):
    """``method``, an oracle's ``test`` or ``test_batch``, asked left and
    asked right."""
    return functools.partial(method, left=True), functools.partial(method, left=False)


class TestGroupTestSemantics:
    def test_empty_set_answers_false(self):
        oracle = oracle_of(5)
        assert oracle.test(2, [], False) is False
        assert oracle.test(2, [], True) is False
        assert oracle.test(2, np.array([], dtype=np.int64), False) is False

    def test_reflexivity(self):
        oracle = oracle_of(5)
        for u in range(5):
            assert oracle.test(u, [u], False)
            assert oracle.test(u, [u], True)

    def test_direct_evaluation_against_ranks(self):
        instance = make_instance(5, seed=11)
        oracle = InstanceOracle(instance)
        u = instance.element_with_rank(3)
        above = [instance.element_with_rank(4), instance.element_with_rank(5)]
        assert oracle.test(u, above, False) is False
        assert oracle.test(u, above, True) is True

    def test_out_of_range_ids_rejected(self):
        oracle = oracle_of(4)
        with pytest.raises(InvalidParameterError):
            oracle.test(4, [0], False)
        with pytest.raises(InvalidParameterError):
            oracle.test(0, [1, 4], False)
        with pytest.raises(InvalidParameterError):
            oracle.test(0, [-1], True)
        with pytest.raises(InvalidParameterError):
            oracle.test(0, np.arange(100), False)  # long id arrays are checked too

    @pytest.mark.parametrize("view", ["instance", "padded", "reversed"])
    def test_non_integer_ids_rejected(self, view):
        oracle = oracle_of(8)
        if view == "reversed":
            oracle = reversed_view(oracle)
        bad = [(5, [1.5, 2.0]), (5.5, [1, 2]), (5.0, [1, 2]), (True, [1, 2]),
               (5, [True, False]), (5, [1, False]), (5, {0.0}),
               (5, np.arange(70, dtype=float) % 8), (5, np.array([1.0, 2.0])),
               (5, np.array([True, False])), (np.float64(5), np.array([1, 2]))]
        tests = directions(oracle.test)
        if view == "padded":
            # a batch row is an id array, so [1, False] (all ints) and the
            # set {0.0} (no row) have no batch form; 8 and 9 are dummy slots
            bad = [(5, [1.5, 9.0]), (5.5, [1, 9]), (5.0, [1, 9]), (True, [1, 9]),
                   (5, [True, False]), (5, np.arange(70, dtype=float) % 10),
                   (5, np.array([8.0, 9.0])), (np.float64(5), np.array([1, 9]))]
            tests = padded_rows(oracle, 10)
        for u, V in bad:
            for test in tests:
                with pytest.raises(InvalidParameterError):
                    test(u, V)

    @pytest.mark.parametrize("view", ["instance", "padded", "reversed"])
    def test_numpy_integer_ids_accepted(self, view):
        instance = make_instance(8, seed=3)
        oracle = InstanceOracle(instance)
        if view == "reversed":
            oracle = reversed_view(oracle)
        u = int(instance.element_with_rank(4))
        ids = [0, 1, 2, 3, 4, 5, 6, 7]
        tests = directions(oracle.test)
        if view == "padded":
            ids += [8, 9]  # the dummy slots of a padded universe of 10
            tests = padded_rows(oracle, np.int64(10))
        for V in ([np.int64(v) for v in ids], [np.uint8(v) for v in ids],
                  np.array(ids, dtype=np.int32), np.tile(np.array(ids, dtype=np.uint16), 10)):
            for U in (u, np.int64(u), np.uint8(u)):
                assert tests[0](U, V) is tests[1](U, V) is True
        # an empty set answers false whatever its dtype
        assert tests[1](u, np.array([])) is False

    @pytest.mark.parametrize("view", ["instance", "reversed", "per_row"])
    def test_non_1d_id_arrays_rejected(self, view):
        oracle = oracle_of(8)
        oracle = {"instance": oracle, "reversed": reversed_view(oracle),
                  "per_row": PerRowOracle(oracle)}[view]
        # 0-d, and 2-D of 4 and of 100 ids
        for V in (np.array(3), np.array([[1, 2], [3, 4]]), np.arange(100).reshape(10, 10) % 8):
            for test in directions(oracle.test):
                with pytest.raises(InvalidParameterError, match="1-D"):
                    test(0, V)

    def test_large_sets_use_the_same_semantics(self):
        instance = make_instance(300, seed=2)
        oracle = InstanceOracle(instance)
        minimum = instance.element_with_rank(1)
        everyone_else = np.delete(np.arange(300), minimum)
        assert oracle.test(minimum, everyone_else, False) is False
        assert oracle.test(minimum, everyone_else, True) is True

    @given(st.integers(2, 40), st.data())
    @settings(max_examples=60, deadline=None)
    def test_totality_on_nonempty_sets(self, n, data):
        oracle = oracle_of(n, seed=5)
        u = data.draw(st.integers(0, n - 1))
        V = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8))
        assert oracle.test(u, V, True) or oracle.test(u, V, False)

    def test_group_test_is_or_of_singletons_exhaustively(self):
        # every compound answer decomposes into singleton answers, n=16, |V|<=4
        n = 16
        oracle = oracle_of(n, seed=8)
        ids = range(n)
        for size in (1, 2, 3, 4):
            for V in itertools.combinations(ids, size):
                for u in ids:
                    assert oracle.test(u, V, False) == any(
                        oracle.test(u, [v], False) for v in V
                    )
                    assert oracle.test(u, V, True) == any(
                        oracle.test(u, [v], True) for v in V
                    )


class TestContract:
    """An oracle has one method per op of the line protocol, each taking
    its direction as an argument."""

    QUERIES = {"test", "test_batch", "walk"}

    def test_the_single_test_is_the_one_abstract_method(self):
        assert GroupTestOracle.__abstractmethods__ == {"test"}

    def test_the_query_methods_are_test_test_batch_and_walk(self):
        assert {name for name in dir(GroupTestOracle) if not name.startswith("_")} == self.QUERIES
        pending, library = GroupTestOracle.__subclasses__(), set()
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if cls.__module__.startswith("gtorder."):
                library.add(cls)
                methods = {name for name, value in vars(cls).items()
                           if callable(value) and not name.startswith("_")}
                assert methods <= self.QUERIES | {"close"}, cls
        assert {InstanceOracle, CountingOracle, ExternalOracle, PerRowOracle,
                type(reversed_view(oracle_of(2)))} <= library

    def test_an_oracle_without_the_single_test_cannot_be_built(self):
        class NoSingleTest(GroupTestOracle):
            size = 4

            def test_batch(self, u, rows, n_eff, left):
                return np.ones(len(rows), dtype=bool)

        with pytest.raises(TypeError, match="test"):
            NoSingleTest()


def test_ids_mixing_uint64_with_other_integers_answer_as_int64():
    # np.asarray reads [np.uint64(5), 3] as float64; every entry point
    # reads it as the int64 ids it holds, and still rejects bools and floats
    oracle = oracle_of(8)

    def rows(ids):
        return [ids] if isinstance(ids, list) else ids[None, :]

    calls = (lambda ids: oracle.test(3, ids, False),
             lambda ids: oracle.walk(7, ids, False),
             lambda ids: oracle.test_batch(3, rows(ids), 8, False).tolist(),
             lambda ids: min_find_among(oracle, ids, np.random.default_rng(0)))
    for call in calls:
        assert call([np.uint64(5), 3]) == call(np.array([5, 3]))
        for bad in ([np.uint64(5), True], [np.uint64(5), 3.0], [5, np.float64(3)]):
            with pytest.raises(InvalidParameterError):
                call(bad)


class TestCountingAdapter:
    def test_counts_match_calls_made(self):
        class Recorder(InstanceOracle):
            calls = 0

            def test(self, u, V, left):
                Recorder.calls += 1
                return super().test(u, V, left)

        inner = Recorder(make_instance(10, seed=1))
        counting = CountingOracle(inner)
        rng = np.random.default_rng(0)
        lefts = rights = 0
        for _ in range(200):
            u = int(rng.integers(10))
            V = rng.integers(0, 10, size=int(rng.integers(1, 5))).tolist()
            if rng.integers(2):
                counting.test(u, V, True)
                lefts += 1
            else:
                counting.test(u, V, False)
                rights += 1
        assert counting.ledger.left_count == lefts
        assert counting.ledger.right_count == rights
        assert counting.ledger.total == Recorder.calls == 200

    def test_rejected_queries_are_not_counted(self):
        counting = CountingOracle(oracle_of(8, seed=1))
        rejected = [lambda: counting.test_batch(0, np.array([[9]]), 8, False),
                    lambda: counting.test_batch(0, np.array([[0], [1]]), 7, True),
                    lambda: counting.test(0, [9], False),
                    lambda: counting.test(8, [0], True),
                    lambda: counting.walk(0, np.array([0, 1, 9]), False),
                    lambda: counting.walk(0, np.array([0.0, 1.0]), True)]
        for ask in rejected:
            with pytest.raises(InvalidParameterError):
                ask()
            assert counting.ledger == QueryLedger()


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
    def test_ledger_counts_in_the_frame_of_the_given_oracle(self, name):
        n = 150 if name.startswith("select") else 32
        outer = CountingOracle(oracle_of(n, seed=0))
        outcome = LEDGER_RUNS[name](outer, np.random.default_rng(0))
        assert outer.ledger.total > 0
        assert outcome.ledger == outer.ledger

    @pytest.mark.parametrize("name", sorted(LEDGER_RUNS))
    def test_a_reversed_counting_oracle_is_counted_in_the_callers_frame(self, name):
        # the run counts the tests the reversed view answered, whatever
        # sits below it; the counting adapter there sees them mirrored
        n = 150 if name.startswith("select") else 32
        plain = LEDGER_RUNS[name](reversed_view(oracle_of(n)), np.random.default_rng(0))
        below = CountingOracle(oracle_of(n))
        outcome = LEDGER_RUNS[name](reversed_view(below), np.random.default_rng(0))
        assert below.ledger.total > 0
        assert outcome.ledger == plain.ledger == QueryLedger(below.ledger.right_count,
                                                             below.ledger.left_count)

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
                    assert double.test(u, [v], False) == oracle.test(u, [v], False)
            for _ in range(100):
                u = int(rng.integers(n))
                V = rng.integers(0, n, size=int(rng.integers(1, n + 1))).tolist()
                assert double.test(u, V, False) == oracle.test(u, V, False)
                assert double.test(u, V, True) == oracle.test(u, V, True)

    def test_reversed_right_is_original_left(self):
        n = 64
        oracle = oracle_of(n, seed=13)
        rev = reversed_view(oracle)
        rng = np.random.default_rng(13)
        for _ in range(100):
            u = int(rng.integers(n))
            V = rng.integers(0, n, size=int(rng.integers(1, 9))).tolist()
            assert rev.test(u, V, False) == oracle.test(u, V, True)
            assert rev.test(u, V, True) == oracle.test(u, V, False)

    def test_reversed_rank_is_mirrored(self):
        instance = make_instance(5, seed=3)
        rev = reversed_view(InstanceOracle(instance))
        x = instance.element_with_rank(2)
        rank_in_reverse = sum(rev.test(x, [y], False) for y in range(5))
        assert rank_in_reverse == 4


class TestDummySlots:
    """The padded universe a threshold test samples from: ``derive_params``
    rounds n up to a multiple of ceil(r), and a batch over n_eff ids sees
    ids n..n_eff-1 as dummy slots above every real element."""

    def test_no_padding_when_divisible(self):
        for r in (1, 2, 1.5, 5):
            assert derive_params(10, r, 0.5, 0.1).n_eff == 10
        for r in (2.5, 3, 4):
            assert derive_params(10, r, 0.5, 0.1).n_eff == 12

    def test_dummies_above_every_real_element(self):
        # in the order and in its reversal a dummy slot satisfies neither test
        oracle = oracle_of(10, seed=17)
        for view in (oracle, reversed_view(oracle), PerRowOracle(oracle)):
            for x in range(10):
                rows = np.array([[10, 10], [11, 11], [11, 10]])
                assert view.test_batch(x, rows, 12, False).tolist() == [False] * 3
                assert view.test_batch(x, rows, 12, True).tolist() == [False] * 3

    def test_padding_preserves_real_ranks(self):
        for n in (3, 10, 23):
            instance = make_instance(n, seed=n)
            oracle = InstanceOracle(instance)
            for divisor in (1, 2, 3, 7, 8):
                n_eff = divisor * ((n + divisor - 1) // divisor)
                singles = np.arange(n_eff)[:, None]
                for x in range(n):
                    rank = exact_rank(instance, x)
                    assert oracle.test_batch(x, singles, n_eff, False).sum() == rank
                    assert oracle.test_batch(x, singles, n_eff, True).sum() == n + 1 - rank
                    mirrored = reversed_view(oracle).test_batch(x, singles, n_eff, False)
                    assert mirrored.sum() == n + 1 - rank

    def test_mixed_queries_with_dummy_subject(self):
        # rows that mix real ids and dummies answer as their real ids do;
        # a dummy is never a subject
        instance = make_instance(6, seed=2)
        oracle = InstanceOracle(instance)  # dummies 6, 7 under n_eff = 8
        low, high = instance.element_with_rank(1), instance.element_with_rank(6)
        rows = np.array([[low, 7], [7, 6], [high, 6]])
        u = instance.element_with_rank(3)
        assert oracle.test_batch(u, rows, 8, False).tolist() == [True, False, False]
        assert oracle.test_batch(u, rows, 8, True).tolist() == [False, False, True]
        for subject in (6, 7):
            with pytest.raises(InvalidParameterError):
                oracle.test_batch(subject, rows, 8, False)
            with pytest.raises(InvalidParameterError):
                oracle.test_batch(subject, rows, 8, True)

    def test_padded_ids_validated(self):
        oracle = oracle_of(6)
        for view in (oracle, reversed_view(oracle), PerRowOracle(oracle)):
            for test in directions(view.test_batch):
                with pytest.raises(InvalidParameterError):
                    test(0, np.array([[8]]), 8)
                with pytest.raises(InvalidParameterError):
                    test(8, np.array([[0]]), 8)
                with pytest.raises(InvalidParameterError):
                    test(0, np.array([[0]]), 5)

    def test_threshold_rows_stay_in_the_padded_universe(self):
        # rank_at_most asks its right tests over derive_params' n_eff, and
        # the dummy slots it draws there never answer as hits
        asked = []

        class Recording(PerRowOracle):
            def test_batch(self, u, rows, n_eff, left):
                answer = super().test_batch(u, rows, n_eff, left)
                asked.append((n_eff, rows.max(), answer[(rows >= self.size).all(axis=1)]))
                return answer

        oracle = Recording(oracle_of(10, seed=17))
        outcome = rank_at_most(oracle, 3, 4, 0.5, 0.2, np.random.default_rng(0))
        assert outcome.params.n_eff == 12
        assert asked and all(n_eff == 12 and top < 12 for n_eff, top, _ in asked)
        assert max(top for _, top, _ in asked) >= 10  # dummy slots were drawn
        assert not any(dummy_rows.any() for _, _, dummy_rows in asked)


def walk_reference(ranks, rank_u, left):
    """What ``walk`` answers for ids of ranks ``ranks`` and a subject of
    rank ``rank_u``: no end if no id satisfies the test, else round by
    round the first position p satisfying the test, else m - 1; the test
    of the id at p against the others and the subject; then the subject
    in slot p and that id the subject.  None once a round ends at or
    before the one before it."""
    def hit(rank, against):
        return rank >= against if left else rank <= against

    ranks, ends = list(ranks), []
    if not any(hit(rank, rank_u) for rank in ranks):
        return ends
    while True:
        hits = [hit(rank, rank_u) for rank in ranks]
        p = hits.index(True) if any(hits) else len(ranks) - 1
        if ends and p <= ends[-1]:
            return None
        ends.append(p)
        others = ranks[:p] + ranks[p + 1:] + [rank_u]
        if not any(hit(rank, ranks[p]) for rank in others):
            return ends
        ranks[p], rank_u = rank_u, ranks[p]


# the containers a single test takes its ids in
ID_CONTAINERS = {"list": list, "tuple": tuple, "set": set, "frozenset": frozenset,
                 "int64": lambda ids: np.array(ids, dtype=np.int64),
                 "uint16": lambda ids: np.array(ids, dtype=np.uint16)}


@given(st.integers(2, 200), st.sampled_from(sorted(ID_CONTAINERS)), st.data())
@settings(max_examples=100, deadline=None)
def test_adapters_agree_with_definitions(n, container, data):
    """The instance oracle, its reversal and the per-row path answer
    single tests, one-row batches and walks exactly per the rank
    definition, whatever container holds the ids and however many."""
    instance = make_instance(n, seed=99)
    base = InstanceOracle(instance)
    # near the ends of the order a test has few hits, so each one counts
    u = instance.element_with_rank(data.draw(st.sampled_from([1, 2, n - 1, n])
                                             | st.integers(1, n)))
    m = data.draw(st.integers(0, 130))
    ids = data.draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    V = ID_CONTAINERS[container](ids)
    rank_of = functools.partial(exact_rank, instance)
    views = {"instance": (base, rank_of),
             "reversed": (reversed_view(base), lambda e: n - rank_of(e) + 1),
             "per_row": (PerRowOracle(base), rank_of)}
    for oracle, rank in views.values():
        ru = rank(u)
        below = [rank(v) <= ru for v in ids]
        above = [rank(v) >= ru for v in ids]
        assert oracle.test(u, V, False) is any(below)
        assert oracle.test(u, V, True) is any(above)
        row = np.array(ids, dtype=np.int64).reshape(1, m)
        assert oracle.test_batch(u, row, n, False).tolist() == [any(below)]
        assert oracle.test_batch(u, row, n, True).tolist() == [any(above)]
        if m:
            for left in (True, False):
                assert oracle.walk(u, row[0], left) == walk_reference(
                    [rank(v) for v in ids], rank(u), left)


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


def per_row(oracle, u, rows, n, left):
    """The reference answer: one single test per row, dummy ids dropped."""
    return [oracle.test(u, [v for v in row if v < n], left) for row in rows.tolist()]


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
        left = oracle.test_batch(u, rows, n_eff, True)
        right = oracle.test_batch(u, rows, n_eff, False)
        assert left.dtype == right.dtype == bool
        assert left.tolist() == per_row(oracle, u, rows, n, True)
        assert right.tolist() == per_row(oracle, u, rows, n, False)

    @given(n=st.integers(1, 24), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_counting_adds_one_query_per_row(self, n, data):
        counting = CountingOracle(oracle_of(n, seed=n))
        u, rows, n_eff = data.draw(batches(n))
        left = counting.test_batch(u, rows, n_eff, True)
        assert (counting.ledger.left_count, counting.ledger.right_count) == (len(rows), 0)
        right = counting.test_batch(u, rows, n_eff, False)
        assert (counting.ledger.left_count, counting.ledger.right_count) == (len(rows),) * 2
        assert left.tolist() == per_row(counting, u, rows, n, True)
        assert right.tolist() == per_row(counting, u, rows, n, False)

    @given(n=st.integers(1, 24), divisor=st.integers(1, 7), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_dummy_slots_follow_the_padding_law(self, n, divisor, data):
        # the threshold test asks right tests, directly or under reversal,
        # over n rounded up to a multiple of its divisor; the dummy slots
        # sit above every real element, so they never hit
        n_eff = divisor * ((n + divisor - 1) // divisor)
        u, rows, _ = data.draw(batches(n))
        rows = rows % n_eff
        for view in (oracle_of(n, seed=n), reversed_view(oracle_of(n, seed=n))):
            assert view.test_batch(u, rows, n_eff, False).tolist() == [
                view.test(u, [v for v in row if v < n], False) for row in rows.tolist()]

    @pytest.mark.parametrize("view", ["instance", "reversed", "per_row"])
    def test_far_padding_answers_as_one_dummy_slot(self, view):
        # past n_eff = 2n every dummy slot answers alike, so a batch over a
        # huge padded universe answers as if each dummy were slot n
        n = 12
        oracle = oracle_of(n, seed=5)
        if view == "per_row":
            oracle = PerRowOracle(oracle)
        elif view == "reversed":
            oracle = reversed_view(oracle)
        rows = np.random.default_rng(5).integers(0, 10**9, size=(64, 3))
        rows[::2, 0] %= n  # half the rows hold a real id
        folded = np.minimum(rows, n)
        for u in range(n):
            for batch in directions(oracle.test_batch):
                assert batch(u, rows, 10**9).tolist() == batch(u, folded, n + 1).tolist()


def kernel_views(oracle):
    """(view, its counting adapters): the oracle bare, reversed, and under
    two stacked CountingOracles of their own, bare and reversed."""
    views = [(oracle, ()), (reversed_view(oracle), ())]
    for reverse in (False, True):
        inner = CountingOracle(oracle)
        outer = CountingOracle(inner)
        views.append((reversed_view(outer) if reverse else outer, (outer, inner)))
    return views


@st.composite
def wide_batches(draw, n):
    """(u, rows, n_eff): rows of 0 to 300 ids drawn from a small pool, so
    wide rows still mix hits and misses, and some rows all dummies."""
    n_eff = n + draw(st.sampled_from([0, 0, 1, 7, 300]))
    trials = draw(st.integers(0, 6))
    width = draw(st.integers(0, 300))
    u = draw(st.integers(0, n - 1))
    pool = draw(st.lists(st.integers(0, n_eff - 1) | st.just(u), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.choice(np.array(pool, dtype=np.int64), size=(trials, width))
    if n_eff > n and trials and width:
        dummies = draw(st.lists(st.integers(0, trials - 1), max_size=trials))
        rows[dummies] = rng.integers(n, n_eff, size=(len(dummies), width))
    return u, rows, n_eff


class TestBatchKernel:
    """InstanceOracle's hit-table batch against ``per_row``, which asks
    one single test per row with dummy ids left out."""

    @given(n=st.integers(1, 40), data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_kernel_matches_the_per_row_path(self, n, data):
        u, rows, n_eff = data.draw(wide_batches(n))
        for view, ledgers in kernel_views(oracle_of(n, seed=n)):
            for left in (True, False):
                answer = view.test_batch(u, rows, n_eff, left)
                assert answer.dtype == bool and answer.shape == (len(rows),)
                assert answer.tolist() == per_row(view, u, rows, n, left)
            # each batch row and each per-row single test is one query
            for counting in ledgers:
                assert counting.ledger.total == 4 * len(rows)

    @pytest.mark.parametrize("width", [1, 255, 256, 257, 300, 65536])
    def test_all_hit_rows_of_any_width_answer_true(self, width):
        # every id of each row satisfies the test, so a count that wraps
        # (at 256 in uint8, at 65536 in uint16) would answer false
        instance = make_instance(10, seed=4)
        oracle = InstanceOracle(instance)
        top, bottom = instance.element_with_rank(10), instance.element_with_rank(1)
        rows = np.tile(np.arange(10), (3, width // 10 + 1))[:, :width]
        for view in (oracle, reversed_view(oracle)):
            # top lies above every id: the bare oracle's right test, its reversal's left one
            left = view is not oracle
            assert view.test_batch(top, rows, 12, left).tolist() == [True] * 3
            assert view.test_batch(bottom, rows, 12, not left).tolist() == [True] * 3

    @pytest.mark.parametrize("width", [7, 4097, 2**15 + 1])
    def test_rows_hit_once_in_the_last_column(self, width):
        # each row but the last holds exactly one hit, in its last column,
        # after misses and dummies: the float32 count of such a row is
        # exactly 1 in any summation order, and 0 for the last row
        n, n_eff = 50, 64
        instance = make_instance(n, seed=6)
        bottom, top = instance.element_with_rank(1), instance.element_with_rank(n)
        oracle = InstanceOracle(instance)
        rng = np.random.default_rng(width)
        for view in (oracle, reversed_view(oracle)):
            # the view's minimum is hit by its right tests only through
            # itself, its maximum by its left tests
            low, high = (bottom, top) if view is oracle else (top, bottom)
            for left, u in ((False, low), (True, high)):
                misses = np.setdiff1d(np.arange(n_eff), [u])
                rows = rng.choice(misses, size=(4, width))
                rows[:-1, -1] = u
                answer = view.test_batch(u, rows, n_eff, left)
                assert answer.tolist() == [True, True, True, False]
                assert answer.tolist() == per_row(view, u, rows, n, left)

    def test_reflexive_and_dummy_rows(self):
        # a row holding only u hits in both directions; a row of dummies,
        # or of dummies and elements on the wrong side, hits in neither
        instance = make_instance(9, seed=8)
        for rank in range(1, 10):
            u = instance.element_with_rank(rank)
            for view in (InstanceOracle(instance), reversed_view(InstanceOracle(instance))):
                rows = np.array([[u, u], [9, 10], [10, 9]])
                assert view.test_batch(u, rows, 11, True).tolist() == [True, False, False]
                assert view.test_batch(u, rows, 11, False).tolist() == [True, False, False]
        top = instance.element_with_rank(9)
        bottom = instance.element_with_rank(1)
        oracle = InstanceOracle(instance)
        rows = np.array([[top, 9, 10, 9]])
        assert oracle.test_batch(bottom, rows, 11, False).tolist() == [False]
        assert oracle.test_batch(bottom, rows, 11, True).tolist() == [True]
        rows = np.array([[bottom, 9, 10]])
        assert oracle.test_batch(top, rows, 11, True).tolist() == [False]
        assert oracle.test_batch(top, rows, 11, False).tolist() == [True]


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
        assert remote24.test_batch(u, rows, n_eff, True).tolist() == per_row(
            builtin, u, rows, 24, True)
        assert remote24.test_batch(u, rows, n_eff, False).tolist() == per_row(
            builtin, u, rows, 24, False)
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
    "u_float": (5.5, [[0, 1]], 10),
    "u_float_integral": (5.0, [[0, 1]], 10),
    "u_bool": (True, [[0, 1]], 10),
    "n_eff_float": (1, [[0, 1]], 10.0),
}


@pytest.mark.parametrize("path", ["vector", "per_row"])
@pytest.mark.parametrize("case", sorted(BAD_BATCHES))
def test_batch_validation(path, case):
    oracle = oracle_of(8)
    if path == "per_row":
        oracle = PerRowOracle(oracle)
    u, rows, n_eff = BAD_BATCHES[case]
    for test in directions(oracle.test_batch):
        with pytest.raises(InvalidParameterError):
            test(u, np.array(rows), n_eff)


@pytest.mark.parametrize("path", ["vector", "per_row", "reversed"])
def test_batches_of_empty_rows_answer_false_whatever_their_dtype(path):
    oracle = oracle_of(8)
    if path == "per_row":
        oracle = PerRowOracle(oracle)
    elif path == "reversed":
        oracle = reversed_view(oracle)
    # np.asarray([[]]) is float64: rows of no ids hold no non-integer id
    for rows, answer in ((np.asarray([[]]), [False]), (np.asarray([[], []]), [False, False]),
                         (np.empty((0, 3)), [])):
        for test in directions(oracle.test_batch):
            assert test(3, rows, 10).tolist() == answer


# sizes of the walk tests: every m up to 70, powers of two and their
# neighbours, and a few up to 4096
DESCENT_SIZES = [*range(1, 71), 127, 128, 129, 255, 256, 257, 1000, 4095, 4096]


def descent_cases(m):
    """(instance, u, arr): arr holds m ids other than u, shuffled, and u sits
    above all of them, below all of them, and in between."""
    instance = make_instance(m + 1, seed=m)
    rng = np.random.default_rng(m)
    for rank in (m + 1, 1, m // 2 + 1):
        u = instance.element_with_rank(rank)
        yield instance, u, rng.permutation(np.delete(np.arange(m + 1), u))


def walk_ends(ranks, u, arr, left):
    """The reference walk, from the rank of each id."""
    return walk_reference([ranks[v] for v in arr], ranks[u], left)


class SingleTestOracle(GroupTestOracle):
    """A user oracle that defines only ``test``, answered from a rank list
    in Python, and logs each single test it is asked."""

    def __init__(self, ranks):
        self.ranks = list(ranks)
        self.size = len(self.ranks)
        self.asked = []

    def test(self, u, V, left):
        self.asked.append((u, left))
        ranks = self.ranks
        return any(ranks[v] >= ranks[u] if left else ranks[v] <= ranks[u]
                   for v in np.asarray(V).tolist())


# a server that turns every INIT into the basic one, so the client asks
# each descent level and each condition test as one L/R line
BASIC_SERVER = (
    "import sys\n"
    "from gtorder.oracle_server import instance_ranks, serve\n"
    "lines = (' '.join(line.split()[:2]) + '\\n' if line.startswith('INIT ') else line\n"
    "         for line in sys.stdin)\n"
    "serve(instance_ranks(24, 24), lines, sys.stdout)\n"
)


@pytest.fixture(scope="module")
def basic24():
    with ExternalOracle([sys.executable, "-c", BASIC_SERVER], 24) as remote:
        yield remote


# walk sizes: one id, powers of two and their neighbours
WALK_SIZES = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33]


@st.composite
def walk_queries(draw, n):
    """(u, arr, left): m ids of 0..n-1 with m as in WALK_SIZES or up to 40,
    either distinct and other than u or with repeats and u itself allowed."""
    u = draw(st.integers(0, n - 1))
    if draw(st.booleans()):
        others = draw(st.permutations([v for v in range(n) if v != u]))
        arr = np.array(others[:draw(st.sampled_from([m for m in WALK_SIZES if m < n]))])
    else:
        m = draw(st.sampled_from(WALK_SIZES) | st.integers(1, 40))
        arr = np.array(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)))
    return u, arr, draw(st.booleans())


class TestWalk:
    """``walk`` is a first test of u against every id and, if it answers
    yes, round after round of the per-level descent of ``_descend``, the
    test of w = arr[p] against the other ids and the subject, and a swap,
    at 1 + rounds * (ceil(log2 m) + 1) tests."""

    @pytest.mark.parametrize("view", ["instance", "reversed", "test_only", "full", "basic"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_the_per_level_walk(self, view, remote24, basic24, data):
        builtin = oracle_of(24, seed=24)
        oracle = {"instance": builtin, "reversed": reversed_view(builtin),
                  "test_only": SingleTestOracle(builtin.instance.ranks),
                  "full": remote24, "basic": basic24}[view]
        u, arr, left = data.draw(walk_queries(24))
        expected = GroupTestOracle.walk(oracle, u, arr, left)
        # the same ends as the builtin oracle's, in the view's frame
        frame = left != (view == "reversed")
        assert expected == walk_ends(builtin.instance.ranks, u, arr, frame)
        counting = CountingOracle(oracle)
        ends = counting.walk(u, arr, left)
        assert ends == expected and all(type(p) is int for p in ends or ())
        tests = 1 + len(ends or ()) * ((len(arr) - 1).bit_length() + 1)
        assert counting.ledger == (QueryLedger(tests, 0) if left else QueryLedger(0, tests))

    @pytest.mark.parametrize("m", [4095, 4096])
    def test_long_walks_equal_the_per_level_walk(self, m):
        instance = make_instance(m + 1, seed=m)
        builtin = InstanceOracle(instance)
        rng = np.random.default_rng(m)
        command = [sys.executable, "-m", "gtorder.oracle_server", "--n", str(m + 1),
                   "--seed", str(m)]
        with ExternalOracle(command, m + 1) as remote:
            for rank in (m + 1, 1, m // 2 + 1):
                u = instance.element_with_rank(rank)
                arr = rng.permutation(np.delete(np.arange(m + 1), u))
                for left in (True, False):
                    expected = walk_ends(instance.ranks, u, arr, left)
                    assert (builtin.walk(u, arr, left)
                            == reversed_view(builtin).walk(u, arr, not left)
                            == remote.walk(u, arr, left)
                            == GroupTestOracle.walk(SingleTestOracle(instance.ranks), u, arr,
                                                    left)
                            == expected)

    def test_a_user_oracle_is_asked_each_level_then_the_test(self):
        instance = make_instance(40, seed=3)
        for m in (1, 2, 3, 8, 39):
            oracle = SingleTestOracle(instance.ranks)
            for left in (True, False):
                # a subject at the far end of the order: every id beats it
                u = instance.element_with_rank(1 if left else 40)
                arr = np.random.default_rng(m).permutation(np.delete(np.arange(40), u))[:m]
                ends = oracle.walk(u, arr, left)
                assert ends
                # the first test asks u; each round's levels ask its
                # subject, its last test the id at its end
                subjects = [u, *(int(arr[p]) for p in ends)]
                assert oracle.asked == [(u, left)] + [
                    asked for now, after in zip(subjects, subjects[1:])
                    for asked in [(now, left)] * (m - 1).bit_length() + [(after, left)]]
                oracle.asked.clear()

    def test_lines_sent_in_each_session(self, remote24, basic24):
        instance = make_instance(24, seed=24)
        u = instance.element_with_rank(12)
        arr = np.random.default_rng(0).permutation(np.delete(np.arange(24), u))[:9]
        rounds = [len(InstanceOracle(instance).walk(u, arr, left)) for left in (True, False)]
        assert all(rounds)
        per_round = (9 - 1).bit_length() + 1
        # from either end of the order no id beats u: a full session sends
        # the walk line alone, a basic one asks the first test alone
        low, high = instance.element_with_rank(1), instance.element_with_rank(24)
        ends = [np.delete(np.arange(24), v)[:9] for v in (high, low)]
        for remote, ops in ((remote24, ["WL", "WR", "WL", "WR"]),
                            (basic24, ["L"] * (1 + rounds[0] * per_round)
                             + ["R"] * (1 + rounds[1] * per_round) + ["L", "R"])):
            lines = []
            exchange = remote._exchange
            remote._exchange = lambda line: lines.append(line) or exchange(line)
            try:
                for left in (True, False):
                    remote.walk(u, arr, left)
                assert remote.walk(high, ends[0], True) == remote.walk(low, ends[1], False) == []
            finally:
                del remote._exchange
            assert [line.split()[0] for line in lines] == ops

    def test_a_basic_session_sends_the_lines_of_round_by_round_min_finding(self, basic24):
        # the L/R lines of eight fixed-seed runs, byte for byte as the
        # client sent them when every round was its own call, but for each
        # run's first condition test, which lists the same ids in the
        # walk's shuffled order
        lines = []
        exchange = basic24._exchange
        basic24._exchange = lambda line: lines.append(line) or exchange(line)
        try:
            for find in (min_find, max_find):
                for seed in range(4):
                    find(basic24, 24, np.random.default_rng(seed))
        finally:
            del basic24._exchange
        assert len(lines) == 170
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "30ca9a2d9c34360fd468fa64adefe19a4504f2a6b4d719b1d3fc9d73d5280516")

    @pytest.mark.parametrize("view", ["direct", "reversed", "stacked"])
    def test_one_call_walk_matches_the_per_level_walk(self, view):
        for m in DESCENT_SIZES:
            levels = (m - 1).bit_length()
            for instance, u, arr in descent_cases(m):
                base = InstanceOracle(instance)
                fused = [CountingOracle(base)]
                if view == "stacked":
                    fused.append(CountingOracle(fused[0]))
                asked = CountingOracle(base)
                top, per_level = fused[-1], PerRowOracle(asked)
                ranks = instance.ranks
                if view == "reversed":
                    top, per_level = reversed_view(top), reversed_view(per_level)
                    ranks = m + 2 - ranks
                rounds = 0
                for left in (True, False):
                    before = asked.ledger.total
                    ends = top.walk(u, arr, left)
                    assert all(type(p) is int for p in ends)
                    assert ends == per_level.walk(u, arr, left) == walk_ends(ranks, u, arr, left)
                    # a walk asks its first test, then a descent and a test a round
                    assert asked.ledger.total - before == 1 + len(ends) * (levels + 1)
                    rounds += len(ends)
                    if not ends:
                        # no id satisfies the test: a descent asked alone
                        # ends at the last position after its levels
                        before = asked.ledger.total
                        assert _descend(per_level, u, arr, left) == m - 1
                        assert asked.ledger.total - before == levels
                # the fused ledgers charge the same for each of the two walks
                assert all(counting.ledger.total == 2 + rounds * (levels + 1)
                           for counting in fused)

    def test_a_walk_from_a_subject_no_id_beats_costs_its_first_test(self):
        for m in (1, 2, 3, 5, 64, 65, 4096):
            instance, u, arr = next(descent_cases(m))  # u above every id of arr
            asked = CountingOracle(InstanceOracle(instance))
            for oracle in (InstanceOracle(instance), PerRowOracle(asked)):
                counting = CountingOracle(oracle)
                assert counting.walk(u, arr, True) == []
                assert counting.ledger == QueryLedger(1, 0)
                # its first round's descent, asked alone, ends at the last position
                before = counting.ledger.left_count
                assert _descend(counting, u, arr, True) == m - 1
                assert counting.ledger.left_count - before == (m - 1).bit_length()
            # the per-level walk asked its one test and no descent, the
            # descent its levels
            assert asked.ledger == QueryLedger(1 + (m - 1).bit_length(), 0)

    def test_single_id_ends_at_zero_without_a_descent_test(self):
        instance = make_instance(4, seed=0)
        top, bottom = instance.element_with_rank(4), instance.element_with_rank(1)
        fused, asked = (CountingOracle(InstanceOracle(instance)) for _ in range(2))
        for oracle in (fused, PerRowOracle(asked)):
            assert _descend(oracle, top, np.array([bottom]), False) == 0
            assert _descend(oracle, bottom, np.array([top]), True) == 0
        assert fused.ledger.total == asked.ledger.total == 0
        # the first test and the test after the descent are the two tests
        # a walk of one round over one id asks
        for oracle in (fused, PerRowOracle(asked)):
            assert oracle.walk(top, np.array([bottom]), False) == [0]
        assert fused.ledger.total == asked.ledger.total == 2

    @pytest.mark.parametrize("path", ["instance", "per_level", "test_only", "reversed", "full"])
    def test_validation(self, path, remote24):
        oracle = {"instance": oracle_of(24, seed=24),
                  "per_level": PerRowOracle(oracle_of(24, seed=24)),
                  "test_only": SingleTestOracle(range(1, 25)),
                  "reversed": reversed_view(oracle_of(24, seed=24)),
                  "full": remote24}[path]
        bad = []
        for position in range(7):
            for value in (-1, 24):
                arr = np.arange(7)
                arr[position] = value
                bad.append((7, arr))
        bad += [(3, np.array([0, 24])), (3, np.array([-1, 2])), (24, np.arange(3)),
                (-1, np.arange(7)), (3, np.array([], dtype=np.int64)), (True, np.arange(3)),
                (3, np.arange(4).reshape(2, 2)), (3, np.array([0.0, 1.0])),
                (5.5, np.arange(7)), (5.0, np.arange(7)), (np.float64(1), np.arange(7)),
                (1, np.array([True, False])),
                (1, {0, 1, 2})]  # a set has no positions to walk over
        for u, arr in bad:
            counting = CountingOracle(oracle)
            for left in (True, False):
                with pytest.raises(InvalidParameterError):
                    counting.walk(u, arr, left)
            assert counting.ledger.total == 0


def walk_by_rank(u_rank, arr_ranks, left):
    """The builtin walk and the reference walk over the ids of the given
    ranks, in an instance of n = 12."""
    oracle = oracle_of(12, seed=12)
    ranks = oracle.instance.ranks
    by_rank = {int(rank): v for v, rank in enumerate(ranks)}
    u, arr = by_rank[u_rank], np.array([by_rank[rank] for rank in arr_ranks])
    return oracle.walk(u, arr, left), walk_ends(ranks, u, arr, left)


class TestInstanceWalk:
    """:class:`InstanceOracle` scans a walk for records only up to the
    first extreme of the order, and past it only for a tie of that
    extreme, and still answers as the reference walk does."""

    @pytest.mark.parametrize("m", range(1, 9))
    def test_random_orders(self, m):
        # ids other than u, then ones that may hold u, then repeats
        n = m + 3
        oracle = oracle_of(n, seed=m)
        ranks = oracle.instance.ranks
        rng = np.random.default_rng(m)
        for u in range(n):
            others = np.delete(np.arange(n), u)
            for arr in [*(rng.permutation(others)[:m] for _ in range(30)),
                        *(rng.permutation(n)[:m] for _ in range(30)),
                        *(rng.integers(0, n, m) for _ in range(30))]:
                for left in (True, False):
                    assert oracle.walk(u, arr, left) == walk_ends(ranks, u, arr, left)
                    assert reversed_view(oracle).walk(u, arr, left) == walk_ends(
                        ranks, u, arr, not left)

    # (subject's rank, ranks of arr, left, ends): records up to the extreme
    # of arr, a subject inside arr, and repeats on either side of the extreme
    CASES = {
        "records_up_to_the_extreme": (10, [7, 9, 3, 5, 1, 2, 4], False, [0, 2, 4]),
        "left_records": (2, [3, 1, 6, 5, 11, 8], True, [0, 2, 4]),
        "no_id_beats_the_subject": (1, [7, 9, 3], False, []),
        "subject_inside_is_the_extreme": (3, [7, 3, 5], False, None),
        "subject_inside_beaten": (7, [9, 7, 5, 2], False, None),
        "subject_inside_not_beaten": (3, [7, 5, 3, 4], False, None),
        "tie_of_a_record_before_the_extreme": (10, [5, 5, 1], False, None),
        "tie_of_a_record_later_before_the_extreme": (10, [6, 4, 8, 4, 2, 1], False, None),
        "tie_of_the_extreme_after_it": (10, [5, 1, 3, 1], False, None),
        "tie_of_the_extreme_at_the_end": (1, [4, 12, 2, 12], True, None),
        "tie_of_a_non_record_after_the_extreme": (10, [5, 1, 3, 3], False, [0, 1]),
        "one_id": (5, [4], False, [0]),
        "one_id_not_beating": (5, [6], False, []),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_constructed_orders(self, case):
        u_rank, arr_ranks, left, ends = self.CASES[case]
        assert walk_by_rank(u_rank, arr_ranks, left) == (ends, ends)
        # the mirrored order: the same walk in the other direction
        mirrored = walk_by_rank(13 - u_rank, [13 - rank for rank in arr_ranks], not left)
        assert mirrored == (ends, ends)


# integer dtypes that are not int64: other widths, both byte orders, unsigned
ODD_DTYPES = [">i8", ">i4", "<i2", "u1", "u8"]


def strided_too(ids):
    """``ids``, and the same ids as every other entry of the last axis of
    an array twice as wide: ``arr[::2]`` or ``rows[:, ::2]``."""
    return ids, np.repeat(ids, 2, axis=-1)[..., ::2]


class TestOddIdArrays:
    """Every entry point takes id arrays of any integer dtype, byte order
    and stride: in range they answer as their int64 copy does, and a
    negative id or an id at the bound is rejected."""

    rng = np.random.default_rng(5)
    # a single test of 70 ids, and one of 5
    SINGLE = rng.integers(0, 24, size=70)
    SHORT = SINGLE[:5]
    # padded universes of 27, of 72 > 2n, whose dummies fold, and of 2**40,
    # past the ids of every narrow dtype, where a negative id read as
    # unsigned still lies below the bound
    ROWS = {27: rng.integers(0, 27, size=(6, 5)), 72: rng.integers(0, 72, size=(6, 5)),
            2**40: rng.integers(0, 72, size=(6, 5))}
    DESCENT = rng.permutation(24)[:13]

    @pytest.fixture(params=["instance", "reversed", "per_row", "external"])
    def oracle(self, request, remote24):
        builtin = oracle_of(24, seed=24)
        return {"instance": builtin, "reversed": reversed_view(builtin),
                "per_row": PerRowOracle(builtin), "external": remote24}[request.param]

    def calls(self, oracle):
        """(call, int64 ids, bound): each entry point with its ids."""
        for left in (True, False):
            test = functools.partial(oracle.test, left=left)
            batch = functools.partial(oracle.test_batch, left=left)
            walk = functools.partial(oracle.walk, left=left)
            yield test, self.SINGLE, 24
            yield test, self.SHORT, 24
            for n_eff, rows in self.ROWS.items():
                yield lambda u, rows, batch=batch, n_eff=n_eff: batch(u, rows, n_eff), rows, n_eff
            yield walk, self.DESCENT, 24

    @pytest.mark.parametrize("dtype", ODD_DTYPES)
    def test_in_range_ids_answer_as_their_int64_copy(self, oracle, dtype):
        for u in (0, 7, 23):
            for call, ids, _ in self.calls(oracle):
                want = np.asarray(call(u, ids)).tolist()
                for odd in strided_too(ids.astype(dtype)):
                    assert np.asarray(call(u, odd)).tolist() == want

    @pytest.mark.parametrize("dtype", ODD_DTYPES)
    def test_negative_ids_and_ids_at_the_bound_are_rejected(self, oracle, dtype):
        rejected = OracleRejectedError if isinstance(oracle, ExternalOracle) else InvalidParameterError
        for call, ids, bound in self.calls(oracle):
            bad_ids = [bound]
            if dtype == "u8":
                bad_ids.append(2**63 + 5)  # negative if read as signed
            elif np.dtype(dtype).kind == "i":
                bad_ids.append(-1)
            for bad in bad_ids:
                if bad > np.iinfo(dtype).max:
                    continue  # no such id of this dtype
                for position in (0, ids.size - 1):
                    odd = ids.astype(dtype)
                    odd.flat[position] = bad
                    for view in strided_too(odd):
                        with pytest.raises(InvalidParameterError) as info:
                            call(7, view)
                        assert info.type is rejected


@st.composite
def id_arrays(draw):
    """An integer array of any dtype, byte order, shape and stride, with
    ids near 0 and near a small bound or anywhere in the dtype's range."""
    dtype = np.dtype(draw(st.sampled_from(
        ["<i8", ">i8", "<i4", ">i4", "<i2", ">i2", "i1", "u1", "<u2", ">u4", "<u8", ">u8"])))
    info = np.iinfo(dtype)
    elements = (st.integers(max(info.min, -3), min(info.max, 300))
                | st.integers(info.min, info.max))
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6))
    arr = draw(hnp.arrays(dtype, shape, elements=elements))
    return arr[..., ::draw(st.integers(1, 2))]


@given(arr=id_arrays(), bound=st.integers(0, 300) | st.integers(0, 2**65))
@settings(max_examples=300, deadline=None)
def test_id_array_accepts_exactly_the_ids_in_range(arr, bound):
    inside = not arr.size or (int(arr.min()) >= 0 and int(arr.max()) < bound)
    try:
        checked, top = _id_array(arr, arr.ndim, bound)
    except InvalidParameterError:
        assert not inside
        return
    assert inside
    assert top == (int(arr.max()) if arr.size else -1)
    assert checked.shape == arr.shape and (checked == arr).all()
    with pytest.raises(InvalidParameterError, match=f"{3 - arr.ndim}-D"):
        _id_array(arr, 3 - arr.ndim, bound)
