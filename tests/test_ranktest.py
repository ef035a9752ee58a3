"""Tests for the rank threshold test and its parameter derivation."""

import contextlib
import logging
import math
import sys
import tracemalloc
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtorder import (
    ExternalOracle,
    InstanceOracle,
    InvalidParameterError,
    QueryLedger,
    derive_params,
    make_instance,
    rank_at_most,
    reversed_view,
    select_params,
)
from gtorder import ranktest


class Expected(NamedTuple):
    answer: bool
    positives: int
    ledger: QueryLedger
    state: dict     # the generator state after the blocks asked
    blocks: list    # the row count of each block asked
    trials: int


def one_draw(oracle, x, r, delta, epsilon, seed, block_ids=None):
    """What ``rank_at_most`` must return from one (trials x sample_size)
    draw asked as single right tests over the dummy-filtered rows: the
    full test's answer, and the positives, ledger and blocks of the rows
    up to the first block boundary at or after the row that fixed that
    answer, with the state of a generator that drew just those blocks."""
    n = oracle.size
    p = derive_params(n, r, delta, epsilon)
    samples = np.random.default_rng(seed).integers(0, p.n_eff, size=(p.trials, p.sample_size))
    test = (reversed_view(oracle) if p.reversed else oracle).test
    counts = np.cumsum([test(x, [v for v in row if v < n], False) for row in samples.tolist()])
    answer = bool(counts[-1] <= p.limit) != p.reversed
    # the first row after which the positives exceed the decision line,
    # or cannot pass it with every row left positive
    left = np.arange(p.trials - 1, -1, -1)
    decided = 1 + np.flatnonzero((counts > p.limit) | (counts + left <= p.limit))[0]
    step = max(1, (block_ids or ranktest._BLOCK_IDS) // p.sample_size)
    asked = min(p.trials, -(-decided // step) * step)
    blocks = [min(step, asked - start) for start in range(0, asked, step)]
    rng = np.random.default_rng(seed)
    for rows in blocks:
        rng.integers(0, p.n_eff, size=(rows, p.sample_size))
    ledger = QueryLedger(asked, 0) if p.reversed else QueryLedger(0, asked)
    return Expected(answer, int(counts[asked - 1]), ledger, rng.bit_generator.state,
                    blocks, p.trials)


class TestDeriveParams:
    def test_worked_configuration(self):
        p = derive_params(100, 10, delta=0.5, epsilon=0.1)
        assert p.n_eff == 100
        assert p.sample_size == 10
        assert p.p_low == pytest.approx(1 - 0.95**10)
        assert p.p_high == pytest.approx(1 - 0.85**10)
        assert p.p_low == pytest.approx(0.40126, abs=1e-5)
        assert p.p_high == pytest.approx(0.80313, abs=1e-5)
        assert p.limit == math.floor(0.60220 * 545) == 328
        assert not p.reversed

    def test_trial_count_formula(self):
        p = derive_params(100, 10, delta=0.5, epsilon=0.1)
        assert p.trials == math.ceil(8 * math.e**2 * math.log(10) / 0.25) == 545

    def test_trial_count_clamps_to_one(self):
        p = derive_params(100, 10, delta=0.5, epsilon=0.999999)
        assert p.trials == 1
        # ln(1/epsilon) stays positive up to the largest float below 1
        assert derive_params(100, 10, 0.999, math.nextafter(1.0, 0.0)).trials == 1

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
        assert 0 < p.p_low < p.p_high < 1
        assert p.p_low * p.trials < p.limit < p.p_high * p.trials

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            derive_params(0, 1, 0.5, 0.1)
        with pytest.raises(InvalidParameterError):
            derive_params(100, 0, 0.5, 0.1)
        # above n/2 the plan is the reversed test at the mirror 100 - 51 + 1
        assert derive_params(100, 51, 0.5, 0.1) == replace(derive_params(100, 50, 0.5, 0.1),
                                                           reversed=True)
        with pytest.raises(InvalidParameterError):
            derive_params(100, 100, 0.5, 0.1)
        with pytest.raises(InvalidParameterError):
            derive_params(100, 10, 0.0, 0.1)
        with pytest.raises(InvalidParameterError):
            derive_params(100, 10, 1.0, 0.1)
        with pytest.raises(InvalidParameterError):
            derive_params(100, 10, 0.5, 0.0)
        with pytest.raises(InvalidParameterError):
            derive_params(100, 10, 0.5, 1.0)

    @pytest.mark.parametrize("r", [5e-324, [1]])
    def test_target_checked_before_any_arithmetic(self, r):
        # a row of n_eff / 5e-324 ids overflows; a list is no real
        with pytest.raises(InvalidParameterError):
            derive_params(2, r, 0.5, 0.5)
        with pytest.raises(InvalidParameterError):
            derive_params(2, r, 0.5, 0.1)

    @pytest.mark.parametrize("size", [True, 1.0, 2.0, float("nan")])
    def test_memo_still_validates(self, size):
        # results are memoized, but a size of another type that equals a
        # cached one (or NaN) is still checked
        assert derive_params(2, 1, 0.5, 0.1) is derive_params(2, 1, 0.5, 0.1)
        derive_params(1, 0.5, 0.5, 0.1)
        with pytest.raises(InvalidParameterError):
            derive_params(size, 0.5, 0.5, 0.1)
        with pytest.raises(InvalidParameterError):
            derive_params(2, 1, [0.5], 0.1)  # unhashable, so never cached

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
        assert outcome.params.n_eff > n
        expected = one_draw(oracle, x, r, 0.3, 0.2, 12)
        assert expected.blocks == [expected.trials]  # one block: the full test
        assert (outcome.answer, outcome.positives, outcome.ledger) == expected[:3]
        assert rng.bit_generator.state == expected.state

    def test_reversed_targets_run_at_the_mirror(self):
        # the executed target shows in the plan: the direct plan there,
        # reversed
        n = 1024

        def executed(r):
            p = derive_params(n, r, 0.3, 0.1)
            assert p.reversed, r
            return replace(p, reversed=False)

        p = executed(768)
        assert (p.sample_size, p.n_eff) == (4, 1028)  # at the half step 256.5: 5 and 1028
        for r in range(n // 2 + 1, n):
            p = executed(r)
            assert p == derive_params(n, n - r + 1, 0.3, 0.1), r
            # no row wider than at n - r, nor at the half step
            assert p.sample_size <= derive_params(n, n - r, 0.3, 0.1).sample_size, r
            assert p.sample_size <= derive_params(n, n - r + 0.5, 0.3, 0.1).sample_size, r
        assert executed(1023.5) == derive_params(n, 1.5, 0.3, 0.1)
        assert executed(512.75) == derive_params(n, 512, 0.3, 0.1)  # the mirror 512.25, capped
        # below n/2 + 1/2 the target runs directly, capped at n/2
        assert derive_params(n, 512.25, 0.3, 0.1) == derive_params(n, 512, 0.3, 0.1)

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 1024])
    def test_runs_the_plan_derive_params_returns(self, n):
        # every integer and quarter-step target, on both sides of n/2
        oracle = InstanceOracle(make_instance(n, seed=n))
        rng = np.random.default_rng(n)
        for r in np.arange(1, 4 * n) / 4:
            assert rank_at_most(oracle, 0, r, 0.9, 0.5, rng).params == derive_params(
                n, r, 0.9, 0.5), r

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


def binomial_tail(trials, p, start, step):
    """P(X = start) + P(X = start + step) + ... for X ~ Binomial(trials, p)
    and step -1 (the lower tail) or 1 (the upper tail): the pmf at start
    from ``math.lgamma``, then term by term until the rest is negligible."""
    if not 0 <= start <= trials:
        return 0.0
    if p == 1.0:  # every row is positive
        return float(step > 0 or start == trials)
    log_term = (math.lgamma(trials + 1) - math.lgamma(start + 1)
                - math.lgamma(trials - start + 1)
                + start * math.log(p) + (trials - start) * math.log1p(-p))
    total, k = 0.0, start
    while True:
        term = math.exp(log_term)
        total += term
        if not 0 <= k + step <= trials:
            return total
        # the pmf ratio from k to k + step, which only falls further out
        ratio = ((trials - k) * p / ((k + 1) * (1 - p)) if step > 0
                 else k * (1 - p) / ((trials - k + 1) * p))
        if ratio < 1 and term * ratio / (1 - ratio) <= 1e-16 * total:
            return total
        log_term += math.log(ratio)
        k += step


def reversed_rate(p, n, rank):
    """The positive rate of one row of the reversed plan p at the element
    of the given rank, whose reversed rank is n - rank + 1."""
    return 1.0 - ((p.n_eff - (n - rank + 1)) / p.n_eff) ** p.sample_size


@pytest.mark.parametrize("n", [64, 1024])
@pytest.mark.parametrize("delta, epsilon", [(0.3, 0.1), (0.9, 0.1), (0.5, 0.2)])
def test_reversed_tests_keep_the_error_bound_at_the_band_edges(n, delta, epsilon):
    # The exact chance of a wrong answer at the nearest ranks outside the
    # band delta * (n - r), for every integer target r above n/2, from the
    # plan of the test executed: the reversed test answers "rank <= r"
    # iff more than limit of its rows are positive, at the rate of
    # reversed rank n - rank + 1.  Curtailment never changes an
    # answer.  A target one rank or half a rank below the mirror fails
    # here: n - r answers rank r + 1 wrong about 97% of the time at delta
    # 0.5, r = n - 2 (a band of exactly one rank), and n - r + 1/2 rank n
    # about 66% at delta 0.9, r = n - 1.
    worst = 0.0
    for r in range(n // 2 + 1, n):
        p = derive_params(n, r, delta, epsilon)
        assert p.reversed, r
        band = delta * (n - r)
        low, high = math.floor(r - band), math.ceil(r + band)
        if low >= 1:  # must answer yes
            worst = max(worst, binomial_tail(p.trials, reversed_rate(p, n, low), p.limit, -1))
        if high <= n:  # must answer no
            worst = max(worst, binomial_tail(p.trials, reversed_rate(p, n, high), p.limit + 1, 1))
    assert worst <= epsilon


# (n, r, delta): even n, r in [n/2 + 1/2, n/2 + 1), at epsilon 0.2
EVEN_MIDDLE_CASES = [(2, 1.5, 0.5), (4, 2.5, 0.3), (6, 3.5, 0.15), (10, 5.5, 0.1),
                     (1000, 500.5, 0.0009)]


@pytest.mark.parametrize("n, r, delta", EVEN_MIDDLE_CASES)
def test_even_n_middle_targets_run_at_the_capped_mirror(n, r, delta):
    # the mirror n - r + 1 lies above n/2, so the reversed test runs at
    # n/2, where rank n/2 + 1 (reversed rank n/2) sits at its center;
    # yet that rank lies above the band, so the test must answer no
    p = derive_params(n, r, delta, 0.2)
    assert p == replace(derive_params(n, n // 2, delta, 0.2), reversed=True)
    assert n // 2 + 1 > r + delta * min(r, n - r)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the capped mirror n/2 centers the reversed test on rank n/2 + 1")
@pytest.mark.parametrize("n, r, delta", EVEN_MIDDLE_CASES)
def test_even_n_middle_targets_keep_the_error_bound(n, r, delta):
    # the exact chance that the test answers yes at rank n/2 + 1: about
    # 0.998, 0.955, 0.806, 0.716 and 0.502 for these cases
    p = derive_params(n, r, delta, 0.2)
    error = binomial_tail(p.trials, reversed_rate(p, n, n // 2 + 1), p.limit + 1, 1)
    assert error <= 0.2


# universe sizes of the curtailment property, each with one reference
# server spawned on first use
CURTAIL_SIZES = (2, 3, 10, 64, 150, 400)


@pytest.fixture(scope="module")
def servers():
    """``server(n)``: the reference server of ``make_instance(n, n)``."""
    with contextlib.ExitStack() as stack:
        spawned = {}

        def server(n):
            if n not in spawned:
                command = [sys.executable, "-m", "gtorder.oracle_server",
                           "--n", str(n), "--seed", str(n)]
                spawned[n] = stack.enter_context(ExternalOracle(command, n))
            return spawned[n]
        yield server


@given(view=st.sampled_from(["instance", "reversed", "external"]),
       n=st.sampled_from(CURTAIL_SIZES), data=st.data())
@settings(max_examples=100, deadline=None)
def test_curtailed_test_stops_at_the_deciding_block(servers, view, n, data):
    # both branches of rank_at_most, fractional and integer targets, and
    # elements near the target, whose tests run longest; rows hold about
    # n / r ids, so fractional targets start at 1/2
    r = data.draw(st.one_of(st.integers(1, n - 1), st.floats(0.5, n, exclude_max=True)),
                  label="r")
    rank = data.draw(st.one_of(st.integers(1, n),
                               st.integers(max(1, math.floor(r) - 2), min(n, math.ceil(r) + 2))),
                     label="rank")
    delta = data.draw(st.floats(0.4, 0.95), label="delta")
    epsilon = data.draw(st.floats(0.1, 0.9), label="epsilon")
    block_ids = data.draw(st.integers(1, 256), label="block_ids")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    instance = make_instance(n, n)
    builtin = InstanceOracle(instance)
    oracle = (servers(n) if view == "external"
              else builtin if view == "instance" else reversed_view(builtin))
    reference = builtin if view == "external" else oracle
    x = instance.element_with_rank(rank)
    shapes = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ranktest, "_BLOCK_IDS", block_ids)
        for kind in (InstanceOracle, ExternalOracle):
            patch.setattr(kind, "test_batch", lambda self, u, rows, *args, batch=kind.test_batch:
                          shapes.append(np.shape(rows)) or batch(self, u, rows, *args))
        rng = np.random.default_rng(seed)
        outcome = rank_at_most(oracle, x, r, delta, epsilon, rng)
    expected = one_draw(reference, x, r, delta, epsilon, seed, block_ids)
    assert outcome.answer == expected.answer
    assert outcome.positives == expected.positives
    assert outcome.ledger == expected.ledger
    assert [rows for rows, _ in shapes] == expected.blocks
    assert rng.bit_generator.state == expected.state


class TestBlocks:
    # r = 1 has rows wider than a block, r = 40 several rows per block,
    # r = 270 the reversed branch
    N, SEED, X, TARGETS = 300, 21, 37, (1, 40, 270)

    @pytest.mark.parametrize("view", ["instance", "reversed", "external"])
    def test_blocks_asked_up_to_the_deciding_one(self, view, monkeypatch, caplog):
        monkeypatch.setattr(ranktest, "_BLOCK_IDS", 100)
        builtin = InstanceOracle(make_instance(self.N, self.SEED))
        # the blocks each oracle answers: the builtin one's batches, and
        # the external one's BR (or BL, reversed) lines
        batches = []
        batch = InstanceOracle.test_batch
        monkeypatch.setattr(InstanceOracle, "test_batch",
                            lambda self, *args: batches.append(args) or batch(self, *args))
        if view == "external":
            command = [sys.executable, "-m", "gtorder.oracle_server",
                       "--n", str(self.N), "--seed", str(self.SEED)]
            oracle = ExternalOracle(command, self.N)
        else:
            oracle = builtin if view == "instance" else reversed_view(builtin)
        reference = builtin if view == "external" else oracle
        with oracle if view == "external" else contextlib.nullcontext():
            for seed, r in enumerate(self.TARGETS):
                rng = np.random.default_rng(seed)
                batches.clear()
                caplog.clear()
                with caplog.at_level(logging.DEBUG, logger="gtorder.external"):
                    outcome = rank_at_most(oracle, self.X, r, 0.5, 0.2, rng)
                lines = [m for m in caplog.messages if m.startswith(("BR:", "BL:"))]
                expected = one_draw(reference, self.X, r, 0.5, 0.2, seed, block_ids=100)
                # the full test spans several blocks, and each of these
                # stops before its last one
                assert expected.trials > expected.blocks[0]
                assert outcome.ledger.total < outcome.params.trials
                if view == "external":
                    assert len(lines) == len(expected.blocks)
                else:
                    rows = [block.shape for _, block, _, _ in batches]
                    assert [shape[0] for shape in rows] == expected.blocks
                    # a block of several rows holds at most _BLOCK_IDS ids
                    assert all(k * w <= 100 for k, w in rows if k > 1)
                assert (outcome.answer, outcome.positives, outcome.ledger) == expected[:3]
                assert rng.bit_generator.state == expected.state

    @staticmethod
    def traced_peak(n, rank, r, delta, epsilon):
        """One rank_at_most of the element of the given rank, and the
        tracemalloc peak it reached."""
        instance = make_instance(n, seed=3)
        oracle = InstanceOracle(instance)
        x = instance.element_with_rank(rank)
        rng = np.random.default_rng(4)
        tracemalloc.start()
        try:
            outcome = rank_at_most(oracle, x, r, delta, epsilon, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return outcome, peak

    def test_peak_memory_is_bounded(self):
        # the minimum against r = 1 at n = 4096: 3025 rows of 4096 ids,
        # about 200 MB of ids and gathers if drawn and asked at once
        outcome, peak = self.traced_peak(4096, 1, 1, 0.3, 0.01)
        assert outcome.params.trials * outcome.params.sample_size == 3025 * 4096
        assert peak < 2**20

    def test_peak_memory_of_a_selection_screen_is_bounded(self):
        # the upper screen of approximate_select at n = 1000, k = 100,
        # delta = 0.9, epsilon = 0.1: 19709 rows of 7 ids, about 2.3 MiB
        # of ids and gathers if asked in one block
        plan = select_params(1000, 100, 0.9, 0.1)
        target, tolerance, _ = next(screen for screen in plan.screens if screen[2])
        outcome, peak = self.traced_peak(1000, 100, target, tolerance, plan.epsilon_round)
        assert (outcome.params.trials, outcome.params.sample_size) == (19709, 7)
        assert outcome.answer
        assert peak < 2**20
