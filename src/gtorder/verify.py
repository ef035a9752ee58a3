"""Statistical verification suite.

Each check operationalizes one guarantee of the library at desk scale:
exactness of min-finding, per-call query counts, uniformity of the swap
output, query-count scaling, error rates and the per-trial closed form
of the threshold test, rank-search success, candidate hit rates, the
selection theorem, the reversal law and batch dummy slots,
external-protocol conformance, bit-for-bit reproducibility, the
curtailed threshold test's agreement with the full one, the exact law of
min-finding's swaps on its one shuffled order, rank estimates at both
ends of the order, and min-finding's exact mean cost.
Probabilistic claims carry 3-sigma binomial margins or a chi-square test
at significance 0.001; structural claims are exact.  All randomness
derives from the suite seed.
"""

from __future__ import annotations

import collections
import copy
import functools
import math
import operator
import sys
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .apxrank import approximate_rank
from .external import ExternalOracle
from .harness import ExperimentConfig, render_csv, run_experiment
from .minfind import max_find, min_find, min_find_among, swap
from .oracle import CountingOracle, GroupTestOracle, InstanceOracle, QueryLedger, reversed_view
from .order import TotalOrderInstance, exact_rank, make_instance
from .ranktest import _BLOCK_IDS, RankTestParams, derive_params, rank_at_most
from .selection import draw_candidate, select_params
from .stats import binomial_margin, chi_square_fit, chi_square_uniformity


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float

    def __str__(self) -> str:
        """The line ``gtorder verify`` prints for this result."""
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


# every check by name, in the order the suite runs them
ALL_CHECKS: dict[str, Callable[[int], CheckResult]] = {}


def _check(time_limit: Optional[float] = None):
    """Register ``check_<name>(seed) -> (passed, detail)`` as ``<name>``: the
    check is timed, fails at ``time_limit`` seconds or more, and its detail
    ends with the seconds taken."""
    def register(body: Callable[[int], tuple[bool, str]]) -> Callable[[int], CheckResult]:
        name = body.__name__.removeprefix("check_")

        @functools.wraps(body)
        def check(seed: int) -> CheckResult:
            start = time.monotonic()
            passed, detail = body(seed)
            elapsed = time.monotonic() - start
            if time_limit is not None and elapsed >= time_limit:
                passed = False
                detail += f"; over the {time_limit:g}s limit"
            return CheckResult(name, passed, f"{detail} ({elapsed:.1f}s)", elapsed)

        ALL_CHECKS[name] = check
        return check
    return register


def run_checks(seed: int, names: Optional[Iterable[str]] = None) -> Iterator[CheckResult]:
    """Each named check's result, as it finishes (all checks when no names
    are given).  Unknown names raise KeyError before any check runs."""
    selected = list(names) if names else list(ALL_CHECKS)
    unknown = [name for name in selected if name not in ALL_CHECKS]
    if unknown:
        raise KeyError(f"unknown checks: {unknown}")
    return (ALL_CHECKS[name](seed) for name in selected)


def _rng(seed: int, tag: int) -> np.random.Generator:
    # seeds are taken modulo 2**64, as the harness takes them
    return np.random.default_rng(
        np.random.SeedSequence(entropy=(operator.index(seed) & 0xFFFFFFFFFFFFFFFF, tag)))


def _seed_stream(rng: np.random.Generator):
    while True:
        yield int(rng.integers(0, 2**63))


def _ceil_log2(m: int) -> int:
    return (m - 1).bit_length()


# --- 1. min-finding is exact ------------------------------------------------

MINFIND_SIZES = (2, 3, 4, 8, 16, 64, 256, 1024)
MINFIND_RUNS_PER_SIZE = 1250  # 10,000 runs in total
MINFIND_TIME_LIMIT = 60.0


@_check(time_limit=MINFIND_TIME_LIMIT)
def check_minfind_exactness(seed: int) -> tuple[bool, str]:
    """10,000 runs across eight sizes always return the true minimum."""
    rng = _rng(seed, 1)
    seeds = _seed_stream(rng)
    total = len(MINFIND_SIZES) * MINFIND_RUNS_PER_SIZE
    correct = 0
    for n in MINFIND_SIZES:
        for _ in range(MINFIND_RUNS_PER_SIZE):
            instance = make_instance(n, next(seeds))
            outcome = min_find(InstanceOracle(instance), n, rng)
            correct += exact_rank(instance, outcome.element) == 1
    return correct == total, (f"{correct}/{total} runs returned the rank-1 element "
                              f"across n in {MINFIND_SIZES}")


# --- 2. swap query count is exact -------------------------------------------

SWAP_COUNT_RANGE = range(3, 1026)
SWAP_LEDGER_SIZES = (3, 4, 5, 6, 7, 9, 16, 17, 33, 64, 65, 129, 257, 513, 1025)
SWAP_LEDGER_RUNS = 25


class _PerQueryOracle(GroupTestOracle):
    """Forwards single tests only, so every batch and walk takes the base
    class's path and each row, level and test reaches the oracle below as
    one single test."""

    def __init__(self, inner: GroupTestOracle):
        self._inner = inner
        self.size = inner.size

    def test(self, u, V, left):
        return self._inner.test(u, V, left)


@_check()
def check_swap_query_count(seed: int) -> tuple[bool, str]:
    """Every swap costs exactly ceil(log2(n-1)) tests for n in 3..1025."""
    # swap asks its levels one single test at a time.  min_find's walk is
    # answered from one gather and charged its first test and ceil(log2 m)
    # + 1 a round by formula, so each run is also replayed from the same
    # generator state with that first test and every level and test asked
    # and counted one by one; both must give the same element, rounds,
    # ledger and generator state, whether or not the start is the minimum.
    rng = _rng(seed, 2)
    seeds = _seed_stream(rng)
    bad = []
    for n in SWAP_COUNT_RANGE:
        instance = make_instance(n, next(seeds))
        x = instance.element_with_rank(n)  # the maximum: every other element is below
        rest = np.delete(np.arange(n), x)
        counting = CountingOracle(InstanceOracle(instance))
        result = swap(counting, rest, x, rng)
        if counting.ledger.total != _ceil_log2(n - 1) or result not in rest:
            bad.append((n, counting.ledger.total, _ceil_log2(n - 1)))
    # the same exactness, exercised through full min-finding runs: the
    # total is (iterations + 1) condition checks plus iterations swaps
    for n in SWAP_LEDGER_SIZES:
        per_swap = _ceil_log2(n - 1)
        for _ in range(SWAP_LEDGER_RUNS):
            instance = make_instance(n, next(seeds))
            asked, twin = CountingOracle(InstanceOracle(instance)), copy.deepcopy(rng)
            replay = min_find(_PerQueryOracle(asked), n, twin)
            outcome = min_find(InstanceOracle(instance), n, rng)
            expected_total = (outcome.iterations + 1) + outcome.iterations * per_swap
            if (asked.ledger.total != expected_total or outcome.ledger != asked.ledger
                    or (outcome.element, outcome.iterations)
                    != (replay.element, replay.iterations)
                    or rng.bit_generator.state != twin.bit_generator.state):
                bad.append((n, outcome.ledger.total, asked.ledger.total, expected_total))
    return not bad, ("exact ceil(log2(n-1)) tests per swap for all n in 3..1025, and "
                     "min_find's one-call walk matches its per-level replay"
                     if not bad else f"deviations (n, counted[, per level], expected) "
                                     f"at {bad[:5]}")


# --- 3. swap returns a uniform element among those below x -------------------

SWAP_UNIFORMITY_N = 64
SWAP_UNIFORMITY_RANK = 32
SWAP_UNIFORMITY_CALLS = 10_000
SWAP_UNIFORMITY_TIME_LIMIT = 60.0


@_check(time_limit=SWAP_UNIFORMITY_TIME_LIMIT)
def check_swap_uniformity(seed: int) -> tuple[bool, str]:
    """10,000 swaps at n=64, x of rank 32 pass chi-square at 0.001."""
    rng = _rng(seed, 3)
    instance = make_instance(SWAP_UNIFORMITY_N, 20_240_601)
    oracle = InstanceOracle(instance)
    x = instance.element_with_rank(SWAP_UNIFORMITY_RANK)
    everyone = np.arange(SWAP_UNIFORMITY_N)  # x included: reflexivity keeps it eligible
    counts = [0] * SWAP_UNIFORMITY_RANK
    for _ in range(SWAP_UNIFORMITY_CALLS):
        result = swap(oracle, everyone, x, rng)
        counts[exact_rank(instance, result) - 1] += 1
    outcome = chi_square_uniformity(counts)
    return outcome.passed, (f"chi-square {outcome.statistic:.1f} over {SWAP_UNIFORMITY_RANK} "
                            f"ranks, critical {outcome.critical:.1f} at df={outcome.df}")


# --- 4. min-finding cost grows like log^2 n ---------------------------------

SCALING_SIZES = (64, 256, 1024, 4096)
SCALING_RUNS = 5000
SCALING_RATIO_LOW = 1.8
SCALING_RATIO_HIGH = 2.9
SCALING_TIME_LIMIT = 120.0


@functools.lru_cache(maxsize=1)  # checks 4 and 16 read the same runs
def _scaling_means(seed: int) -> dict[int, float]:
    """The mean query cost of min_find at each size, over fresh instances."""
    rng = _rng(seed, 4)
    seeds = _seed_stream(rng)
    means = {}
    for n in SCALING_SIZES:
        totals = 0
        for _ in range(SCALING_RUNS):
            instance = make_instance(n, next(seeds))
            totals += min_find(InstanceOracle(instance), n, rng).ledger.total
        means[n] = totals / SCALING_RUNS
    return means


@_check(time_limit=SCALING_TIME_LIMIT)
def check_minfind_scaling(seed: int) -> tuple[bool, str]:
    """Mean query cost grows like log^2 n: the 4096/256 ratio is near 2.25."""
    means = _scaling_means(seed)
    ratio = means[4096] / means[256]
    return SCALING_RATIO_LOW <= ratio <= SCALING_RATIO_HIGH, (
        f"mean queries {means}; ratio mean(4096)/mean(256) = {ratio:.2f}, "
        f"expected in [{SCALING_RATIO_LOW}, {SCALING_RATIO_HIGH}]")


# --- 5. threshold-test error rate and exact query count ---------------------

TESTLE_N = 1000
TESTLE_R = 100.0
TESTLE_DELTA = 0.5
TESTLE_EPSILON = 0.2
TESTLE_RANKS = (40, 170)  # both outside the band 100 +- 50
TESTLE_TRIALS = 500
TESTLE_TIME_LIMIT = 120.0


@_check(time_limit=TESTLE_TIME_LIMIT)
def check_testle_error_rate(seed: int) -> tuple[bool, str]:
    """Threshold-test errors stay within epsilon plus margin; exact ledgers."""
    rng = _rng(seed, 5)
    seeds = _seed_stream(rng)
    expected_queries = derive_params(TESTLE_N, TESTLE_R, TESTLE_DELTA, TESTLE_EPSILON).trials
    margin = binomial_margin(TESTLE_TRIALS, TESTLE_EPSILON, 3.0)
    details = []
    passed = True
    for rank in TESTLE_RANKS:
        truth = rank <= TESTLE_R
        errors = 0
        for _ in range(TESTLE_TRIALS):
            instance = make_instance(TESTLE_N, next(seeds))
            x = instance.element_with_rank(rank)
            outcome = rank_at_most(InstanceOracle(instance), x, TESTLE_R,
                                   TESTLE_DELTA, TESTLE_EPSILON, rng)
            if outcome.ledger.total != expected_queries:
                passed = False
            errors += outcome.answer != truth
        rate = errors / TESTLE_TRIALS
        if rate > TESTLE_EPSILON + margin:
            passed = False
        details.append(f"rank {rank}: error rate {rate:.3f}")
    return passed, (f"{'; '.join(details)}; bound {TESTLE_EPSILON + margin:.3f}, "
                    f"every call used exactly {expected_queries} queries")


# --- 6. per-trial positive rate matches the closed form ----------------------

TRIAL_PROB_N = 100
TRIAL_PROB_R = 10.0
TRIAL_PROB_RANKS = (1, 10, 50, 90)
TRIAL_PROB_EPSILON = 2e-4  # makes the trial count come out just above 2000


@_check()
def check_testle_trial_probability(seed: int) -> tuple[bool, str]:
    """Per-trial positive rates match the closed form within 3 SE."""
    rng = _rng(seed, 6)
    instance = make_instance(TRIAL_PROB_N, 991)
    oracle = InstanceOracle(instance)
    details = []
    passed = True
    for rank in TRIAL_PROB_RANKS:
        x = instance.element_with_rank(rank)
        outcome = rank_at_most(oracle, x, TRIAL_PROB_R, 0.5, TRIAL_PROB_EPSILON, rng)
        params = outcome.params
        # positives / trials is unbiased only for a test that asked every
        # row, which a test of one block does
        if outcome.ledger.total != params.trials:
            passed = False
        expected = 1.0 - ((params.n_eff - rank) / params.n_eff) ** params.sample_size
        freq = outcome.positives / params.trials
        tolerance = 3.0 * np.sqrt(expected * (1.0 - expected) / params.trials)
        if abs(freq - expected) > tolerance:
            passed = False
        details.append(f"rank {rank}: {freq:.3f} vs {expected:.3f} (+-{tolerance:.3f})")
    return passed, (f"sample size {int(TRIAL_PROB_N / TRIAL_PROB_R)}, every call asked all "
                    f"{params.trials} rows; " + "; ".join(details))


# --- 7. rank search succeeds within its band ---------------------------------

APXRANK_N = 1024
APXRANK_DELTA = 0.3
APXRANK_EPSILON = 0.1
APXRANK_RUNS = 200
APXRANK_TIME_LIMIT = 300.0


def _rank_miss(instance: TotalOrderInstance, x: int,
               rng: np.random.Generator) -> tuple[bool, int]:
    """Whether a rank estimate of x misses its band, delta * min(est, n -
    est) around the estimate est, and its threshold-test calls."""
    estimate = approximate_rank(InstanceOracle(instance), x, APXRANK_DELTA, APXRANK_EPSILON, rng)
    band = APXRANK_DELTA * min(estimate.rank, instance.n - estimate.rank)
    return abs(exact_rank(instance, x) - estimate.rank) > band, estimate.calls


@_check(time_limit=APXRANK_TIME_LIMIT)
def check_apxrank_success(seed: int) -> tuple[bool, str]:
    """Rank estimates violate their band at most epsilon plus margin."""
    rng = _rng(seed, 7)
    seeds = _seed_stream(rng)
    max_calls = _ceil_log2(APXRANK_N)
    violations = most_calls = 0
    for _ in range(APXRANK_RUNS):
        instance = make_instance(APXRANK_N, next(seeds))
        miss, calls = _rank_miss(instance, int(rng.integers(0, APXRANK_N)), rng)
        violations += miss
        most_calls = max(most_calls, calls)
    rate = violations / APXRANK_RUNS
    bound = APXRANK_EPSILON + binomial_margin(APXRANK_RUNS, APXRANK_EPSILON, 3.0)
    return rate <= bound and most_calls <= max_calls, (
        f"violation rate {rate:.3f} <= {bound:.3f}, threshold-test calls "
        f"<= {max_calls} in every run")


# --- 8. candidate sampling hits the band -------------------------------------

CANDIDATE_DRAWS = 5000
CANDIDATE_MIN_N, CANDIDATE_MIN_K, CANDIDATE_MIN_DELTA = 1200, 100, 0.6
CANDIDATE_UNIFORM_N, CANDIDATE_UNIFORM_K, CANDIDATE_UNIFORM_DELTA = 100, 50, 0.1


def _candidate_hit_rate(n: int, k: int, delta: float, instance_seed: int,
                        rng: np.random.Generator) -> float:
    """Share of CANDIDATE_DRAWS candidates whose rank lies in (k(1-delta), k(1+delta)]."""
    instance = make_instance(n, instance_seed)
    oracle = InstanceOracle(instance)
    lo, hi = k * (1 - delta), k * (1 + delta)
    hits = sum(lo < exact_rank(instance, draw_candidate(oracle, n, k, delta, rng)) <= hi
               for _ in range(CANDIDATE_DRAWS))
    return hits / CANDIDATE_DRAWS


@_check()
def check_candidate_hit_rate(seed: int) -> tuple[bool, str]:
    """Candidate sampling hits the target band at the guaranteed rates."""
    rng = _rng(seed, 8)
    min_rate = _candidate_hit_rate(CANDIDATE_MIN_N, CANDIDATE_MIN_K, CANDIDATE_MIN_DELTA,
                                   7001, rng)
    claimed = CANDIDATE_MIN_DELTA**2 / 4.0
    min_bound = claimed - binomial_margin(CANDIDATE_DRAWS, claimed, 3.0)
    uniform_rate = _candidate_hit_rate(CANDIDATE_UNIFORM_N, CANDIDATE_UNIFORM_K,
                                       CANDIDATE_UNIFORM_DELTA, 7002, rng)
    uniform_margin = binomial_margin(CANDIDATE_DRAWS, 0.1, 3.0)
    return min_rate >= min_bound and abs(uniform_rate - 0.1) <= uniform_margin, (
        f"min branch hit rate {min_rate:.3f} >= {min_bound:.3f}; uniform branch "
        f"{uniform_rate:.3f} within {uniform_margin:.3f} of 0.1")


# --- 9. the selection guarantee ----------------------------------------------

SELECT_N, SELECT_K = 1000, 100
SELECT_DELTA, SELECT_EPSILON = 0.4, 0.1
SELECT_RUNS = 300
SELECT_TIME_LIMIT = 600.0


@_check(time_limit=SELECT_TIME_LIMIT)
def check_apxselect_theorem(seed: int) -> tuple[bool, str]:
    """Selection returns often enough and returned ranks respect the band."""
    max_rounds = select_params(SELECT_N, SELECT_K, SELECT_DELTA, SELECT_EPSILON).max_rounds
    config = ExperimentConfig(algorithm="select", n=SELECT_N, trials=SELECT_RUNS, seed=seed,
                              k=SELECT_K, delta=SELECT_DELTA, epsilon=SELECT_EPSILON)
    reports, summary = run_experiment(config)
    returned = [r for r in reports if r.result_id is not None]
    return_rate = summary["return_rate"]
    return_bound = 0.5 - binomial_margin(SELECT_RUNS, 0.5, 3.0)
    violations = sum(1 for r in returned if not r.success)
    violation_rate = violations / len(returned) if returned else 0.0
    violation_bound = SELECT_EPSILON + binomial_margin(SELECT_RUNS, SELECT_EPSILON, 3.0)
    rounds_ok = all(r.rounds <= max_rounds for r in reports)
    passed = return_rate >= return_bound and violation_rate <= violation_bound and rounds_ok
    return passed, (f"return rate {return_rate:.3f} >= {return_bound:.3f}; conditional "
                    f"violation rate {violation_rate:.3f} <= {violation_bound:.3f}; rounds "
                    f"<= {max_rounds} always")


# --- 10. reversal law and batch dummy slots ---------------------------------

ADAPTER_MAX_N = 64
ADAPTER_MAX_PAD = 8  # padded sizes n_eff with n_eff - n < 8
# the per-row path asks one single test per row; n <= 32 keeps it near a
# second and still reaches the n_eff > 2n fold of every batch, at n < 8.
# The reversal laws are asked through it up to the same n, so that each
# view's single test is checked as well as its batch
PER_ROW_MAX_N = 32


def _dummy_slot_problems(view: GroupTestOracle, view_ranks: np.ndarray,
                         label: str) -> list[str]:
    """Ask every subject of ``view`` one right and one left batch of
    single-id rows over each padded size: real ids must hit exactly at
    and below (above) the subject, and no dummy row may hit."""
    problems = []
    n = view.size
    for n_eff in range(n, n + ADAPTER_MAX_PAD):
        rows = np.arange(n_eff)[:, None]
        for x in range(n):
            for name, expected in (("right", view_ranks <= view_ranks[x]),
                                   ("left", view_ranks >= view_ranks[x])):
                hits = view.test_batch(x, rows, n_eff, name == "left")
                if not np.array_equal(hits[:n], expected):
                    problems.append(f"{label} {name} batch misranks x={x} n={n} n_eff={n_eff}")
                if hits[n:].any():
                    problems.append(f"{label} {name} batch hits a dummy slot n={n} n_eff={n_eff}")
    return problems


def _reversal_law_problems(plain: GroupTestOracle, rev: GroupTestOracle,
                           double: GroupTestOracle,
                           instance: TotalOrderInstance) -> list[str]:
    """Ask every subject x the n single-id tests of each law as one batch
    of rows: the reversed view's right tests count rank n - rank(x) + 1
    and answer as the plain left tests, and reversing twice changes
    nothing."""
    problems = []
    n = plain.size
    rows = np.arange(n)[:, None]
    for x in range(n):
        rev_right = rev.test_batch(x, rows, n, False)
        if rev_right.sum() != n - exact_rank(instance, x) + 1:
            problems.append(f"reversed rank mismatch n={n} x={x}")
        if not np.array_equal(double.test_batch(x, rows, n, False),
                              plain.test_batch(x, rows, n, False)):
            problems.append(f"double reversal mismatch n={n}")
        if not np.array_equal(rev_right, plain.test_batch(x, rows, n, True)):
            problems.append(f"reversal does not swap directions n={n}")
    return problems


@_check()
def check_reversal_padding(seed: int) -> tuple[bool, str]:
    """Reversal laws hold exhaustively for n <= 64, and batch dummy slots
    never hit while real ids keep their ranks, for n_eff - n < 8."""
    rng = _rng(seed, 10)
    seeds = _seed_stream(rng)
    problems = []
    for n in range(1, ADAPTER_MAX_N + 1):
        instance = make_instance(n, next(seeds))
        oracle = InstanceOracle(instance)
        rev = reversed_view(oracle)
        views = [(oracle, rev, reversed_view(rev))]
        if n <= PER_ROW_MAX_N:
            views.append(tuple(map(_PerQueryOracle, views[0])))
        for plain, rev_view, double in views:
            problems += _reversal_law_problems(plain, rev_view, double, instance)
        problems += _dummy_slot_problems(oracle, instance.ranks, "instance")
        problems += _dummy_slot_problems(rev, n + 1 - instance.ranks, "reversed")
        if n <= PER_ROW_MAX_N:
            problems += _dummy_slot_problems(_PerQueryOracle(oracle), instance.ranks,
                                             "per-row")
        if problems:
            return False, problems[0]
    return True, (f"reversal laws hold exhaustively for n <= {ADAPTER_MAX_N}; batch dummy "
                  f"slots never hit and real ids keep their ranks for n_eff - n < "
                  f"{ADAPTER_MAX_PAD} (instance and reversed n <= {ADAPTER_MAX_N}, per-row "
                  f"path n <= {PER_ROW_MAX_N})")


# --- 11. external protocol conformance ---------------------------------------

EXTERNAL_N = 128
EXTERNAL_QUERIES = 1000
EXTERNAL_BATCHES = 100
# walk sizes: one id (no descent test), a power of two, neither, all but u
EXTERNAL_WALK_SIZES = (1, 2, 64, 100, EXTERNAL_N - 1)
EXTERNAL_WALKS_PER_SIZE = 20
EXTERNAL_SUBSET = 16  # the ids of the min_find_among runs


@_check()
def check_external_conformance(seed: int) -> tuple[bool, str]:
    """The protocol server matches the builtin oracle on 1,000 queries."""
    rng = _rng(seed, 11)
    instance_seed = int(rng.integers(0, 2**31))
    instance = make_instance(EXTERNAL_N, instance_seed)
    builtin = InstanceOracle(instance)
    command = [sys.executable, "-m", "gtorder.oracle_server",
               "--n", str(EXTERNAL_N), "--seed", str(instance_seed)]
    mismatches = 0
    broken_sizes = [m for m in EXTERNAL_WALK_SIZES if m > 1]
    with ExternalOracle(command, EXTERNAL_N) as remote:
        for _ in range(EXTERNAL_QUERIES):
            u = int(rng.integers(0, EXTERNAL_N))
            V = rng.integers(0, EXTERNAL_N, size=int(rng.integers(1, 17))).tolist()
            left = bool(rng.integers(0, 2))
            mismatches += remote.test(u, V, left) != builtin.test(u, V, left)
        # batches in both directions, some padded with dummy slots
        for _ in range(EXTERNAL_BATCHES):
            u = int(rng.integers(0, EXTERNAL_N))
            n_eff = EXTERNAL_N + int(rng.integers(0, 4))
            rows = rng.integers(0, n_eff, size=(int(rng.integers(1, 33)),
                                                int(rng.integers(1, 9))))
            for left in (True, False):
                mismatches += not np.array_equal(remote.test_batch(u, rows, n_eff, left),
                                                 builtin.test_batch(u, rows, n_eff, left))
        # walks over ids other than u, some of which no id beats
        for m in EXTERNAL_WALK_SIZES:
            for _ in range(EXTERNAL_WALKS_PER_SIZE):
                u = int(rng.integers(0, EXTERNAL_N))
                arr = rng.permutation(np.delete(np.arange(EXTERNAL_N), u))[:m]
                for left in (True, False):
                    mismatches += remote.walk(u, arr, left) != builtin.walk(u, arr, left)
        # whole runs: the same element, ledger and next draw as the builtin
        # run at the same seed.  Two more start at the extreme, so each
        # gets an N reply to its one WR/WL line, and must end with no
        # round and the generator as its start draw left it: a
        # min_find_among run with the subset's minimum moved to where its
        # seed starts, and a max_find run at a seed that starts at the top
        run_seed = int(rng.integers(0, 2**63))
        subset = rng.choice(EXTERNAL_N, size=EXTERNAL_SUBSET, replace=False)
        start = int(np.random.default_rng(run_seed).integers(EXTERNAL_SUBSET))
        lowest = int(np.argmin(instance.ranks[subset]))
        subset[[start, lowest]] = subset[[lowest, start]]
        top = instance.element_with_rank(EXTERNAL_N)
        top_seed = next(s for s in _seed_stream(rng)
                        if np.random.default_rng(s).integers(EXTERNAL_N) == top)
        for find, among, draw_seed, extreme_size in (
                (min_find, EXTERNAL_N, run_seed, None), (max_find, EXTERNAL_N, run_seed, None),
                (min_find_among, subset, run_seed, EXTERNAL_SUBSET),
                (max_find, EXTERNAL_N, top_seed, EXTERNAL_N)):
            runs = []
            for oracle in (remote, builtin):
                draws = np.random.default_rng(draw_seed)
                runs.append((find(oracle, among, draws), draws.integers(2**63)))
            bad = runs[0] != runs[1]
            if extreme_size is not None:
                after_start = np.random.default_rng(draw_seed)
                after_start.integers(extreme_size)
                bad = (bad or runs[0][0].iterations > 0
                       or runs[0][1] != after_start.integers(2**63))
            mismatches += bad
        # walks that break, which both oracles must answer None: over ids
        # whose first is u, and over ids that repeat their extreme after
        # it, from a u the extreme beats
        for m in broken_sizes:
            for left in (True, False):
                top = instance.element_with_rank(EXTERNAL_N if left else 1)
                u = int(rng.choice(np.delete(np.arange(EXTERNAL_N), top)))
                from_u = np.append(u, rng.permutation(np.delete(np.arange(EXTERNAL_N), u))[:m - 1])
                others = rng.permutation(np.setdiff1d(np.arange(EXTERNAL_N), (u, top)))[:m - 2]
                twin = np.append(np.insert(others, int(rng.integers(m - 1)), top), top)
                for arr in (from_u, twin):
                    answers = remote.walk(u, arr, left), builtin.walk(u, arr, left)
                    mismatches += answers != (None, None)
    # the single tests, batches and walks, four runs, then the broken walks
    compared = (EXTERNAL_QUERIES + 2 * EXTERNAL_BATCHES
                + 2 * len(EXTERNAL_WALK_SIZES) * EXTERNAL_WALKS_PER_SIZE + 4
                + 4 * len(broken_sizes))
    return mismatches == 0, (
        f"{compared - mismatches}/{compared} protocol answers (single tests, batches, "
        f"walks, a min_find and a max_find run, a min_find_among and a max_find run "
        f"that start at the extreme, and walks that break) match the builtin oracle, "
        f"generator included, at n={EXTERNAL_N}")


# --- 12. byte-identical reruns -----------------------------------------------

REPRO_CONFIGS = (
    ExperimentConfig(algorithm="minfind", n=64, trials=50, seed=0),
    ExperimentConfig(algorithm="maxfind", n=32, trials=30, seed=0),
    ExperimentConfig(algorithm="testle", n=200, trials=25, seed=0,
                     r=20.0, delta=0.5, epsilon=0.2, x_rank=35),
    ExperimentConfig(algorithm="rank", n=128, trials=8, seed=0, delta=0.4, epsilon=0.2),
    ExperimentConfig(algorithm="select", n=150, trials=4, seed=0,
                     k=30, delta=0.5, epsilon=0.2),
)


@_check()
def check_reproducibility(seed: int) -> tuple[bool, str]:
    """Re-running every config with the same seed is byte-identical."""
    for base in REPRO_CONFIGS:
        config = replace(base, seed=seed)
        first, _ = run_experiment(config)
        second, _ = run_experiment(config)
        if render_csv(config, first) != render_csv(config, second):
            return False, f"CSV differs for {config.algorithm}"
    return True, "re-running each algorithm's config reproduced the CSV byte for byte"


# --- 13. a curtailed threshold test answers as the full test ------------------

# 381 rows of 200 ids in three blocks (163 + 163 + 55 rows) at either
# target: r = 5, and r = 996, which runs reversed at its mirror 5
CURTAIL_N = 1000
CURTAIL_TARGETS = (5.0, 996.0)
CURTAIL_DELTA, CURTAIL_EPSILON = 0.5, 0.2


def _full_test(oracle: GroupTestOracle, x: int, params: RankTestParams,
               rng: np.random.Generator) -> tuple[bool, np.ndarray, list, int]:
    """The full threshold test a ``rank_at_most`` of plan ``params``
    curtails, drawn from ``rng`` in the same blocks: its answer, the
    positives after each row, the generator state after each block, and
    the rows per block."""
    view = reversed_view(oracle) if params.reversed else oracle
    step = max(1, _BLOCK_IDS // params.sample_size)
    hits, states = [], []
    for start in range(0, params.trials, step):
        rows = rng.integers(0, params.n_eff,
                            size=(min(step, params.trials - start), params.sample_size))
        hits.append(view.test_batch(x, rows, params.n_eff, False))
        states.append(rng.bit_generator.state)
    counts = np.cumsum(np.concatenate(hits))
    return bool(counts[-1] <= params.limit) != params.reversed, counts, states, step


@_check()
def check_threshold_curtailment(seed: int) -> tuple[bool, str]:
    """Curtailed threshold tests at n=1000, r in {5, 996}, give the full
    test's answer at every rank, and ask and draw the rows up to the first
    block boundary at or after the row that fixed it."""
    # Each test is replayed in full from a copy of the generator; the row
    # that fixed the answer is the first after which the positives exceed
    # the decision line, or cannot pass it with every row left positive.
    rng = _rng(seed, 13)
    instance = make_instance(CURTAIL_N, next(_seed_stream(rng)))
    oracle = InstanceOracle(instance)
    bad = []
    blocks_asked = collections.Counter()
    asked_total = full_total = 0
    for r in CURTAIL_TARGETS:
        params = derive_params(CURTAIL_N, r, CURTAIL_DELTA, CURTAIL_EPSILON)
        trials, limit = params.trials, params.limit
        left = trials - np.arange(1, trials + 1)
        for rank in range(1, CURTAIL_N + 1):
            x = instance.element_with_rank(rank)
            answer, counts, states, step = _full_test(oracle, x, params, copy.deepcopy(rng))
            outcome = rank_at_most(oracle, x, r, CURTAIL_DELTA, CURTAIL_EPSILON, rng)
            decided = 1 + int(np.flatnonzero((counts > limit) | (counts + left <= limit))[0])
            blocks = -(-decided // step)
            asked = min(trials, blocks * step)
            ledger = QueryLedger(asked, 0) if params.reversed else QueryLedger(0, asked)
            # asked <= trials, so a matching ledger never exceeds the full test
            if (outcome.params != params or outcome.answer != answer or outcome.ledger != ledger
                    or outcome.positives != counts[asked - 1]
                    or rng.bit_generator.state != states[blocks - 1]):
                bad.append((r, rank, outcome.answer, answer, outcome.ledger.total, asked))
            blocks_asked[blocks] += 1
            asked_total += asked
            full_total += trials
    tests = len(CURTAIL_TARGETS) * CURTAIL_N
    return not bad, (
        f"{tests} tests at n={CURTAIL_N}, r in {CURTAIL_TARGETS}: answers equal the full "
        f"test's, ledgers and generator states end at the deciding block; tests by "
        f"blocks asked {dict(sorted(blocks_asked.items()))}, {asked_total}/{full_total} rows"
        if not bad else f"deviations (r, rank, answer, full answer, asked, expected) "
                        f"at {bad[:5]}")


# --- 14. min-finding's walk follows the chain law ------------------------------

# runs per size: at these counts the swap-count law keeps 7 categories at
# n = 8 and 13 at n = 64 once its upper tail is pooled to 5 expected runs;
# at n = 8 each of the 21 cells of the first two moves expects over 100
CHAIN_RUNS = {8: 40_000, 64: 50_000}
CHAIN_INSTANCE_SEED = 20_240_602


class _SwapRanks(InstanceOracle):
    """Records the rank each swap of a min-finding run moves to."""

    def __init__(self, instance: TotalOrderInstance):
        super().__init__(instance)
        self.moves: list[int] = []

    def walk(self, u, arr, left):
        ends = super().walk(u, arr, left)
        if ends:  # neither a start at the minimum nor a broken walk moves
            self.moves += self.instance.ranks[np.asarray(arr)[ends]].tolist()
        return ends


def _swap_count_law(n: int) -> list[float]:
    """P(k swaps) for k = 0..n-1 when the start rank is uniform on 1..n and
    rank r moves to a uniform rank in 1..r-1."""
    from_rank = [[1.0]]  # from_rank[r - 1][k]: P(k swaps from rank r)
    for r in range(2, n + 1):
        law = [0.0] * r
        for lower in from_rank:
            for k, p in enumerate(lower):
                law[k + 1] += p / (r - 1)
        from_rank.append(law)
    return [sum(law[k] for law in from_rank if k < len(law)) / n for k in range(n)]


def _two_move_law(n: int) -> dict[tuple[int, int], float]:
    """P(first move to rank j, second to rank r) over the runs that move
    twice, under the same law: r is uniform on 1..j-1."""
    first = {j: sum(1.0 / (s - 1) for s in range(j + 1, n + 1)) / n for j in range(2, n)}
    total = sum(first.values())
    return {(j, r): p / total / (j - 1) for j, p in first.items() for r in range(1, j)}


@_check()
def check_minfind_chain_law(seed: int) -> tuple[bool, str]:
    """On a fixed instance, the number of swaps of min_find at n=8 and
    n=64 fits its exact law, and at n=8 so do the first two moves: the
    second is uniform below the first, by chi-square at 0.001."""
    rng = _rng(seed, 14)
    details = []
    passed = True
    for n, runs in CHAIN_RUNS.items():
        oracle = _SwapRanks(make_instance(n, CHAIN_INSTANCE_SEED))
        swaps = [0] * n
        second = collections.Counter()  # (first move's rank, second move's rank)
        for _ in range(runs):
            oracle.moves.clear()
            outcome = min_find(oracle, n, rng)
            swaps[outcome.iterations] += 1
            if len(oracle.moves) >= 2:
                second[tuple(oracle.moves[:2])] += 1
        law, moves = _swap_count_law(n), _two_move_law(n)
        while law[-1] * runs < 5:  # pool the upper tail into its last category
            law[-2:] = [law[-2] + law[-1]]
            swaps[-2:] = [swaps[-2] + swaps[-1]]
        fit = chi_square_fit(swaps, law)
        passed &= fit.passed
        details.append(f"swaps at n={n} over {runs} runs: chi-square {fit.statistic:.1f}, "
                       f"critical {fit.critical:.1f} at df={fit.df}")
        if n == 8:
            fit = chi_square_fit([second[cell] for cell in moves], list(moves.values()))
            passed &= fit.passed
            details.append(f"first two moves at n={n} over {sum(second.values())} runs: "
                           f"chi-square {fit.statistic:.1f}, critical {fit.critical:.1f} "
                           f"at df={fit.df}")
    return passed, "; ".join(details)


# --- 15. rank estimates hold their band at both ends of the order --------------

# below rank 1/delta the band is under one rank wide, so one step off is a
# miss: ranks 1..ceil(1/delta)+1 and their mirrors, at check 7's delta and
# epsilon and a smaller n, as a search costs about n per level.  Runs per
# rank: the fewest that put a miss rate of 2 epsilon past the bound
APXRANK_ENDS_N = 256
APXRANK_ENDS_DEPTH = math.ceil(1 / APXRANK_DELTA) + 1
APXRANK_ENDS_RUNS = math.ceil(9 * (1 - APXRANK_EPSILON) / APXRANK_EPSILON)


@_check()
def check_apxrank_ends(seed: int) -> tuple[bool, str]:
    """Rank estimates at each of ranks 1..ceil(1/delta)+1 and their mirrors
    at the top violate their band at most epsilon plus margin."""
    rng = _rng(seed, 15)
    seeds = _seed_stream(rng)
    n, depth, runs = APXRANK_ENDS_N, APXRANK_ENDS_DEPTH, APXRANK_ENDS_RUNS
    misses = {}
    for rank in (*range(1, depth + 1), *range(n - depth + 1, n + 1)):
        instances = (make_instance(n, next(seeds)) for _ in range(runs))
        misses[rank] = sum(_rank_miss(i, i.element_with_rank(rank), rng)[0] for i in instances)
    worst = max(misses.values()) / runs
    bound = APXRANK_EPSILON + binomial_margin(runs, APXRANK_EPSILON, 3.0)
    return worst <= bound, (f"misses per rank {misses} over {runs} runs each at n={n}; "
                            f"worst rate {worst:.3f}, bound {bound:.3f}")


# --- 16. min-finding's mean cost is exact --------------------------------------


@_check(time_limit=SCALING_TIME_LIMIT)
def check_minfind_mean(seed: int) -> tuple[bool, str]:
    """At each of check 4's sizes the mean query cost lies within 3 sigma
    of its exact value, (H_n - 1)(ceil(log2(n-1)) + 1) + 1."""
    # from a uniform start a run visits rank j in 2..n with probability
    # 1/j independently: H_n - 1 rounds in the mean, variance H_n - H_n^(2)
    zs, scores = [], []
    for n, mean in _scaling_means(seed).items():
        harmonic, squares = (sum(1 / j**k for j in range(1, n + 1)) for k in (1, 2))
        per_round = _ceil_log2(n - 1) + 1
        expected = (harmonic - 1) * per_round + 1
        zs.append((mean - expected) / (per_round * math.sqrt((harmonic - squares) / SCALING_RUNS)))
        scores.append(f"n={n}: {mean:.2f} vs {expected:.2f} (z {zs[-1]:+.2f})")
    return max(map(abs, zs)) <= 3, (f"mean queries over {SCALING_RUNS} runs against the exact "
                                    f"mean, within 3 sigma: {'; '.join(scores)}")
