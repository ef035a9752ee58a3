"""Statistical verification suite.

Each check operationalizes one guarantee of the library at desk scale:
exactness of min-finding, per-call query counts, uniformity of the swap
output, query-count scaling, error rates and the per-trial closed form
of the threshold test, rank-search success, candidate hit rates, the
selection theorem, oracle adapter laws, external-protocol conformance
and bit-for-bit reproducibility.  Probabilistic claims carry 3-sigma
binomial margins or a chi-square test at significance 0.001; structural
claims are exact.  All randomness derives from the suite seed.
"""

from __future__ import annotations

import copy
import sys
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from .apxrank import approximate_rank
from .external import ExternalOracle
from .harness import ExperimentConfig, render_csv, run_experiment
from .minfind import max_find, min_find, swap
from .oracle import (CountingOracle, GroupTestOracle, InstanceOracle, padded_view,
                     reversed_view)
from .order import exact_rank, make_instance
from .ranktest import derive_params, rank_at_most
from .selection import approximate_select, draw_candidate
from .stats import binomial_margin, chi_square_uniformity


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, tag)))


def _seed_stream(rng: np.random.Generator):
    while True:
        yield int(rng.integers(0, 2**63))


def _ceil_log2(m: int) -> int:
    return (m - 1).bit_length()


# --- 1. min-finding is exact ------------------------------------------------

MINFIND_SIZES = (2, 3, 4, 8, 16, 64, 256, 1024)
MINFIND_RUNS_PER_SIZE = 1250  # 10,000 runs in total
MINFIND_TIME_LIMIT = 60.0


def check_minfind_exactness(seed: int) -> CheckResult:
    start = time.monotonic()
    rng = _rng(seed, 1)
    seeds = _seed_stream(rng)
    total = 0
    correct = 0
    for n in MINFIND_SIZES:
        for _ in range(MINFIND_RUNS_PER_SIZE):
            instance = make_instance(n, next(seeds))
            outcome = min_find(InstanceOracle(instance), n, rng)
            total += 1
            correct += exact_rank(instance, outcome.element) == 1
    elapsed = time.monotonic() - start
    passed = correct == total and elapsed < MINFIND_TIME_LIMIT
    return CheckResult(
        "minfind_exactness", passed,
        f"{correct}/{total} runs returned the rank-1 element "
        f"across n in {MINFIND_SIZES} ({elapsed:.1f}s)",
        elapsed,
    )


# --- 2. swap query count is exact -------------------------------------------

SWAP_COUNT_RANGE = range(3, 1026)
SWAP_LEDGER_SIZES = (3, 4, 5, 6, 7, 9, 16, 17, 33, 64, 65, 129, 257, 513, 1025)
SWAP_LEDGER_RUNS = 25


class _PerQueryOracle(GroupTestOracle):
    """Forwards single tests only, so every descent takes the base class's
    one-test-per-level path and each level reaches the oracle below."""

    def __init__(self, inner: GroupTestOracle):
        self._inner = inner
        self.size = inner.size

    def left_test(self, u, V):
        return self._inner.left_test(u, V)

    def right_test(self, u, V):
        return self._inner.right_test(u, V)


def _per_query(oracle: GroupTestOracle) -> tuple[GroupTestOracle, CountingOracle]:
    """``oracle`` asked one test per descent level, and the adapter below
    that counts those tests as they are made."""
    counting = CountingOracle(oracle)
    return _PerQueryOracle(counting), counting


def check_swap_query_count(seed: int) -> CheckResult:
    # A counting adapter charges a descent ceil(log2 m) by formula, so each
    # swap is also replayed, from the same generator state, with its levels
    # asked and counted one by one; both must return the same element and
    # the same ledger.
    start = time.monotonic()
    rng = _rng(seed, 2)
    seeds = _seed_stream(rng)
    bad = []
    for n in SWAP_COUNT_RANGE:
        instance = make_instance(n, next(seeds))
        oracle = InstanceOracle(instance)
        x = instance.element_with_rank(n)  # the maximum: every other element is below
        rest = np.delete(np.arange(n), x)
        counting = CountingOracle(oracle)
        per_query, asked = _per_query(oracle)
        replay = swap(per_query, rest, x, copy.deepcopy(rng))
        result = swap(counting, rest, x, rng)
        expected = _ceil_log2(n - 1)
        if (asked.ledger.total != expected or counting.ledger != asked.ledger
                or result != replay or result not in rest):
            bad.append((n, counting.ledger.total, asked.ledger.total, expected))
    # the same exactness, exercised through full min-finding runs: the
    # total is (iterations + 1) condition checks plus iterations swaps
    for n in SWAP_LEDGER_SIZES:
        per_swap = _ceil_log2(n - 1)
        for _ in range(SWAP_LEDGER_RUNS):
            instance = make_instance(n, next(seeds))
            per_query, asked = _per_query(InstanceOracle(instance))
            replay = min_find(per_query, n, copy.deepcopy(rng))
            outcome = min_find(InstanceOracle(instance), n, rng)
            expected_total = (outcome.iterations + 1) + outcome.iterations * per_swap
            if (asked.ledger.total != expected_total or outcome.ledger != asked.ledger
                    or (outcome.element, outcome.iterations)
                    != (replay.element, replay.iterations)):
                bad.append((n, outcome.ledger.total, asked.ledger.total, expected_total))
    elapsed = time.monotonic() - start
    return CheckResult(
        "swap_query_count", not bad,
        ("exact ceil(log2(n-1)) tests for all n in 3..1025, "
         "asked per level and fused alike"
         if not bad else f"deviations (n, fused, per level, expected) at {bad[:5]}"),
        elapsed,
    )


# --- 3. swap returns a uniform element among those below x -------------------

SWAP_UNIFORMITY_N = 64
SWAP_UNIFORMITY_RANK = 32
SWAP_UNIFORMITY_CALLS = 10_000


def check_swap_uniformity(seed: int) -> CheckResult:
    start = time.monotonic()
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
    elapsed = time.monotonic() - start
    passed = outcome.passed and elapsed < 60.0
    return CheckResult(
        "swap_uniformity", passed,
        f"chi-square {outcome.statistic:.1f} over {SWAP_UNIFORMITY_RANK} ranks, "
        f"critical {outcome.critical:.1f} at df={outcome.df} ({elapsed:.1f}s)",
        elapsed,
    )


# --- 4. min-finding cost grows like log^2 n ---------------------------------

SCALING_SIZES = (64, 256, 1024, 4096)
SCALING_RUNS = 5000
SCALING_RATIO_LOW = 1.8
SCALING_RATIO_HIGH = 2.9
SCALING_TIME_LIMIT = 120.0


def check_minfind_scaling(seed: int) -> CheckResult:
    start = time.monotonic()
    rng = _rng(seed, 4)
    seeds = _seed_stream(rng)
    means = {}
    for n in SCALING_SIZES:
        totals = 0
        for _ in range(SCALING_RUNS):
            instance = make_instance(n, next(seeds))
            totals += min_find(InstanceOracle(instance), n, rng).ledger.total
        means[n] = totals / SCALING_RUNS
    ratio = means[4096] / means[256]
    elapsed = time.monotonic() - start
    passed = SCALING_RATIO_LOW <= ratio <= SCALING_RATIO_HIGH and elapsed < SCALING_TIME_LIMIT
    return CheckResult(
        "minfind_scaling", passed,
        f"mean queries {means}; ratio mean(4096)/mean(256) = {ratio:.2f}, "
        f"expected in [{SCALING_RATIO_LOW}, {SCALING_RATIO_HIGH}] ({elapsed:.1f}s)",
        elapsed,
    )


# --- 5. threshold-test error rate and exact query count ---------------------

TESTLE_N = 1000
TESTLE_R = 100.0
TESTLE_DELTA = 0.5
TESTLE_EPSILON = 0.2
TESTLE_RANKS = (40, 170)  # both outside the band 100 +- 50
TESTLE_TRIALS = 500
TESTLE_TIME_LIMIT = 120.0


def check_testle_error_rate(seed: int) -> CheckResult:
    start = time.monotonic()
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
    elapsed = time.monotonic() - start
    passed = passed and elapsed < TESTLE_TIME_LIMIT
    return CheckResult(
        "testle_error_rate", passed,
        f"{'; '.join(details)}; bound {TESTLE_EPSILON + margin:.3f}, "
        f"every call used exactly {expected_queries} queries ({elapsed:.1f}s)",
        elapsed,
    )


# --- 6. per-trial positive rate matches the closed form ----------------------

TRIAL_PROB_N = 100
TRIAL_PROB_R = 10.0
TRIAL_PROB_RANKS = (1, 10, 50, 90)
TRIAL_PROB_EPSILON = 2e-4  # makes the trial count come out just above 2000


def check_testle_trial_probability(seed: int) -> CheckResult:
    start = time.monotonic()
    rng = _rng(seed, 6)
    instance = make_instance(TRIAL_PROB_N, 991)
    oracle = InstanceOracle(instance)
    details = []
    passed = True
    for rank in TRIAL_PROB_RANKS:
        x = instance.element_with_rank(rank)
        outcome = rank_at_most(oracle, x, TRIAL_PROB_R, 0.5, TRIAL_PROB_EPSILON, rng)
        params = outcome.params
        expected = 1.0 - ((params.n_eff - rank) / params.n_eff) ** params.sample_size
        freq = outcome.positives / params.trials
        tolerance = 3.0 * np.sqrt(expected * (1.0 - expected) / params.trials)
        if abs(freq - expected) > tolerance:
            passed = False
        details.append(f"rank {rank}: {freq:.3f} vs {expected:.3f} (+-{tolerance:.3f})")
    elapsed = time.monotonic() - start
    return CheckResult(
        "testle_trial_probability", passed,
        f"sample size {int(TRIAL_PROB_N / TRIAL_PROB_R)}; " + "; ".join(details),
        elapsed,
    )


# --- 7. rank search succeeds within its band ---------------------------------

APXRANK_N = 1024
APXRANK_DELTA = 0.3
APXRANK_EPSILON = 0.1
APXRANK_RUNS = 200
APXRANK_TIME_LIMIT = 300.0


def check_apxrank_success(seed: int) -> CheckResult:
    start = time.monotonic()
    rng = _rng(seed, 7)
    seeds = _seed_stream(rng)
    max_calls = _ceil_log2(APXRANK_N)
    violations = 0
    calls_ok = True
    for _ in range(APXRANK_RUNS):
        instance = make_instance(APXRANK_N, next(seeds))
        x = int(rng.integers(0, APXRANK_N))
        estimate = approximate_rank(InstanceOracle(instance), x, APXRANK_DELTA,
                                    APXRANK_EPSILON, rng)
        if estimate.calls > max_calls:
            calls_ok = False
        true_rank = exact_rank(instance, x)
        band = APXRANK_DELTA * min(estimate.rank, APXRANK_N - estimate.rank)
        violations += abs(true_rank - estimate.rank) > band
    rate = violations / APXRANK_RUNS
    bound = APXRANK_EPSILON + binomial_margin(APXRANK_RUNS, APXRANK_EPSILON, 3.0)
    elapsed = time.monotonic() - start
    passed = rate <= bound and calls_ok and elapsed < APXRANK_TIME_LIMIT
    return CheckResult(
        "apxrank_success", passed,
        f"violation rate {rate:.3f} <= {bound:.3f}, threshold-test calls "
        f"<= {max_calls} in every run ({elapsed:.1f}s)",
        elapsed,
    )


# --- 8. candidate sampling hits the band -------------------------------------

CANDIDATE_DRAWS = 5000
CANDIDATE_MIN_N, CANDIDATE_MIN_K, CANDIDATE_MIN_DELTA = 1200, 100, 0.6
CANDIDATE_UNIFORM_N, CANDIDATE_UNIFORM_K, CANDIDATE_UNIFORM_DELTA = 100, 50, 0.1


def check_candidate_hit_rate(seed: int) -> CheckResult:
    start = time.monotonic()
    rng = _rng(seed, 8)

    instance = make_instance(CANDIDATE_MIN_N, 7001)
    oracle = InstanceOracle(instance)
    lo = CANDIDATE_MIN_K * (1 - CANDIDATE_MIN_DELTA)
    hi = CANDIDATE_MIN_K * (1 + CANDIDATE_MIN_DELTA)
    hits = 0
    for _ in range(CANDIDATE_DRAWS):
        x = draw_candidate(oracle, CANDIDATE_MIN_N, CANDIDATE_MIN_K,
                           CANDIDATE_MIN_DELTA, rng)
        hits += lo < exact_rank(instance, x) <= hi
    min_rate = hits / CANDIDATE_DRAWS
    claimed = CANDIDATE_MIN_DELTA**2 / 4.0
    min_bound = claimed - binomial_margin(CANDIDATE_DRAWS, claimed, 3.0)
    min_ok = min_rate >= min_bound

    instance = make_instance(CANDIDATE_UNIFORM_N, 7002)
    oracle = InstanceOracle(instance)
    lo = CANDIDATE_UNIFORM_K * (1 - CANDIDATE_UNIFORM_DELTA)
    hi = CANDIDATE_UNIFORM_K * (1 + CANDIDATE_UNIFORM_DELTA)
    hits = 0
    for _ in range(CANDIDATE_DRAWS):
        x = draw_candidate(oracle, CANDIDATE_UNIFORM_N, CANDIDATE_UNIFORM_K,
                           CANDIDATE_UNIFORM_DELTA, rng)
        hits += lo < exact_rank(instance, x) <= hi
    uniform_rate = hits / CANDIDATE_DRAWS
    uniform_margin = binomial_margin(CANDIDATE_DRAWS, 0.1, 3.0)
    uniform_ok = abs(uniform_rate - 0.1) <= uniform_margin

    elapsed = time.monotonic() - start
    return CheckResult(
        "candidate_hit_rate", min_ok and uniform_ok,
        f"min branch hit rate {min_rate:.3f} >= {min_bound:.3f}; uniform branch "
        f"{uniform_rate:.3f} within {uniform_margin:.3f} of 0.1 ({elapsed:.1f}s)",
        elapsed,
    )


# --- 9. the selection guarantee ----------------------------------------------

SELECT_N, SELECT_K = 1000, 100
SELECT_DELTA, SELECT_EPSILON = 0.4, 0.1
SELECT_RUNS = 300
SELECT_TIME_LIMIT = 600.0


def check_apxselect_theorem(seed: int) -> CheckResult:
    start = time.monotonic()
    max_rounds = int(np.ceil(32.0 / SELECT_DELTA**2))
    config = ExperimentConfig(
        algorithm="select", n=SELECT_N, trials=SELECT_RUNS, seed=seed,
        k=SELECT_K, delta=SELECT_DELTA, epsilon=SELECT_EPSILON,
    )
    reports, summary = run_experiment(config)
    returned = [r for r in reports if r.result_id is not None]
    return_rate = summary["return_rate"]
    return_bound = 0.5 - binomial_margin(SELECT_RUNS, 0.5, 3.0)
    violations = sum(1 for r in returned if not r.success)
    violation_rate = violations / len(returned) if returned else 0.0
    violation_bound = SELECT_EPSILON + binomial_margin(SELECT_RUNS, SELECT_EPSILON, 3.0)
    rounds_ok = all(r.rounds <= max_rounds for r in reports)
    elapsed = time.monotonic() - start
    passed = (return_rate >= return_bound and violation_rate <= violation_bound
              and rounds_ok and elapsed < SELECT_TIME_LIMIT)
    return CheckResult(
        "apxselect_theorem", passed,
        f"return rate {return_rate:.3f} >= {return_bound:.3f}; conditional "
        f"violation rate {violation_rate:.3f} <= {violation_bound:.3f}; rounds "
        f"<= {max_rounds} always ({elapsed:.1f}s)",
        elapsed,
    )


# --- 10. reversal and padding adapter laws -----------------------------------

ADAPTER_MAX_N = 64
ADAPTER_MAX_DIVISOR = 8


def check_reversal_padding(seed: int) -> CheckResult:
    start = time.monotonic()
    rng = _rng(seed, 10)
    seeds = _seed_stream(rng)
    problems = []
    for n in range(1, ADAPTER_MAX_N + 1):
        instance = make_instance(n, next(seeds))
        oracle = InstanceOracle(instance)
        rev = reversed_view(oracle)
        double = reversed_view(rev)
        for x in range(n):
            rev_rank = sum(rev.right_test(x, [y]) for y in range(n))
            if rev_rank != n - exact_rank(instance, x) + 1:
                problems.append(f"reversed rank mismatch n={n} x={x}")
            for y in range(n):
                if double.right_test(x, [y]) != oracle.right_test(x, [y]):
                    problems.append(f"double reversal mismatch n={n}")
                if rev.right_test(x, [y]) != oracle.left_test(x, [y]):
                    problems.append(f"reversal does not swap directions n={n}")
        for divisor in range(1, ADAPTER_MAX_DIVISOR + 1):
            padded = padded_view(oracle, divisor)
            size = padded.size
            if size % divisor or size - n >= divisor:
                problems.append(f"bad padded size n={n} divisor={divisor}")
            for x in range(n):
                padded_rank = sum(padded.right_test(x, [y]) for y in range(size))
                if padded_rank != exact_rank(instance, x):
                    problems.append(f"padding changed a real rank n={n} div={divisor}")
            for dummy in range(n, size):
                dummy_rank = sum(padded.right_test(dummy, [y]) for y in range(size))
                if dummy_rank != dummy + 1:
                    problems.append(f"dummy rank off n={n} div={divisor}")
                if any(padded.right_test(x, [dummy]) for x in range(n)):
                    problems.append(f"dummy not above the reals n={n} div={divisor}")
        if problems:
            break
    elapsed = time.monotonic() - start
    return CheckResult(
        "reversal_padding", not problems,
        (f"reversal and padding laws hold exhaustively for n <= {ADAPTER_MAX_N}, "
         f"divisors <= {ADAPTER_MAX_DIVISOR} ({elapsed:.1f}s)"
         if not problems else problems[0]),
        elapsed,
    )


# --- 11. external protocol conformance ---------------------------------------

EXTERNAL_N = 128
EXTERNAL_QUERIES = 1000
EXTERNAL_BATCHES = 100
# descent sizes: one id (no test asked), a power of two, and neither
EXTERNAL_DESCENT_SIZES = (1, 2, 64, 100, EXTERNAL_N)
EXTERNAL_DESCENTS_PER_SIZE = 20


def check_external_conformance(seed: int) -> CheckResult:
    start = time.monotonic()
    rng = _rng(seed, 11)
    instance_seed = int(rng.integers(0, 2**31))
    instance = make_instance(EXTERNAL_N, instance_seed)
    builtin = InstanceOracle(instance)
    command = [sys.executable, "-m", "gtorder.oracle_server",
               "--n", str(EXTERNAL_N), "--seed", str(instance_seed)]
    mismatches = 0
    with ExternalOracle(command, EXTERNAL_N) as remote:
        for _ in range(EXTERNAL_QUERIES):
            u = int(rng.integers(0, EXTERNAL_N))
            V = rng.integers(0, EXTERNAL_N, size=int(rng.integers(1, 17))).tolist()
            if rng.integers(0, 2):
                mismatches += remote.left_test(u, V) != builtin.left_test(u, V)
            else:
                mismatches += remote.right_test(u, V) != builtin.right_test(u, V)
        # batches in both directions, some padded with dummy slots
        for _ in range(EXTERNAL_BATCHES):
            u = int(rng.integers(0, EXTERNAL_N))
            n_eff = EXTERNAL_N + int(rng.integers(0, 4))
            rows = rng.integers(0, n_eff, size=(int(rng.integers(1, 33)),
                                                int(rng.integers(1, 9))))
            for name in ("left_test_batch", "right_test_batch"):
                mismatches += not np.array_equal(getattr(remote, name)(u, rows, n_eff),
                                                 getattr(builtin, name)(u, rows, n_eff))
        for m in EXTERNAL_DESCENT_SIZES:
            for _ in range(EXTERNAL_DESCENTS_PER_SIZE):
                u = int(rng.integers(0, EXTERNAL_N))
                arr = rng.permutation(EXTERNAL_N)[:m]
                for name in ("left_descent", "right_descent"):
                    mismatches += getattr(remote, name)(u, arr) != getattr(builtin, name)(u, arr)
        # whole runs: the same element and ledger as the builtin run at the same seed
        run_seed = int(rng.integers(0, 2**63))
        for find in (min_find, max_find):
            runs = [find(oracle, EXTERNAL_N, np.random.default_rng(run_seed))
                    for oracle in (remote, builtin)]
            mismatches += runs[0] != runs[1]
    compared = (EXTERNAL_QUERIES + 2 * EXTERNAL_BATCHES
                + 2 * len(EXTERNAL_DESCENT_SIZES) * EXTERNAL_DESCENTS_PER_SIZE + 2)
    elapsed = time.monotonic() - start
    return CheckResult(
        "external_conformance", mismatches == 0,
        f"{compared - mismatches}/{compared} protocol answers (single tests, batches, "
        f"descents, a min_find and a max_find run) match the builtin oracle at "
        f"n={EXTERNAL_N} ({elapsed:.1f}s)",
        elapsed,
    )


# --- 12. byte-identical reruns -----------------------------------------------

REPRO_CONFIGS = (
    ExperimentConfig(algorithm="minfind", n=64, trials=50, seed=0),
    ExperimentConfig(algorithm="maxfind", n=32, trials=30, seed=0),
    ExperimentConfig(algorithm="testle", n=200, trials=25, seed=0,
                     r=20.0, delta=0.5, epsilon=0.2, x_rank=35),
    ExperimentConfig(algorithm="rank", n=128, trials=8, seed=0,
                     delta=0.4, epsilon=0.2),
    ExperimentConfig(algorithm="select", n=150, trials=4, seed=0,
                     k=30, delta=0.5, epsilon=0.2),
)


def check_reproducibility(seed: int) -> CheckResult:
    start = time.monotonic()
    stable = True
    for base in REPRO_CONFIGS:
        config = ExperimentConfig(**{**base.__dict__, "seed": seed})
        first, _ = run_experiment(config)
        second, _ = run_experiment(config)
        if render_csv(config, first) != render_csv(config, second):
            stable = False
            break
    elapsed = time.monotonic() - start
    return CheckResult(
        "reproducibility", stable,
        f"re-running each algorithm's config reproduced the CSV byte for byte "
        f"({elapsed:.1f}s)" if stable else f"CSV differs for {config.algorithm}",
        elapsed,
    )


ALL_CHECKS: dict[str, Callable[[int], CheckResult]] = {
    "minfind_exactness": check_minfind_exactness,
    "swap_query_count": check_swap_query_count,
    "swap_uniformity": check_swap_uniformity,
    "minfind_scaling": check_minfind_scaling,
    "testle_error_rate": check_testle_error_rate,
    "testle_trial_probability": check_testle_trial_probability,
    "apxrank_success": check_apxrank_success,
    "candidate_hit_rate": check_candidate_hit_rate,
    "apxselect_theorem": check_apxselect_theorem,
    "reversal_padding": check_reversal_padding,
    "external_conformance": check_external_conformance,
    "reproducibility": check_reproducibility,
}


def run_checks(seed: int, names: Optional[Iterable[str]] = None) -> list[CheckResult]:
    selected = list(names) if names else list(ALL_CHECKS)
    unknown = [name for name in selected if name not in ALL_CHECKS]
    if unknown:
        raise KeyError(f"unknown checks: {unknown}")
    return [ALL_CHECKS[name](seed) for name in selected]
