"""Monte Carlo threshold test: does an element's rank lie at or below r?

One trial draws a fixed-size uniform sample (with replacement) from the
universe, padded with maximal dummies so the sampling math is clean, and
asks a single right group test: is any sampled element below x?  The
per-trial positive probability

    1 - ((n_eff - rank(x)) / n_eff) ** sample_size

grows with the rank of x, so after a fixed number of independent trials
the positive count c separates ranks below r(1 - delta) from ranks above
r(1 + delta).  The decision threshold is the midpoint of the two
closed-form bounds p_low and p_high; the trial count is chosen so a
Hoeffding bound caps the error probability at epsilon whenever the true
rank is outside the band r +- delta * min(r, n - r).

No trial's sample depends on any answer, so the trials are
non-adaptive and go to the oracle in batches (``test_batch``), one
row and one group test per trial.  A test draws and asks its trials in
row blocks of at most ``_BLOCK_IDS`` ids (one row where a row alone is
wider), so while rows fit a block its memory stays under about 400 KiB
whatever its trial count, and the blocks stay in cache.  The blocks
consume the generator exactly as one (trials x sample_size) draw does.

A test stops at the first block after which its answer is fixed.  With
limit = floor(p_mid * trials), positives > limit fixes "rank > r", and
positives + (rows not yet asked) <= limit fixes "rank <= r"; the blocks
after that are neither drawn nor asked.  The answer is always the one
the full test would give on the same rows, since no value of the rows
it skips could change it, so each test's Hoeffding bound holds as
stated.  And with an ideal generator the stream after a stopping time
is fresh, so the joint law of all the answers a run gives, and with it
the rank and selection guarantees, is unchanged.  A test that fits one
block asks all its rows and leaves the generator where the full test
does.  One that spans several asks and draws only up to the deciding
block, so the block size is part of the query count: changing
``_BLOCK_IDS`` changes the ledgers of multi-block tests and the draws
that follow them.

Targets above n/2 are handled by running the test under the reversed
order, where the rank of x becomes n - rank(x) + 1, and negating the
answer; the reversed target sits half a step past n - r so that integer
targets keep an exact decision boundary.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParameterError, check_integer, check_open, check_unit
from .oracle import GroupTestOracle, QueryLedger, counted, reversed_view

# The most ids one batch of a threshold test draws and asks at once, unless
# one row alone is wider.  A block's working set is about 12 bytes per id
# (8 for the drawn ids, 4 for the oracle's float32 gather), so about
# 384 KiB: it stays in cache, and malloc hands its buffers back from the
# free list instead of mapping fresh pages that fault in on every block.
# Blocks of 2**14 and 2**16 ids ran selection's screens slower.
_BLOCK_IDS = 1 << 15


@dataclass(frozen=True)
class RankTestParams:
    """Derived quantities for one threshold-test configuration."""

    n_eff: int          # universe size after dummy padding
    r: float            # target rank, may be fractional
    delta: float
    epsilon: float
    sample_size: int    # ids drawn per trial, at least 2
    trials: int         # group tests per call, at least 1
    p_low: float        # positive-rate bound when rank <= r - delta*r
    p_high: float       # positive-rate bound when rank >= r + delta*r
    p_mid: float        # decision threshold (midpoint of the two bounds)


@dataclass(frozen=True)
class RankTestOutcome:
    answer: bool        # True means "rank(x) <= r"
    positives: int      # positives among the rows the executed (possibly reversed) test asked
    params: RankTestParams
    ledger: QueryLedger


def derive_params(n: int, r: float, delta: float, epsilon: float) -> RankTestParams:
    """Compute padding, sample size, trial count and decision thresholds.

    Requires 0 < r <= n/2; callers handle larger targets via reversal.
    Fractional targets arise from selection and are allowed: the sample
    size rounds up, which only widens the separation between p_low and
    p_high.  Results are memoized per argument values and types; the
    arguments are validated on every miss.
    """
    try:
        return _derive_params(n, r, delta, epsilon)
    except TypeError:  # an unhashable argument, never valid: raise its error
        return _derive_params.__wrapped__(n, r, delta, epsilon)


@functools.lru_cache(maxsize=256, typed=True)
def _derive_params(n: int, r: float, delta: float, epsilon: float) -> RankTestParams:
    check_integer("universe size", n, 1)
    check_unit(delta=delta, epsilon=epsilon)
    check_open("target rank", r, 0, n)
    if r > n / 2:
        raise InvalidParameterError(f"target rank {r} outside (0, n/2] for n={n}")
    divisor = math.ceil(r)
    n_eff = divisor * ((n + divisor - 1) // divisor)
    try:
        sample_size = max(2, math.ceil(n_eff / r))
    except OverflowError:  # n_eff / r is infinite
        raise InvalidParameterError(f"target rank {r} is too small for n={n}: "
                                    f"a row of n_eff / r ids cannot be drawn") from None
    p_low = 1.0 - ((n_eff - (r - delta * r)) / n_eff) ** sample_size
    p_high = 1.0 - ((n_eff - (r + delta * r)) / n_eff) ** sample_size
    trials = max(1, math.ceil(8.0 * math.e**2 * math.log(1.0 / epsilon) / delta**2))
    return RankTestParams(
        n_eff=n_eff,
        r=float(r),
        delta=delta,
        epsilon=epsilon,
        sample_size=sample_size,
        trials=trials,
        p_low=p_low,
        p_high=p_high,
        p_mid=0.5 * (p_low + p_high),
    )


def _run_trials(oracle: GroupTestOracle, x: int, r: float, delta: float,
                epsilon: float, rng: np.random.Generator) -> tuple[bool, int, RankTestParams]:
    params = derive_params(oracle.size, r, delta, epsilon)
    trials, width = params.trials, params.sample_size
    # blocks of at most _BLOCK_IDS ids, or of one row each when a row
    # alone is wider
    step = max(1, _BLOCK_IDS // width)
    limit = math.floor(params.p_mid * trials)
    positives = 0
    for start in range(0, trials, step):
        rows = rng.integers(0, params.n_eff, size=(min(step, trials - start), width))
        # sampled dummy ids can never lie below the real element x, which
        # is what a dummy slot of the batch answers
        positives += int(np.count_nonzero(oracle.test_batch(x, rows, params.n_eff, False)))
        # stop once no later row can change the answer (module docstring)
        if positives > limit or positives + trials - start - len(rows) <= limit:
            break
    return positives <= limit, positives, params


def rank_at_most(oracle: GroupTestOracle, x: int, r: float, delta: float,
                 epsilon: float, rng: np.random.Generator) -> RankTestOutcome:
    """Decide whether rank(x) <= r, correct with probability 1 - epsilon
    whenever |rank(x) - r| >= delta * min(r, n - r).

    Inside that band either answer is acceptable.  Costs at most
    ``params.trials`` group tests: the test stops at the first row block
    after which no further row could change its answer.
    """
    n = oracle.size
    check_integer("element id", x, 0, n - 1)
    check_open("target rank", r, 0, n)
    counting, ledger = counted(oracle)
    start = replace(ledger)
    if r >= n / 2 + 0.5:
        # rank(x) <= r iff not (reversed rank(x) <= n - r + 1/2): the half
        # step centers the reversed target between the integer ranks on
        # either side of the decision boundary, which keeps the guarantee
        # band honest at the extremes (an integer target n - r would sit
        # exactly on a rank and bias the edge case)
        inner, positives, params = _run_trials(
            reversed_view(counting), x, n - r + 0.5, delta, epsilon, rng
        )
        answer = not inner
    else:
        # a target in (n/2, n/2 + 1/2) separates the same integer ranks
        # as n/2 itself, which the direct branch can test
        answer, positives, params = _run_trials(counting, x, min(r, n / 2),
                                                delta, epsilon, rng)
    return RankTestOutcome(answer=answer, positives=positives, params=params,
                           ledger=ledger.since(start))
