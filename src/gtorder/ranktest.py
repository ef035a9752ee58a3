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
its decision line limit, positives > limit fixes "rank > r", and
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

``derive_params`` chooses the frame, and ``rank_at_most`` runs one
block loop in it.  A target r >= n/2 + 1/2 is tested under the reversed
order, where the rank of x becomes n - rank(x) + 1, at its mirror
n - r + 1 (at most n/2), the center of its guarantee band there, and the
answer is negated; any other target is tested directly at min(r, n/2).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, check_integer, check_open, check_unit
from .oracle import CountingOracle, GroupTestOracle, QueryLedger, reversed_view

# The most ids one batch of a threshold test draws and asks at once, unless
# one row alone is wider.  A block's working set is about 12 bytes per id
# (8 for the drawn ids, 4 for the oracle's float32 gather), so about
# 384 KiB: it stays in cache, and malloc hands its buffers back from the
# free list instead of mapping fresh pages that fault in on every block.
# Blocks of 2**14 and 2**16 ids ran selection's screens slower.
_BLOCK_IDS = 1 << 15


@dataclass(frozen=True)
class RankTestParams:
    """The threshold test ``rank_at_most`` runs for (n, r, delta, epsilon):
    its frame, and the sampling and decision line at the target t it
    executes, r or its mirror, at most n/2 (module docstring)."""

    reversed: bool      # run under the reversed order, its answer negated
    n_eff: int          # universe size after dummy padding, a multiple of ceil(t)
    sample_size: int    # ids drawn per trial, ceil(n_eff / t) >= 2
    trials: int         # group tests of a full test; a curtailed one asks fewer
    p_low: float        # positive-rate bound when rank <= t - delta*t
    p_high: float       # positive-rate bound when rank >= t + delta*t
    limit: int          # the most positives of "rank <= t": floor(midpoint * trials)


@dataclass(frozen=True)
class RankTestOutcome:
    answer: bool        # True means "rank(x) <= r"
    positives: int      # positives among the rows the executed (possibly reversed) test asked
    params: RankTestParams
    ledger: QueryLedger


def derive_params(n: int, r: float, delta: float, epsilon: float) -> RankTestParams:
    """Compute the frame, padding, sample size, trial count and decision
    line of the threshold test for any target r in (0, n).

    Fractional targets arise from selection and are allowed: the sample
    size rounds up, which only widens the separation between p_low and
    p_high.  Results are memoized per argument values and types; the
    arguments are validated on every miss.
    """
    try:
        return _derive_params(n, r, delta, epsilon)
    except TypeError:  # an unhashable argument, never valid: raise its error
        return _derive_params.__wrapped__(n, r, delta, epsilon)


def trial_count(delta: float, epsilon: float) -> int:
    """The group tests of a full threshold test at delta and epsilon in
    (0,1), ceil(8e^2 ln(1/epsilon) / delta^2): at least 1, as epsilon < 1.

    Raises InvalidParameterError naming both above 2**32, the most trials
    a config may ask (``harness.validate_config``): a finite count can
    still run practically forever.
    """
    try:
        trials = math.ceil(8.0 * math.e**2 * math.log(1.0 / epsilon) / delta**2)
    except (OverflowError, ZeroDivisionError):  # the count is infinite, or delta**2 is 0
        trials = math.inf
    if trials > 2**32:
        raise InvalidParameterError(f"delta {delta} and epsilon {epsilon} ask for more than "
                                    f"2**32 trials, 8e^2 ln(1/epsilon) / delta^2")
    return trials


@functools.lru_cache(maxsize=256, typed=True)
def _derive_params(n: int, r: float, delta: float, epsilon: float) -> RankTestParams:
    check_integer("universe size", n, 1)
    check_unit(delta=delta, epsilon=epsilon)
    check_open("target rank", r, 0, n)
    # Under the reversed order x's rank becomes n - rank(x) + 1, so
    # rank(x) <= r iff not (reversed rank(x) <= n - r), and the guarantee
    # band delta * (n - r) around r becomes one around the mirror
    # n - r + 1.  The test runs at that mirror, centered in the band as
    # the direct test is at r: a target a rank or half a rank below it
    # (n - r, n - r + 1/2) answers the band's upper edge wrong most of the
    # time where the band is about one rank wide, as the positive rate is
    # concave in the rank.  The mirror's rows, ceil(n / (n - r + 1)) ids,
    # are also no wider than theirs.  A mirror above n/2 (r below
    # n/2 + 1) is capped at n/2; for even n that centers the test on rank
    # n/2 + 1, above the band, where the bound fails (exact error 0.95 at
    # rank 3 for n = 4, r = 2.5, delta = 0.3, epsilon = 0.2).
    flip = r >= n / 2 + 0.5
    t = min(n - r + 1 if flip else r, n / 2)
    divisor = math.ceil(t)
    n_eff = divisor * ((n + divisor - 1) // divisor)
    try:
        sample_size = math.ceil(n_eff / t)  # at least 2, as t <= n/2 <= n_eff/2
    except OverflowError:  # n_eff / t is infinite, so t = r is tiny
        raise InvalidParameterError(f"target rank {r} is too small for n={n}: "
                                    f"a row of n_eff / r ids cannot be drawn") from None
    trials = trial_count(delta, epsilon)
    p_low = 1.0 - ((n_eff - (t - delta * t)) / n_eff) ** sample_size
    p_high = 1.0 - ((n_eff - (t + delta * t)) / n_eff) ** sample_size
    return RankTestParams(
        reversed=flip,
        n_eff=n_eff,
        sample_size=sample_size,
        trials=trials,
        p_low=p_low,
        p_high=p_high,
        limit=math.floor(0.5 * (p_low + p_high) * trials),
    )


def rank_at_most(oracle: GroupTestOracle, x: int, r: float, delta: float,
                 epsilon: float, rng: np.random.Generator) -> RankTestOutcome:
    """Decide whether rank(x) <= r, correct with probability 1 - epsilon
    whenever |rank(x) - r| >= delta * min(r, n - r).

    Inside that band either answer is acceptable.  Costs at most
    ``params.trials`` group tests: the test stops at the first row block
    after which no further row could change its answer.  Above n/2 the
    test's own band, delta * (n - r + 1), is wider than this one, so
    within a rank of n at delta near 1 the bound can fail: at n = 1024,
    r = n - 1, delta = 0.99 and epsilon = 0.1 the exact error at rank n is
    about 0.16.
    """
    check_integer("element id", x, 0, oracle.size - 1)
    params = derive_params(oracle.size, r, delta, epsilon)
    counting = CountingOracle(oracle)
    view = reversed_view(counting) if params.reversed else counting
    trials, width, limit = params.trials, params.sample_size, params.limit
    # blocks of at most _BLOCK_IDS ids, or of one row each when a row
    # alone is wider
    step = max(1, _BLOCK_IDS // width)
    positives = 0
    for start in range(0, trials, step):
        rows = rng.integers(0, params.n_eff, size=(min(step, trials - start), width))
        # sampled dummy ids can never lie below the real element x, which
        # is what a dummy slot of the batch answers
        positives += int(np.count_nonzero(view.test_batch(x, rows, params.n_eff, False)))
        # stop once no later row can change the answer (module docstring)
        if positives > limit or positives + trials - start - len(rows) <= limit:
            break
    return RankTestOutcome(answer=(positives <= limit) != params.reversed,
                           positives=positives, params=params, ledger=counting.ledger)
