"""Approximate rank determination by binary search over the threshold test.

The search maintains an integer interval [a, b] that contains the rank up
to the usual delta band, probes the midpoint with a threshold test whose
failure budget is epsilon split evenly over the ceil(log2 n) levels, and
halves the interval accordingly.  A failed midpoint test moves the lower
bound to m + 1 (not m) so the search always terminates; the band around
m still covers m + 1.

Below rank 1/delta the band is under one rank wide, so there "rank <= m"
is asked at target m + 1/2: at target m, rank m sits inside the test's
band and mostly tests no, one step too far.  Above it that step stays in
the band, and target m keeps the rows about one id narrower than the
padding of m + 1/2 makes them.  Above n/2, ``rank_at_most`` tests m at
its mirror n - m + 1, where rank m sits at the center of the test's band
and now and then tests no.  The step up to m + 1 leaves the band where
delta * (n - m - 1) < 1, so there m + 1/2 is asked too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import check_integer, check_unit
from .oracle import CountingOracle, GroupTestOracle, QueryLedger
from .ranktest import rank_at_most


@dataclass(frozen=True)
class RankEstimate:
    rank: int
    calls: int  # threshold tests performed, at most ceil(log2 n)
    ledger: QueryLedger


def binary_rank_search(n: int, rank_is_at_most: Callable[[int], bool]) -> tuple[int, int]:
    """Pure integer search driven by a midpoint decision callback.

    Returns (rank, number of callback invocations).  Output is a
    deterministic function of the answer sequence.
    """
    a, b = 1, n
    calls = 0
    while a < b:
        m = (a + b) // 2
        if rank_is_at_most(m):
            b = m
        else:
            a = m + 1
        calls += 1
    return a, calls


def approximate_rank(oracle: GroupTestOracle, x: int, delta: float, epsilon: float,
                     rng: np.random.Generator) -> RankEstimate:
    """Estimate rank(x): with probability at least 1 - epsilon the
    estimate r has |rank(x) - r| <= delta * min(r, n - r), a band relative
    to the estimate, as the harness and ``gtorder verify`` score it.

    Uses at most ceil(log2 n) threshold tests, each budgeted
    epsilon / ceil(log2 n).
    """
    n = oracle.size
    check_integer("element id", x, 0, n - 1)
    check_unit(delta=delta, epsilon=epsilon)
    if n == 1:
        return RankEstimate(rank=1, calls=0, ledger=QueryLedger())
    counting = CountingOracle(oracle)
    levels = (n - 1).bit_length()  # ceil(log2 n) for n >= 2
    per_call_epsilon = epsilon / levels

    def decide(m: int) -> bool:
        # the half steps at either end (module docstring)
        half = delta * m < 1 if 2 * m < n else 2 * m > n and delta * (n - m - 1) < 1
        return rank_at_most(counting, x, m + 0.5 if half else m, delta, per_call_epsilon,
                            rng).answer

    rank, calls = binary_rank_search(n, decide)
    return RankEstimate(rank=rank, calls=calls, ledger=counting.ledger)
