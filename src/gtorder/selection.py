"""Approximate selection: repeated candidate sampling plus verification.

Each round draws a candidate whose rank lands in the target band with
probability at least delta^2/4, then screens it with two threshold
tests: accept x iff the evidence says rank(x) <= k + 3/4*delta*k and not
rank(x) <= k - 3/4*delta*k.  The round budget makes the overall return
probability at least 1/2, and the per-test failure budget makes a
returned element a delta-approximation of the k-th order statistic with
probability at least 1 - epsilon.  Coming back empty-handed is a
legitimate outcome, not an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidParameterError, check_integer, check_unit
from .minfind import min_find_among
from .oracle import CountingOracle, GroupTestOracle, QueryLedger, reversed_view
from .ranktest import rank_at_most, trial_count


@dataclass(frozen=True)
class SelectParams:
    """What selection derives from (k, delta, epsilon): the round budget and
    the tolerances of the two screening tests."""

    delta_upper: float   # tolerance for the test at k + 3/4*delta*k, > delta/8
    delta_lower: float   # tolerance for the test at k - 3/4*delta*k, > delta/4
    epsilon_round: float  # per-test failure budget, epsilon / (max_rounds + 1)
    max_rounds: int      # candidates drawn at most, ceil(32 / delta^2)


@dataclass(frozen=True)
class SelectOutcome:
    found: bool
    element: Optional[int]
    rounds_used: int
    ledger: QueryLedger


def select_params(k: int, delta: float, epsilon: float) -> SelectParams:
    check_integer("target rank", k, 1)
    check_unit(delta=delta, epsilon=epsilon)
    try:
        max_rounds = math.ceil(32.0 / delta**2)
    except (OverflowError, ZeroDivisionError):  # the budget is infinite, or delta**2 is 0
        max_rounds = math.inf
    # split the failure budget over every test plus the final acceptance
    epsilon_round = epsilon / (max_rounds + 1)
    delta_upper = (delta / 4.0) / (1.0 + 0.75 * delta)
    # The upper screen, at the smaller tolerance, asks the most trials:
    # over 100 times max_rounds, so this bounds the rounds too, and an
    # epsilon_round that underflows to 0 asks infinitely many.
    try:
        trial_count(delta_upper, epsilon_round)
    except InvalidParameterError:
        raise InvalidParameterError(f"delta {delta} and epsilon {epsilon} ask for more than "
                                    f"2**32 trials per screen") from None
    delta_lower = (delta / 4.0) / (1.0 - 0.75 * delta)
    assert delta_upper > delta / 8.0
    assert delta_lower > delta / 4.0
    return SelectParams(
        delta_upper=delta_upper,
        delta_lower=delta_lower,
        epsilon_round=epsilon_round,
        max_rounds=max_rounds,
    )


def draw_candidate(oracle: GroupTestOracle, n: int, k: int, delta: float,
                   rng: np.random.Generator) -> int:
    """Draw one element whose rank falls in (k - delta*k, k + delta*k]
    with probability at least delta^2/4.

    For small k this takes the minimum of ceil(n/k) uniform draws from
    the dummy-padded universe; otherwise a single uniform element already
    hits the band often enough.  Dummies are never returned: a sample
    consisting solely of dummies is redrawn.
    """
    check_integer("universe size", n, 1, oracle.size)
    check_integer("target rank", k, 1, (n + 1) // 2)
    check_unit(delta=delta)
    if k <= (1.0 - math.exp(-2.0 * delta)) * n / 2.0:
        n_eff = k * ((n + k - 1) // k)
        draws = n_eff // k
        while True:
            sample = rng.integers(0, n_eff, size=draws)
            reals = np.unique(sample[sample < n])
            if reals.size:
                break
        return min_find_among(oracle, reals, rng).element
    return int(rng.integers(0, n))


def approximate_select(oracle: GroupTestOracle, n: int, k: int, delta: float,
                       epsilon: float, rng: np.random.Generator) -> SelectOutcome:
    """Find an element x with |rank(x) - k| <= delta * min(k, n - k).

    Returns an element with probability at least 1/2; conditioned on
    returning one, it satisfies the band with probability at least
    1 - epsilon.  Targets above n/2 run under the reversed order with
    k replaced by n - k + 1; the run counts before it reverses, so its
    ledger holds the left and right tests ``oracle`` answered.  n must be
    ``oracle.size``: the screens rank x in the whole universe.
    """
    if n != oracle.size:
        raise InvalidParameterError(f"universe size {n} is not the oracle's size {oracle.size}")
    check_integer("target rank", k, 1, n)
    counting = work = CountingOracle(oracle)
    if k > n / 2:
        work = reversed_view(counting)
        k = n - k + 1
    params = select_params(k, delta, epsilon)
    upper_target = k + 0.75 * delta * k
    lower_target = k - 0.75 * delta * k
    for round_index in range(1, params.max_rounds + 1):
        x = draw_candidate(work, n, k, delta / 2.0, rng)
        below_upper = rank_at_most(work, x, upper_target, params.delta_upper,
                                   params.epsilon_round, rng)
        if not below_upper.answer:
            continue
        below_lower = rank_at_most(work, x, lower_target, params.delta_lower,
                                   params.epsilon_round, rng)
        if not below_lower.answer:
            return SelectOutcome(found=True, element=x, rounds_used=round_index,
                                 ledger=counting.ledger)
    return SelectOutcome(found=False, element=None, rounds_used=params.max_rounds,
                         ledger=counting.ledger)
