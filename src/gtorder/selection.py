"""Approximate selection: repeated candidate sampling plus verification.

``select_params`` derives the plan that ``approximate_select`` runs.  A
target k above n/2 runs reversed, at k' = n - k + 1.  Each round draws a
candidate (``draw_candidate``: the minimum of ceil(n/k) uniform draws
for k up to (1 - e^-delta)*n/2, else one uniform element), then asks the
plan's screens in order: it accepts x iff the evidence says rank(x) <=
k + 3/4*delta*k and not rank(x) <= k - 3/4*delta*k.  Every rank is at
most n, so the plan leaves out the upper screen when its target reaches
n.  On the min-of-draws branch the lower screen is asked first: it is
the cheaper test and the likelier to reject, so it has the lower cost
per rejection; the uniform branch asks the upper screen first.  The
order moves the ledger, not the law of any outcome.  The round budget
makes the return probability at least 1/2, and the per-test failure
budget splits epsilon over every test a run may ask.  Coming back
empty-handed is a legitimate outcome, not an error.
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
    """The plan ``approximate_select`` executes for (n, k, delta, epsilon)."""

    reversed: bool        # k > n/2: run under the reversed order
    k: int                # the executed target rank: k, or n - k + 1 when reversed
    min_branch: bool      # the candidate is the minimum of ceil(n/k) draws, not one draw
    max_rounds: int       # candidates drawn at most, ceil(32 / delta^2)
    epsilon_round: float  # per-test failure budget, epsilon / (max_rounds + 1)
    # (target, tolerance, passing answer) of each screen, in the order asked
    screens: tuple[tuple[float, float, bool], ...]


@dataclass(frozen=True)
class SelectOutcome:
    found: bool
    element: Optional[int]
    rounds_used: int
    ledger: QueryLedger


def select_params(n: int, k: int, delta: float, epsilon: float) -> SelectParams:
    """The frame, candidate branch, round budget and screens of a
    selection of rank k among n.

    The upper screen asks rank(x) <= k + 3/4*delta*k at tolerance
    (delta/4) / (1 + 3/4*delta) > delta/8 and passes on yes; the lower
    asks rank(x) <= k - 3/4*delta*k at (delta/4) / (1 - 3/4*delta) >
    delta/4 and passes on no.

    A round stops at its first failing screen, so the cheapest order
    asks first the screen with the lowest cost per rejection (Simon and
    Kadane, Artificial Intelligence 6, 1975).  On the min-of-draws
    branch that is the lower screen: at n = 1000, k = 100, delta = 0.9 it
    asks at most 742 rows of 32 ids against the upper's 19,709 rows of
    7, and rejected about 22% of 3,000 drawn candidates against 17%.
    On the uniform branch neither order wins everywhere, so the upper
    screen stays first.

    The order does not change the law of any outcome.  Each screen draws
    its own rows, so given x the two answers are independent, each with
    the probability this plan fixes, and a round accepts iff both pass.
    The epsilon split already covers every test a run may ask.  So the
    return probability, the in-band probability given a return and the
    law of the rounds used are the same in either order; only the ledger
    and the generator stream at a fixed seed move.
    """
    check_integer("universe size", n, 1)
    check_integer("target rank", k, 1, n)
    check_unit(delta=delta, epsilon=epsilon)
    reversed_ = k > n / 2
    k = n - k + 1 if reversed_ else k
    # the branch draw_candidate takes at the delta approximate_select passes it
    min_branch = _min_branch(n, k, delta / 2.0)
    try:
        max_rounds = math.ceil(32.0 / delta**2)
    except (OverflowError, ZeroDivisionError):  # the budget is infinite, or delta**2 is 0
        max_rounds = math.inf
    # split the failure budget over every test plus the final acceptance
    epsilon_round = epsilon / (max_rounds + 1)
    upper = (k + 0.75 * delta * k, (delta / 4.0) / (1.0 + 0.75 * delta), True)
    # The upper screen, at the smaller tolerance, asks the most trials:
    # over 100 times max_rounds, so this bounds the rounds too, and an
    # epsilon_round that underflows to 0 asks infinitely many.
    try:
        trial_count(upper[1], epsilon_round)
    except InvalidParameterError:
        raise InvalidParameterError(f"delta {delta} and epsilon {epsilon} ask for more than "
                                    f"2**32 trials per screen") from None
    lower = (k - 0.75 * delta * k, (delta / 4.0) / (1.0 - 0.75 * delta), False)
    if upper[0] >= n:
        screens = (lower,)
    else:
        screens = (lower, upper) if min_branch else (upper, lower)
    return SelectParams(reversed=reversed_, k=k, min_branch=min_branch, max_rounds=max_rounds,
                        epsilon_round=epsilon_round, screens=screens)


def _min_branch(n: int, k: int, delta: float) -> bool:
    """Whether ``draw_candidate`` takes the minimum of ceil(n/k) draws."""
    return k <= (1.0 - math.exp(-2.0 * delta)) * n / 2.0


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
    if _min_branch(n, k, delta):
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

    Returns an element with probability at least 1/2; for k <= n/2 it is
    in the band with probability at least 1 - epsilon given a return.
    Above n/2 the reversed screens are built for the band delta*k' at
    k' = n - k + 1, not delta*(k' - 1), and at large delta that bound
    fails: at n = 1000, k = 999, delta = 0.9, epsilon = 0.1 and seed 11,
    141 of 200 returns were out of band (ROADMAP item 26).  Each round
    asks the plan's screens in order and stops at the first failure: the
    lower screen first on the min-of-draws branch, where it has the lower
    cost per rejection, and the upper first on the uniform branch; the
    order moves the ledger, not the law of any outcome.  The ledger
    holds the left and right tests ``oracle`` answered.  n must be
    ``oracle.size``: the screens rank x in the whole universe.
    """
    if n != oracle.size:
        raise InvalidParameterError(f"universe size {n} is not the oracle's size {oracle.size}")
    plan = select_params(n, k, delta, epsilon)
    counting = CountingOracle(oracle)
    work = reversed_view(counting) if plan.reversed else counting
    for round_index in range(1, plan.max_rounds + 1):
        x = draw_candidate(work, n, plan.k, delta / 2.0, rng)
        if all(rank_at_most(work, x, target, tolerance, plan.epsilon_round, rng).answer == passing
               for target, tolerance, passing in plan.screens):
            return SelectOutcome(True, x, round_index, counting.ledger)
    return SelectOutcome(False, None, plan.max_rounds, counting.ledger)
