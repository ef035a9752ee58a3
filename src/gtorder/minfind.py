"""Las Vegas min/max finding driven by right group tests.

The search keeps a candidate x and repeatedly asks whether any other
element lies below it.  While the answer is yes, x is replaced by an
element chosen uniformly among everything below it, so the candidate's
rank halves in expectation each round.  The returned element is always
the true minimum; only the number of queries is random.

:func:`swap` is one such replacement: it descends over a uniformly
shuffled copy of its input laid out on a power-of-two index range (the
tail positions are simply vacant).  At each of the exactly
ceil(log2 |A|) levels it asks one right test on the occupied left half,
one ``test`` call, and moves into whichever half must contain an element
below x.  The element returned is the one holding the smallest shuffled
position among those below x, which is uniform over them.

A min-finding run shuffles once and walks that one order.  It shuffles
``rest``, the collection without x; each round descends over all of
``rest`` to p, the first position below x, and swaps x into that slot.
Every id up to p is then above the new x, and the order after p, never
read, is still uniformly shuffled given the run, so each round moves as
a fresh ``swap`` would.  Each descent spans all n - 1 ids: a run of
``iterations`` rounds costs exactly iterations * (ceil(log2(n-1)) + 1) +
1 tests, the 1 being its first condition test.  The whole run is one
``walk(x, rest, False)`` call, first condition test included: answered
from one gather in process, with one ``WR`` line in a full session
(wherever it starts), and test by test
by any other oracle, each level and test one query either way.  When
nothing lies below the start the run puts the generator back to its
state before the shuffle, so its stream is as if it had never shuffled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, check_integer
from .oracle import (CountingOracle, GroupTestOracle, QueryLedger, _checked_descent, _descend,
                     _id_array, reversed_view)


@dataclass(frozen=True)
class MinFindOutcome:
    """Result element plus the run's cost accounting."""

    element: int
    iterations: int  # number of swap rounds performed
    ledger: QueryLedger


def swap(oracle: GroupTestOracle, A, x: int, rng: np.random.Generator) -> int:
    """Return an element of A that is <= x, uniformly among those.

    Requires some element of A to satisfy a <= x; if none does, the
    descent still completes (and still costs ceil(log2 |A|) tests) but
    the element returned is incorrect.  |A| = 1 costs no queries.  A itself
    is never written.
    """
    arr = _checked_descent(x, A, oracle.size).copy()
    rng.shuffle(arr)  # draws nothing for one id
    return int(arr[_descend(oracle, x, arr, False)])


def min_find_among(oracle: GroupTestOracle, elements, rng: np.random.Generator) -> MinFindOutcome:
    """Find the minimum of an explicit collection of distinct ids.

    Draws a uniform start and one shuffle of the other ids, whose order
    every round walks on (module docstring); if the start is the minimum
    the generator ends as it was right after the start draw.
    ``elements`` itself is never written.
    """
    arr, _ = _id_array(elements, 1)
    if arr.size == 0:
        raise InvalidParameterError("cannot take the minimum of an empty collection")
    arr = arr.astype(np.int64, copy=False)
    counting = CountingOracle(oracle)
    idx = int(rng.integers(arr.size))
    x = int(arr[idx])
    rest = np.concatenate((arr[:idx], arr[idx + 1 :]))
    ends = []
    if rest.size:
        state = rng.bit_generator.state
        rng.shuffle(rest)
        ends = counting.walk(x, rest, False)
        if ends is None:
            # on a consistent oracle only a twin of some candidate breaks a walk
            values, counts = np.unique(arr, return_counts=True)
            repeated = values[counts > 1]
            if repeated.size:
                raise InvalidParameterError(
                    f"the collection repeats ids {repeated[:10].tolist()}")
            raise RuntimeError("oracle answers are inconsistent with a total order")
        if ends:
            x = int(rest[ends[-1]])
        else:
            rng.bit_generator.state = state  # the start is the minimum: the shuffle is unread
    return MinFindOutcome(element=x, iterations=len(ends), ledger=counting.ledger)


def min_find(oracle: GroupTestOracle, n: int, rng: np.random.Generator) -> MinFindOutcome:
    """Find the element of rank 1 among ids 0..n-1.

    Correctness is unconditional; the query count is
    iterations * ceil(log2(n-1)) + iterations + 1 for n > 1, and 0 for
    n = 1.
    """
    check_integer("universe size", n, 1, oracle.size)
    return min_find_among(oracle, np.arange(n, dtype=np.int64), rng)


def max_find(oracle: GroupTestOracle, n: int, rng: np.random.Generator) -> MinFindOutcome:
    """Find the element of rank n: min-finding with every test reversed.

    The run counts before it reverses, so its ledger holds the left and
    right tests ``oracle`` answered.
    """
    counting = CountingOracle(oracle)
    outcome = min_find(reversed_view(counting), n, rng)
    return MinFindOutcome(outcome.element, outcome.iterations, counting.ledger)
