"""Las Vegas min/max finding driven by right group tests.

The search keeps a candidate x and repeatedly asks whether any other
element lies below it.  While the answer is yes, x is replaced by an
element chosen uniformly among everything below it, so the candidate's
rank halves in expectation each round.  The returned element is always
the true minimum; only the number of queries is random.

:func:`swap` is one such replacement: it descends over a uniformly
shuffled copy of its input laid out on a power-of-two index range (the
tail positions are simply vacant).  At each of the exactly
ceil(log2 |A|) levels it asks one right test on the occupied left half
and moves into whichever half must contain an element below x.  The
element returned is the one holding the smallest shuffled position among
those below x, which is uniform over them.

A min-finding run shuffles once and walks that one order from swap to
swap.  After the first condition test answers yes, it shuffles ``rest``,
the collection without x; each round then descends over all of ``rest``
to p, the first position below x, and swaps x into that slot.  So
``rest`` stays the collection without the new x, every id at or before p
is above the new x, and every id below it lies after p.  The descent
reveals nothing of the order after p, so that part is still uniformly
shuffled given the run so far, and the first id below the new x in it is
uniform among those below: each round moves as a fresh ``swap`` would,
without a shuffle of its own.  The descent still spans all |rest| = n - 1
ids, so a run of ``iterations`` rounds costs exactly
iterations * (ceil(log2(n-1)) + 1) + 1 tests, as with a fresh shuffle.
The first round's condition test is asked alone.  After it, each round
is one ``descent_and_test`` call, which also answers the next round's
condition test, the one on ``rest`` after the swap.  The in-process
oracle answers the call from one gather, the line protocol with one
``DTR`` line in a full session, and any other oracle level by level and
then the test.  Each level and each test is one query on the ledger
either way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParameterError, check_integer
from .oracle import GroupTestOracle, QueryLedger, _id_array, counted, reversed_view


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
    arr, _ = _id_array(A, 1)
    if arr.size == 0:
        raise InvalidParameterError("swap needs a nonempty candidate set")
    arr = arr.copy()
    rng.shuffle(arr)  # draws nothing for one id
    return int(arr[oracle.right_descent(x, arr)])


def min_find_among(oracle: GroupTestOracle, elements, rng: np.random.Generator) -> MinFindOutcome:
    """Find the minimum of an explicit collection of distinct ids.

    Draws a uniform start, and after a first condition test that answers
    yes one shuffle of the other ids, whose order every round walks on
    (module docstring).  ``elements`` itself is never written.
    """
    arr, _ = _id_array(elements, 1)
    if arr.size == 0:
        raise InvalidParameterError("cannot take the minimum of an empty collection")
    arr = arr.astype(np.int64, copy=False)
    counting, ledger = counted(oracle)
    start = replace(ledger)
    idx = int(rng.integers(arr.size))
    x = int(arr[idx])
    iterations = 0
    rest = np.concatenate((arr[:idx], arr[idx + 1 :]))
    below = rest.size > 0 and counting.right_test(x, rest)
    if below:
        rng.shuffle(rest)
    while below:
        # rest[p] is the first id below x; x takes its slot
        p, below = counting.descent_and_test(x, rest, False)
        x, rest[p] = int(rest[p]), x
        iterations += 1
        if iterations > arr.size:
            # the candidate's rank strictly decreases every round, so a
            # consistent oracle can never sustain this many swaps, unless
            # an id repeats and a swap can return the candidate's twin
            values, counts = np.unique(arr, return_counts=True)
            repeated = values[counts > 1]
            if repeated.size:
                raise InvalidParameterError(
                    f"the collection repeats ids {repeated[:10].tolist()}")
            raise RuntimeError("oracle answers are inconsistent with a total order")
    return MinFindOutcome(element=x, iterations=iterations, ledger=ledger.since(start))


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

    The reversal sits above the ledger, so the ledger counts left and
    right tests as ``oracle`` sees them.
    """
    return min_find(reversed_view(counted(oracle)[0]), n, rng)
