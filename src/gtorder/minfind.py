"""Las Vegas min/max finding driven by right group tests.

The search keeps a candidate x and repeatedly asks whether any other
element lies below it.  While the answer is yes, :func:`swap` replaces x
by an element chosen uniformly among everything below it, so the
candidate's rank halves in expectation each round.  The returned element
is always the true minimum; only the number of queries is random.

``swap`` descends over a uniformly shuffled copy of its input laid out
on a power-of-two index range (the tail positions are simply vacant).
At each of the exactly ceil(log2 |A|) levels it asks one right test on
the occupied left half and moves into whichever half must contain an
element below x.  The element returned is the one holding the smallest
shuffled position among those below x, which is uniform over them.
The descent is the oracle's ``right_descent``: the in-process oracle
answers all of its levels from one gather, the line protocol with one
``DR`` line when the server has the descent op, and any other oracle
level by level.  Each level is one query on the ledger either way.
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


def _swap(oracle: GroupTestOracle, arr: np.ndarray, x: int, rng: np.random.Generator) -> int:
    """:func:`swap` over ``arr``, a nonempty 1-D id array that the caller
    owns: it is shuffled in place.  ``Generator.permutation`` of a 1-D
    array is a copy and this shuffle, so both draw the same order."""
    if arr.size == 1:
        return int(arr[0])
    rng.shuffle(arr)
    return int(arr[oracle.right_descent(x, arr)])


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
    return _swap(oracle, arr.copy(), x, rng)


def min_find_among(oracle: GroupTestOracle, elements, rng: np.random.Generator) -> MinFindOutcome:
    """Find the minimum of an explicit collection of distinct ids."""
    arr, _ = _id_array(elements, 1)
    if arr.size == 0:
        raise InvalidParameterError("cannot take the minimum of an empty collection")
    arr = arr.astype(np.int64, copy=False)
    counting, ledger = counted(oracle)
    start = replace(ledger)
    idx = int(rng.integers(arr.size))
    x = int(arr[idx])
    iterations = 0
    while arr.size > 1:
        rest = np.concatenate((arr[:idx], arr[idx + 1 :]))
        if not counting.right_test(x, rest):
            break
        # rest is this round's own array, never read again
        x = _swap(counting, rest, x, rng)
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
        idx = int((arr == x).argmax())
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
